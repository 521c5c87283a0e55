//! A minimal blocking client: one request in flight, replies matched by
//! `req_id`. This type is for tests, tooling, and quickstarts.

use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};

use crate::proto::{
    decode_reply, encode_request, read_frame, write_frames, Op, ReplyBody, Request,
};

/// A blocking request/reply connection to an `ist-serve` server.
///
/// # Examples
/// ```
/// use ist_serve::{serve, Client, ServeMap, Value};
/// use ist_core::Layout;
///
/// let keys: Vec<u64> = (0..100).collect();
/// let vals: Vec<Value> = keys.iter().map(|k| Value::from(k.to_le_bytes().to_vec())).collect();
/// let map = ServeMap::build(keys, vals, Layout::Veb, 2).unwrap();
/// let handle = serve(map).unwrap();
///
/// let mut c = Client::connect(handle.addr()).unwrap();
/// assert_eq!(c.get(7).unwrap(), Some(7u64.to_le_bytes().to_vec()));
/// c.insert(200, b"x".to_vec()).unwrap();
/// assert_eq!(c.rank(201).unwrap(), 101); // 0..100 plus the new key
/// assert_eq!(c.range_count(10, 20).unwrap(), 10);
/// c.remove(200).unwrap();
/// assert_eq!(c.get(200).unwrap(), None);
/// handle.stop();
/// ```
// LINT-ALLOW(test-only-pub): the reference client of the wire protocol;
// serve_proto and the crate docs drive the server through it.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    frame: Vec<u8>,
    out: Vec<u8>,
    next_id: u64,
}

impl Client {
    /// Connect (with `TCP_NODELAY`, since the protocol is small
    /// latency-sensitive frames).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::with_capacity(64 * 1024, stream),
            writer,
            frame: Vec::new(),
            out: Vec::new(),
            next_id: 0,
        })
    }

    fn call(&mut self, op: Op) -> io::Result<ReplyBody> {
        let req_id = self.next_id;
        self.next_id += 1;
        self.out.clear();
        encode_request(&Request { req_id, op }, &mut self.out);
        write_frames(&mut self.writer, &self.out)?;
        loop {
            if !read_frame(&mut self.reader, &mut self.frame)? {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            let rep = decode_reply(&self.frame).map_err(io::Error::from)?;
            if rep.req_id == req_id {
                return Ok(rep.body);
            }
            // A reply to some earlier request this client abandoned;
            // skip (cannot happen with this strictly-blocking client,
            // but matching by id is the protocol's contract).
        }
    }

    fn unexpected(got: &ReplyBody) -> io::Error {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("reply body mismatches request: {got:?}"),
        )
    }

    /// Live value under `key`, if any.
    pub fn get(&mut self, key: u64) -> io::Result<Option<Vec<u8>>> {
        match self.call(Op::Get { key })? {
            ReplyBody::Value(v) => Ok(v),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Number of live keys strictly below `key`.
    pub fn rank(&mut self, key: u64) -> io::Result<u64> {
        match self.call(Op::Rank { key })? {
            ReplyBody::Count(c) => Ok(c),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Number of live keys in `[lo, hi)` (reversed bounds count 0).
    pub fn range_count(&mut self, lo: u64, hi: u64) -> io::Result<u64> {
        match self.call(Op::RangeCount { lo, hi })? {
            ReplyBody::Count(c) => Ok(c),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Insert or overwrite `key`. Acknowledged once applied (possibly
    /// as part of a coalesced bulk delta — group commit).
    pub fn insert(&mut self, key: u64, value: Vec<u8>) -> io::Result<()> {
        match self.call(Op::Insert { key, value })? {
            ReplyBody::Ack => Ok(()),
            other => Err(Self::unexpected(&other)),
        }
    }

    /// Delete `key`. Acknowledged once applied.
    pub fn remove(&mut self, key: u64) -> io::Result<()> {
        match self.call(Op::Remove { key })? {
            ReplyBody::Ack => Ok(()),
            other => Err(Self::unexpected(&other)),
        }
    }
}
