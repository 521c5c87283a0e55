//! The TCP server: thread-per-connection IO around one **tick
//! thread** that owns the map.
//!
//! ## The tick pipeline
//!
//! ```text
//!  conn 0 reader ─┐                                 ┌─▶ conn 0 writer
//!  conn 1 reader ─┼─▶ tick thread ──────────────────┼─▶ conn 1 writer
//!  conn N reader ─┘   (owns the map: applies each   │      ...
//!                      tick's writes in bulk, then  └─▶ conn N writer
//!                      answers its reads batched,
//!                      replies per conn in order)
//! ```
//!
//! * Each connection gets a **reader** thread (decodes frames, feeds
//!   the tick thread one batch per socket wakeup — every frame already
//!   whole in its buffer rides along, with a clone of the connection's
//!   reply sender) and a **writer** thread (drains that connection's
//!   reply channel, writing each batch of complete frames with one
//!   syscall). Per-request syscalls and channel sends are exactly what
//!   the coalesced path amortizes away.
//! * The **tick thread** owns the [`ShardedMap`]. Each iteration
//!   gathers every in-flight request into one **tick** (first batch by
//!   blocking `recv`, the rest by draining `try_recv` until the queue
//!   runs dry or the tick holds `MAX_TICK` = 8192 requests). The
//!   tick's writes go, in arrival order, into one mixed delta, applied
//!   with one shard-parallel bulk call ([`ShardedMap::apply`]). Its
//!   reads then run as three batched calls on the map just written —
//!   [`batch_get`](ist_shard::Sharded::batch_get) /
//!   [`batch_rank`](ist_shard::Sharded::batch_rank) /
//!   [`batch_range_count`](ist_shard::Sharded::batch_range_count) — each
//!   of which partitions per shard by reference and drives every shard's
//!   software-pipelined descent engine. Replies are emitted **in
//!   arrival order**, appended into one buffer per connection per tick.
//!
//! ### Consistency contract
//!
//! Writes **group-commit at tick granularity**: every read in a tick
//! observes the tick's entire write delta (read-your-writes within the
//! tick, even for a read that arrived earlier in the same tick) and
//! nothing of a later tick, because the reads run after the apply on
//! the one thread that owns the map. Within a tick the **last write to
//! a key wins**, whatever came before it: the delta carries every
//! write in arrival order, and `apply` keeps the last entry per key
//! ([`ist_dynamic::sort_dedup_last_wins`], the one definition of that
//! rule behind every write) before it logs, so on a persistent map a
//! tick that rewrites a hot key logs it once. Cross-shard cuts are
//! **per tick**, not per request. `Insert` / `Remove` replies are plain
//! ACKs ("applied"), not per-key replaced/removed booleans: the bulk
//! delta path reports only an aggregate count, and surfacing it per key
//! would re-serialize the batch.
//!
//! Per connection, replies are written in request order (one tick
//! thread processes batches in channel order and each tick's requests
//! in arrival order; a connection's reader is one thread, so its
//! arrival order is its request order).
//!
//! ### Malformed input
//!
//! A reader that hits a malformed frame (truncated, oversized, unknown
//! opcode, bad operands) stops reading and drops its reply sender; the
//! writer still writes the replies of every batch the reader sent as
//! **complete frames**, and closes once the last of those batches has
//! dropped its sender clone. No panic, no partial write —
//! `tests/serve_proto.rs` holds the line.

use std::collections::HashMap;
use std::io::{self, BufReader};
use std::mem;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc};
use std::thread;

use ist_shard::ShardedMap;

use crate::proto::{
    decode_request, encode_reply, read_frame, write_frames, Op, Reply, ReplyBody, Request,
};
use crate::value::Value;

/// Key type served over the wire.
pub type Key = u64;
/// The map type behind the server. Its values are [`Value`]s; the wire
/// carries them as `Vec<u8>`, converted when a tick folds its writes
/// and when it encodes a hit.
pub type ServeMap = ShardedMap<Key, Value>;

/// IO threads are shallow (frame buffers live on the heap); small
/// stacks keep a thousand connections to a few hundred MB of reserve.
const IO_THREAD_STACK: usize = 128 * 1024;

/// Upper bound on requests gathered into one tick. Bounds per-tick
/// memory and reply latency under overload; a tick closes early
/// whenever the queue runs dry.
const MAX_TICK: usize = 8192;

/// A running server: its bound address plus a stop switch. Dropping the
/// handle does **not** stop the server (threads are detached); call
/// [`ServerHandle::stop`].
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The address the server accepts on (use with
    /// [`crate::Client::connect`]).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the accept loop to exit. Existing connections drain
    /// naturally (their threads exit on client close); no new ones are
    /// accepted.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

/// Serve `map` on an OS-assigned localhost port. See [`serve_on`].
pub fn serve(map: ServeMap) -> io::Result<ServerHandle> {
    serve_on(TcpListener::bind(("127.0.0.1", 0))?, map)
}

/// Serve `map` on an already-bound listener. Returns immediately; all
/// serving happens on detached background threads.
pub fn serve_on(listener: TcpListener, map: ServeMap) -> io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    spawn_server(listener, map, Arc::clone(&stop))?;
    Ok(ServerHandle { addr, stop })
}

fn spawn_named(
    name: &str,
    stack: Option<usize>,
    f: impl FnOnce() + Send + 'static,
) -> io::Result<()> {
    // LINT-ALLOW(no-spawn-outside-parallel): these threads block on
    // socket IO and channel receives; they must neither come from nor be
    // bounded by the CPU pool or `IST_PARALLEL`.
    let mut b = thread::Builder::new().name(name.to_string());
    if let Some(s) = stack {
        b = b.stack_size(s);
    }
    b.spawn(f)?;
    Ok(())
}

/// One reader wakeup's worth of requests — every complete frame that
/// was already buffered gets decoded and shipped as a single channel
/// send, so queue traffic scales with socket readiness, not request
/// count. `reply` is a clone of the connection's reply sender: the
/// writer closes the socket once the reader and every batch still in a
/// tick have dropped theirs, which is after the last reply.
struct Batch {
    conn: u64,
    reply: Sender<Vec<u8>>,
    reqs: Vec<Request>,
}

fn spawn_server(listener: TcpListener, map: ServeMap, stop: Arc<AtomicBool>) -> io::Result<()> {
    let (batch_tx, batch_rx) = mpsc::channel::<Batch>();
    spawn_named("ist-serve-tick", None, move || tick_loop(map, batch_rx))?;
    spawn_named("ist-serve-accept", None, move || {
        let mut conn = 0u64;
        for stream in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let _ = stream.set_nodelay(true);
            conn += 1;
            let Ok(write_half) = stream.try_clone() else {
                continue;
            };
            let (reply_tx, reply_rx) = mpsc::channel::<Vec<u8>>();
            let _ = spawn_named("ist-serve-writer", Some(IO_THREAD_STACK), move || {
                writer_loop(write_half, reply_rx)
            });
            let tx = batch_tx.clone();
            let _ = spawn_named("ist-serve-reader", Some(IO_THREAD_STACK), move || {
                reader_loop(stream, conn, reply_tx, &tx)
            });
        }
    })
}

/// Decode frames off one connection into batches. Each blocking read is
/// followed by an opportunistic sweep of the frames already sitting
/// whole in the `BufReader` buffer, so a pipelined burst costs one
/// channel send, not one per request. Any malformed frame (or transport
/// error) ends the read side and drops `reply`; the writer drains the
/// replies of the batches already sent, flushes, and closes.
fn reader_loop(stream: TcpStream, conn: u64, reply: Sender<Vec<u8>>, tx: &Sender<Batch>) {
    let send = |reqs| {
        let reply = reply.clone();
        tx.send(Batch { conn, reply, reqs }).is_ok()
    };
    let mut r = BufReader::with_capacity(64 * 1024, stream);
    let mut buf = Vec::new();
    'conn: loop {
        // Blocking: the batch's first frame.
        let mut reqs = match read_frame(&mut r, &mut buf) {
            Ok(true) => match decode_request(&buf) {
                Ok(req) => vec![req],
                Err(_) => break, // malformed payload: close cleanly
            },
            Ok(false) => break, // client closed at a frame boundary
            Err(_) => break,    // truncated / oversized / transport error
        };
        // Non-blocking: drain every frame the buffer already holds
        // whole (checking the length prefix first guarantees
        // `read_frame` is satisfied from the buffer without a syscall).
        loop {
            let held = r.buffer();
            let Some((prefix, _)) = held.split_first_chunk::<4>() else {
                break;
            };
            let len = u32::from_le_bytes(*prefix) as usize;
            if len <= crate::proto::MAX_FRAME && held.len() < 4 + len {
                break; // partial frame: send what we have, then block
            }
            match read_frame(&mut r, &mut buf) {
                Ok(true) => match decode_request(&buf) {
                    Ok(req) => reqs.push(req),
                    Err(_) => {
                        send(reqs);
                        break 'conn;
                    }
                },
                // Oversized prefix (or a spurious boundary): flush the
                // good requests, then close.
                Ok(false) | Err(_) => {
                    send(reqs);
                    break 'conn;
                }
            }
        }
        if !send(reqs) {
            break;
        }
    }
}

/// Drain one connection's reply channel. Replies arrive as buffers of
/// complete frames (one per tick); queued buffers are concatenated and
/// written with a single syscall. Exits when every sender is gone (the
/// reader's and those of its batches still in a tick) or the peer stops
/// reading.
fn writer_loop(mut stream: TcpStream, rx: Receiver<Vec<u8>>) {
    while let Ok(mut blob) = rx.recv() {
        while let Ok(more) = rx.try_recv() {
            blob.extend_from_slice(&more);
        }
        if write_frames(&mut stream, &blob).is_err() {
            // Peer gone; drain and drop the rest so the tick thread's
            // sends don't error into a panic path.
            while rx.recv().is_ok() {}
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Write);
}

/// The serving loop: owns the map; per tick, applies the writes as one
/// bulk delta (last write per key wins) shard-parallel, answers the reads
/// with three batched calls on the map just written, and sends each
/// connection its replies in arrival order.
fn tick_loop(mut map: ServeMap, rx: Receiver<Batch>) {
    // Ends when the accept loop and every reader are gone.
    while let Ok(first) = rx.recv() {
        // The tick opens on its first batch and closes at MAX_TICK
        // requests or when the queue runs dry.
        let mut gathered = first.reqs.len();
        let mut batches = vec![first];
        while gathered < MAX_TICK {
            let Ok(b) = rx.try_recv() else { break };
            gathered += b.reqs.len();
            batches.push(b);
        }

        // The tick's writes in arrival order — `Some` insert, `None`
        // remove; `apply` keeps the last write to each key.
        let mut delta: Vec<(Key, Option<Value>)> = Vec::new();
        let mut get_keys: Vec<Key> = Vec::new();
        let mut rank_keys: Vec<Key> = Vec::new();
        let mut ranges: Vec<(Key, Key)> = Vec::new();
        for Request { op, .. } in batches.iter_mut().flat_map(|b| &mut b.reqs) {
            match op {
                Op::Get { key } => get_keys.push(*key),
                Op::Rank { key } => rank_keys.push(*key),
                Op::RangeCount { lo, hi } => ranges.push((*lo, *hi)),
                Op::Insert { key, value } => {
                    delta.push((*key, Some(Value::from(mem::take(value)))));
                }
                Op::Remove { key } => delta.push((*key, None)),
            }
        }

        if !delta.is_empty() {
            map.apply(delta);
        }

        // Empty classes skip their engine call outright: a write-heavy
        // tick shouldn't pay three partition set-ups to answer nothing.
        let got = if get_keys.is_empty() {
            Vec::new()
        } else {
            map.batch_get(&get_keys)
        };
        let ranks = if rank_keys.is_empty() {
            Vec::new()
        } else {
            map.batch_rank(&rank_keys)
        };
        let counts = if ranges.is_empty() {
            Vec::new()
        } else {
            map.batch_range_count(&ranges)
        };

        let (mut gi, mut ri, mut ci) = (0usize, 0usize, 0usize);
        let mut blobs: HashMap<u64, (Vec<u8>, &Sender<Vec<u8>>)> = HashMap::new();
        for b in &batches {
            let blob = &mut blobs.entry(b.conn).or_insert((Vec::new(), &b.reply)).0;
            for &Request { req_id, ref op } in &b.reqs {
                let body = match op {
                    Op::Get { .. } => {
                        // LINT-ALLOW(serve-no-panic): `got` holds one
                        // result per Get of this very tick (collected
                        // above in the same order), so `gi` stays in
                        // bounds by construction.
                        let hit = got[gi].map(|v| v.as_bytes().to_vec());
                        gi += 1;
                        ReplyBody::Value(hit)
                    }
                    Op::Rank { .. } => {
                        // LINT-ALLOW(serve-no-panic): one result per
                        // Rank, same argument as `got` above.
                        let rank = ranks[ri];
                        ri += 1;
                        ReplyBody::Count(rank as u64)
                    }
                    Op::RangeCount { .. } => {
                        // LINT-ALLOW(serve-no-panic): one result per
                        // RangeCount, same argument as `got` above.
                        let count = counts[ci];
                        ci += 1;
                        ReplyBody::Count(count as u64)
                    }
                    Op::Insert { .. } | Op::Remove { .. } => ReplyBody::Ack,
                };
                encode_reply(&Reply { req_id, body }, blob);
            }
        }
        for (blob, reply) in blobs.into_values() {
            let _ = reply.send(blob);
        }
    }
    map.quiesce();
}
