//! Protocol and server robustness suite.
//!
//! * **Codec round-trip fuzz** — randomized requests and replies
//!   survive encode → frame → decode bit-identically.
//! * **Malformed-frame fuzz** — truncated length prefixes, oversized
//!   frames, unknown opcodes, and operand junk each produce a **clean
//!   connection close**: no panic (the server stays up and serves a
//!   fresh connection), no partial write (whatever the server did send
//!   parses as complete frames).
//! * **Kill-one-connection-mid-batch** — a connection that dies with
//!   requests in flight (half a frame on the wire) does not perturb
//!   the replies of connections sharing its ticks.
//! * **Model equivalence** — a seeded op sequence, pipelined in bursts,
//!   answers exactly as a `BTreeMap` does.
//! * **Drain before close** — a burst spanning several ticks, sent
//!   before the client shuts its write half, is answered in full
//!   before the server closes the connection.

use std::collections::BTreeMap;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use ist_core::Layout;
use ist_serve::proto::{
    decode_reply, decode_request, encode_reply, encode_request, read_frame, Op, Reply, ReplyBody,
    Request, MAX_FRAME,
};
use ist_serve::{serve, Client, ServeMap, ServerHandle, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The preloaded entries: the first `n` even keys, value = key bytes.
fn test_entries(n: u64) -> impl Iterator<Item = (u64, Vec<u8>)> {
    (0..n).map(|k| (2 * k, (2 * k).to_le_bytes().to_vec()))
}

fn test_map(n: u64, shards: usize) -> ServeMap {
    let (keys, vals) = test_entries(n).map(|(k, v)| (k, Value::from(v))).unzip();
    ServeMap::build(keys, vals, Layout::Veb, shards).expect("build")
}

fn start() -> ServerHandle {
    serve(test_map(512, 4)).expect("serve")
}

/// A raw connection for [`pipeline`]; its read timeout turns a dropped
/// reply into a failure instead of a hang.
fn connect(handle: &ServerHandle) -> TcpStream {
    let sock = TcpStream::connect(handle.addr()).unwrap();
    sock.set_nodelay(true).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    sock
}

/// Send `ops` down `sock` with a single write and return their reply
/// bodies, requiring the replies to come back in request order.
fn pipeline(sock: &TcpStream, ops: &[Op]) -> Vec<ReplyBody> {
    let mut wire = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let (req_id, op) = (i as u64, op.clone());
        encode_request(&Request { req_id, op }, &mut wire);
    }
    (&*sock).write_all(&wire).unwrap();
    // Exactly `ops.len()` replies are in flight, so the reader's buffer
    // is empty again when it drops.
    let mut reader = BufReader::new(sock);
    let mut buf = Vec::new();
    (0..ops.len() as u64)
        .map(|expect_id| {
            assert!(read_frame(&mut reader, &mut buf).unwrap(), "early close");
            let rep = decode_reply(&buf).unwrap();
            assert_eq!(rep.req_id, expect_id, "replies out of request order");
            rep.body
        })
        .collect()
}

// ----- codec round-trip fuzz -----

fn random_op(rng: &mut StdRng) -> Op {
    match rng.gen_range(0..5u32) {
        0 => Op::Get {
            key: rng.gen_range(0..u64::MAX),
        },
        1 => Op::Rank {
            key: rng.gen_range(0..u64::MAX),
        },
        2 => Op::RangeCount {
            lo: rng.gen_range(0..u64::MAX),
            hi: rng.gen_range(0..u64::MAX),
        },
        3 => {
            let len = rng.gen_range(0..300usize);
            let value = (0..len)
                .map(|i| (rng.gen_range(0..u64::MAX) ^ i as u64) as u8)
                .collect();
            Op::Insert {
                key: rng.gen_range(0..u64::MAX),
                value,
            }
        }
        _ => Op::Remove {
            key: rng.gen_range(0..u64::MAX),
        },
    }
}

#[test]
fn codec_roundtrip_fuzz() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    let mut wire = Vec::new();
    let mut reqs = Vec::new();
    let mut reps = Vec::new();
    for i in 0..500u64 {
        let req = Request {
            req_id: rng.gen_range(0..u64::MAX),
            op: random_op(&mut rng),
        };
        encode_request(&req, &mut wire);
        reqs.push(req);
        let body = match i % 4 {
            0 => ReplyBody::Value(None),
            1 => {
                let len = rng.gen_range(0..300usize);
                ReplyBody::Value(Some((0..len).map(|j| j as u8).collect()))
            }
            2 => ReplyBody::Count(rng.gen_range(0..u64::MAX)),
            _ => ReplyBody::Ack,
        };
        let rep = Reply {
            req_id: rng.gen_range(0..u64::MAX),
            body,
        };
        encode_reply(&rep, &mut wire);
        reps.push(rep);
    }
    let mut cursor = &wire[..];
    let mut buf = Vec::new();
    for (req, rep) in reqs.iter().zip(&reps) {
        assert!(read_frame(&mut cursor, &mut buf).unwrap());
        assert_eq!(&decode_request(&buf).unwrap(), req);
        assert!(read_frame(&mut cursor, &mut buf).unwrap());
        assert_eq!(&decode_reply(&buf).unwrap(), rep);
    }
    assert!(!read_frame(&mut cursor, &mut buf).unwrap());
}

#[test]
fn decode_never_panics_on_random_bytes() {
    let mut rng = StdRng::seed_from_u64(0xBAD1);
    for _ in 0..2000 {
        let len = rng.gen_range(0..64usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..u64::MAX) as u8).collect();
        let _ = decode_request(&bytes); // any Result is fine; panics are not
        let _ = decode_reply(&bytes);
    }
}

// ----- malformed input against a live server -----

/// Read until EOF (with a timeout so a wedged server fails the test
/// rather than hanging it) and assert everything received parses as
/// complete frames — the no-partial-write half of the close contract.
fn read_to_close_and_check_frames(sock: &TcpStream) -> usize {
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut all = Vec::new();
    let mut sock = sock;
    let mut chunk = [0u8; 4096];
    loop {
        match sock.read(&mut chunk) {
            Ok(0) => break, // clean close
            Ok(n) => all.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("expected clean close, got read error: {e}"),
        }
    }
    let mut cursor = &all[..];
    let mut buf = Vec::new();
    let mut frames = 0;
    loop {
        match read_frame(&mut cursor, &mut buf) {
            Ok(true) => {
                decode_reply(&buf).expect("server sent an undecodable frame");
                frames += 1;
            }
            Ok(false) => break,
            Err(e) => panic!("server sent a partial frame before closing: {e}"),
        }
    }
    frames
}

#[test]
fn malformed_frames_close_cleanly_coalescing() {
    let handle = start();

    // Case 1: truncated length prefix, then abrupt close.
    let sock = TcpStream::connect(handle.addr()).unwrap();
    (&sock).write_all(&[7u8, 0]).unwrap();
    sock.shutdown(Shutdown::Write).unwrap();
    assert_eq!(read_to_close_and_check_frames(&sock), 0);

    // Case 2: oversized frame — a prefix promising more than MAX_FRAME.
    // The server must reject on the prefix alone and close.
    let sock = TcpStream::connect(handle.addr()).unwrap();
    (&sock)
        .write_all(&((MAX_FRAME as u32) + 1).to_le_bytes())
        .unwrap();
    assert_eq!(read_to_close_and_check_frames(&sock), 0);

    // Case 3: unknown opcode in an otherwise well-formed frame.
    let sock = TcpStream::connect(handle.addr()).unwrap();
    let mut frame = Vec::new();
    frame.extend_from_slice(&17u32.to_le_bytes()); // 8 id + 1 op + 8 key
    frame.extend_from_slice(&1u64.to_le_bytes());
    frame.push(0xEE); // no such opcode
    frame.extend_from_slice(&2u64.to_le_bytes());
    (&sock).write_all(&frame).unwrap();
    assert_eq!(read_to_close_and_check_frames(&sock), 0);

    // Case 4: valid request, then operand junk. The valid request's
    // reply must arrive as a complete frame; then the close.
    let sock = TcpStream::connect(handle.addr()).unwrap();
    let mut wire = Vec::new();
    encode_request(
        &Request {
            req_id: 99,
            op: Op::Get { key: 4 },
        },
        &mut wire,
    );
    wire.extend_from_slice(&9u32.to_le_bytes()); // claims 9 payload bytes
    wire.extend_from_slice(&[0u8; 5]); // delivers 5, then close
    (&sock).write_all(&wire).unwrap();
    sock.shutdown(Shutdown::Write).unwrap();
    assert_eq!(read_to_close_and_check_frames(&sock), 1);

    // The server survived all of it: a fresh connection still works.
    let mut c = Client::connect(handle.addr()).unwrap();
    assert_eq!(c.get(4).unwrap(), Some(4u64.to_le_bytes().to_vec()));
    assert_eq!(c.rank(u64::MAX).unwrap(), 512);
    handle.stop();
}

// ----- kill one connection mid-batch -----

/// A connection that dies with half a frame on the wire, while other
/// connections have requests coalesced into the same ticks, must not
/// perturb those connections' replies.
#[test]
fn killed_connection_does_not_affect_others() {
    let handle = start();

    let mut survivor = Client::connect(handle.addr()).unwrap();
    // Interleave: victim pipelines a burst, then dies mid-frame.
    let victim = TcpStream::connect(handle.addr()).unwrap();
    let mut burst = Vec::new();
    for i in 0..100u64 {
        encode_request(
            &Request {
                req_id: i,
                op: Op::Get { key: 2 * i },
            },
            &mut burst,
        );
    }
    // End the burst with a torn frame: a prefix and half its payload.
    burst.extend_from_slice(&17u32.to_le_bytes());
    burst.extend_from_slice(&[0u8; 6]);
    (&victim).write_all(&burst).unwrap();
    victim.shutdown(Shutdown::Both).unwrap();
    drop(victim);

    // The survivor's requests — racing the victim's burst and its
    // death — must all answer exactly.
    for k in 0..200u64 {
        let expect = if k % 2 == 0 && k < 1024 {
            Some(k.to_le_bytes().to_vec())
        } else {
            None
        };
        assert_eq!(survivor.get(k).unwrap(), expect, "get({k}) after kill");
        assert_eq!(
            survivor.rank(k).unwrap(),
            k.div_ceil(2).min(512),
            "rank({k})"
        );
    }
    // Writes still apply too.
    survivor.insert(9999, b"alive".to_vec()).unwrap();
    assert_eq!(survivor.get(9999).unwrap(), Some(b"alive".to_vec()));
    handle.stop();
}

// ----- coalesced server == BTreeMap model -----

/// Apply `burst`'s writes to `model`, pipeline the burst, and require
/// every reply to be what the model answers **after** those writes.
///
/// A burst is writes, then reads: each read has all of the burst's
/// writes ahead of it on the wire and none in flight behind it, so
/// under tick-granular group commit its answer is the same wherever
/// the server cuts its ticks.
fn check_burst(sock: &TcpStream, model: &mut BTreeMap<u64, Vec<u8>>, burst: &[Op]) {
    let expect = model_replies(model, burst);
    assert_eq!(pipeline(sock, burst), expect, "burst {burst:?}");
}

/// Apply `burst`'s writes to `model` and return the replies the model
/// gives the whole burst **after** those writes.
fn model_replies(model: &mut BTreeMap<u64, Vec<u8>>, burst: &[Op]) -> Vec<ReplyBody> {
    for op in burst {
        match op {
            Op::Insert { key, value } => drop(model.insert(*key, value.clone())),
            Op::Remove { key } => drop(model.remove(key)),
            _ => {}
        }
    }
    let count = |n: usize| ReplyBody::Count(n as u64);
    burst
        .iter()
        .map(|op| match op {
            Op::Get { key } => ReplyBody::Value(model.get(key).cloned()),
            Op::Rank { key } => count(model.range(..key).count()),
            // Half-open; `BTreeMap::range` panics on reversed bounds,
            // the server counts them as empty.
            Op::RangeCount { lo, hi } if lo < hi => count(model.range(lo..hi).count()),
            Op::RangeCount { .. } => count(0),
            Op::Insert { .. } | Op::Remove { .. } => ReplyBody::Ack,
        })
        .collect()
}

fn is_write(op: &Op) -> bool {
    matches!(op, Op::Insert { .. } | Op::Remove { .. })
}

/// A seeded 600-op sequence, cut into writes-then-reads bursts, must
/// answer exactly as a `BTreeMap` holding the same data — at every
/// read, and key by key at the end. A write the coalescer dropped,
/// applied behind its own tick's reads, or folded first-wins fails it.
/// Insert values run 0, 8, 22, 23 and 300 bytes: both sides of the
/// served value's inline limit.
#[test]
fn coalesced_answers_match_btreemap_model() {
    let handle = start();
    let sock = connect(&handle);
    let mut model: BTreeMap<u64, Vec<u8>> = test_entries(512).collect();

    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let mut burst: Vec<Op> = Vec::new();
    for _ in 0..600 {
        let key = rng.gen_range(0..1500u64);
        let op = match rng.gen_range(0..6u32) {
            0 => {
                let len = [0, 8, 22, 23, 300][rng.gen_range(0..5usize)];
                let value = (0..len).map(|i| (key as usize ^ i) as u8).collect();
                Op::Insert { key, value }
            }
            1 => Op::Remove { key },
            2 | 3 => Op::Get { key },
            4 => Op::Rank { key },
            _ => Op::RangeCount {
                lo: key,
                hi: rng.gen_range(0..2000u64),
            },
        };
        if is_write(&op) && burst.last().is_some_and(|last| !is_write(last)) {
            check_burst(&sock, &mut model, &burst);
            burst.clear();
        }
        burst.push(op);
    }
    check_burst(&sock, &mut model, &burst);

    // The seeded bursts almost never write one key twice, so pin the
    // last-wins fold explicitly: both orders, in one burst.
    let (a, b) = (b"first".to_vec(), b"last".to_vec());
    let same_key = [
        Op::Insert { key: 7, value: a },
        Op::Remove { key: 7 },
        Op::Insert { key: 7, value: b },
        Op::Insert {
            key: 8,
            value: Vec::new(),
        },
        Op::Remove { key: 8 },
        Op::Get { key: 7 },
        Op::Get { key: 8 },
    ];
    check_burst(&sock, &mut model, &same_key);

    // Every key the sequence could have touched, not only the ones
    // it happened to read back.
    let sweep: Vec<Op> = (0..1500).map(|key| Op::Get { key }).collect();
    check_burst(&sock, &mut model, &sweep);
    handle.stop();
}

/// Pipelined writes then reads on one connection: replies come back in
/// request order, and a read queued behind a write in the same burst
/// observes it (read-your-writes at tick granularity).
#[test]
fn pipelined_burst_preserves_order_and_sees_writes() {
    let handle = start();
    let sock = connect(&handle);

    let value = |i: u64| vec![i as u8; 8];
    let mut burst: Vec<Op> = (0..50u64)
        .map(|i| Op::Insert {
            key: 100_000 + i,
            value: value(i),
        })
        .collect();
    burst.extend((0..50u64).map(|i| Op::Get { key: 100_000 + i }));

    let mut expect = vec![ReplyBody::Ack; 50];
    expect.extend((0..50u64).map(|i| ReplyBody::Value(Some(value(i)))));
    assert_eq!(
        pipeline(&sock, &burst),
        expect,
        "a read did not observe its burst's write"
    );
    handle.stop();
}

/// A client that pipelines a burst longer than three ticks and then
/// shuts its write half gets every reply, in request order and equal to
/// the model's, before the server closes: the reader stops at the
/// client's EOF while most of the burst is still queued for the tick
/// thread, and the connection must stay open until that queue is
/// answered.
#[test]
fn replies_drain_before_close_across_ticks() {
    const TICK: usize = 8192; // the server's per-tick request cap
    let handle = start();
    let sock = connect(&handle);
    let mut model: BTreeMap<u64, Vec<u8>> = test_entries(512).collect();

    // Writes, then reads: every read has all of the writes ahead of it,
    // so its answer does not depend on where the server cuts ticks.
    let n = 3 * TICK + 5;
    let mut rng = StdRng::seed_from_u64(0xD2A1);
    let burst: Vec<Op> = (0..n)
        .map(|i| {
            let key = rng.gen_range(0..1500u64);
            match (i < n / 3, rng.gen_range(0..3u32)) {
                (true, 0) => Op::Remove { key },
                (true, _) => Op::Insert {
                    key,
                    value: vec![i as u8; i % 40],
                },
                (false, 0) => Op::Get { key },
                (false, 1) => Op::Rank { key },
                (false, _) => Op::RangeCount {
                    lo: key,
                    hi: key + rng.gen_range(0..500u64),
                },
            }
        })
        .collect();
    let expect = model_replies(&mut model, &burst);

    let mut wire = Vec::new();
    for (i, op) in burst.iter().enumerate() {
        let (req_id, op) = (i as u64, op.clone());
        encode_request(&Request { req_id, op }, &mut wire);
    }
    (&sock).write_all(&wire).unwrap();
    sock.shutdown(Shutdown::Write).unwrap();

    let mut reader = BufReader::new(&sock);
    let mut buf = Vec::new();
    let mut got = Vec::new();
    while read_frame(&mut reader, &mut buf).expect("partial frame before close") {
        let rep = decode_reply(&buf).unwrap();
        assert_eq!(rep.req_id, got.len() as u64, "replies out of request order");
        got.push(rep.body);
    }
    assert_eq!(got.len(), n, "connection closed before every reply");
    assert!(got == expect, "replies differ from the model");
    handle.stop();
}
