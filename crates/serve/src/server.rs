//! The TCP server: thread-per-connection IO around a central
//! **coalescer**.
//!
//! ## The coalescing pipeline
//!
//! ```text
//!  conn 0 reader ─┐                                      ┌─▶ conn 0 writer
//!  conn 1 reader ─┼─▶ coalescer ──ticks──▶ executor ─────┼─▶ conn 1 writer
//!  conn N reader ─┘   (owns the map,      (batched reads │      ...
//!                      applies write       on the tick's └─▶ conn N writer
//!                      deltas in bulk)     snapshot, replies
//!                                          per conn in order)
//! ```
//!
//! * Each connection gets a **reader** thread (decodes frames, feeds
//!   the coalescer one event per socket wakeup — every frame already
//!   whole in its buffer rides along) and a **writer** thread (drains
//!   that connection's reply channel, writing each batch of complete
//!   frames with one syscall). Per-request syscalls and channel sends
//!   are exactly what the coalesced path amortizes away.
//! * The **coalescer** owns the [`ShardedMap`]. Each iteration gathers
//!   every in-flight request into one **tick** (first request by
//!   blocking `recv`, the rest by draining `try_recv` until the queue
//!   runs dry or the tick holds `MAX_TICK` = 8192 requests). The
//!   tick's writes are folded **last-wins per key** into one mixed
//!   delta and applied with one shard-parallel bulk call
//!   ([`ShardedMap::apply`]); then a globally-consistent
//!   [`ShardedMap::snapshot`] is taken (reused from the previous tick
//!   when the tick carried no writes — snapshot reuse is an `Arc`
//!   bump) and shipped with the tick to the executor, freeing the
//!   coalescer to gather the next tick while reads execute.
//! * The **executor** runs the tick's reads as three batched calls on
//!   the snapshot — a [`ShardedFrozen`], i.e. the same
//!   [`Sharded`](ist_shard::Sharded) read code the live map runs:
//!   [`batch_get`](ist_shard::Sharded::batch_get) /
//!   [`batch_rank`](ist_shard::Sharded::batch_rank) /
//!   [`batch_range_count`](ist_shard::Sharded::batch_range_count) — each
//!   of which partitions per shard by reference and drives every shard's
//!   software-pipelined descent engine, then emits all replies **in
//!   arrival order**, appended into one buffer per connection per tick.
//!
//! ### Consistency contract
//!
//! Writes **group-commit at tick granularity**: every read in a tick
//! observes the tick's entire write delta (read-your-writes within the
//! tick, even for a read that arrived earlier in the same tick), and
//! the snapshot a tick executes against is a globally-consistent cut —
//! cross-shard cuts are **per tick**, not per request. `Insert` /
//! `Remove` replies are plain ACKs ("applied"), not per-key
//! replaced/removed booleans: the bulk delta paths report only
//! aggregate counts, and surfacing them per key would re-serialize the
//! batch.
//!
//! Per connection, replies are written in request order (the single
//! executor processes ticks in channel order and each tick's items in
//! arrival order; a connection's reader is one thread, so its arrival
//! order is its request order).
//!
//! ### Malformed input
//!
//! A reader that hits a malformed frame (truncated, oversized, unknown
//! opcode, bad operands) stops reading and signals disconnect; queued
//! replies for that connection are still written as **complete
//! frames**, then the connection closes. No panic, no partial write —
//! `tests/serve_proto.rs` holds the line.

use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

use ist_shard::{ShardedFrozen, ShardedMap};

use crate::proto::{
    decode_request, encode_reply, read_frame, write_frames, Op, Reply, ReplyBody, Request,
};
use crate::value::Value;

/// Key type served over the wire.
pub type Key = u64;
/// The map type behind the server. Its values are [`Value`]s; the wire
/// carries them as `Vec<u8>`, converted when the coalescer folds a
/// tick's writes and when the executor encodes a hit.
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
    spawn_coalescing(listener, map, Arc::clone(&stop))?;
    Ok(ServerHandle { addr, stop })
}

fn spawn_named(
    name: &str,
    stack: Option<usize>,
    f: impl FnOnce() + Send + 'static,
) -> io::Result<()> {
    let mut b = thread::Builder::new().name(name.to_string());
    if let Some(s) = stack {
        b = b.stack_size(s);
    }
    b.spawn(f)?;
    Ok(())
}

/// What connection readers feed the coalescer. `Register` is sent by
/// the accept loop **before** the connection's reader thread starts, so
/// on the MPSC channel it precedes every request from that connection;
/// `Disconnect` is the reader's last word. Control events ride the same
/// channel as requests precisely so this ordering holds.
enum Event {
    Register {
        conn: u64,
        tx: Sender<Vec<u8>>,
    },
    /// One reader wakeup's worth of requests — every complete frame
    /// that was already buffered gets decoded and shipped as a single
    /// channel send, so queue traffic scales with socket readiness, not
    /// request count.
    Requests {
        conn: u64,
        reqs: Vec<Request>,
    },
    Disconnect {
        conn: u64,
    },
}

/// One tick's worth of work, in arrival order, with write operands
/// already stripped into the (applied) delta — the executor only needs
/// to ACK them.
enum TickItem {
    Register {
        conn: u64,
        tx: Sender<Vec<u8>>,
    },
    Disconnect {
        conn: u64,
    },
    Get {
        conn: u64,
        req_id: u64,
        key: Key,
    },
    Rank {
        conn: u64,
        req_id: u64,
        key: Key,
    },
    RangeCount {
        conn: u64,
        req_id: u64,
        lo: Key,
        hi: Key,
    },
    WriteAck {
        conn: u64,
        req_id: u64,
    },
}

struct Tick {
    /// Globally-consistent cut taken after the tick's writes applied.
    snap: ShardedFrozen<Key, Value>,
    items: Vec<TickItem>,
}

fn spawn_coalescing(listener: TcpListener, map: ServeMap, stop: Arc<AtomicBool>) -> io::Result<()> {
    let (ev_tx, ev_rx) = mpsc::channel::<Event>();
    let (tick_tx, tick_rx) = mpsc::channel::<Tick>();
    spawn_named("ist-serve-coalescer", None, move || {
        coalescer_loop(map, ev_rx, tick_tx)
    })?;
    spawn_named("ist-serve-executor", None, move || executor_loop(tick_rx))?;
    spawn_named("ist-serve-accept", None, move || {
        let mut conn_id = 0u64;
        for stream in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let _ = stream.set_nodelay(true);
            conn_id += 1;
            let conn = conn_id;
            let Ok(write_half) = stream.try_clone() else {
                continue;
            };
            let (reply_tx, reply_rx) = mpsc::channel::<Vec<u8>>();
            // Register first: happens-before every request this conn's
            // reader will send (see `Event`).
            if ev_tx.send(Event::Register { conn, tx: reply_tx }).is_err() {
                break;
            }
            let _ = spawn_named("ist-serve-writer", Some(IO_THREAD_STACK), move || {
                writer_loop(write_half, reply_rx)
            });
            let tx = ev_tx.clone();
            let _ = spawn_named("ist-serve-reader", Some(IO_THREAD_STACK), move || {
                reader_loop(stream, conn, &tx)
            });
        }
    })
}

/// Decode frames off one connection into coalescer events. Each
/// blocking read is followed by an opportunistic sweep of the frames
/// already sitting whole in the `BufReader` buffer, so a pipelined
/// burst costs one channel send, not one per request. Any malformed
/// frame (or transport error) ends the read side; the final
/// `Disconnect` makes the executor drop the reply sender, which lets
/// the writer drain queued complete frames, flush, and close.
fn reader_loop(stream: TcpStream, conn: u64, tx: &Sender<Event>) {
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
                        let _ = tx.send(Event::Requests { conn, reqs });
                        break 'conn;
                    }
                },
                // Oversized prefix (or a spurious boundary): flush the
                // good requests, then close.
                Ok(false) | Err(_) => {
                    let _ = tx.send(Event::Requests { conn, reqs });
                    break 'conn;
                }
            }
        }
        if tx.send(Event::Requests { conn, reqs }).is_err() {
            break;
        }
    }
    let _ = tx.send(Event::Disconnect { conn });
}

/// Drain one connection's reply channel. Replies arrive as buffers of
/// complete frames (one per tick); queued buffers are concatenated and
/// written with a single syscall. Exits when the executor drops the
/// sender (disconnect) or the peer stops reading.
fn writer_loop(mut stream: TcpStream, rx: Receiver<Vec<u8>>) {
    while let Ok(mut blob) = rx.recv() {
        while let Ok(more) = rx.try_recv() {
            blob.extend_from_slice(&more);
        }
        if write_frames(&mut stream, &blob).is_err() {
            // Peer gone; drain and drop the rest so the executor's
            // sends don't error into a panic path.
            while rx.recv().is_ok() {}
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Write);
}

/// The write side of the pipeline: owns the map, folds each tick's
/// writes last-wins into one bulk delta, applies it shard-parallel,
/// snapshots, and ships the tick to the executor.
fn coalescer_loop(mut map: ServeMap, rx: Receiver<Event>, tick_tx: Sender<Tick>) {
    let stats_on = std::env::var_os("IST_SERVE_TICK_STATS").is_some();
    let (mut ticks, mut evs, mut gather_ns, mut apply_ns, mut snap_ns) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    // Reused across write-free ticks: cloning a ShardedFrozen is Arc
    // bumps, while taking a fresh snapshot copies each shard's buffer.
    let mut cached: Option<ShardedFrozen<Key, Value>> = None;
    loop {
        let first = match rx.recv() {
            Ok(e) => e,
            Err(_) => break, // accept loop and all readers gone
        };
        let t0 = Instant::now();
        // The tick opens on its first event and closes at MAX_TICK
        // requests or when the queue runs dry.
        let weight = |e: &Event| match e {
            Event::Requests { reqs, .. } => reqs.len(),
            _ => 1,
        };
        let mut events = Vec::with_capacity(64);
        let mut gathered = weight(&first);
        events.push(first);
        while gathered < MAX_TICK {
            match rx.try_recv() {
                Ok(e) => {
                    gathered += weight(&e);
                    events.push(e);
                }
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }

        let mut items = Vec::with_capacity(gathered);
        // Last write to a key within the tick wins — `Some` pending
        // insert, `None` pending remove — so the fold holds one entry
        // per key and its iteration order cannot change what the one
        // bulk call applies.
        let mut delta: HashMap<Key, Option<Value>> = HashMap::new();
        for ev in events {
            match ev {
                Event::Register { conn, tx } => items.push(TickItem::Register { conn, tx }),
                Event::Disconnect { conn } => items.push(TickItem::Disconnect { conn }),
                Event::Requests { conn, reqs } => {
                    for Request { req_id, op } in reqs {
                        match op {
                            Op::Get { key } => items.push(TickItem::Get { conn, req_id, key }),
                            Op::Rank { key } => items.push(TickItem::Rank { conn, req_id, key }),
                            Op::RangeCount { lo, hi } => items.push(TickItem::RangeCount {
                                conn,
                                req_id,
                                lo,
                                hi,
                            }),
                            Op::Insert { key, value } => {
                                delta.insert(key, Some(Value::from(value)));
                                items.push(TickItem::WriteAck { conn, req_id });
                            }
                            Op::Remove { key } => {
                                delta.insert(key, None);
                                items.push(TickItem::WriteAck { conn, req_id });
                            }
                        }
                    }
                }
            }
        }

        let t1 = Instant::now();
        if !delta.is_empty() {
            map.apply(delta.into_iter().collect());
            cached = None;
        }
        let t2 = Instant::now();
        let snap = cached.get_or_insert_with(|| map.snapshot()).clone();
        if stats_on {
            let t3 = Instant::now();
            ticks += 1;
            evs += items.len() as u64;
            gather_ns += (t1 - t0).as_nanos() as u64;
            apply_ns += (t2 - t1).as_nanos() as u64;
            snap_ns += (t3 - t2).as_nanos() as u64;
            if ticks % 500 == 0 {
                eprintln!(
                    "[tick-stats] ticks={ticks} events={evs} avg_tick={:.1} gather_ms={} apply_ms={} snap_ms={}",
                    evs as f64 / ticks as f64,
                    gather_ns / 1_000_000,
                    apply_ns / 1_000_000,
                    snap_ns / 1_000_000
                );
            }
        }
        if tick_tx.send(Tick { snap, items }).is_err() {
            break;
        }
    }
    map.quiesce();
}

/// The read side: three batched snapshot calls per tick, then replies
/// emitted in arrival order, one buffer per connection per tick.
fn executor_loop(rx: Receiver<Tick>) {
    let mut conns: HashMap<u64, Sender<Vec<u8>>> = HashMap::new();
    while let Ok(Tick { snap, items }) = rx.recv() {
        let mut get_keys: Vec<Key> = Vec::new();
        let mut rank_keys: Vec<Key> = Vec::new();
        let mut ranges: Vec<(Key, Key)> = Vec::new();
        for item in &items {
            match item {
                TickItem::Get { key, .. } => get_keys.push(*key),
                TickItem::Rank { key, .. } => rank_keys.push(*key),
                TickItem::RangeCount { lo, hi, .. } => ranges.push((*lo, *hi)),
                _ => {}
            }
        }
        // Empty classes skip their engine call outright: a write-heavy
        // tick shouldn't pay three partition set-ups to answer nothing.
        let got = if get_keys.is_empty() {
            Vec::new()
        } else {
            snap.batch_get(&get_keys)
        };
        let ranks = if rank_keys.is_empty() {
            Vec::new()
        } else {
            snap.batch_rank(&rank_keys)
        };
        let counts = if ranges.is_empty() {
            Vec::new()
        } else {
            snap.batch_range_count(&ranges)
        };

        let (mut gi, mut ri, mut ci) = (0usize, 0usize, 0usize);
        let mut blobs: HashMap<u64, Vec<u8>> = HashMap::new();
        let reply = |blobs: &mut HashMap<u64, Vec<u8>>, conn: u64, req_id: u64, body| {
            encode_reply(&Reply { req_id, body }, blobs.entry(conn).or_default());
        };
        for item in &items {
            match item {
                TickItem::Register { conn, tx } => {
                    conns.insert(*conn, tx.clone());
                }
                TickItem::Disconnect { conn } => {
                    // Flush this tick's earlier replies to the conn
                    // before dropping its sender (the drop is what lets
                    // the writer finish and close the socket).
                    if let Some(blob) = blobs.remove(conn) {
                        if let Some(tx) = conns.get(conn) {
                            let _ = tx.send(blob);
                        }
                    }
                    conns.remove(conn);
                }
                TickItem::Get { conn, req_id, .. } => {
                    // LINT-ALLOW(serve-no-panic): `got` holds one result
                    // per Get item in this very `items` list (built a few
                    // lines up), so `gi` stays in bounds by construction.
                    let body = ReplyBody::Value(got[gi].map(|v| v.as_bytes().to_vec()));
                    gi += 1;
                    reply(&mut blobs, *conn, *req_id, body);
                }
                TickItem::Rank { conn, req_id, .. } => {
                    // LINT-ALLOW(serve-no-panic): one result per Rank
                    // item, same argument as `got` above.
                    let body = ReplyBody::Count(ranks[ri] as u64);
                    ri += 1;
                    reply(&mut blobs, *conn, *req_id, body);
                }
                TickItem::RangeCount { conn, req_id, .. } => {
                    // LINT-ALLOW(serve-no-panic): one result per
                    // RangeCount item, same argument as `got` above.
                    let body = ReplyBody::Count(counts[ci] as u64);
                    ci += 1;
                    reply(&mut blobs, *conn, *req_id, body);
                }
                TickItem::WriteAck { conn, req_id } => {
                    reply(&mut blobs, *conn, *req_id, ReplyBody::Ack);
                }
            }
        }
        for (conn, blob) in blobs {
            if let Some(tx) = conns.get(&conn) {
                let _ = tx.send(blob);
            }
        }
    }
}
