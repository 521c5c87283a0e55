//! The benchmark's own load generator for the serve workloads.
//!
//! It lives here, not in `crates/serve`, so that no change to the
//! server's crate can change how the server is measured. It differs
//! from `ist_serve::loadgen` in the ways that matter for a two-core
//! box: its threads sleep or block when idle and never spin, so they
//! leave the cores to the server; arrivals follow a seeded Poisson
//! schedule, one request at a time, instead of bursts that hide the
//! server's tiny-tick regime; and every reply is checked.
//!
//! Open loop: each connection has a sender that sleeps until the next
//! request is due and a receiver that blocks in `read`. Latency runs
//! from the time a request was *due*, so a stall is charged to every
//! request that was due during it, and the sender's own lateness is
//! reported. Closed loop: one thread per connection keeps a fixed
//! number of requests in flight and sends one more for every reply.
//!
//! Connection `c` only touches keys `≡ c (mod connections)`, so a
//! per-connection model of the map predicts the server's final state.

use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ist_serve::proto::{decode_reply, encode_request, read_frame, Op, Reply, ReplyBody, Request};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::span::Span;

/// The traffic mix of a serve workload.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Percent of requests that write (80 % insert, 20 % remove); reads
    /// split 60 / 25 / 15 across get / rank / range_count.
    pub write_pct: u32,
    /// Keys are uniform over `0..key_space`.
    pub key_space: u64,
    /// The server was preloaded with keys `0..preload`, value = key.
    pub preload: u64,
    /// Connections, which is also the key-partition modulus.
    pub conns: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Get,
    Rank,
    Range,
    Insert,
    Remove,
}

impl OpKind {
    fn span_name(self) -> &'static str {
        match self {
            OpKind::Get => "serve.get",
            OpKind::Rank => "serve.rank",
            OpKind::Range => "serve.range_count",
            OpKind::Insert => "serve.insert",
            OpKind::Remove => "serve.remove",
        }
    }
}

/// One generated request, before it has an id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenOp {
    pub kind: OpKind,
    pub key: u64,
}

/// The 16-byte value request `id` inserts under `key`.
pub fn written_value(key: u64, id: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(16);
    v.extend_from_slice(&key.to_le_bytes());
    v.extend_from_slice(&id.to_le_bytes());
    v
}

impl Mix {
    /// Draw the next request of connection `conn`.
    pub fn draw(&self, conn: u64, rng: &mut StdRng) -> GenOp {
        let key = self.conns * rng.gen_range(0..self.key_space / self.conns) + conn;
        let kind = if rng.gen_range(0..100u32) < self.write_pct {
            if rng.gen_range(0..5u32) == 0 {
                OpKind::Remove
            } else {
                OpKind::Insert
            }
        } else {
            match rng.gen_range(0..20u32) {
                0..=11 => OpKind::Get,
                12..=16 => OpKind::Rank,
                _ => OpKind::Range,
            }
        };
        GenOp { kind, key }
    }

    /// The wire request for `op` under request id `id`.
    pub fn request(&self, op: GenOp, id: u64) -> Request {
        let key = op.key;
        let op = match op.kind {
            OpKind::Get => Op::Get { key },
            OpKind::Rank => Op::Rank { key },
            OpKind::Range => Op::RangeCount {
                lo: key,
                hi: key + self.key_space / 64 + 1,
            },
            OpKind::Insert => Op::Insert {
                key,
                value: written_value(key, id),
            },
            OpKind::Remove => Op::Remove { key },
        };
        Request { req_id: id, op }
    }
}

/// Arrival times in nanoseconds from the start of a step: a Poisson
/// process of `rate_per_s` over `seconds`, drawn from `rng`.
pub fn poisson_schedule(rng: &mut StdRng, rate_per_s: f64, seconds: f64) -> Vec<u64> {
    let mut due = Vec::with_capacity((rate_per_s * seconds * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // Uniform in (0, 1]: 53 random bits, never zero.
        let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        t += -u.ln() / rate_per_s;
        if t >= seconds {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

/// What a `GET` reply carried, classified when it arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Observed {
    Missing,
    /// The preloaded value: the key's 8 little-endian bytes.
    Preload,
    /// A value some request of this run inserted.
    Written,
    Garbage,
}

fn classify(key: u64, value: Option<&[u8]>) -> Observed {
    match value {
        None => Observed::Missing,
        Some(v) if v == key.to_le_bytes() => Observed::Preload,
        Some(v) if v.len() == 16 && v[..8] == key.to_le_bytes() => Observed::Written,
        Some(_) => Observed::Garbage,
    }
}

/// Does `body` have the type `kind` is answered with?
fn reply_matches(kind: OpKind, body: &ReplyBody) -> bool {
    matches!(
        (kind, body),
        (OpKind::Get, ReplyBody::Value(_))
            | (OpKind::Rank | OpKind::Range, ReplyBody::Count(_))
            | (OpKind::Insert | OpKind::Remove, ReplyBody::Ack)
    )
}

/// One client connection and what it has written so far.
pub struct Conn {
    stream: TcpStream,
    /// This connection's residue class of keys.
    index: u64,
    next_id: u64,
    rng: StdRng,
    /// Last write per touched key: `Some(id)` inserted by request `id`,
    /// `None` removed.
    model: HashMap<u64, Option<u64>>,
}

/// What one connection saw during one step.
#[derive(Debug, Default)]
pub struct ConnStep {
    pub sent: u64,
    /// Unanswered, mismatched or implausible replies.
    pub failed: u64,
    /// `(receive time in ns, latency in ms)` per reply that arrived in
    /// time with the right id and type.
    pub latencies: Vec<(u64, f64)>,
    /// Sender lateness in microseconds per request (open loop).
    pub late_us: Vec<f64>,
    /// One span per [`SPAN_SAMPLE`] requests when tracing.
    pub spans: Vec<Span>,
}

/// Incremental frame splitter over a byte stream.
#[derive(Default)]
struct FrameBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameBuf {
    fn extend(&mut self, bytes: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > (1 << 20) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame's payload, if one is buffered.
    fn next(&mut self) -> Option<&[u8]> {
        let avail = &self.buf[self.pos..];
        let (prefix, rest) = avail.split_first_chunk::<4>()?;
        let len = u32::from_le_bytes(*prefix) as usize;
        let payload = rest.get(..len)?;
        self.pos += 4 + len;
        Some(payload)
    }
}

/// A blocking read that treats a timeout as "nothing yet".
fn read_some(stream: &mut TcpStream, scratch: &mut [u8]) -> io::Result<Option<usize>> {
    match stream.read(scratch) {
        Ok(0) => Err(io::Error::new(
            ErrorKind::UnexpectedEof,
            "server closed the connection",
        )),
        Ok(n) => Ok(Some(n)),
        Err(e)
            if matches!(
                e.kind(),
                ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
            ) =>
        {
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

/// When tracing, one request in this many leaves a span. At several
/// hundred thousand requests a second a span for each would cost the
/// generator, which shares two cores with the server, more than the
/// server spends on the request.
pub const SPAN_SAMPLE: u64 = 16;

/// How long a blocked `read` waits before the receiver looks at its
/// deadline again.
const READ_POLL: Duration = Duration::from_millis(50);

/// How long a `write` may block. The server's socket buffers hold far
/// more than a step has in flight, so only a server that has stopped
/// reading gets here, and a run against one has to end.
const WRITE_LIMIT: Duration = Duration::from_secs(5);

/// How long a depth-1 request waits for its reply.
const CALL_LIMIT: Duration = Duration::from_secs(5);

impl Conn {
    pub fn connect(addr: SocketAddr, index: u64, seed: u64) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_POLL))?;
        stream.set_write_timeout(Some(WRITE_LIMIT))?;
        Ok(Self {
            stream,
            index,
            next_id: 0,
            rng: StdRng::seed_from_u64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            model: HashMap::new(),
        })
    }

    fn apply_to_model(&mut self, op: GenOp, id: u64) {
        match op.kind {
            OpKind::Insert => {
                self.model.insert(op.key, Some(id));
            }
            OpKind::Remove => {
                self.model.insert(op.key, None);
            }
            _ => {}
        }
    }

    /// Check the `GET` replies of a step against the model as it stands
    /// at the end of the step: a key this connection never wrote must
    /// read exactly as preloaded; a written key must read as missing or
    /// as something this run could have stored.
    fn judge_gets(&self, mix: &Mix, gets: &[(u64, Observed)]) -> u64 {
        gets.iter()
            .filter(|&&(key, seen)| {
                let preloaded = key < mix.preload;
                let ok = if self.model.contains_key(&key) {
                    seen != Observed::Garbage && (seen != Observed::Preload || preloaded)
                } else if preloaded {
                    seen == Observed::Preload
                } else {
                    seen == Observed::Missing
                };
                !ok
            })
            .count() as u64
    }

    /// Open loop: send the requests of a seeded Poisson schedule at
    /// `rate_per_s` for `seconds`, whatever the server does, and collect
    /// replies until all have arrived or `drain` has passed after the
    /// last arrival. `epoch` is the step's start, shared by all
    /// connections.
    pub fn open_loop(
        &mut self,
        mix: &Mix,
        rate_per_s: f64,
        seconds: f64,
        drain: Duration,
        epoch: Instant,
        trace: bool,
    ) -> ConnStep {
        let due = poisson_schedule(&mut self.rng, rate_per_s, seconds);
        let ops: Vec<GenOp> = due
            .iter()
            .map(|_| mix.draw(self.index, &mut self.rng))
            .collect();
        let base = self.next_id;
        self.next_id += ops.len() as u64;
        let mut step = ConnStep {
            sent: ops.len() as u64,
            ..ConnStep::default()
        };
        let deadline = epoch + Duration::from_secs_f64(seconds) + drain;
        let mut gets = Vec::new();

        let Ok(sender_stream) = self.stream.try_clone() else {
            step.failed = step.sent;
            return step;
        };
        let receiver_stream = &mut self.stream;
        std::thread::scope(|scope| {
            let sender =
                scope.spawn(|| send_on_schedule(sender_stream, mix, &ops, &due, base, epoch));

            // This thread is the receiver.
            let mut frames = FrameBuf::default();
            let mut scratch = vec![0u8; 64 * 1024];
            let mut next = 0usize;
            'recv: while next < ops.len() {
                match read_some(receiver_stream, &mut scratch) {
                    Ok(Some(n)) => frames.extend(&scratch[..n]),
                    Ok(None) if Instant::now() > deadline => break,
                    Ok(None) => continue,
                    Err(_) => break,
                }
                let recv_ns = epoch.elapsed().as_nanos() as u64;
                while let Some(payload) = frames.next() {
                    let op = ops[next];
                    let ok = match decode_reply(payload) {
                        Ok(Reply { req_id, body }) if req_id == base + next as u64 => {
                            if let (OpKind::Get, ReplyBody::Value(v)) = (op.kind, &body) {
                                gets.push((op.key, classify(op.key, v.as_deref())));
                            }
                            reply_matches(op.kind, &body)
                        }
                        // Replies come in request order; anything else
                        // means the stream can no longer be trusted.
                        _ => break 'recv,
                    };
                    if ok {
                        let lat_ns = recv_ns.saturating_sub(due[next]);
                        step.latencies.push((recv_ns, lat_ns as f64 / 1e6));
                        if trace && (base + next as u64).is_multiple_of(SPAN_SAMPLE) {
                            step.spans.push(Span {
                                name: op.kind.span_name(),
                                start_ns: due[next],
                                end_ns: recv_ns,
                                parent: None,
                                id: base + next as u64,
                            });
                        }
                    }
                    next += 1;
                    if next == ops.len() {
                        break;
                    }
                }
            }
            // A sender that could not write leaves requests unanswered,
            // which the count below charges as failures.
            if let Ok(Ok(late)) = sender.join() {
                step.late_us = late;
            }
        });
        for (i, &op) in ops.iter().enumerate() {
            self.apply_to_model(op, base + i as u64);
        }
        step.failed = step.sent - step.latencies.len() as u64 + self.judge_gets(mix, &gets);
        step
    }

    /// Closed loop: keep `window` requests in flight for `seconds`, one
    /// new request per reply, then wait up to `drain` for the rest.
    /// Only replies received inside the `seconds` count as completed
    /// throughput; later ones still count as answered.
    pub fn closed_loop(
        &mut self,
        mix: &Mix,
        window: usize,
        seconds: f64,
        drain: Duration,
        epoch: Instant,
        trace: bool,
    ) -> ConnStep {
        let mut step = ConnStep::default();
        let end_ns = (seconds * 1e9) as u64;
        let deadline = epoch + Duration::from_secs_f64(seconds) + drain;
        let mut inflight: VecDeque<(u64, GenOp, u64)> = VecDeque::with_capacity(window);
        let mut gets = Vec::new();
        let mut out = Vec::new();
        let mut frames = FrameBuf::default();
        let mut scratch = vec![0u8; 64 * 1024];
        let mut answered_late = 0u64;
        let mut want = window;
        'run: loop {
            let now_ns = epoch.elapsed().as_nanos() as u64;
            if now_ns < end_ns && want > 0 {
                out.clear();
                for _ in 0..want {
                    let op = mix.draw(self.index, &mut self.rng);
                    let id = self.next_id;
                    self.next_id += 1;
                    encode_request(&mix.request(op, id), &mut out);
                    self.apply_to_model(op, id);
                    inflight.push_back((id, op, now_ns));
                }
                step.sent += want as u64;
                if self.stream.write_all(&out).is_err() {
                    break;
                }
            }
            want = 0;
            if inflight.is_empty() {
                break;
            }
            match read_some(&mut self.stream, &mut scratch) {
                Ok(Some(n)) => frames.extend(&scratch[..n]),
                Ok(None) if Instant::now() > deadline => break,
                Ok(None) => continue,
                Err(_) => break,
            }
            let recv_ns = epoch.elapsed().as_nanos() as u64;
            while let Some(payload) = frames.next() {
                let Some((id, op, sent_ns)) = inflight.pop_front() else {
                    break 'run; // a reply to nothing
                };
                match decode_reply(payload) {
                    Ok(Reply { req_id, body }) if req_id == id => {
                        if let (OpKind::Get, ReplyBody::Value(v)) = (op.kind, &body) {
                            gets.push((op.key, classify(op.key, v.as_deref())));
                        }
                        if !reply_matches(op.kind, &body) {
                            continue; // charged below as sent - answered
                        }
                    }
                    _ => {
                        inflight.push_front((id, op, sent_ns));
                        break 'run;
                    }
                }
                if recv_ns <= end_ns {
                    step.latencies
                        .push((recv_ns, (recv_ns - sent_ns) as f64 / 1e6));
                } else {
                    answered_late += 1;
                }
                if trace && id.is_multiple_of(SPAN_SAMPLE) {
                    step.spans.push(Span {
                        name: op.kind.span_name(),
                        start_ns: sent_ns,
                        end_ns: recv_ns,
                        parent: None,
                        id,
                    });
                }
                want += 1;
            }
        }
        step.failed =
            step.sent - step.latencies.len() as u64 - answered_late + self.judge_gets(mix, &gets);
        step
    }

    /// One request, one reply, nothing else in flight.
    fn call(&mut self, request: &Request) -> io::Result<ReplyBody> {
        let mut out = Vec::new();
        encode_request(request, &mut out);
        self.stream.write_all(&out)?;
        self.stream.set_read_timeout(Some(CALL_LIMIT))?;
        let mut frame = Vec::new();
        let got = read_frame(&mut self.stream, &mut frame);
        self.stream.set_read_timeout(Some(READ_POLL))?;
        if !got? {
            return Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed"));
        }
        let reply = decode_reply(&frame).map_err(io::Error::from)?;
        if reply.req_id != request.req_id {
            return Err(io::Error::new(ErrorKind::InvalidData, "reply id mismatch"));
        }
        Ok(reply.body)
    }

    /// Read back `samples` keys one at a time and compare each with the
    /// model: written keys first (newest state known exactly), then
    /// untouched ones. Returns `(attempted, failed)`. After a transport
    /// error (a reply that never came, a closed connection) the stream
    /// is of no more use and every remaining key counts as failed
    /// without being asked for, so a dead server costs one time-out.
    pub fn read_back(&mut self, mix: &Mix, samples: usize) -> (u64, u64) {
        let mut keys: Vec<u64> = self.model.keys().copied().collect();
        keys.sort_unstable(); // HashMap order differs between runs
        let stride = (keys.len() / (samples / 2).max(1)).max(1);
        let mut picked: Vec<u64> = keys.into_iter().step_by(stride).take(samples / 2).collect();
        while picked.len() < samples {
            picked.push(mix.conns * self.rng.gen_range(0..mix.key_space / mix.conns) + self.index);
        }
        let mut failed = 0;
        let mut broken = false;
        for &key in &picked {
            if broken {
                failed += 1;
                continue;
            }
            let expected = match self.model.get(&key) {
                Some(Some(id)) => Some(written_value(key, *id)),
                Some(None) => None,
                None if key < mix.preload => Some(key.to_le_bytes().to_vec()),
                None => None,
            };
            let id = self.next_id;
            self.next_id += 1;
            let request = Request {
                req_id: id,
                op: Op::Get { key },
            };
            match self.call(&request) {
                Ok(ReplyBody::Value(got)) if got == expected => {}
                Ok(_) => failed += 1,
                Err(_) => {
                    failed += 1;
                    broken = true;
                }
            }
        }
        (picked.len() as u64, failed)
    }

    /// How many more keys are live than were preloaded, as far as this
    /// connection's writes go.
    pub fn live_delta(&self, mix: &Mix) -> i64 {
        self.model
            .iter()
            .map(|(&key, state)| match (key < mix.preload, state) {
                (false, Some(_)) => 1,
                (true, None) => -1,
                _ => 0,
            })
            .sum()
    }

    /// `RANK(u64::MAX)`: the number of live keys, as the server counts.
    pub fn live_keys(&mut self) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let request = Request {
            req_id: id,
            op: Op::Rank { key: u64::MAX },
        };
        match self.call(&request)? {
            ReplyBody::Count(n) => Ok(n),
            other => Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("RANK answered with {other:?}"),
            )),
        }
    }
}

/// The open-loop sender: sleep until the next request is due, then
/// write every request that is due by now in one call. Returns each
/// request's lateness in microseconds.
fn send_on_schedule(
    mut stream: TcpStream,
    mix: &Mix,
    ops: &[GenOp],
    due: &[u64],
    base: u64,
    epoch: Instant,
) -> io::Result<Vec<f64>> {
    let mut late = Vec::with_capacity(ops.len());
    let mut out = Vec::new();
    let mut i = 0;
    while i < ops.len() {
        let now = epoch.elapsed().as_nanos() as u64;
        if due[i] > now {
            std::thread::sleep(Duration::from_nanos(due[i] - now));
            continue;
        }
        out.clear();
        while i < ops.len() && due[i] <= now {
            encode_request(&mix.request(ops[i], base + i as u64), &mut out);
            late.push((now - due[i]) as f64 / 1e3);
            i += 1;
        }
        stream.write_all(&out)?;
    }
    Ok(late)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_sorted_and_near_its_rate() {
        let a = poisson_schedule(&mut StdRng::seed_from_u64(7), 10_000.0, 2.0);
        let b = poisson_schedule(&mut StdRng::seed_from_u64(7), 10_000.0, 2.0);
        let c = poisson_schedule(&mut StdRng::seed_from_u64(8), 10_000.0, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 2_000_000_000);
        // 20 000 expected, standard deviation about 141.
        assert!((19_000..21_000).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn connections_draw_disjoint_keys_in_the_stated_mix() {
        let mix = Mix {
            write_pct: 10,
            key_space: 1 << 21,
            preload: 1 << 20,
            conns: 2,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let mut writes = 0;
        for _ in 0..20_000 {
            let op = mix.draw(1, &mut rng);
            assert_eq!(op.key % 2, 1);
            assert!(op.key < mix.key_space);
            writes += usize::from(matches!(op.kind, OpKind::Insert | OpKind::Remove));
        }
        assert!((1_700..2_300).contains(&writes), "{writes}");
    }

    #[test]
    fn frame_buf_splits_across_reads() {
        let mut out = Vec::new();
        for id in 0..3 {
            encode_request(
                &Request {
                    req_id: id,
                    op: Op::Get { key: id },
                },
                &mut out,
            );
        }
        let mut frames = FrameBuf::default();
        let mut seen = 0;
        for chunk in out.chunks(5) {
            frames.extend(chunk);
            while let Some(payload) = frames.next() {
                assert_eq!(payload.len(), 17);
                seen += 1;
            }
        }
        assert_eq!(seen, 3);
    }

    #[test]
    fn read_back_gives_up_on_a_server_that_never_answers() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mix = Mix {
            write_pct: 10,
            key_space: 1 << 10,
            preload: 1 << 9,
            conns: 1,
        };
        let mut conn = Conn::connect(listener.local_addr().unwrap(), 0, 1).unwrap();
        let _accepted = listener.accept().unwrap(); // held open, never read
        let start = Instant::now();
        assert_eq!(conn.read_back(&mix, 64), (64, 64));
        assert!(start.elapsed() < CALL_LIMIT * 2, "{:?}", start.elapsed());
    }

    #[test]
    fn get_replies_are_classified() {
        assert_eq!(classify(5, None), Observed::Missing);
        assert_eq!(classify(5, Some(&5u64.to_le_bytes())), Observed::Preload);
        assert_eq!(classify(5, Some(&written_value(5, 9))), Observed::Written);
        assert_eq!(classify(5, Some(&written_value(6, 9))), Observed::Garbage);
        assert_eq!(classify(5, Some(b"x")), Observed::Garbage);
    }
}
