//! `serve_read_mostly` and `serve_ingest_heavy`: the TCP front-end.
//!
//! The server is a child process, `serve --addr 127.0.0.1:0 --shards 2
//! --preload 1048576` with every other flag at its default, memory
//! only. Two connections from the benchmark's own generator
//! ([`crate::gen`]) drive it through up to three steps on one fresh
//! server:
//!
//! * `lo`: open loop, Poisson arrivals at 5 000 requests/s in total —
//!   what a lightly loaded user sees, against a limit of p99 ≤ 20 ms;
//! * `mid` (traced runs only): open loop at 40 000 requests/s, evenly
//!   spread arrivals that put the server in its tiny-tick regime;
//! * `sat`: closed loop, 2 clients × 1024 requests in flight — the
//!   server's capacity; its rate and latency are the workload's
//!   end-to-end throughput and latency.
//!
//! The two workloads differ only in the share of writes (10 % and
//! 90 %): the same `serve` plumbing, used for snapshot batch descents
//! in one and for bulk deltas, seals and compaction in the other.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use implicit_search_trees::{Layout, ShardedMap};
use ist_serve::proto::{
    decode_reply, decode_request, encode_reply, encode_request, Op, Reply, ReplyBody,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{finish_trace, repeat_setup, Ctx};
use crate::gen::{written_value, Conn, ConnStep, GenOp, Mix, OpKind};
use crate::procfs::{self, ProcSample};
use crate::report::Outcome;
use crate::span::Tracer;
use crate::stats::{median, percentile, percentiles};

const CONNS: u64 = 2;
const SHARDS: usize = 2;
/// A sender later than this at its 99th percentile voids an open-loop
/// step, which is then repeated once.
const MAX_LATE_P99_US: f64 = 2000.0;
/// The latency limit of the `lo` step; a failed request misses it.
const LATENCY_LIMIT_MS: f64 = 20.0;

struct Sizes {
    preload: u64,
    key_space: u64,
    window: usize,
    lo_rate: f64,
    mid_rate: f64,
    read_back: usize,
    floor_ticks: usize,
    proto_ops: usize,
}

/// How long a server may take from its start to `listening on`.
const START_LIMIT: Duration = Duration::from_secs(60);

/// The address in the server's `listening on` line; blocks until that
/// line or the end of the server's output.
fn listening_addr(stdout: &mut BufReader<ChildStdout>) -> Result<SocketAddr, String> {
    let mut line = String::new();
    loop {
        line.clear();
        if !stdout.read_line(&mut line).is_ok_and(|n| n > 0) {
            return Err("the server exited or hung before `listening on`".into());
        }
        if let Some(rest) = line.strip_prefix("listening on ") {
            let addr = rest.split_whitespace().next().unwrap_or("");
            return addr
                .parse()
                .map_err(|e| format!("bad server address {addr:?}: {e}"));
        }
    }
}

/// The server process; killed and reaped when dropped.
struct Server {
    child: Child,
    addr: SocketAddr,
    /// Kept open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    fn start(binary: &Path, preload: u64) -> Result<Self, String> {
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0", "--shards", &SHARDS.to_string()])
            .args(["--preload", &preload.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // A reader blocks on the server's output while this thread
        // watches the clock: killing a server that is late ends its
        // output, and with it the reader.
        let addr = std::thread::scope(|scope| {
            let (done_tx, done) = mpsc::channel();
            let stdout = &mut stdout;
            let reader = scope.spawn(move || {
                let addr = listening_addr(stdout);
                let _ = done_tx.send(());
                addr
            });
            if done.recv_timeout(START_LIMIT).is_err() {
                let _ = child.kill();
            }
            reader.join().expect("the reader thread panicked")
        });
        match addr {
            Ok(addr) => Ok(Self {
                child,
                addr,
                _stdout: stdout,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[derive(Clone, Copy)]
enum Load {
    /// Poisson arrivals at this many requests per second in total.
    Open(f64),
    /// This many requests in flight per connection.
    Closed(usize),
}

/// One step over all connections.
struct Step {
    seconds: f64,
    sent: u64,
    failed: u64,
    /// Latencies in milliseconds, ordered by arrival of the reply.
    latencies_ms: Vec<f64>,
    /// Replies received inside the step's `seconds`.
    in_window: u64,
    late_us: Vec<f64>,
    /// What the server process used during the step.
    user_s: f64,
    sys_s: f64,
    ctx_switches: u64,
}

impl Step {
    fn achieved_kops_s(&self) -> f64 {
        self.in_window as f64 / self.seconds / 1e3
    }

    fn late_p99_us(&self) -> f64 {
        percentile(&self.late_us, 0.99)
    }

    /// This step followed by `next`, as one step.
    fn then(mut self, next: Step) -> Step {
        self.seconds += next.seconds;
        self.sent += next.sent;
        self.failed += next.failed;
        self.latencies_ms.extend(next.latencies_ms);
        self.in_window += next.in_window;
        self.late_us.extend(next.late_us);
        self.user_s += next.user_s;
        self.sys_s += next.sys_s;
        self.ctx_switches += next.ctx_switches;
        self
    }

    /// Per-layer metrics of this step under `serve.{name}.*`.
    fn report(&self, name: &str, outcome: &mut Outcome) {
        let completed = self.latencies_ms.len().max(1) as f64;
        let (user, sys, switches) = (self.user_s, self.sys_s, self.ctx_switches);
        let m = |metric: &str| format!("serve.{name}.{metric}");
        outcome.set(m("achieved_kops_s"), self.achieved_kops_s());
        let tails = percentiles(&self.latencies_ms, &[0.5, 0.99, 0.999]);
        outcome.set(m("p50_ms"), tails[0]);
        outcome.set(m("p99_ms"), tails[1]);
        outcome.set(m("p999_ms"), tails[2]);
        outcome.set(m("cpu_us_per_req"), (user + sys) * 1e6 / completed);
        outcome.set(
            m("sys_share"),
            if user + sys > 0.0 {
                sys / (user + sys)
            } else {
                0.0
            },
        );
        outcome.set(m("ctxsw_per_req"), switches as f64 / completed);
        outcome.note(format!(
            "{name}: sent {} answered {} failed {} in {:.2} s",
            self.sent,
            self.latencies_ms.len(),
            self.failed,
            self.seconds
        ));
    }
}

/// The generator's connections and the server process they drive.
struct Clients {
    conns: Vec<Conn>,
    mix: Mix,
    server_pid: u32,
}

impl Clients {
    /// Run one step on every connection at once.
    fn step(
        &mut self,
        load: Load,
        seconds: f64,
        tracer: &mut Tracer,
        span_name: &'static str,
    ) -> Step {
        let mix = &self.mix;
        let trace = tracer.enabled();
        let cpu: ProcSample = procfs::sample(self.server_pid).unwrap_or_default();
        let drain = Duration::from_secs_f64(seconds.max(0.5) * 2.0);
        let span = tracer.begin(span_name, None, 0);
        let epoch = Instant::now();
        let offset_ns = epoch.duration_since(tracer.epoch()).as_nanos() as u64;
        let per_conn: Vec<ConnStep> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| {
                    scope.spawn(move || match load {
                        Load::Open(rate) => {
                            conn.open_loop(mix, rate / CONNS as f64, seconds, drain, epoch, trace)
                        }
                        Load::Closed(window) => {
                            conn.closed_loop(mix, window, seconds, drain, epoch, trace)
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a generator thread panicked"))
                .collect()
        });
        tracer.end(span);
        let cpu_after = procfs::sample(self.server_pid).unwrap_or_default();

        let mut step = Step {
            seconds,
            sent: 0,
            failed: 0,
            latencies_ms: Vec::new(),
            in_window: 0,
            late_us: Vec::new(),
            user_s: cpu_after.user_s - cpu.user_s,
            sys_s: cpu_after.sys_s - cpu.sys_s,
            ctx_switches: cpu_after.ctx_switches.saturating_sub(cpu.ctx_switches),
        };
        let mut arrivals: Vec<(u64, f64)> = Vec::new();
        for conn_step in per_conn {
            step.sent += conn_step.sent;
            step.failed += conn_step.failed;
            arrivals.extend(conn_step.latencies);
            step.late_us.extend(conn_step.late_us);
            for mut s in conn_step.spans {
                s.start_ns += offset_ns;
                s.end_ns += offset_ns;
                s.parent = span;
                tracer.push(s);
            }
        }
        arrivals.sort_by_key(|&(recv_ns, _)| recv_ns);
        let window_ns = (seconds * 1e9) as u64;
        step.in_window = arrivals.iter().filter(|&&(t, _)| t <= window_ns).count() as u64;
        step.latencies_ms = arrivals.into_iter().map(|(_, ms)| ms).collect();
        step
    }

    /// An open-loop step, repeated once if the generator itself ran late.
    fn open_step(
        &mut self,
        rate: f64,
        seconds: f64,
        tracer: &mut Tracer,
        span_name: &'static str,
        outcome: &mut Outcome,
    ) -> Step {
        let first = self.step(Load::Open(rate), seconds, tracer, span_name);
        if first.late_p99_us() <= MAX_LATE_P99_US {
            return first;
        }
        outcome.note(format!(
            "{span_name}: voided (generator p99 lateness {:.0} us) and repeated",
            first.late_p99_us()
        ));
        outcome.checks(first.sent, first.failed);
        self.step(Load::Open(rate), seconds, tracer, span_name)
    }
}

/// Nanoseconds per request of the wire codec alone: request and reply,
/// each encoded and decoded once.
fn proto_ns_per_req(mix: &Mix, seed: u64, n: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let ops: Vec<GenOp> = (0..n)
        .map(|i| mix.draw(i as u64 % CONNS, &mut rng))
        .collect();
    let mut wire = Vec::new();
    let start = Instant::now();
    let mut sink = 0u64;
    for (id, op) in ops.iter().enumerate() {
        let id = id as u64;
        let request = mix.request(*op, id);
        wire.clear();
        encode_request(&request, &mut wire);
        let decoded = decode_request(&wire[4..]).expect("own encoding decodes");
        let body = match decoded.op {
            Op::Get { key } => ReplyBody::Value(Some(key.to_le_bytes().to_vec())),
            Op::Rank { key } | Op::RangeCount { lo: key, .. } => ReplyBody::Count(key),
            Op::Insert { .. } | Op::Remove { .. } => ReplyBody::Ack,
        };
        wire.clear();
        encode_reply(
            &Reply {
                req_id: decoded.req_id,
                body,
            },
            &mut wire,
        );
        sink += decode_reply(&wire[4..])
            .expect("own encoding decodes")
            .req_id;
    }
    std::hint::black_box(sink);
    start.elapsed().as_nanos() as f64 / n as f64
}

/// Microseconds per request when the same request stream is applied in
/// 1024-request ticks straight to a `ShardedMap`, as the server's
/// coalescer would with perfect ticks and no plumbing at all.
fn engine_floor_us_per_req(mix: &Mix, seed: u64, ticks: usize, outcome: &mut Outcome) -> f64 {
    const TICK: usize = 1024;
    let keys: Vec<u64> = (0..mix.preload).collect();
    let values: Vec<Vec<u8>> = keys.iter().map(|k| k.to_le_bytes().to_vec()).collect();
    let mut map = ShardedMap::build(keys, values, Layout::Veb, SHARDS).expect("valid layout");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut busy = Duration::ZERO;
    let mut id = 0u64;
    for _ in 0..ticks {
        let (mut inserts, mut removes) = (Vec::new(), Vec::new());
        let (mut gets, mut ranks, mut ranges) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..TICK {
            let op = mix.draw(i as u64 % CONNS, &mut rng);
            id += 1;
            match op.kind {
                OpKind::Get => gets.push(op.key),
                OpKind::Rank => ranks.push(op.key),
                OpKind::Range => ranges.push((op.key, op.key + mix.key_space / 64 + 1)),
                OpKind::Insert => inserts.push((op.key, written_value(op.key, id))),
                OpKind::Remove => removes.push(op.key),
            }
        }
        let start = Instant::now();
        map.batch_insert(inserts);
        map.batch_remove(&removes);
        let snapshot = map.snapshot();
        let answered = snapshot.batch_get(&gets).len()
            + snapshot.batch_rank(&ranks).len()
            + snapshot.batch_range_count(&ranges).len();
        busy += start.elapsed();
        outcome.check(answered == gets.len() + ranks.len() + ranges.len());
    }
    busy.as_secs_f64() * 1e6 / (ticks * TICK) as f64
}

pub fn run(ctx: &Ctx, workload: &'static str, write_pct: u32) -> Result<Outcome, String> {
    let sizes = if ctx.smoke {
        Sizes {
            preload: 1 << 12,
            key_space: 1 << 13,
            window: 64,
            lo_rate: 2000.0,
            mid_rate: 8000.0,
            read_back: 64,
            floor_ticks: 4,
            proto_ops: 4096,
        }
    } else {
        Sizes {
            preload: 1 << 20,
            key_space: 1 << 21,
            window: 1024,
            lo_rate: 5000.0,
            mid_rate: 40_000.0,
            read_back: 4096,
            floor_ticks: 64,
            proto_ops: 1 << 17,
        }
    };
    let mix = Mix {
        write_pct,
        key_space: sizes.key_space,
        preload: sizes.preload,
        conns: CONNS,
    };
    let mut outcome = Outcome::default();
    outcome.note(format!(
        "{workload}: serve --shards {SHARDS} --preload {} (memory only), {CONNS} connections, \
         {write_pct}% writes, keys uniform over [0,{}); lo = open loop Poisson {}/s, \
         mid = open loop Poisson {}/s, sat = closed loop {CONNS} x {} in flight; \
         latency limit p99 <= {LATENCY_LIMIT_MS} ms",
        sizes.preload, sizes.key_space, sizes.lo_rate, sizes.mid_rate, sizes.window
    ));

    let binary = crate::env::serve_binary()?;
    let (server, setup_s) = repeat_setup(ctx.setup_repeats(), || {
        Server::start(&binary, sizes.preload)
    });
    let mut server = server?;
    let mut clients = Clients {
        conns: (0..CONNS)
            .map(|c| Conn::connect(server.addr, c, ctx.seed))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("cannot connect to the server: {e}"))?,
        mix,
        server_pid: server.pid(),
    };
    let pid = server.pid();
    let mut tracer = Tracer::new(ctx.trace);

    let mut steps: Vec<(&str, Step)> = Vec::new();
    if !ctx.trace {
        // A short open-loop step first: it warms the connections up and
        // leaves the server in a state fixed by the seed (the schedule
        // fixes the number of requests), which is where peak memory is
        // read. The closed-loop step that follows does as much work as
        // the server manages, so memory after it varies with speed.
        let lo = clients.open_step(
            sizes.lo_rate,
            ctx.seconds * 0.2,
            &mut tracer,
            "serve.step.lo",
            &mut outcome,
        );
        let rss = procfs::peak_rss_mb(pid).ok_or("cannot read the server's VmHWM")?;
        let sat = clients.step(
            Load::Closed(sizes.window),
            ctx.seconds * 0.7,
            &mut tracer,
            "serve.step.sat",
        );
        // Throughput comes from the closed-loop step: a defined load
        // (2 x 1024 in flight) under which latency is the window over
        // the throughput and needs no metric of its own. Latency at the
        // open-loop rates is wake-up latency, too noisy on this box to
        // carry a bound; it is reported per layer (`serve.lo.*`,
        // `serve.mid.*`) and noted below.
        outcome.set("setup_s", setup_s);
        outcome.set("peak_rss_mb", rss);
        outcome.set("throughput_kops_s", sat.achieved_kops_s());
        let over = lo
            .latencies_ms
            .iter()
            .filter(|&&ms| ms > LATENCY_LIMIT_MS)
            .count();
        outcome.note(format!(
            "lo: p50 {:.3} ms, p99 {:.3} ms, {} of {} requests over the {LATENCY_LIMIT_MS} ms limit; \
             generator p99 lateness {:.0} us",
            median(&lo.latencies_ms),
            percentile(&lo.latencies_ms, 0.99),
            over as u64 + lo.failed,
            lo.sent,
            lo.late_p99_us()
        ));
        steps.push(("lo", lo));
        steps.push(("sat", sat));
    } else {
        let lo = clients.open_step(
            sizes.lo_rate,
            ctx.seconds * 0.3,
            &mut tracer,
            "serve.step.lo",
            &mut outcome,
        );
        let mid = clients.open_step(
            sizes.mid_rate,
            ctx.seconds * 0.15,
            &mut tracer,
            "serve.step.mid",
            &mut outcome,
        );
        // The closed-loop step in four quarters: without spans (the
        // reference for the tracing overhead), with, with, without. The
        // server slows as its runs pile up, and this order keeps a
        // steady slowdown out of the comparison.
        let mut quarter = |tracer: &mut Tracer| {
            clients.step(
                Load::Closed(sizes.window),
                ctx.seconds * 0.1,
                tracer,
                "serve.step.sat",
            )
        };
        let mut off = Tracer::new(false);
        let (r1, t1) = (quarter(&mut off), quarter(&mut tracer));
        let (t2, r2) = (quarter(&mut tracer), quarter(&mut off));
        let (reference, sat) = (r1.then(r2), t1.then(t2));
        outcome.set(
            "trace_overhead_share",
            1.0 - sat.achieved_kops_s() / reference.achieved_kops_s(),
        );
        outcome.set("serve.lo.gen_late_p99_us", lo.late_p99_us());
        outcome.set("serve.mid.gen_late_p99_us", mid.late_p99_us());
        outcome.set(
            "serve.threads",
            procfs::sample(pid).map_or(0.0, |s| s.threads as f64),
        );
        outcome.checks(reference.sent, reference.failed);
        steps.push(("lo", lo));
        steps.push(("mid", mid));
        steps.push(("sat", sat));
    }
    for (name, step) in &steps {
        outcome.checks(step.sent, step.failed);
        if ctx.trace {
            step.report(name, &mut outcome);
        }
    }

    if let Ok(Some(status)) = server.child.try_wait() {
        outcome.note(format!("the server exited during the run: {status}"));
    }

    // The final state against the generator's model, one request at a time.
    let mut live = sizes.preload as i64;
    for conn in &mut clients.conns {
        let (attempted, failed) = conn.read_back(&mix, sizes.read_back / CONNS as usize);
        outcome.checks(attempted, failed);
        live += conn.live_delta(&mix);
    }
    outcome.check(clients.conns[0].live_keys().is_ok_and(|n| n as i64 == live));

    if ctx.trace {
        let proto_ns = proto_ns_per_req(&mix, ctx.seed, sizes.proto_ops);
        let floor_us = engine_floor_us_per_req(&mix, ctx.seed, sizes.floor_ticks, &mut outcome);
        outcome.set("serve.proto_ns_per_req", proto_ns);
        outcome.set("serve.engine_floor_us_per_req", floor_us);
        let sat_cpu = outcome
            .metrics
            .get("serve.sat.cpu_us_per_req")
            .copied()
            .unwrap_or(0.0);
        outcome.set("serve.overhead_x", sat_cpu / floor_us);
        finish_trace(&tracer, workload, &mut outcome)?;
    }
    drop(clients);
    drop(server);
    Ok(outcome)
}
