//! The compact half of the overflow path: planning which runs a
//! compaction consumes, the k-way merge (a loser tree, sliced and
//! parallel when large) on a background worker, and the atomic install
//! of the merged run. [`DynamicMap::start_compaction`] is the one place
//! that decides where a compaction runs.

use super::run::{merged_run_kind, Prefix, Run};
use super::{DynamicMap, MAX_SEALED_RUNS};
use crate::sync::{spawn, yield_now, Arc, AtomicBool, JoinHandle, Ordering};
use ist_query::{QueryKind, Searcher};

/// What one merged version costs [`merge_slice`], in nanoseconds, as
/// the floor rule ([`rayon::min_task_len`]) needs it: a tournament
/// replay, a key and a value clone and three column pushes. Timed
/// around the sequential `merge_slice` call on the reference box (`u64`
/// keys, 8- and 64-byte `Vec<u8>` values, merged on the writer's thread
/// without yields, 3 000 to 372 000 versions a merge; quartiles of
/// seven runs): 26–32 ns a version with one source, 38–43 with two,
/// 46–52 with three or four, 68–83 with more. The estimate is the low end of the multi-source
/// merges — a low cost asks for longer slices. A merge splits only when
/// every slice holds at least `min_task_len(MERGE_VERSION_COST_NS)`
/// versions (6 250); below that the hand-off, boundary descents and
/// stitch cost more than it.
const MERGE_VERSION_COST_NS: u64 = 40;

/// A compaction plan: which **contiguous newest prefix** of the
/// resident runs the merge consumes, and where the merged run lands.
/// Consuming a contiguous prefix and installing at its boundary is what
/// keeps the global newest-first run order valid.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// How many sealed runs (the oldest prefix of `l0`) the merge
    /// consumes — always all of them.
    consumed_l0: usize,
    /// Tiers `0..full_tiers` are consumed entirely, and the merged run
    /// becomes the only run of tier `full_tiers` (empty when planned).
    full_tiers: usize,
    /// Whether any run survives below the consumed prefix (tombstones
    /// are annihilated iff `false`).
    deeper_occupied: bool,
}

/// An in-flight background compaction: the plan it executes. The worker
/// owns `Arc` clones of the source runs, so the writer and readers keep
/// using them until install.
pub(super) struct Pending<K, V> {
    plan: Plan,
    /// Set by the worker after the merged run is fully built, so the
    /// writer's install check is one atomic load, never a join of a
    /// still-running merge.
    done: Arc<AtomicBool>,
    handle: Option<JoinHandle<Option<Run<K, V>>>>,
}

impl<K, V> Drop for Pending<K, V> {
    fn drop(&mut self) {
        // Dropping the map mid-compaction: wait the worker out rather
        // than leaking a detached thread past the owner's lifetime.
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// How many entries the background worker streams between cooperative
/// [`std::thread::yield_now`] calls. On a host with spare cores the
/// yields are nearly free; on a saturated or single-core host they are
/// what keeps the latency-sensitive writer scheduling promptly while a
/// long merge is CPU-bound (the same reason production LSM engines run
/// compaction threads at low priority).
const MERGE_YIELD_STRIDE: usize = 256;

/// The compact half of the overflow path: k-way merge `sources`
/// (newest first; each source's keys are distinct) and rebuild the
/// result as a single run, laid out by its length ([`merged_run_kind`]:
/// the merged columns are adopted as they are below the crossover and
/// scattered into `kind` from there on). Newest version wins per key,
/// weights are summed, and tombstones are annihilated iff no occupied
/// tier remains below the merge target (`deeper_occupied == false`).
/// Returns `None` when everything annihilated.
///
/// When `threads` — the writer's ambient `rayon::current_num_threads()`
/// when it started the compaction, so `IST_PARALLEL` and
/// `ThreadPool::install` apply — exceeds 1 and the merge is large
/// enough, the merged key space is split into near-equal **slices**:
/// boundary keys are drawn from the largest source at evenly spaced
/// ranks (closed-form `position_of_rank`, no scan), each source is cut
/// at those keys with one rank descent per boundary, the slices are
/// merged concurrently on the rayon-shim, and the outputs are stitched
/// back together. Per-key resolution (newest-wins, weight sums,
/// annihilation) is local to a slice, so the stitched output is
/// bit-identical to the sequential merge —
/// `parallel_merge_bit_identical_to_serial` pins this at pool sizes
/// {1, 4}.
///
/// Runs on the background worker, yielding the timeslice every
/// [`MERGE_YIELD_STRIDE`] entries; it touches only the immutable
/// `Arc`-shared runs, never the map.
fn merge_runs<K, V>(
    sources: &[Arc<Run<K, V>>],
    deeper_occupied: bool,
    kind: QueryKind,
    threads: usize,
) -> Option<Run<K, V>>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync,
{
    let total: usize = sources.iter().map(|r| r.versions()).sum();
    let want = threads
        .min(total / rayon::min_task_len(MERGE_VERSION_COST_NS))
        .max(1);
    // Slice boundaries: evenly spaced ranks of the largest source
    // approximate evenly sized merged slices (smaller sources can only
    // add proportionally less to any slice).
    let largest = sources
        .iter()
        .max_by_key(|r| r.versions())
        .expect("merge has at least one source");
    let searcher = largest.map.searcher();
    let mut bounds: Vec<K> = Vec::with_capacity(want - 1);
    for i in 1..want {
        let r = i * largest.versions() / want;
        let p = searcher
            .position_of_rank(r)
            .expect("rank below len resolves");
        let k = largest.map.keys()[p].clone();
        if bounds.last().is_none_or(|b| *b < k) {
            bounds.push(k);
        }
    }
    // Slice `i` covers keys in `[bounds[i-1], bounds[i])`: source ranks
    // `[rank(bounds[i-1]), rank(bounds[i]))`, one rank descent a cut.
    let cut = |run: &Run<K, V>, i| match i {
        0 => 0,
        i if i > bounds.len() => run.versions(),
        i => run.map.rank(&bounds[i - 1]),
    };
    let slice = |i: usize| {
        let ranges: Vec<_> = sources.iter().map(|r| (cut(r, i), cut(r, i + 1))).collect();
        merge_slice(sources, &ranges, deeper_occupied)
    };
    let (keys, slots, weights) = if bounds.is_empty() {
        slice(0)
    } else {
        let mut parts = vec![Default::default(); bounds.len() + 1];
        rayon::scope(|s| {
            for (i, part) in parts.iter_mut().enumerate() {
                s.spawn(move |_| *part = slice(i));
            }
        });
        // Stitch: disjoint, ordered slices concatenate to the output.
        let mut keys = Vec::with_capacity(total);
        let mut slots = Vec::with_capacity(total);
        let mut weights = Vec::with_capacity(total);
        for (k, s, w) in parts {
            keys.extend(k);
            slots.extend(s);
            weights.extend(w);
        }
        (keys, slots, weights)
    };
    if keys.is_empty() {
        None
    } else {
        let kind = merged_run_kind(keys.len(), kind);
        Some(
            Run::build(keys, slots, Prefix::from_weights(&weights), kind)
                .expect("configuration validated at construction"),
        )
    }
}

/// Sequential k-way merge of one slice, each source restricted to its
/// rank sub-range `ranges[i]`, into `(keys, slots, weights)` columns;
/// the whole merge is one slice in the sequential case. A [`Tournament`]
/// finds each next version in O(log k) key compares, and only the
/// versions the output keeps are cloned.
fn merge_slice<K, V>(
    sources: &[Arc<Run<K, V>>],
    ranges: &[(usize, usize)],
    deeper_occupied: bool,
) -> (Vec<K>, Vec<Option<V>>, Vec<i64>)
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync,
{
    let mut t = Tournament::new(sources, ranges);
    let cap: usize = ranges.iter().map(|&(lo, hi)| hi - lo).sum();
    let mut keys = Vec::with_capacity(cap);
    let mut slots = Vec::with_capacity(cap);
    let mut weights = Vec::with_capacity(cap);
    let mut streamed = 0usize;
    while let Some((key, slot, mut weight)) = t.pop() {
        streamed += 1;
        if streamed.is_multiple_of(MERGE_YIELD_STRIDE) {
            yield_now();
        }
        // Older sources may hold the same key (each source's keys are
        // distinct): collapse them, newest version wins.
        while t.head() == Some(key) {
            weight += t.pop().expect("a peeked head pops").2;
        }
        if slot.is_none() && !deeper_occupied {
            // Tombstone reaching the bottom: annihilate.
            debug_assert_eq!(weight, 0, "annihilated key retains weight");
            continue;
        }
        keys.push(key.clone());
        slots.push(slot.clone());
        weights.push(weight);
    }
    (keys, slots, weights)
}

/// One merge source: a run read in rank order over `rank..end` through
/// its layout's position map; `head` is the rank-`rank` version's
/// position and key.
struct Cursor<'a, K, V> {
    run: &'a Run<K, V>,
    searcher: Searcher<'a, K>,
    rank: usize,
    end: usize,
    head: Option<(usize, &'a K)>,
}

/// A loser tree over the cursors (Knuth, TAOCP 5.4.1): node `n ∈ 1..k`
/// holds the cursor that lost the match played there, leaf `i` sits at
/// `k + i`, and `nodes[0]` is the winner. Advancing the winner replays
/// only its leaf-to-root path, one compare a level.
struct Tournament<'a, K, V> {
    cursors: Vec<Cursor<'a, K, V>>,
    nodes: Vec<usize>,
}

impl<'a, K: Ord + Send + Sync + 'static, V: Send> Tournament<'a, K, V> {
    fn new(sources: &'a [Arc<Run<K, V>>], ranges: &[(usize, usize)]) -> Self {
        let k = sources.len();
        let cursors = sources.iter().zip(ranges).map(|(run, &(rank, end))| {
            let searcher = run.map.searcher();
            let head = searcher.position_of_rank(rank).filter(|_| rank < end);
            let head = head.map(|p| (p, &run.map.keys()[p]));
            Cursor {
                run,
                searcher,
                rank,
                end,
                head,
            }
        });
        let mut t = Self {
            cursors: cursors.collect(),
            nodes: vec![0; k],
        };
        // Play every match bottom-up: `won[n]` wins node `n`'s subtree.
        let mut won: Vec<usize> = (0..2 * k).map(|n| n.saturating_sub(k)).collect();
        for n in (1..k).rev() {
            let (a, b) = (won[2 * n], won[2 * n + 1]);
            (won[n], t.nodes[n]) = if t.beats(a, b) { (a, b) } else { (b, a) };
        }
        t.nodes[0] = won[1];
        t
    }

    /// Cursor `a`'s head merges first: the smaller key, the newer source
    /// (lower index) on equal keys; a spent cursor never does.
    fn beats(&self, a: usize, b: usize) -> bool {
        match (self.cursors[a].head, self.cursors[b].head) {
            (Some((_, x)), Some((_, y))) => x.cmp(y).then(a.cmp(&b)).is_lt(),
            (x, _) => x.is_some(),
        }
    }

    /// The next version's key, without taking it.
    fn head(&self) -> Option<&'a K> {
        Some(self.cursors[self.nodes[0]].head?.1)
    }

    /// Take the next version — `(key, slot, weight)`, borrowed from its
    /// run — and replay its cursor's path.
    fn pop(&mut self) -> Option<(&'a K, &'a Option<V>, i64)> {
        let w = self.nodes[0];
        let c = &mut self.cursors[w];
        let (run, (p, key)) = (c.run, c.head?);
        let version = (key, &run.map.values()[p], run.prefix.span(c.rank));
        c.rank += 1;
        let next = c
            .searcher
            .position_of_rank(c.rank)
            .filter(|_| c.rank < c.end);
        c.head = next.map(|p| (p, &run.map.keys()[p]));
        let (mut winner, mut n) = (w, (w + self.cursors.len()) / 2);
        while n > 0 {
            if self.beats(self.nodes[n], winner) {
                std::mem::swap(&mut self.nodes[n], &mut winner);
            }
            n /= 2;
        }
        self.nodes[0] = winner;
        Some(version)
    }
}

impl<K, V> DynamicMap<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Make sure sealed runs are on their way into a tier, applying
    /// [`MAX_SEALED_RUNS`] backpressure first: past the limit the
    /// writer blocks on the in-flight merge before continuing.
    pub(super) fn ensure_compaction(&mut self) {
        if self.pending.is_some() && self.l0.len() >= MAX_SEALED_RUNS {
            self.wait_for_pending();
        }
        if self.pending.is_none() {
            self.start_compaction();
        }
    }

    /// Decide what the next compaction consumes and where the merged
    /// run lands: the binomial-counter schedule of the logarithmic
    /// method. Every sealed run plus every tier above the first empty
    /// one folds into that tier — a **contiguous newest prefix** of
    /// the runs, installed at the prefix's boundary, which is what
    /// keeps global newest-first order valid. A tier holds one run,
    /// except that a store written by an earlier version may reopen
    /// with several in one tier; such a tier is occupied like any
    /// other and folds whole the first time a plan reaches it.
    fn plan_compaction(&mut self) -> Plan {
        let full_tiers = self
            .tiers
            .iter()
            .position(Vec::is_empty)
            .unwrap_or(self.tiers.len());
        if full_tiers == self.tiers.len() {
            self.tiers.push(Vec::new());
        }
        Plan {
            consumed_l0: self.l0.len(),
            full_tiers,
            deeper_occupied: self.tiers[full_tiers + 1..].iter().any(|t| !t.is_empty()),
        }
    }

    /// Start compacting every sealed run plus the planned prefix of
    /// the tier runs (see [`DynamicMap::plan_compaction`]). The merge
    /// runs on a worker thread over `Arc`-shared sources while the map
    /// keeps serving from the originals.
    ///
    /// One short-lived thread per compaction: the spawn (~tens of µs)
    /// lands once per `buffer_cap` writes, not per write, which keeps it
    /// out of the per-write latency profile. A long-lived worker fed by
    /// a channel would shave it if profiles ever say otherwise.
    pub(super) fn start_compaction(&mut self) {
        debug_assert!(self.pending.is_none(), "at most one compaction in flight");
        if self.l0.is_empty() {
            return;
        }
        let plan = self.plan_compaction();
        // Newest-first sources: sealed runs (newest sealed sits last in
        // `l0`), then the consumed tier prefix shallow-to-deep.
        let mut sources: Vec<Arc<Run<K, V>>> = self.l0.iter().rev().cloned().collect();
        for tier in &self.tiers[..plan.full_tiers] {
            sources.extend(tier.iter().cloned());
        }
        let deeper_occupied = plan.deeper_occupied;
        let kind = self.kind;
        // Slice by the writer's thread count: a `ThreadPool::install`
        // around the write does not reach the worker thread.
        let threads = rayon::current_num_threads();
        let done = Arc::new(AtomicBool::new(false));
        let worker_done = Arc::clone(&done);
        #[cfg(ist_loom)]
        let inject_panic = std::mem::take(&mut self.panic_next_compaction);
        #[cfg(not(ist_loom))]
        let inject_panic = false;
        let handle = spawn(move || {
            /// Sets `done` even when the merge panics, so the writer's
            /// next `try_install` joins the worker and re-raises the
            /// panic instead of sealing on top of a compaction that will
            /// never finish.
            struct DoneGuard(Arc<AtomicBool>);
            impl Drop for DoneGuard {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Release);
                }
            }
            let _guard = DoneGuard(worker_done);
            if inject_panic {
                panic!("injected compaction worker panic (ist-loom test hook)");
            }
            merge_runs(&sources, deeper_occupied, kind, threads)
        });
        self.pending = Some(Pending {
            plan,
            done,
            handle: Some(handle),
        });
    }

    /// Atomically swap the compacted sources for the merged run: the
    /// consumed L0 prefix and tier prefix go out, `merged` becomes the
    /// run of tier `plan.full_tiers`, all under `&mut self` —
    /// readers hold `Arc`s and can never observe a torn state.
    /// Observable answers are identical before and after (the merge
    /// preserves newest-wins resolution and per-key weight sums). Like
    /// a seal, an install writes nothing: the merged run reaches disk
    /// at the next checkpoint, and the consumed runs' files go then.
    fn install(&mut self, plan: Plan, merged: Option<Run<K, V>>) {
        self.l0.drain(..plan.consumed_l0);
        for tier in &mut self.tiers[..plan.full_tiers] {
            tier.clear();
        }
        debug_assert!(
            self.tiers[plan.full_tiers].is_empty(),
            "the target tier was empty when planned and nothing else installs"
        );
        if let Some(run) = merged {
            self.tiers[plan.full_tiers].push(Arc::new(run));
        }
        self.refresh_runs();
    }

    /// Block until the in-flight compaction (if any) finishes, then
    /// install it. Worker panics propagate to the writer here.
    pub(super) fn wait_for_pending(&mut self) {
        let Some(mut pending) = self.pending.take() else {
            return;
        };
        let handle = pending.handle.take().expect("pending owns its worker");
        let merged = handle
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        self.install(pending.plan, merged);
    }

    /// Non-blocking install check, run at the start of every mutation:
    /// one atomic load while the merge is still running, a join of an
    /// already-finished thread (cheap) plus the pointer swaps when it
    /// is done. Immediately starts compacting any sealed runs that
    /// accumulated while the previous merge was in flight.
    pub(super) fn try_install(&mut self) {
        let finished = self
            .pending
            .as_ref()
            .is_some_and(|p| p.done.load(Ordering::Acquire));
        if finished {
            self.wait_for_pending();
            if !self.l0.is_empty() {
                self.start_compaction();
            }
        }
    }
}
