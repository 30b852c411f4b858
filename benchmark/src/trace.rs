//! The traced run: a single-threaded replay of the flagship's tuple path,
//! written here from the layers' public functions, with a span around each
//! call into a layer.
//!
//! The engine's pool executor cannot be traced from outside, so the replay
//! stages the same work per batch of 256 tuples — sample, fingerprint,
//! `route_batch`, ring transfer, `PartialAgg` insert, and every 64th batch a
//! flush (encode → decode → merge) — and the ledger reports what the real
//! pool spends on top of those stages as `engine.pool.residual_ns`:
//! scheduling, wakes and parks, the part no public function reaches.
//! End-to-end metrics are always measured with tracing off; the same replay
//! with spans off prices the tracing itself (`trace.overhead_pct`).

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

use pkg_agg::{PartialAgg, Sum, TumblingWindow};
use pkg_datagen::zipf::ZipfTable;
use pkg_engine::grouping::{Router, TargetBatch};
use pkg_engine::ring::SpscRing;
use pkg_engine::tuple::Packet;
use pkg_engine::{edge_seed, Grouping, Tuple, TupleKey};
use pkg_hash::FxHashMap;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::workloads::{lexicon, FLAGSHIP_COUNTERS as COUNTERS};

/// Tuples replayed by `perf_ledger trace`.
pub const REPLAY_TUPLES: u64 = 2_000_000;
/// The pool executor's batch quantum, and the replay's.
const BATCH: usize = 256;
/// Batches between two flushes of the counters' windows.
const FLUSH_EVERY: u64 = 64;

/// The staged layers of the replay: `(span name, ledger metric)`, in path
/// order.
pub const STAGES: [(&str, &str); 6] = [
    ("datagen.sample", "trace.datagen_sample_ns"),
    ("hash.key_id", "trace.hash_key_id_ns"),
    ("engine.grouping.route_batch", "trace.route_batch_ns"),
    ("engine.ring.transfer", "trace.ring_transfer_ns"),
    ("agg.insert", "trace.agg_insert_ns"),
    ("agg.flush", "trace.agg_flush_ns"),
];
const ROOT: &str = "batch";

/// One recorded span. `parent` indexes the span that caused it; spans of
/// one batch share `trace_id`; `tuples` is the work done inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub trace_id: u64,
    pub tuples: u64,
}

/// In-memory span recorder; a disabled tracer records nothing, so the same
/// replay code runs with spans on and off.
struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        trace_id: u64,
        tuples: u64,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, trace_id, tuples });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        if self.enabled {
            self.spans[span].end_ns = self.now_ns();
        }
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for child in spans {
        if let Some(p) = child.parent {
            let parent = &spans[p];
            let covered =
                child.end_ns.min(parent.end_ns).saturating_sub(child.start_ns.max(parent.start_ns));
            own[p] = own[p].saturating_sub(covered);
        }
    }
    own
}

/// Σ self time of the spans called `name`, per replayed tuple.
fn self_ns_per_tuple(spans: &[Span], own: &[u64], name: &str, tuples: u64) -> f64 {
    let total: u64 = spans.iter().zip(own).filter(|(s, _)| s.name == name).map(|(_, o)| *o).sum();
    total as f64 / tuples as f64
}

/// The replay's state: one source's spout, router and out-edge, the 44
/// counters' mailboxes and windows, and the aggregator's table.
struct Replay {
    zipf: ZipfTable,
    lexicon: Vec<TupleKey>,
    rng: SmallRng,
    router: Router,
    targets: TargetBatch,
    rings: Vec<SpscRing>,
    windows: Vec<TumblingWindow<TupleKey, Sum>>,
    totals: FxHashMap<TupleKey, Sum>,
    tuples: Vec<Option<Tuple>>,
    keys: Vec<u64>,
    inbox: Vec<(usize, Tuple)>,
    codec: Vec<u8>,
}

impl Replay {
    fn new(seed: u64) -> Self {
        const VOCABULARY: u64 = 10_000;
        Self {
            zipf: ZipfTable::with_p1(VOCABULARY, 0.0932),
            lexicon: lexicon(VOCABULARY),
            rng: SmallRng::seed_from_u64(seed),
            // The seed the runtime derives for the source → counter edge.
            router: Router::new(&Grouping::partial_key(), COUNTERS, edge_seed(seed, 0, 1), 0),
            targets: TargetBatch::new(),
            rings: (0..COUNTERS).map(|_| SpscRing::new(1_024)).collect(),
            windows: (0..COUNTERS).map(|_| TumblingWindow::new(1)).collect(),
            totals: FxHashMap::default(),
            tuples: Vec::with_capacity(BATCH),
            keys: Vec::with_capacity(BATCH),
            inbox: Vec::with_capacity(BATCH),
            codec: Vec::new(),
        }
    }

    fn batch(&mut self, t: &mut Tracer, id: u64, n: usize) {
        let root = t.open(ROOT, None, id, n as u64);
        let child =
            |t: &mut Tracer, stage: usize| t.open(STAGES[stage].0, Some(root), id, n as u64);

        let s = child(t, 0);
        self.tuples.clear();
        for _ in 0..n {
            let rank = self.zipf.sample(&mut self.rng);
            self.tuples.push(Some(Tuple::new(self.lexicon[rank as usize].clone(), 1)));
        }
        t.close(s);

        let s = child(t, 1);
        self.keys.clear();
        self.keys.extend(self.tuples.iter().flatten().map(Tuple::key_id));
        t.close(s);

        let s = child(t, 2);
        self.router.route_batch(&self.keys, &mut self.targets);
        t.close(s);

        let s = child(t, 3);
        for (dest, run) in self.targets.runs() {
            let tuples = &mut self.tuples;
            let mut supply =
                run.iter().filter_map(|&i| tuples[i as usize].take().map(Packet::Tuple));
            let pushed = self.rings[dest].push_batch(&mut supply);
            assert_eq!(pushed, run.len(), "a drained ring takes a whole batch");
            let inbox = &mut self.inbox;
            self.rings[dest].pop_batch(usize::MAX, &mut |packet| {
                if let Packet::Tuple(tuple) = packet {
                    inbox.push((dest, tuple));
                }
            });
        }
        t.close(s);

        let s = child(t, 4);
        for (dest, tuple) in self.inbox.drain(..) {
            let key_id = tuple.key_id();
            let closed = self.windows[dest].insert(tuple.key, key_id, tuple.value, 0);
            debug_assert!(closed.is_none(), "the replay's clock never advances");
        }
        t.close(s);

        if (id + 1).is_multiple_of(FLUSH_EVERY) {
            let s = child(t, 5);
            self.flush();
            t.close(s);
        }
        t.close(root);
    }

    /// Close every counter's pane and merge the encoded partials into the
    /// aggregator's table, as the two bolts do across the second edge.
    fn flush(&mut self) {
        for window in &mut self.windows {
            let Some(pane) = window.flush() else { continue };
            for (key, acc) in pane.accs {
                self.codec.clear();
                acc.encode(&mut self.codec);
                let part = Sum::decode(&self.codec).expect("a Sum decodes its own encoding");
                self.totals.entry(key).or_insert_with(Sum::identity).merge(&part);
            }
        }
    }

    /// Replay `tuples` tuples; returns the wall time of the batches in ns.
    fn run(&mut self, t: &mut Tracer, tuples: u64) -> u64 {
        let started = Instant::now();
        let mut left = tuples;
        let mut id = 0u64;
        while left > 0 {
            let n = left.min(BATCH as u64) as usize;
            self.batch(t, id, n);
            left -= n as u64;
            id += 1;
        }
        let wall = started.elapsed().as_nanos() as u64;
        self.flush();
        let counted: i64 = self.totals.values().map(Sum::total).sum();
        assert_eq!(counted, tuples as i64, "the replay lost or duplicated tuples");
        wall
    }
}

/// What a traced run measured.
pub struct TraceReport {
    pub tuples: u64,
    /// Self time per tuple of each entry of [`STAGES`], in order.
    pub stage_ns: [f64; 6],
    /// Self time per tuple of the root `batch` span: the replay's own glue.
    pub glue_ns: f64,
    pub spans: usize,
    /// Traced wall over untraced wall of the same replay, minus one.
    pub overhead_pct: f64,
}

impl TraceReport {
    /// Σ of the staged layers' self times, per tuple.
    pub fn staged_ns(&self) -> f64 {
        self.stage_ns.iter().sum()
    }

    /// The decomposition table: the pool's worker time per tuple as the
    /// staged layers plus the residual no public function reaches.
    pub fn decomposition(&self, pool_ns_per_tuple: f64) -> String {
        let mut out = String::new();
        let share = |ns: f64| 100.0 * ns / pool_ns_per_tuple;
        let _ = writeln!(out, "{:<34} {:>10} {:>8}", "layer (self time)", "ns/tuple", "share%");
        for ((span, _), ns) in STAGES.iter().zip(self.stage_ns) {
            let _ = writeln!(out, "{span:<34} {ns:>10.2} {:>8.1}", share(ns));
        }
        let residual = pool_ns_per_tuple - self.staged_ns();
        let _ = writeln!(
            out,
            "{:<34} {residual:>10.2} {:>8.1}",
            "engine.pool.residual_ns",
            share(residual)
        );
        let _ = writeln!(
            out,
            "{:<34} {pool_ns_per_tuple:>10.2} {:>8.1}",
            "engine.pool.ns_per_tuple", 100.0
        );
        let _ = writeln!(out, "(replay glue outside the stages: {:.2} ns/tuple)", self.glue_ns);
        out
    }
}

/// Replay `tuples` tuples with spans off and on, three alternating pairs.
/// Interference from outside only ever adds time, so the fastest replay of
/// each kind is the least disturbed: its spans are written to `path` and
/// decomposed, and the two fastest walls give the tracing overhead.
pub fn traced_run(seed: u64, tuples: u64, path: &str) -> Result<TraceReport, String> {
    const PAIRS: usize = 3;
    let (mut plain_wall, mut traced_wall) = (u64::MAX, u64::MAX);
    let mut spans = Vec::new();
    for _ in 0..PAIRS {
        plain_wall = plain_wall.min(Replay::new(seed).run(&mut Tracer::new(false), tuples));
        let mut tracer = Tracer::new(true);
        let wall = Replay::new(seed).run(&mut tracer, tuples);
        if wall < traced_wall {
            traced_wall = wall;
            spans = tracer.spans;
        }
    }
    write_spans(&spans, path)?;

    let own = self_times(&spans);
    let mut stage_ns = [0.0; 6];
    for (slot, (span, _)) in stage_ns.iter_mut().zip(STAGES) {
        *slot = self_ns_per_tuple(&spans, &own, span, tuples);
    }
    Ok(TraceReport {
        tuples,
        stage_ns,
        glue_ns: self_ns_per_tuple(&spans, &own, ROOT, tuples),
        spans: spans.len(),
        overhead_pct: (traced_wall as f64 / plain_wall as f64 - 1.0) * 100.0,
    })
}

/// One JSON object per span, written when the run has ended.
fn write_spans(spans: &[Span], path: &str) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("{path}: {e}");
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(fail)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path).map_err(fail)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"trace_id\": {}, \"tuples\": {}}}",
            s.name, s.start_ns, s.end_ns, s.trace_id, s.tuples
        )
        .map_err(fail)?;
    }
    w.flush().map_err(fail)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, trace_id: 0, tuples: 10 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // parent 100, children 30 + 50 → self 20; a grandchild only
        // reduces its own parent.
        let spans = [
            span("batch", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 45, 95, Some(0)),
            span("a.inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), [20, 30, 40, 10]);
        let own = self_times(&spans);
        assert_eq!(self_ns_per_tuple(&spans, &own, "b", 10), 4.0);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = [span("p", 10, 20, None), span("c", 15, 30, Some(0))];
        assert_eq!(self_times(&spans), [5, 15]);
    }

    #[test]
    fn replay_conserves_tuples_and_stages_every_layer() {
        let mut tracer = Tracer::new(true);
        // 70 batches: one periodic flush (batch 64) plus the final one.
        Replay::new(9).run(&mut tracer, 70 * BATCH as u64 - 5);
        let roots = tracer.spans.iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, 70);
        for (name, _) in STAGES {
            assert!(tracer.spans.iter().any(|s| s.name == name), "no {name} span");
        }
        assert_eq!(tracer.spans.iter().filter(|s| s.name == "agg.flush").count(), 1);
        let ids_match = tracer.spans.iter().all(|s| match s.parent {
            Some(p) => tracer.spans[p].trace_id == s.trace_id && tracer.spans[p].name == ROOT,
            None => s.name == ROOT,
        });
        assert!(ids_match, "children share their batch's trace id");

        let mut off = Tracer::new(false);
        Replay::new(9).run(&mut off, 1_000);
        assert!(off.spans.is_empty(), "a disabled tracer records nothing");
    }
}
