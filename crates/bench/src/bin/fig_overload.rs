//! **Overload survival** — admission control and load shedding under 2×
//! offered load, gated on tail latency, accuracy and conservation.
//!
//! The paper measures PKG in steady state; production engines also face
//! *overload*, where the offered rate exceeds downstream service capacity
//! and an unprotected topology just grows its queues (and its tail
//! latency) without bound. `pkg-ingress` adds the missing control plane —
//! a deterministic token bucket and watermark-triggered load shedding with a
//! degrade-to-sketch policy ([`SketchDegrade`]) — and this driver exercises
//! both end to end, exiting non-zero unless every gate holds:
//!
//! 1. **Transparency at ≤ 1× load** — with an active-but-generous ingress
//!    (token bucket refilling twice as fast as the logical offered rate),
//!    the merged second-phase output is byte-identical to a run with the
//!    ingress layer disabled, and nothing is shed.
//! 2. **Bounded tail under 2× overload** — with the bucket admitting half
//!    the logically-offered rate and a depth watermark, worker p99 latency
//!    stays under a hard bound, the degrade policy absorbs (not drops) the
//!    refused tuples, and top-10 recall of the final totals stays above the
//!    accuracy floor.
//! 3. **Conservation** — on the protected arm every tuple is accounted for
//!    exactly: the spout processes each offered tuple, and each stage
//!    processes exactly what the stage before it emitted.
//! 4. **The unprotected baseline degrades** — the same overload without
//!    ingress (and with effectively unbounded mailboxes) shows its peak
//!    queue depth growing strictly monotonically with stream volume: the
//!    failure mode the ingress layer exists to prevent.
//!
//! `--smoke` shrinks every arm and keeps every gate; CI runs it under both
//! `PKG_ENGINE_EXECUTOR` values.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use pkg_agg::Sum;
use pkg_apps::{AggregatorBolt, Collector, SketchDegrade, WindowedWorkerBolt};
use pkg_bench::{seed, Report, TextTable};
use pkg_engine::prelude::*;

/// Worker (phase-one) parallelism.
const W: usize = 6;
/// Mega-hot key occurrences per stream round: 40 of 102 ≈ 39% of traffic,
/// above the W-Choices head threshold θ = 2(1+ε)/W ≈ 0.367 for W = 6, so
/// the adaptive router spreads it over every worker.
const HOT: usize = 40;
/// Warm-key weights, strictly heavier than any tail key, so the true
/// top-10 set is exactly {hot} ∪ {warm0..warm8} with no tie ambiguity.
const WARM_WEIGHTS: [usize; 9] = [8, 7, 6, 5, 4, 3, 3, 3, 3];
/// Tail keys emitted per round (rotating over a 500-key vocabulary).
const TAIL_PER_ROUND: u64 = 20;

/// Tuples per round: `HOT + Σ WARM_WEIGHTS + TAIL_PER_ROUND`.
const ROUND_LEN: u64 = HOT as u64 + 42 + TAIL_PER_ROUND;

/// Deterministic skewed stream: one head key, nine warm keys, uniform
/// rotating tail. Pure function of `rounds` — both executors and every arm
/// see the identical sequence.
fn stream(rounds: u64) -> Vec<Tuple> {
    let mut tuples = Vec::with_capacity((rounds * ROUND_LEN) as usize);
    for r in 0..rounds {
        for _ in 0..HOT {
            tuples.push(Tuple::new(b"hot".to_vec(), 1));
        }
        for (w, &weight) in WARM_WEIGHTS.iter().enumerate() {
            for _ in 0..weight {
                tuples.push(Tuple::new(format!("warm{w}").into_bytes(), 1));
            }
        }
        for j in 0..TAIL_PER_ROUND {
            tuples.push(Tuple::new(format!("t{}", (r * TAIL_PER_ROUND + j) % 500).into_bytes(), 1));
        }
    }
    tuples
}

/// The byte-identity comparison shape: (key, value, payload), with the
/// wall-clock `born_ns` excluded.
type Triple = (Box<[u8]>, i64, Box<[u8]>);

fn triples(c: &Collector) -> Vec<Triple> {
    c.tuples().into_iter().map(|t| (t.key.into_boxed(), t.value, t.payload)).collect()
}

/// Run the two-phase word count (W-Choices first hop) over `rounds` stream
/// rounds with the given ingress configuration.
fn engine_run(
    rounds: u64,
    ingress: Option<IngressOptions>,
    channel_capacity: usize,
    delay: Duration,
) -> (Collector, pkg_engine::RunStats) {
    let collector = Collector::new();
    let mut topo = Topology::new();
    let src = topo.add_spout("src", 1, move |_| pkg_engine::spout::spout_from_iter(stream(rounds)));
    let worker = topo
        .add_bolt("worker", W, move |_| {
            Box::new(WindowedWorkerBolt::<Sum>::per_key().panes_every_ticks(2).service_delay(delay))
        })
        .input(src, Grouping::w_choices())
        .tick_every(Duration::from_millis(2))
        .id();
    let agg = topo
        .add_bolt("agg", 1, |_| Box::new(AggregatorBolt::<Sum>::new()))
        .input(worker, Grouping::Key)
        .id();
    let c = collector.clone();
    let _sink = topo.add_bolt("sink", 1, move |_| c.bolt()).input(agg, Grouping::Global);

    let mut options =
        RuntimeOptions { seed: seed(), channel_capacity, ingress, ..RuntimeOptions::default() };
    if let ExecutorMode::Pool { workers, .. } = &mut options.executor {
        // Service-delay stalls re-arm on the timer wheel; keep enough
        // workers that the delayed stage never serializes behind the spout.
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        *workers = (*workers).max(cores.max(4));
    }
    let stats = Runtime::with_options(options).run(topo);
    (collector, stats)
}

/// Top-10 keys of the collected totals, by count descending then key.
fn top10(c: &Collector) -> Vec<Box<[u8]>> {
    let mut totals = c.totals();
    totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    totals.truncate(10);
    totals.into_iter().map(|(k, _)| k).collect()
}

fn main() {
    let mut r = Report::start(
        "fig_overload",
        "fig_overload: admission control and load shedding at 2x load",
    );
    let parity_rounds: u64 = if r.smoke() { 100 } else { 400 };
    let overload_rounds: u64 = if r.smoke() { 120 } else { 600 };
    let baseline_rounds: [u64; 3] = if r.smoke() { [20, 40, 80] } else { [80, 160, 320] };
    let delay = Duration::from_micros(5);
    let _ = writeln!(
        r,
        "# W={W} seed={} round_len={ROUND_LEN} parity_rounds={parity_rounds} \
         overload_rounds={overload_rounds}{}",
        seed(),
        r.smoke_tag(),
    );

    // ---- Gate 1: transparency at <= 1x load -----------------------------
    // Logical offered rate 1M tuples/s (1 µs per tuple), bucket refilling
    // at 2M/s: admission never refuses, and no watermark is configured —
    // the layer is active but must be invisible.
    let neutral = IngressOptions {
        rate_per_sec: Some(2_000_000),
        burst: 64,
        logical_step_ns: Some(1_000),
        ..IngressOptions::default()
    };
    let (with_ingress, wi_stats) = engine_run(parity_rounds, Some(neutral), 1_024, Duration::ZERO);
    let (without, wo_stats) = engine_run(parity_rounds, None, 1_024, Duration::ZERO);
    let (wt, ot) = (triples(&with_ingress), triples(&without));
    let untouched = wi_stats.shed_dropped("src") == 0 && wi_stats.shed_degraded("src") == 0;
    r.check(
        format_args!(
            "at <=1x load ingress output is byte-identical to the no-ingress run \
             ({} keys, 0 shed)",
            wt.len(),
        ),
        wt == ot && !wt.is_empty() && untouched,
    );
    let _ = writeln!(
        r,
        "  parity arm: processed src={} worker={} (no-ingress {} / {})",
        wi_stats.processed("src"),
        wi_stats.processed("worker"),
        wo_stats.processed("src"),
        wo_stats.processed("worker"),
    );

    // ---- Gate 2 + 3: the protected topology under 2x overload -----------
    // Logical offered rate 2M tuples/s against a 1M/s bucket: half the
    // stream must be refused. The degrade policy absorbs refusals into a
    // 64-counter Space-Saving summary that is re-injected at end of
    // stream; the watermark sheds on downstream backlog.
    let protected = IngressOptions {
        rate_per_sec: Some(1_000_000),
        burst: 64,
        logical_step_ns: Some(500),
        watermark: Some(512),
        policy: Some(Arc::new(|_instance| {
            Box::new(SketchDegrade::new(64)) as Box<dyn pkg_ingress::ShedPolicy>
        })),
    };
    let (shed_run, shed_stats) = engine_run(overload_rounds, Some(protected), 1_024, delay);

    let [p50, p99, p999] = shed_stats.latency_percentiles("worker");
    let degraded = shed_stats.shed_degraded("src");
    let dropped = shed_stats.shed_dropped("src");
    let offered = overload_rounds * ROUND_LEN;

    let mut table = TextTable::new();
    table.row(["arm", "offered", "admitted", "degraded", "p50_ms", "p99_ms", "p999_ms"]);
    table.row([
        "protected".into(),
        offered.to_string(),
        (offered - degraded - dropped).to_string(),
        degraded.to_string(),
        format!("{:.3}", p50 as f64 / 1e6),
        format!("{:.3}", p99 as f64 / 1e6),
        format!("{:.3}", p999 as f64 / 1e6),
    ]);

    // p99 bound: worker backlog is capped by watermark shedding and
    // mailbox capacity, so queue wait stays near capacity x service time
    // (~5 ms) — 250 ms is a hard ceiling with a wide scheduling allowance.
    let p99_bound_ns = 250_000_000u64;
    r.check(
        format_args!(
            "protected worker p99 {:.3} ms <= {:.0} ms under 2x overload",
            p99 as f64 / 1e6,
            p99_bound_ns as f64 / 1e6,
        ),
        p99 > 0 && p99 <= p99_bound_ns,
    );

    // The degrade policy absorbs; nothing may be hard-dropped.
    r.check(
        format_args!(
            "overload sheds degrade into the sketch ({degraded} absorbed, {dropped} dropped)"
        ),
        degraded > 0 && dropped == 0,
    );

    // Accuracy floor: the true top-10 set is known by construction.
    let mut truth: Vec<Vec<u8>> = vec![b"hot".to_vec()];
    truth.extend((0..9).map(|w| format!("warm{w}").into_bytes()));
    let top = top10(&shed_run);
    let recall = top.iter().filter(|k| truth.iter().any(|t| t.as_slice() == k.as_ref())).count()
        as f64
        / 10.0;
    let floor = 0.7;
    r.check(
        format_args!("top-10 recall under shedding {recall:.2} >= {floor:.2}"),
        recall >= floor,
    );

    // Conservation: the spout processes every offered tuple (admitted or
    // shed), and each stage processes exactly what the one before emitted.
    let src = shed_stats.processed("src");
    r.check(format_args!("src processed {src} == offered {offered}"), src == offered);
    for (from, to) in [("src", "worker"), ("worker", "agg"), ("agg", "sink")] {
        let (sent, got) = (shed_stats.emitted(from), shed_stats.processed(to));
        r.check(format_args!("{to} processed {got} == {from} emitted {sent}"), got == sent);
    }

    // ---- Gate 4: the unprotected baseline degrades ----------------------
    // No ingress, effectively unbounded mailboxes: peak worker queue depth
    // must grow strictly with volume — unbounded in the limit. A heavier
    // service delay than the protected arm keeps the workers saturated at
    // every volume step, so the high-water mark tracks total backlog rather
    // than per-activation delivery batching.
    let base_delay = Duration::from_micros(25);
    let mut depths = Vec::new();
    for rounds in baseline_rounds {
        let (_, stats) = engine_run(rounds, None, 1 << 17, base_delay);
        let depth = stats.max_depth("worker");
        let [_, base_p99, _] = stats.latency_percentiles("worker");
        table.row([
            format!("baseline x{rounds}"),
            (rounds * ROUND_LEN).to_string(),
            stats.processed("src").to_string(),
            "-".into(),
            "-".into(),
            format!("{:.3}", base_p99 as f64 / 1e6),
            format!("depth={depth}"),
        ]);
        depths.push(depth);
    }
    r.push_str(&table.render());
    r.check(
        format_args!("unprotected peak queue depth grows strictly with volume {depths:?}"),
        depths.windows(2).all(|w| w[1] > w[0]) && depths[0] > 0,
    );
    r.finish("");
}
