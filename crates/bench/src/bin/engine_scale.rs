//! **Engine scale sweep** — throughput of the two executors as the total
//! instance count grows: the experiment the cooperative pool executor
//! exists for.
//!
//! The paper's Q4 runs word count at cluster scale, and the follow-up work
//! ("When Two Choices Are not Enough") shows PKG's interesting regimes
//! start at large worker counts `W` — exactly where one-OS-thread-per-PEI
//! collapses into scheduler thrash. This driver sweeps the word-count
//! topology (PKG variant) over total instance counts of roughly 50 / 200 /
//! 800, under both [`ExecutorMode`]s, holding the total message volume
//! fixed so every point does the same work. It prints a TSV (echoed into
//! `results/engine_scale.tsv`) with wall clock, counter throughput, pool
//! activation counts and the counters' outbox spills, and **asserts message conservation at every
//! point** (exit non-zero on any loss). Under the pool it also prints each
//! worker's scheduler counters — activations run, steals, parks, spins,
//! timers fired and their mean lateness — and checks two identities at every
//! point: the workers' runs sum to the instances' activations exactly, and
//! no worker steals more tasks than it runs.
//!
//! Full mode additionally gates the scheduler's reason to exist: the pool
//! must sustain ≥ 2× the thread-per-instance throughput at the largest
//! size and stay within noise (≥ 0.85×) at the smallest.
//!
//! `--smoke` runs one small size with reduced volume and checks
//! conservation plus exact cross-executor load parity — fast and
//! deterministic, suitable as a CI gate against scheduler regressions.

use std::fmt::Write as _;
use std::time::Instant;

use pkg_apps::wordcount::{wordcount_topology, WordCountConfig, WordCountVariant};
use pkg_bench::{seed, Report, TextTable};
use pkg_engine::tuple::audit;
use pkg_engine::{ExecutorMode, Runtime, RuntimeOptions, WorkerStats};

/// One sweep point: a word-count topology with `instances` total PEIs
/// (sources + counters + 1 aggregator) fed `messages` tuples in total.
struct Point {
    instances: usize,
    messages: u64,
}

struct Measurement {
    wall_s: f64,
    counter_tput: f64,
    /// The counters' activations.
    activations: u64,
    /// Every instance's activations: what the pool workers' runs sum to.
    all_activations: u64,
    /// Counter packets that found the aggregator's mailbox full (or an
    /// earlier spill waiting) and queued in an outbox.
    spilled: u64,
    loads: Vec<u64>,
    /// Counter-stage p99 tuple latency (birth → execute), nanoseconds.
    p99_ns: u64,
    /// Per-worker scheduler counters (pool only).
    workers: Vec<WorkerStats>,
}

fn config_for(p: &Point) -> WordCountConfig {
    let sources = (p.instances / 10).max(1);
    let counters = p.instances - sources - 1;
    WordCountConfig {
        variant: WordCountVariant::PartialKeyGrouping,
        sources,
        counters,
        messages_per_source: p.messages / sources as u64,
        vocabulary: 10_000,
        aggregation_period: None,
        seed: seed(),
        ..WordCountConfig::default()
    }
}

fn run_point(cfg: &WordCountConfig, mode: ExecutorMode) -> Result<Measurement, String> {
    let (topo, _, _, _) = wordcount_topology(cfg);
    let (heap0, clones0) = (audit::heap_keys(), audit::tuple_clones());
    let started = Instant::now();
    let stats = Runtime::with_options(RuntimeOptions {
        channel_capacity: 1_024,
        seed: seed(),
        executor: mode,
        ..RuntimeOptions::default()
    })
    .run(topo);
    let wall_s = started.elapsed().as_secs_f64();
    // Zero-alloc audit: word-count keys fit the inline capacity and every
    // edge in this topology has fan-out 1, so neither counter may grow at
    // all — any nonzero delta means the hot path regressed to allocating.
    let (heap_d, clones_d) = (audit::heap_keys() - heap0, audit::tuple_clones() - clones0);
    debug_assert!(
        heap_d == 0 && clones_d == 0,
        "tuple hot path allocated: {heap_d} heap keys, {clones_d} tuple clones"
    );
    let total = cfg.messages_per_source * cfg.sources as u64;
    // Message conservation: every generated tuple is counted exactly once,
    // and every counter flush reaches the aggregator exactly once.
    if stats.processed("counter") != total {
        return Err(format!(
            "conservation violated: counters processed {} of {total}",
            stats.processed("counter")
        ));
    }
    if stats.emitted("counter") != stats.processed("aggregator") {
        return Err(format!(
            "conservation violated: counters emitted {} but aggregator processed {}",
            stats.emitted("counter"),
            stats.processed("aggregator")
        ));
    }
    Ok(Measurement {
        wall_s,
        counter_tput: total as f64 / wall_s,
        activations: stats.activations("counter"),
        all_activations: stats.instances.iter().map(|i| i.activations).sum(),
        spilled: stats.spilled("counter"),
        loads: stats.loads("counter"),
        p99_ns: stats.latency_percentiles("counter")[1],
        workers: stats.workers,
    })
}

fn main() {
    let mut r =
        Report::start("engine_scale", "engine_scale: executor throughput vs total instance count");
    let points: Vec<Point> = if r.smoke() {
        vec![Point { instances: 50, messages: 40_000 }]
    } else {
        vec![
            Point { instances: 50, messages: 400_000 },
            Point { instances: 200, messages: 400_000 },
            Point { instances: 800, messages: 400_000 },
        ]
    };
    let modes = [("threads", ExecutorMode::ThreadPerInstance), ("pool", ExecutorMode::pool())];

    let _ = writeln!(
        r,
        "# wordcount/PKG, sources=instances/10, counters=rest, aggregator=1, seed={}{}",
        seed(),
        r.smoke_tag(),
    );
    let mut table = TextTable::new();
    table.row([
        "instances",
        "mode",
        "messages",
        "wall_s",
        "counter_tput_msg_s",
        "activations",
        "spilled",
        "p99_ms",
    ]);
    let mut tsv = String::from(
        "instances\tmode\tmessages\twall_s\tcounter_tput_msg_s\tactivations\tspilled\tp99_ms\n",
    );

    let mut results: Vec<(usize, &'static str, Measurement)> = Vec::new();
    for p in &points {
        let cfg = config_for(p);
        for (label, mode) in modes {
            match run_point(&cfg, mode) {
                Ok(m) => {
                    table.row([
                        p.instances.to_string(),
                        label.to_string(),
                        p.messages.to_string(),
                        format!("{:.3}", m.wall_s),
                        format!("{:.0}", m.counter_tput),
                        m.activations.to_string(),
                        m.spilled.to_string(),
                        format!("{:.3}", m.p99_ns as f64 / 1e6),
                    ]);
                    let _ = writeln!(
                        tsv,
                        "{}\t{}\t{}\t{:.4}\t{:.0}\t{}\t{}\t{:.3}",
                        p.instances,
                        label,
                        p.messages,
                        m.wall_s,
                        m.counter_tput,
                        m.activations,
                        m.spilled,
                        m.p99_ns as f64 / 1e6,
                    );
                    results.push((p.instances, label, m));
                }
                Err(e) => {
                    r.check(format_args!("{label} @ {} instances: {e}", p.instances), false);
                }
            }
        }
    }
    r.push_str(&table.render());
    for (instances, label, m) in &results {
        for (wid, w) in m.workers.iter().enumerate() {
            let late_us = w.timer_late_ns as f64 / w.timers_fired.max(1) as f64 / 1e3;
            let _ = writeln!(
                r,
                "{label} @ {instances} instances, worker {wid}: runs={} steals={} parks={} \
                 spins={} timers_fired={} timer_late_mean_us={late_us:.1}",
                w.runs, w.steals, w.parks, w.spins, w.timers_fired,
            );
        }
        if !m.workers.is_empty() {
            let runs: u64 = m.workers.iter().map(|w| w.runs).sum();
            r.check(
                format_args!(
                    "{label} @ {instances} instances: Σ runs {runs} = Σ activations {}",
                    m.all_activations
                ),
                runs == m.all_activations,
            );
            r.check(
                format_args!("{label} @ {instances} instances: steals ≤ runs on every worker"),
                m.workers.iter().all(|w| w.steals <= w.runs),
            );
        }
    }

    let find = |instances: usize, label: &str| {
        results.iter().find(|(i, l, _)| *i == instances && *l == label).map(|(_, _, m)| m)
    };
    let (small, big) = (points[0].instances, points[points.len() - 1].instances);
    if r.smoke() {
        // Deterministic cross-executor check: identical per-instance loads
        // (byte-identical routing), not timing.
        let loads = |label| find(small, label).map(|m| &m.loads);
        let identical = loads("threads").is_some() && loads("threads") == loads("pool");
        r.check("per-instance loads identical across executors", identical);
    } else if let (Some(t_small), Some(p_small), Some(t_big), Some(p_big)) =
        (find(small, "threads"), find(small, "pool"), find(big, "threads"), find(big, "pool"))
    {
        let (small_ratio, big_ratio) =
            (p_small.counter_tput / t_small.counter_tput, p_big.counter_tput / t_big.counter_tput);
        let _ = writeln!(
            r,
            "pool/threads throughput ratio: {small_ratio:.2}x @ {small} instances, \
             {big_ratio:.2}x @ {big} instances",
        );
        r.check("pool ≥ 2x threads at the largest size", big_ratio >= 2.0);
        // "No worse" at small scale, with a noise allowance.
        r.check("pool no worse at the smallest size", small_ratio >= 0.85);
    }
    r.finish(&tsv);
}
