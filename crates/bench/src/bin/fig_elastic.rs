//! **Elastic reconfiguration** — runtime worker membership, exercised end
//! to end and gated hard.
//!
//! The paper fixes the worker set for the lifetime of a run; `pkg-elastic`
//! lifts that: a [`MembershipPlan`] scripts join/leave steps at message
//! thresholds, and the partitioners confine routing to the live set. No
//! state moves. Key splitting (§III) already spreads each key over two
//! workers and merges the splits downstream, so a worker that leaves the
//! live set simply stops receiving tuples and flushes its open pane at its
//! next tick or at end of stream, one more split of each key for the
//! aggregator to merge. This binary **halves then doubles** the live worker
//! set mid-stream and exits non-zero unless every gate holds:
//!
//! 1. **Tuple conservation** (engine) — every spout tuple is processed
//!    exactly once: Σ worker `processed` equals the spout emissions in both
//!    the elastic run and the static-W oracle.
//! 2. **Byte-identity to a static-W oracle** (engine) — the merged
//!    second-phase output (key, value, payload triples; birth timestamps
//!    excluded) of the elastic run equals a plain fixed-W PKG run of the
//!    same stream through the same worker bolt: leaving and rejoining
//!    neither loses, duplicates, nor corrupts a split.
//! 3. **Bounded re-convergence** (sim) — after each membership change the
//!    imbalance fraction measured over tumbling windows of recent traffic
//!    returns inside the pre-change band (2× epoch 0's trailing-window
//!    fraction, floored at 1%) within the epoch, and the moment it does is
//!    reported.
//!
//! Threshold semantics differ by arm, deliberately: the simulator applies
//! membership steps on the *global* routed-message count (all sources
//! switch atomically), while the engine is distributed — each sender
//! crosses a threshold on its *own* routed count, so epochs overlap and a
//! departing worker can still be draining old-epoch tuples while its peers
//! already route around it.
//!
//! `--smoke` shrinks both arms and keeps every gate; CI loops it under both
//! `PKG_ENGINE_EXECUTOR` values.

use std::fmt::Write as _;
use std::time::Duration;

use pkg_agg::Sum;
use pkg_apps::{AggregatorBolt, Collector, WindowedWorkerBolt};
use pkg_bench::{seed, Report, TextTable};
use pkg_core::{EstimateKind, SchemeSpec};
use pkg_datagen::DatasetProfile;
use pkg_elastic::{Change, MembershipPlan};
use pkg_engine::prelude::*;
use pkg_sim::{run as sim_run, SimConfig};

/// Fixed id space: the full worker set.
const W: usize = 6;
/// Spout/source parallelism.
const S: usize = 4;
/// The live set is halved by removing the upper indices, then restored.
const HALF: [Change; 3] = [Change::Remove(3), Change::Remove(4), Change::Remove(5)];
const BACK: [Change; 3] = [Change::Insert(3), Change::Insert(4), Change::Insert(5)];

/// Halve the live set at `at1`, double it back at `at2` (thresholds are
/// per-sender counts in the engine arm, global counts in the sim arm).
fn plan(at1: u64, at2: u64) -> MembershipPlan {
    MembershipPlan::new(W).with_step(at1, HALF).with_step(at2, BACK)
}

/// A skewed word stream for source `s`: ~20% of traffic on one hot key,
/// the rest cycling a 997-word tail (disjoint offsets per source).
fn stream(s: usize, n: u64) -> Vec<Tuple> {
    (0..n)
        .map(|j| {
            let key = if j % 5 == 0 {
                b"k-hot".to_vec()
            } else {
                format!("k{}", 1 + (j * S as u64 + s as u64) % 997).into_bytes()
            };
            Tuple::new(key, 1)
        })
        .collect()
}

/// The byte-identity comparison shape: (key, value, payload), with the
/// wall-clock `born_ns` excluded.
type Triple = (Box<[u8]>, i64, Box<[u8]>);

/// Collected aggregator output as [`Triple`]s.
fn triples(c: &Collector) -> Vec<Triple> {
    c.tuples().into_iter().map(|t| (t.key.into_boxed(), t.value, t.payload)).collect()
}

/// Run the two-phase word count over `per_source` tuples per spout behind
/// `grouping`. Returns the collected output and the run stats.
fn engine_run(per_source: u64, grouping: Grouping) -> (Collector, pkg_engine::RunStats) {
    let collector = Collector::new();
    let mut topo = Topology::new();
    let src = topo
        .add_spout("src", S, move |s| pkg_engine::spout::spout_from_iter(stream(s, per_source)));
    let worker = topo
        .add_bolt("worker", W, |_| {
            Box::new(WindowedWorkerBolt::<Sum>::per_key().panes_every_ticks(2))
        })
        .input(src, grouping)
        .tick_every(Duration::from_millis(2))
        .id();
    let agg = topo
        .add_bolt("agg", 1, |_| Box::new(AggregatorBolt::<Sum>::new()))
        .input(worker, Grouping::Key)
        .id();
    let c = collector.clone();
    let _sink = topo.add_bolt("sink", 1, move |_| c.bolt()).input(agg, Grouping::Global);
    let options = RuntimeOptions { seed: seed(), ..RuntimeOptions::default() };
    let stats = Runtime::with_options(options).run(topo);
    (collector, stats)
}

fn main() {
    let mut r = Report::start(
        "fig_elastic",
        "fig_elastic: halve-then-double worker membership, departing workers flush their own panes",
    );
    let per_source: u64 = if r.smoke() { 5_000 } else { 30_000 };
    let sim_messages: u64 = if r.smoke() { 45_000 } else { 120_000 };
    let _ = writeln!(
        r,
        "# W={W} S={S} seed={} engine_per_source={per_source} sim_messages={sim_messages}{}",
        seed(),
        r.smoke_tag(),
    );

    // ---- Engine arm: membership changes under real concurrency ---------
    let engine_plan = plan(per_source / 3, 2 * per_source / 3);
    let (elastic, elastic_stats) = engine_run(per_source, Grouping::elastic(engine_plan));
    let (oracle, oracle_stats) = engine_run(per_source, Grouping::partial_key());

    // Gate 1: exact tuple conservation in both arms.
    let spout_total = S as u64 * per_source;
    let conserved = elastic_stats.processed("worker") == spout_total
        && oracle_stats.processed("worker") == spout_total;
    r.check(
        format_args!(
            "conservation — worker processed {} (elastic) and {} (static) == {spout_total}",
            elastic_stats.processed("worker"),
            oracle_stats.processed("worker"),
        ),
        conserved,
    );

    // Gate 2: byte-identity of the merged output to the static-W oracle.
    let (et, ot) = (triples(&elastic), triples(&oracle));
    let label =
        format!("elastic merged output byte-identical to static-W oracle ({} keys)", et.len());
    if !r.check(label, et == ot && !et.is_empty()) {
        for (a, b) in et.iter().zip(&ot).filter(|(a, b)| a != b).take(5) {
            let _ = writeln!(r, "  diverged: elastic {a:?} vs oracle {b:?}");
        }
    }

    // ---- Sim arm: re-convergence measurement over the same schedule ------
    // The paper's LN2 profile: skewed enough that the rejoin catch-up
    // transient is visible, mild enough that both the halved and the full
    // live set balance to a small structural fraction — so the band gate
    // measures the *transient*, not residual skew.
    let spec = DatasetProfile::lognormal2().with_messages(sim_messages).build(seed());
    // Thresholds at m/6 and m/3: after the rejoin the greedy scheme floods
    // the returning workers until their load estimates reach parity — a
    // transient of roughly twice the halved epoch's length — so the final
    // epoch needs comfortably more room than that.
    let cfg = SimConfig::new(W, S, SchemeSpec::pkg(EstimateKind::Local))
        .with_seed(seed())
        .with_membership_plan(plan(sim_messages / 6, sim_messages / 3));
    let report = sim_run(&spec, &cfg);
    let stats = report.epochs.as_ref().expect("membership plan produces epoch stats");

    let mut table = TextTable::new();
    table.row(["epoch", "live", "messages", "final_frac", "band", "converged_after"]);
    for e in stats {
        table.row([
            e.epoch.to_string(),
            format!("{:?}", e.live),
            e.messages.to_string(),
            format!("{:.4}", e.final_fraction),
            format!("{:.4}", e.band),
            e.converged_after.map_or("-".into(), |m| m.to_string()),
        ]);
    }
    r.push_str(&table.render());

    // Gate 3: every post-change epoch re-enters the pre-change band within
    // the epoch, and ends inside it.
    let conserved_sim = report.load_sum(0..report.workers) == sim_messages
        && stats.len() == 3
        && stats.iter().map(|e| e.messages).sum::<u64>() == sim_messages;
    let reconverged = conserved_sim
        && stats[1..].iter().all(|e| e.converged_after.is_some() && e.final_fraction <= e.band);
    r.check(
        "imbalance re-converges into the pre-change band after every membership change",
        reconverged,
    );
    r.finish("");
}
