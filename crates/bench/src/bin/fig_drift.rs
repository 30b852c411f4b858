//! **Mid-run speed-drift experiment** — the adaptive load-signal stack
//! (Peak-EWMA latency signal + online capacity re-estimation) against
//! today's count-greedy PKG when a worker slows down *during* the run.
//!
//! The paper's schemes minimize tuple counts, which is the right signal
//! exactly when every worker is equally fast and stays that way. On real
//! clusters speed drifts mid-run — a co-tenant VM, a thermal throttle, a
//! failing disk — and a count-balanced assignment quietly turns the slowed
//! worker into the bottleneck. The pluggable [`pkg_metrics::LoadMetricKind`]
//! stack routes on *observed service latency* instead and re-derives
//! capacity weights from completed work on a sliding window, so the router
//! tracks the cluster it has, not the one it was configured for.
//!
//! Two legs, shared gates:
//!
//! * **Simulator** — 8 workers, worker 0 drops to quarter speed halfway
//!   through the stream ([`pkg_datagen::SpeedDrift`]). The static arm is
//!   plain PKG (tuple-count signal); the adaptive arm is the same scheme
//!   with `peak_ewma` + estimator. Score: capacity-weighted imbalance of
//!   the post-change phase against the TRUE post-change speeds.
//! * **Engine** — the same shape as a live topology: four stalling
//!   instances behind PKG, instance 0 switching to 4× per-tuple service
//!   time after a warm-up, under whichever executor `PKG_ENGINE_EXECUTOR`
//!   selects (CI runs both).
//!
//! Exits non-zero unless every gate holds:
//!
//! 1. **Adaptive dominance (sim)** — the adaptive arm's post-change
//!    weighted imbalance is strictly below the static arm's, and the
//!    estimator completed at least one window.
//! 2. **Uniform identity (sim)** — with *uniform* speeds the adaptive
//!    stack routes byte-identically to the tuple-count baseline (same
//!    per-worker loads, same imbalance columns): the signal plugs in
//!    without perturbing the paper's numbers.
//! 3. **Adaptive dominance (engine)** — under the mid-run slowdown the
//!    adaptive run beats the static run on weighted imbalance against the
//!    post-change capacities, and sheds load from the slowed instance.
//! 4. **Collapse identity (engine)** — `TupleCount` with no estimator is
//!    the degenerate configuration: per-instance loads are byte-identical
//!    to a run with no load options at all.
//!
//! `--smoke` shrinks the stream/tuple volume and keeps every gate.

use std::fmt::Write as _;
use std::time::Duration;

use pkg_bench::{scaled, seed, TextTable};
use pkg_core::{EstimateKind, SchemeSpec};
use pkg_datagen::{DatasetProfile, SpeedDrift};
use pkg_engine::prelude::*;
use pkg_metrics::{weighted_imbalance, Capacities, LoadMetricKind};
use pkg_sim::{run, ServiceProfile, SimConfig, SimReport};

/// Simulated workers.
const WORKERS: usize = 8;
/// Source PEIs.
const SOURCES: usize = 4;
/// Messages before `PKG_SCALE` (smoke: fixed 60k).
const MESSAGES: u64 = 200_000;
/// Baseline per-tuple service time fed to the simulator's profile, ns.
const BASE_SERVICE_NS: u64 = 50_000;
/// The drift: the slowed worker runs at quarter speed.
const SLOW_FACTOR: f64 = 0.25;

fn spec(messages: u64) -> pkg_datagen::StreamSpec {
    scaled(DatasetProfile::lognormal2().with_messages(messages)).build(seed())
}

/// Gates 1–2: the simulator leg.
fn sim_leg(messages: u64, out: &mut String, tsv: &mut String) -> bool {
    let spec = spec(messages);
    let mut slowed = vec![1.0; WORKERS];
    slowed[0] = SLOW_FACTOR;
    let drift = SpeedDrift::uniform(WORKERS).with_step(spec.duration_ms() / 2, slowed);
    let profile = ServiceProfile::new(BASE_SERVICE_NS, drift);

    let static_arm = run(
        &spec,
        &SimConfig::new(WORKERS, SOURCES, SchemeSpec::pkg(EstimateKind::Local))
            .with_seed(seed())
            .with_service_profile(profile.clone()),
    );
    let adaptive = run(
        &spec,
        &SimConfig::new(WORKERS, SOURCES, SchemeSpec::pkg(EstimateKind::Local))
            .with_seed(seed())
            .with_load(LoadSignalOptions::adaptive())
            .with_service_profile(profile),
    );

    let mut table = TextTable::new();
    table.row(["arm", "metric", "phase", "messages", "wimbalance", "slow_worker_load"]);
    for (arm, r) in [("static", &static_arm), ("adaptive", &adaptive)] {
        let d = r.drift.as_ref().expect("service profile produces drift stats");
        for p in &d.phases {
            table.row([
                arm.into(),
                r.load_metric.clone(),
                p.phase.to_string(),
                p.messages.to_string(),
                format!("{:.1}", p.weighted_imbalance()),
                p.loads[0].to_string(),
            ]);
        }
        tsv.push_str(&r.tsv_row());
        tsv.push('\n');
    }
    out.push_str(&table.render());

    let mut ok = true;

    // Gate 1: post-change dominance on the true post-change speeds.
    let sd = static_arm.drift.as_ref().expect("profile set");
    let ad = adaptive.drift.as_ref().expect("profile set");
    let (s1, a1) = (&sd.phases[1], &ad.phases[1]);
    let dominance = s1.messages > messages / 10
        && a1.messages > messages / 10
        && a1.weighted_imbalance() < s1.weighted_imbalance()
        && a1.loads[0] < s1.loads[0]
        && ad.estimator_rotations >= 1;
    let _ = writeln!(
        out,
        "check: adaptive post-change weighted imbalance {:.1} < static {:.1} \
         (estimator rotations: {}, final weights: {:?}) .. {}",
        a1.weighted_imbalance(),
        s1.weighted_imbalance(),
        ad.estimator_rotations,
        ad.estimator_weights.iter().map(|w| (w * 100.0).round() / 100.0).collect::<Vec<_>>(),
        if dominance { "OK" } else { "FAIL" }
    );
    ok &= dominance;

    // Gate 2: uniform speeds — the adaptive stack is a routing no-op.
    // Attached signals share one global load vector, so the honest
    // baseline is tuple-count routing over *global* estimates; with
    // uniform observed latency the peak-ewma signal is an exact positive
    // multiple of the count and every argmin (and every tie) agrees.
    let baseline = run(
        &spec,
        &SimConfig::new(WORKERS, SOURCES, SchemeSpec::pkg(EstimateKind::Global)).with_seed(seed()),
    );
    let uniform_adaptive = run(
        &spec,
        &SimConfig::new(WORKERS, SOURCES, SchemeSpec::pkg(EstimateKind::Global))
            .with_seed(seed())
            .with_load(LoadSignalOptions::adaptive())
            .with_service_profile(ServiceProfile::new(
                BASE_SERVICE_NS,
                SpeedDrift::uniform(WORKERS),
            )),
    );
    let identical = uniform_adaptive.worker_loads == baseline.worker_loads
        && uniform_adaptive.avg_imbalance == baseline.avg_imbalance
        && uniform_adaptive.avg_fraction == baseline.avg_fraction
        && uniform_adaptive.final_imbalance == baseline.final_imbalance;
    let _ = writeln!(
        out,
        "check: uniform-speed peak-ewma routing is byte-identical to tuple-count .. {}",
        if identical { "OK" } else { "FAIL" }
    );
    ok &= identical;
    for r in [&baseline, &uniform_adaptive] {
        tsv.push_str(&r.tsv_row());
        tsv.push('\n');
    }
    ok
}

/// A stalling bolt for the engine leg: instance 0 switches to `4×` the
/// per-tuple service time after its warm-up threshold — the mid-run
/// slowdown, engine edition.
struct DriftBolt {
    base: Duration,
    slow_after: Option<u64>,
    seen: u64,
}

impl Bolt for DriftBolt {
    fn execute(&mut self, _t: Tuple, out: &mut Emitter<'_>) {
        self.seen += 1;
        let slowed = matches!(self.slow_after, Some(at) if self.seen > at);
        out.stall(if slowed { self.base * 4 } else { self.base });
    }
}

/// Gates 3–4: the engine leg, under whichever executor
/// `PKG_ENGINE_EXECUTOR` selects.
fn engine_leg(tuples: u64, out: &mut String) -> bool {
    let instances = 4usize;
    // Instance 0 slows after a quarter of its fair share: most of the run
    // happens under the drifted speeds.
    let slow_after = tuples / (instances as u64) / 4;
    let build = |drift: bool| {
        let mut t = Topology::new();
        let s = t.add_spout("src", 1, move |_| {
            let mut i = 0u64;
            spout_from_fn(move || {
                i += 1;
                (i <= tuples).then(|| Tuple::new(format!("k{}", i % 997).into_bytes(), 1))
            })
        });
        let _ = t
            .add_bolt("stall", instances, move |i| {
                Box::new(DriftBolt {
                    base: Duration::from_micros(50),
                    slow_after: (drift && i == 0).then_some(slow_after),
                    seen: 0,
                })
            })
            .input(s, Grouping::partial_key());
        t
    };
    let run_engine = |drift: bool, load: Option<LoadSignalOptions>| {
        Runtime::with_options(RuntimeOptions {
            channel_capacity: 16,
            seed: seed(),
            load,
            ..RuntimeOptions::default()
        })
        .run(build(drift))
    };

    let mut ok = true;

    // Gate 3: adaptive dominance under the mid-run slowdown, scored as
    // weighted imbalance of the final loads against the post-change
    // capacities (the honest score for "did routing track the drift").
    let static_arm = run_engine(true, None);
    let adaptive = run_engine(true, Some(LoadSignalOptions::adaptive()));
    let mut speeds = vec![1.0; instances];
    speeds[0] = SLOW_FACTOR;
    let caps = Capacities::heterogeneous(&speeds);
    let wimb =
        |stats: &pkg_engine::RunStats| weighted_imbalance(&stats.loads("stall"), caps.as_ref());
    let (sw, aw) = (wimb(&static_arm), wimb(&adaptive));
    let (sl, al) = (static_arm.loads("stall"), adaptive.loads("stall"));
    let conserved = sl.iter().sum::<u64>() == tuples && al.iter().sum::<u64>() == tuples;
    let dominance = conserved && aw < sw && al[0] < sl[0];
    let _ = writeln!(
        out,
        "check: engine adaptive weighted imbalance {aw:.1} < static {sw:.1} \
         (slowed-instance loads {} vs {}) .. {}",
        al[0],
        sl[0],
        if dominance { "OK" } else { "FAIL" }
    );
    ok &= dominance;

    // Gate 4: the degenerate configuration collapses to the exact
    // baseline routing.
    let base = run_engine(false, None);
    let collapsed = run_engine(false, Some(LoadSignalOptions::metric(LoadMetricKind::TupleCount)));
    let identical = collapsed.loads("stall") == base.loads("stall");
    let _ = writeln!(
        out,
        "check: TupleCount-without-estimator engine routing is byte-identical \
         to no load options .. {}",
        if identical { "OK" } else { "FAIL" }
    );
    ok &= identical;
    ok
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (messages, tuples) = if smoke { (60_000, 3_000) } else { (MESSAGES, 8_000) };

    let mut out = String::from(
        "# fig_drift: Peak-EWMA + online capacity re-estimation vs count-greedy \
         PKG under mid-run speed drift\n",
    );
    let _ = writeln!(
        out,
        "# workers={WORKERS} sources={SOURCES} slow_factor={SLOW_FACTOR} seed={}{}",
        seed(),
        if smoke { " (smoke)" } else { "" },
    );
    let mut tsv = String::from(SimReport::tsv_header());
    tsv.push('\n');

    let mut ok = sim_leg(messages, &mut out, &mut tsv);
    ok &= engine_leg(tuples, &mut out);

    out.push('\n');
    out.push_str(&tsv);
    pkg_bench::emit("fig_drift.tsv", &out);
    if !ok {
        eprintln!("fig_drift: checks FAILED");
        std::process::exit(1);
    }
}
