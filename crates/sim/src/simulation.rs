//! The simulation loop: play a stream through sources and a partitioning
//! scheme, tracking worker loads and imbalance.

use std::time::Instant;

use pkg_core::{
    KeyFrequencies, LoadSignalOptions, Partitioner, ReplicationTracker, SchemeSpec, SharedLoads,
};
use pkg_datagen::{SpeedDrift, StreamSpec};
use pkg_elastic::MembershipPlan;
use pkg_metrics::{LoadVector, TimeSeries, Welford};

use crate::aggregation::AggregationSim;
use crate::report::{DriftStats, EpochStats, PhaseStats, ReplicationStats, SimReport};
use crate::source::{SourceAssigner, SourceAssignment};

/// Emulated per-worker service times for a run: a nominal per-tuple cost
/// scaled by a [`SpeedDrift`] schedule. This is what feeds latency
/// observations (and through them the capacity estimator) in the simulator,
/// where tuples otherwise complete instantaneously.
#[derive(Debug, Clone)]
pub struct ServiceProfile {
    /// Nominal service time per tuple at speed 1.0, nanoseconds.
    pub base_ns: u64,
    /// The per-worker speed schedule.
    pub drift: SpeedDrift,
}

impl ServiceProfile {
    /// A profile over `drift` with `base_ns` nominal cost per tuple.
    pub fn new(base_ns: u64, drift: SpeedDrift) -> Self {
        assert!(base_ns > 0, "service time must be positive");
        Self { base_ns, drift }
    }

    /// Emulated service time of one tuple on worker `w` at stream time
    /// `ts_ms` (a half-speed worker takes twice as long).
    pub fn service_ns(&self, w: usize, ts_ms: u64) -> u64 {
        ((self.base_ns as f64 / self.drift.speed(w, ts_ms)).round() as u64).max(1)
    }
}

/// Configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of downstream workers `W`.
    pub workers: usize,
    /// Number of source PEIs `S` (each holds its own partitioner instance,
    /// which is what makes "local" load estimation local).
    pub sources: usize,
    /// The partitioning scheme under test.
    pub scheme: SchemeSpec,
    /// Seed for hash families and any scheme-internal randomness. Keep it
    /// fixed across schemes being compared.
    pub seed: u64,
    /// Seed for the stream content. Keep it fixed across schemes so every
    /// scheme sees the identical message sequence.
    pub stream_seed: u64,
    /// How messages are spread over sources (Q3 uses `KeyHash`).
    pub assignment: SourceAssignment,
    /// Number of imbalance snapshots to take across the run (≥ 2).
    pub snapshots: u64,
    /// Track distinct (key, worker) pairs (costs one hash-map op per
    /// message; off for the big sweeps, on for memory experiments).
    pub track_replication: bool,
    /// Model the second aggregation phase with this period `T` in
    /// stream-time milliseconds (§V-D): per-worker tumbling windows whose
    /// flushes feed a downstream aggregator. `None` skips the modeling.
    pub aggregation_period_ms: Option<u64>,
    /// Per-worker capacity weights for a heterogeneous cluster (one per
    /// worker). When set, the report's weighted-imbalance columns measure
    /// load relative to capacity, and — unless
    /// [`Self::capacity_blind_routing`] — the schemes route by
    /// capacity-normalized load. Uniform weights degenerate exactly to the
    /// unweighted simulation.
    pub capacities: Option<Vec<f64>>,
    /// Keep the schemes routing on *raw* loads even when `capacities` is
    /// set (the report still measures weighted imbalance). This is the
    /// "unweighted PKG on a heterogeneous cluster" baseline of
    /// `fig_hetero`.
    pub capacity_blind_routing: bool,
    /// Scripted membership changes (pkg-elastic). Step thresholds are
    /// applied on the **global** message count and hit every source at
    /// once — the engine, by contrast, advances each sender independently
    /// on its own routed count. The report gains per-epoch
    /// [`EpochStats`]; the scheme must be
    /// [`Partitioner::resizable`] (Off-Greedy is not).
    pub membership_plan: Option<MembershipPlan>,
    /// The load signal the schemes minimize and the online capacity
    /// estimator's window (total observations per rotation; the estimator
    /// needs a [`Self::service_profile`] to have anything to observe). The
    /// default, `None` — like `TupleCount` without an estimator — attaches
    /// no signal state and routes byte-identically to every pre-metric
    /// revision.
    pub load: Option<LoadSignalOptions>,
    /// Emulated per-worker service times (feeds latency observations and
    /// the estimator; also turns on per-phase load accounting in the
    /// report).
    pub service_profile: Option<ServiceProfile>,
}

impl SimConfig {
    /// A config with the defaults used by most experiments: seed 42, uniform
    /// source assignment, 1000 snapshots, no replication tracking.
    pub fn new(workers: usize, sources: usize, scheme: SchemeSpec) -> Self {
        Self {
            workers,
            sources,
            scheme,
            seed: 42,
            stream_seed: 42,
            assignment: SourceAssignment::RoundRobin,
            snapshots: 1_000,
            track_replication: false,
            aggregation_period_ms: None,
            capacities: None,
            capacity_blind_routing: false,
            membership_plan: None,
            load: None,
            service_profile: None,
        }
    }

    /// Builder: select the minimized load signal (see [`Self::load`]).
    pub fn with_load(mut self, load: LoadSignalOptions) -> Self {
        self.load = Some(load);
        self
    }

    /// Builder: emulate per-worker service times (see [`ServiceProfile`]).
    pub fn with_service_profile(mut self, profile: ServiceProfile) -> Self {
        assert_eq!(profile.drift.n(), self.workers, "one speed schedule entry per worker");
        self.service_profile = Some(profile);
        self
    }

    /// Builder: scripted join/leave schedule (see
    /// [`Self::membership_plan`]).
    pub fn with_membership_plan(mut self, plan: MembershipPlan) -> Self {
        assert_eq!(plan.capacity(), self.workers, "plan id space must equal the worker count");
        self.membership_plan = Some(plan);
        self
    }

    /// Builder: set both seeds.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.stream_seed = seed;
        self
    }

    /// Builder: skewed source assignment (Q3).
    pub fn with_assignment(mut self, assignment: SourceAssignment) -> Self {
        self.assignment = assignment;
        self
    }

    /// Builder: enable replication tracking.
    pub fn with_replication(mut self) -> Self {
        self.track_replication = true;
        self
    }

    /// Builder: model the aggregation phase with period `period_ms`.
    pub fn with_aggregation(mut self, period_ms: u64) -> Self {
        self.aggregation_period_ms = Some(period_ms.max(1));
        self
    }

    /// Builder: per-worker capacity weights (heterogeneous cluster).
    pub fn with_capacities(mut self, capacities: &[f64]) -> Self {
        assert_eq!(capacities.len(), self.workers, "one capacity per worker");
        self.capacities = Some(capacities.to_vec());
        self
    }

    /// Builder: measure weighted imbalance but route on raw loads (the
    /// capacity-blind baseline).
    pub fn with_capacity_blind_routing(mut self) -> Self {
        self.capacity_blind_routing = true;
        self
    }

    /// Builder: snapshot count.
    pub fn with_snapshots(mut self, snapshots: u64) -> Self {
        self.snapshots = snapshots.max(2);
        self
    }
}

/// Compute the key-frequency histogram of a stream (one extra pass; needed
/// only by Off-Greedy).
pub fn frequencies(spec: &StreamSpec, stream_seed: u64) -> KeyFrequencies {
    KeyFrequencies::from_keys(spec.iter(stream_seed).map(|m| m.key))
}

/// Run one simulation.
pub fn run(spec: &StreamSpec, cfg: &SimConfig) -> SimReport {
    let started = Instant::now();
    assert!(cfg.workers > 0 && cfg.sources > 0);

    // Routing sees the capacity weights through SharedLoads (every scheme
    // built from it routes by normalized load) unless the config asks for
    // the capacity-blind baseline.
    let shared = match (&cfg.capacities, cfg.capacity_blind_routing) {
        (Some(caps), false) => SharedLoads::new(cfg.workers).with_capacities(caps),
        _ => SharedLoads::new(cfg.workers),
    };
    // The default metric with no estimator attaches no signal state at all,
    // so the default configuration routes byte-identically to earlier
    // revisions.
    let shared = match &cfg.load {
        Some(load) => load.attach(shared),
        None => shared,
    };
    let signals = shared.signals().cloned();
    let freqs = if cfg.scheme.needs_frequencies() {
        Some(frequencies(spec, cfg.stream_seed))
    } else {
        None
    };
    // All sources share hash seeds (they must agree on candidates) but own
    // their partitioner state.
    let mut sources: Vec<Partitioner> = (0..cfg.sources)
        .map(|s| cfg.scheme.build(cfg.workers, cfg.seed, s, &shared, freqs.as_ref()))
        .collect();
    let mut assigner = SourceAssigner::new(cfg.assignment, cfg.sources, cfg.seed);

    // Measurement always carries the weights when configured — also for
    // blind routing, so the two fig_hetero arms are compared on one metric.
    let mut loads = match &cfg.capacities {
        Some(caps) => LoadVector::new(cfg.workers).with_capacities(caps),
        None => LoadVector::new(cfg.workers),
    };
    let mut series = TimeSeries::new(2_048);
    let mut avg_imb = Welford::new();
    // The paper's "average fraction of imbalance" is the mean of the
    // per-snapshot fractions I(t)/m(t) — NOT mean(I(t))/m(final), which a
    // previous revision reported (that quantity survives as
    // `avg_imbalance_over_final`).
    let mut avg_frac = Welford::new();
    let mut avg_wimb = Welford::new();
    let mut avg_wfrac = Welford::new();
    let mut tracker = cfg.track_replication.then(ReplicationTracker::new);
    let mut aggsim =
        cfg.aggregation_period_ms.map(|period| AggregationSim::new(cfg.workers, period));

    let total = spec.messages();
    let snap_every = (total / cfg.snapshots).max(1);
    let mut until_snap = snap_every;

    let mut snapshot = |loads: &LoadVector, hours: f64| {
        avg_imb.add(loads.imbalance());
        avg_frac.add(loads.imbalance_fraction());
        avg_wimb.add(loads.weighted_imbalance());
        avg_wfrac.add(loads.weighted_imbalance_fraction());
        series.push(hours, loads.imbalance_fraction());
    };

    // Elastic membership replay. Re-convergence is measured over tumbling
    // windows of recent traffic (see [`EpochStats`]): each completed window
    // is scored against the band and then discarded, so the post-change
    // catch-up transient — which never leaves a cumulative load vector —
    // does not mask the recovered steady state.
    const CONVERGENCE_WINDOW: u64 = 2_048;
    let plan = cfg.membership_plan.as_ref();
    let mut epoch: u32 = 0;
    let mut window = plan.map(|_| LoadVector::new(cfg.workers));
    let mut epoch_msgs: u64 = 0;
    let mut band: Option<f64> = None;
    let mut converged_after: Option<u64> = None;
    let mut last_window_fraction: f64 = 0.0;
    let mut epoch_stats: Vec<EpochStats> = Vec::new();

    // The epoch's trailing-window fraction: the open partial window when it
    // holds a meaningful sample (at least half a window — a near-empty
    // remainder is statistical noise), else the last completed window.
    let trailing = |window: &LoadVector, live: &[usize], last: f64, completed: bool| {
        let partial: u64 = live.iter().map(|&w| window.load(w)).sum();
        if partial >= CONVERGENCE_WINDOW / 2 || (partial > 0 && !completed) {
            window.imbalance_fraction_over(live)
        } else {
            last
        }
    };

    // Per-phase load accounting for speed-drift runs: one fresh count
    // vector per drift phase, so each phase's balance is scored against
    // the speeds that were actually in force.
    let mut phase_loads: Vec<Vec<u64>> = cfg
        .service_profile
        .as_ref()
        .map(|p| vec![vec![0u64; cfg.workers]; p.drift.phases()])
        .unwrap_or_default();
    let mut phase_msgs: Vec<u64> = vec![0; phase_loads.len()];

    // `routed` counts the messages routed before this one, so a threshold
    // of `t` switches membership after exactly `t` old-epoch messages.
    for (routed, msg) in (0u64..).zip(spec.iter(cfg.stream_seed)) {
        if let (Some(plan), Some(window)) = (plan, window.as_mut()) {
            while epoch + 1 < plan.epochs() && routed >= plan.threshold(epoch + 1) {
                let final_fraction = trailing(
                    window,
                    plan.live(epoch),
                    last_window_fraction,
                    epoch_msgs >= CONVERGENCE_WINDOW,
                );
                let b = *band.get_or_insert((2.0 * final_fraction).max(0.01));
                epoch_stats.push(EpochStats {
                    epoch,
                    live: plan.live(epoch).to_vec(),
                    messages: epoch_msgs,
                    final_fraction,
                    converged_after,
                    band: b,
                });
                epoch += 1;
                let live = plan.live(epoch);
                for src in sources.iter_mut() {
                    src.apply_membership(live);
                }
                window.reset();
                epoch_msgs = 0;
                converged_after = None;
                last_window_fraction = 0.0;
            }
        }
        let s = assigner.assign(&msg);
        let w = sources[s].route(msg.key, msg.ts_ms);
        debug_assert!(w < cfg.workers);
        shared.record(w);
        loads.record(w, 1);
        if let Some(sig) = &signals {
            // In the sim a tuple completes the instant it is routed (in-flight
            // stays 0); a profiled service time is the latency sample.
            sig.complete(w, cfg.service_profile.as_ref().map_or(0, |p| p.service_ns(w, msg.ts_ms)));
        }
        if let Some(profile) = &cfg.service_profile {
            let phase = profile.drift.phase_at(msg.ts_ms);
            phase_loads[phase][w] += 1;
            phase_msgs[phase] += 1;
        }
        if let Some(t) = tracker.as_mut() {
            t.record(msg.key, w);
        }
        if let Some(a) = aggsim.as_mut() {
            a.record(w, msg.key, msg.ts_ms);
        }
        if let Some(window) = window.as_mut() {
            window.record(w, 1);
            epoch_msgs += 1;
            if epoch_msgs.is_multiple_of(CONVERGENCE_WINDOW) {
                let live = plan.map_or(&[][..], |p| p.live(epoch));
                last_window_fraction = window.imbalance_fraction_over(live);
                if converged_after.is_none() {
                    if let Some(b) = band {
                        if last_window_fraction <= b {
                            converged_after = Some(epoch_msgs);
                        }
                    }
                }
                window.reset();
            }
        }
        until_snap -= 1;
        if until_snap == 0 {
            until_snap = snap_every;
            snapshot(&loads, msg.ts_ms as f64 / 3_600_000.0);
        }
    }

    // Seal the last (possibly only) epoch.
    if let (Some(plan), Some(window)) = (plan, window.as_ref()) {
        let final_fraction = trailing(
            window,
            plan.live(epoch),
            last_window_fraction,
            epoch_msgs >= CONVERGENCE_WINDOW,
        );
        let b = *band.get_or_insert((2.0 * final_fraction).max(0.01));
        epoch_stats.push(EpochStats {
            epoch,
            live: plan.live(epoch).to_vec(),
            messages: epoch_msgs,
            final_fraction,
            converged_after,
            band: b,
        });
    }

    // Final snapshot, in case the stream length was not a multiple of the
    // snapshot stride.
    let final_imbalance = loads.imbalance();
    let final_weighted_imbalance = loads.weighted_imbalance();
    if until_snap != snap_every {
        snapshot(&loads, spec.duration_ms() as f64 / 3_600_000.0);
    }

    let estimator = signals.as_ref().and_then(|s| s.estimator());
    let drift = cfg.service_profile.as_ref().map(|p| DriftStats {
        phases: phase_loads
            .into_iter()
            .zip(phase_msgs)
            .enumerate()
            .map(|(i, (loads, messages))| PhaseStats {
                phase: i,
                messages,
                loads,
                speeds: p.drift.speeds_of_phase(i).to_vec(),
            })
            .collect(),
        estimator_rotations: estimator.map_or(0, |e| e.rotations()),
        estimator_weights: estimator.map(|e| e.weights()).unwrap_or_default(),
    });

    let messages = loads.total();
    let replication = tracker.map(|t| ReplicationStats {
        distinct_keys: t.distinct_keys(),
        total_pairs: t.total_pairs(),
        avg: t.avg_replication(),
        max: t.max_replication(),
    });

    SimReport {
        dataset: spec.name().to_string(),
        scheme: cfg.scheme.label(),
        workers: cfg.workers,
        sources: cfg.sources,
        messages,
        avg_imbalance: avg_imb.mean(),
        final_imbalance,
        avg_fraction: avg_frac.mean(),
        avg_imbalance_over_final: if messages == 0 {
            0.0
        } else {
            avg_imb.mean() / messages as f64
        },
        final_fraction: if messages == 0 { 0.0 } else { final_imbalance / messages as f64 },
        avg_weighted_imbalance: avg_wimb.mean(),
        final_weighted_imbalance,
        avg_weighted_fraction: avg_wfrac.mean(),
        final_weighted_fraction: if messages == 0 {
            0.0
        } else {
            final_weighted_imbalance / messages as f64
        },
        capacities: cfg.capacities.clone(),
        series,
        worker_loads: loads.loads().to_vec(),
        replication,
        aggregation: aggsim.map(|a| a.finish(spec.duration_ms())),
        epochs: cfg.membership_plan.as_ref().map(|_| epoch_stats),
        load_metric: shared.metric_label().to_string(),
        drift,
        wall_time: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkg_core::EstimateKind;
    use pkg_datagen::DatasetProfile;

    fn small_spec() -> StreamSpec {
        DatasetProfile::lognormal2().with_messages(60_000).build(5)
    }

    #[test]
    fn message_conservation() {
        let spec = small_spec();
        let cfg = SimConfig::new(7, 3, SchemeSpec::pkg(EstimateKind::Local));
        let r = run(&spec, &cfg);
        assert_eq!(r.messages, 60_000);
        assert_eq!(r.worker_loads.iter().sum::<u64>(), 60_000);
    }

    #[test]
    fn identical_config_is_deterministic() {
        let spec = small_spec();
        let cfg = SimConfig::new(5, 2, SchemeSpec::pkg(EstimateKind::Local));
        let a = run(&spec, &cfg);
        let b = run(&spec, &cfg);
        assert_eq!(a.worker_loads, b.worker_loads);
        assert_eq!(a.avg_imbalance, b.avg_imbalance);
    }

    #[test]
    fn q1_ordering_pkg_beats_potc_beats_hashing() {
        // The qualitative content of Table II on a skewed stream.
        let spec = small_spec();
        let run_scheme =
            |scheme: SchemeSpec| run(&spec, &SimConfig::new(5, 1, scheme)).avg_imbalance;
        let h = run_scheme(SchemeSpec::KeyGrouping);
        let potc = run_scheme(SchemeSpec::StaticPotc { estimate: EstimateKind::Global });
        let pkg = run_scheme(SchemeSpec::pkg(EstimateKind::Global));
        assert!(pkg < potc, "PKG {pkg} !< PoTC {potc}");
        assert!(potc < h, "PoTC {potc} !< H {h}");
    }

    #[test]
    fn local_estimation_close_to_global() {
        // Q2: "the difference from the global variant is always less than
        // one order of magnitude".
        let spec = small_spec();
        let g = run(&spec, &SimConfig::new(10, 5, SchemeSpec::pkg(EstimateKind::Global)));
        let l = run(&spec, &SimConfig::new(10, 5, SchemeSpec::pkg(EstimateKind::Local)));
        assert!(
            l.avg_imbalance <= g.avg_imbalance * 10.0 + 10.0,
            "L = {}, G = {}",
            l.avg_imbalance,
            g.avg_imbalance
        );
    }

    #[test]
    fn off_greedy_runs_with_frequencies() {
        let spec = small_spec();
        let r = run(&spec, &SimConfig::new(5, 1, SchemeSpec::OffGreedy));
        assert_eq!(r.scheme, "Off-Greedy");
        assert_eq!(r.messages, 60_000);
    }

    #[test]
    fn replication_tracking_reports_pkg_bound() {
        let spec = small_spec();
        let cfg = SimConfig::new(8, 2, SchemeSpec::pkg(EstimateKind::Local)).with_replication();
        let r = run(&spec, &cfg);
        let rep = r.replication.expect("tracking enabled");
        assert!(rep.max <= 2, "PKG must never spread a key past 2 workers");
        assert!(rep.avg <= 2.0);
        assert!(rep.distinct_keys as u64 <= spec.key_space());
    }

    #[test]
    fn skewed_assignment_still_balances_pkg() {
        // Q3 in miniature: graph stream, sources fed by key hash.
        let spec = DatasetProfile::slashdot1().with_messages(80_000).build(3);
        let cfg = SimConfig::new(10, 5, SchemeSpec::pkg(EstimateKind::Local))
            .with_assignment(SourceAssignment::KeyHash);
        let r = run(&spec, &cfg);
        // Fraction of imbalance stays small despite skewed sources.
        assert!(r.avg_fraction < 0.02, "avg fraction = {}", r.avg_fraction);
    }

    #[test]
    fn adaptive_choices_beat_pkg_on_skew_and_stay_replication_bounded() {
        // A skewed Zipf stream at W = 50 — past the two-choice limit for
        // its hottest key — simulated end to end through the SchemeSpec
        // build path with replication tracking.
        let spec = DatasetProfile::zipf_exponent(2_000, 2.0, 80_000).build(9);
        let run_scheme = |scheme: SchemeSpec| {
            run(&spec, &SimConfig::new(50, 3, scheme).with_seed(9).with_replication())
        };
        let pkg = run_scheme(SchemeSpec::pkg(EstimateKind::Local));
        let dc = run_scheme(SchemeSpec::d_choices(EstimateKind::Local));
        let wc = run_scheme(SchemeSpec::w_choices(EstimateKind::Local));
        assert!(
            dc.avg_imbalance < pkg.avg_imbalance / 4.0,
            "D-Choices {} not ≪ PKG {}",
            dc.avg_imbalance,
            pkg.avg_imbalance
        );
        assert!(wc.avg_imbalance < pkg.avg_imbalance / 4.0);
        let (rp, rd, rw) = (
            pkg.replication.expect("tracked"),
            dc.replication.expect("tracked"),
            wc.replication.expect("tracked"),
        );
        assert!(rp.max <= 2, "PKG never spreads a key past 2");
        assert!(rd.max > 2, "D-Choices must widen the head");
        assert!(rd.avg < rw.avg, "D-Choices replication {} !< W-Choices {}", rd.avg, rw.avg);
        assert_eq!(rw.max as usize, 50, "W-Choices head key reaches every worker");
    }

    #[test]
    fn adaptive_choices_match_pkg_simulation_without_head_keys() {
        // LN2 at W = 5: the hottest key (~7%) is far below θ = 2(1+ε)/5, so
        // the adaptive schemes must reproduce PKG's per-worker loads
        // exactly (byte-identical routing through the whole simulation).
        let spec = small_spec();
        let pkg = run(&spec, &SimConfig::new(5, 2, SchemeSpec::pkg(EstimateKind::Local)));
        let dc = run(&spec, &SimConfig::new(5, 2, SchemeSpec::d_choices(EstimateKind::Local)));
        let wc = run(&spec, &SimConfig::new(5, 2, SchemeSpec::w_choices(EstimateKind::Local)));
        assert_eq!(pkg.worker_loads, dc.worker_loads);
        assert_eq!(pkg.worker_loads, wc.worker_loads);
    }

    #[test]
    fn avg_fraction_is_mean_of_snapshot_fractions() {
        let spec = small_spec();
        let r = run(&spec, &SimConfig::new(5, 2, SchemeSpec::KeyGrouping));
        // Every snapshot has m(t) ≤ m(final), so the true average fraction
        // dominates the final-m-normalized legacy quantity …
        assert!(r.avg_fraction >= r.avg_imbalance_over_final - 1e-12);
        // … and on a skewed stream (imbalance grows sublinearly early) the
        // two are genuinely different quantities.
        assert!(r.avg_fraction > 0.0);
        assert!(
            (r.avg_fraction - r.avg_imbalance_over_final).abs() > 1e-9,
            "fixed avg_fraction {} should differ from the legacy quantity {}",
            r.avg_fraction,
            r.avg_imbalance_over_final
        );
        // Homogeneous cluster: weighted metrics coincide with unweighted.
        assert_eq!(r.avg_weighted_imbalance, r.avg_imbalance);
        assert_eq!(r.final_weighted_imbalance, r.final_imbalance);
        assert_eq!(r.avg_weighted_fraction, r.avg_fraction);
    }

    #[test]
    fn uniform_capacities_reproduce_unweighted_run_exactly() {
        let spec = small_spec();
        let base = SimConfig::new(8, 3, SchemeSpec::pkg(EstimateKind::Local));
        let plain = run(&spec, &base);
        let uniform = run(&spec, &base.clone().with_capacities(&[2.5; 8]));
        assert_eq!(plain.worker_loads, uniform.worker_loads, "routing must be byte-identical");
        assert_eq!(plain.avg_imbalance, uniform.avg_imbalance);
        assert_eq!(plain.avg_fraction, uniform.avg_fraction);
        assert_eq!(uniform.avg_weighted_imbalance, uniform.avg_imbalance);
        assert_eq!(uniform.final_weighted_fraction, uniform.final_fraction);
    }

    #[test]
    fn weighted_routing_beats_capacity_blind_on_heterogeneous_cluster() {
        let spec = small_spec();
        // Workers 0–3 are 4× machines, 4–7 are 1×.
        let caps = [4.0, 4.0, 4.0, 4.0, 1.0, 1.0, 1.0, 1.0];
        let base = SimConfig::new(8, 3, SchemeSpec::pkg(EstimateKind::Local));
        let aware = run(&spec, &base.clone().with_capacities(&caps));
        let blind = run(&spec, &base.with_capacities(&caps).with_capacity_blind_routing());
        // Blind routing equalizes raw loads, overloading the 1× workers;
        // capacity-aware routing shifts mass to the 4× machines.
        let fast: u64 = aware.worker_loads[..4].iter().sum();
        let slow: u64 = aware.worker_loads[4..].iter().sum();
        assert!(fast > slow * 2, "fast workers must absorb most load: {:?}", aware.worker_loads);
        assert!(
            aware.avg_weighted_imbalance < blind.avg_weighted_imbalance / 2.0,
            "weighted {} not ≪ blind {}",
            aware.avg_weighted_imbalance,
            blind.avg_weighted_imbalance
        );
        assert!(aware.final_weighted_imbalance < blind.final_weighted_imbalance);
        // The blind arm still records the capacities it was measured under.
        assert_eq!(blind.capacities.as_deref(), Some(&caps[..]));
    }

    #[test]
    fn aggregation_overhead_trades_messages_for_staleness() {
        let spec = small_spec();
        let run_t = |period_ms: u64| {
            let cfg = SimConfig::new(5, 2, SchemeSpec::pkg(EstimateKind::Local))
                .with_aggregation(period_ms);
            run(&spec, &cfg).aggregation.expect("aggregation modeled")
        };
        let short = run_t(spec.duration_ms() / 200);
        let long = run_t(spec.duration_ms() / 5);
        // §V-D: longer periods send fewer merge messages …
        assert!(
            long.merge_messages < short.merge_messages,
            "T long sent {} vs short {}",
            long.merge_messages,
            short.merge_messages
        );
        // … but buffer more per window and deliver staler results.
        assert!(long.avg_worker_state > short.avg_worker_state);
        assert!(long.avg_staleness_ms > short.avg_staleness_ms);
        // Conservation: every message waits somewhere, every key reaches
        // the aggregator.
        assert!(short.merge_fraction <= 2.0, "PKG sends at most 2 partials per key-window");
        assert!(long.windows >= 1 && short.windows > long.windows);
    }

    #[test]
    fn aggregation_columns_render_in_tsv() {
        let spec = small_spec();
        let cfg =
            SimConfig::new(4, 1, SchemeSpec::KeyGrouping).with_aggregation(spec.duration_ms() / 10);
        let r = run(&spec, &cfg);
        let header_cols = SimReport::tsv_header().split('\t').count();
        assert_eq!(r.tsv_row().split('\t').count(), header_cols);
        // Without aggregation the row still aligns with the header.
        let r2 = run(&spec, &SimConfig::new(4, 1, SchemeSpec::KeyGrouping));
        assert_eq!(r2.tsv_row().split('\t').count(), header_cols);
    }

    #[test]
    fn static_membership_plan_is_byte_identical_to_no_plan() {
        use pkg_elastic::MembershipPlan;
        let spec = small_spec();
        let base = SimConfig::new(6, 2, SchemeSpec::pkg(EstimateKind::Local));
        let plain = run(&spec, &base);
        let planned = run(&spec, &base.clone().with_membership_plan(MembershipPlan::new(6)));
        assert_eq!(plain.worker_loads, planned.worker_loads);
        let epochs = planned.epochs.expect("plan set");
        assert_eq!(epochs.len(), 1);
        assert_eq!(epochs[0].live, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(epochs[0].messages, 60_000);
        assert!(plain.epochs.is_none());
    }

    #[test]
    fn halve_then_double_replays_and_reconverges() {
        use pkg_elastic::{Change, MembershipPlan};
        let spec = small_spec(); // 60k messages
                                 // Rejoin at 20k leaves 40k messages for epoch 2: the returning
                                 // workers' catch-up transient (the greedy schemes flood them until
                                 // their load estimates reach parity) needs roughly half of that
                                 // before recent-traffic balance recovers.
        let plan = MembershipPlan::new(6)
            .with_step(10_000, [Change::Remove(3), Change::Remove(4), Change::Remove(5)])
            .with_step(20_000, [Change::Insert(3), Change::Insert(4), Change::Insert(5)]);
        let cfg =
            SimConfig::new(6, 3, SchemeSpec::pkg(EstimateKind::Local)).with_membership_plan(plan);
        let r = run(&spec, &cfg);
        assert_eq!(r.worker_loads.iter().sum::<u64>(), 60_000, "tuple conservation");
        let epochs = r.epochs.expect("plan set");
        assert_eq!(epochs.len(), 3);
        assert_eq!(epochs[1].live, vec![0, 1, 2]);
        assert_eq!(epochs[2].live, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(epochs.iter().map(|e| e.messages).sum::<u64>(), 60_000);
        for e in &epochs[1..] {
            let after = e.converged_after.expect("epoch {e:?} never re-converged");
            assert!(after <= e.messages);
            assert!(e.final_fraction <= e.band, "epoch {} ended outside the band", e.epoch);
        }
    }

    #[test]
    fn dead_workers_receive_no_load_while_dead() {
        use pkg_elastic::{Change, MembershipPlan};
        let spec = small_spec();
        // Workers 4 and 5 die at 10k and never return.
        let plan = MembershipPlan::new(6).with_step(10_000, [Change::Remove(4), Change::Remove(5)]);
        let cfg =
            SimConfig::new(6, 2, SchemeSpec::pkg(EstimateKind::Local)).with_membership_plan(plan);
        let r = run(&spec, &cfg);
        // All of workers 4/5's mass came from epoch 0 (10k messages).
        assert!(r.worker_loads[4] + r.worker_loads[5] <= 10_000);
        assert!(r.worker_loads[..4].iter().all(|&l| l > 10_000 / 6));
    }

    #[test]
    fn default_config_reports_the_count_metric_and_no_drift() {
        let spec = small_spec();
        let r = run(&spec, &SimConfig::new(4, 1, SchemeSpec::pkg(EstimateKind::Local)));
        assert_eq!(r.load_metric, "count");
        assert!(r.drift.is_none());
    }

    #[test]
    fn uniform_speed_peak_ewma_routes_byte_identically_to_tuple_count() {
        // The adaptive stack (Peak-EWMA + estimator) under *uniform*
        // observed latency must reproduce the TupleCount oracle run
        // exactly: every worker's signal is the same constant multiple of
        // its count, preserving strict orders AND ties, and the estimator
        // dead-band keeps `scale` the identity.
        let spec = small_spec();
        let baseline = run(&spec, &SimConfig::new(8, 3, SchemeSpec::pkg(EstimateKind::Global)));
        let profile = ServiceProfile::new(50_000, SpeedDrift::uniform(8));
        let adaptive = run(
            &spec,
            &SimConfig::new(8, 3, SchemeSpec::pkg(EstimateKind::Global))
                .with_load(LoadSignalOptions::adaptive())
                .with_service_profile(profile),
        );
        assert_eq!(adaptive.load_metric, "peak_ewma");
        assert_eq!(
            baseline.worker_loads, adaptive.worker_loads,
            "uniform-speed adaptive run must be byte-identical to today's routing"
        );
        let drift = adaptive.drift.expect("profile set");
        assert!(drift.estimator_rotations > 0, "the estimator did rotate");
        assert!(
            drift.estimator_weights.iter().all(|&w| w == 1.0),
            "uniform observations keep the estimator in its dead-band: {:?}",
            drift.estimator_weights
        );
        assert_eq!(drift.phases.len(), 1);
        assert_eq!(drift.phases[0].messages, 60_000);
    }

    #[test]
    fn adaptive_metric_sheds_load_from_a_worker_slowed_mid_run() {
        // Worker 0 slows 4× halfway through the stream. The static arm
        // (today's PKG) keeps balancing raw counts; the adaptive arm sees
        // the latency jump and the estimator's re-derived weights, and
        // sheds load within the phase. Score: weighted imbalance of the
        // post-change phase against the TRUE post-change speeds.
        let spec = small_spec();
        let w = 8;
        let mut slowed = vec![1.0; w];
        slowed[0] = 0.25;
        let drift = SpeedDrift::uniform(w).with_step(spec.duration_ms() / 2, slowed);
        let profile = ServiceProfile::new(50_000, drift);
        let static_arm = run(
            &spec,
            &SimConfig::new(w, 3, SchemeSpec::pkg(EstimateKind::Local))
                .with_service_profile(profile.clone()),
        );
        let adaptive = run(
            &spec,
            &SimConfig::new(w, 3, SchemeSpec::pkg(EstimateKind::Local))
                .with_load(LoadSignalOptions::adaptive())
                .with_service_profile(profile),
        );
        let s = &static_arm.drift.expect("profile set").phases[1];
        let a = &adaptive.drift.expect("profile set").phases[1];
        assert!(s.messages > 10_000 && a.messages > 10_000, "phase 1 carries real traffic");
        assert!(
            a.weighted_imbalance() < s.weighted_imbalance() / 2.0,
            "adaptive {} must beat static {} on true-capacity weighted imbalance",
            a.weighted_imbalance(),
            s.weighted_imbalance()
        );
        assert!(
            a.loads[0] < s.loads[0],
            "the slowed worker must absorb less under the adaptive stack"
        );
    }

    #[test]
    fn series_covers_stream_duration() {
        let spec = small_spec();
        let cfg = SimConfig::new(4, 1, SchemeSpec::KeyGrouping).with_snapshots(100);
        let r = run(&spec, &cfg);
        let pts = r.series.points();
        assert!(!pts.is_empty());
        let last_hour = pts.last().expect("non-empty").0;
        assert!(last_hour > 0.0);
    }
}
