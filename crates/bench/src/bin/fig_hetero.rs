//! **Heterogeneous-worker sweep** — capacity-weighted PKG against
//! capacity-blind PKG on mixed hardware, the paper's cloud-deployment
//! caveat made measurable.
//!
//! PKG (§III) assumes identical workers: the greedy choice compares raw
//! loads, so on a cluster where half the machines are 2× or 4× faster it
//! equalizes *message counts* and turns the slowest machines into the
//! bottleneck. The follow-up "Load Balancing for Skewed Streams on
//! Heterogeneous Clusters" (Nasir et al., 2017) picks the argmin of
//! *capacity-normalized* load `L_i/c_i` instead; the journal version frames
//! imbalance relative to what each worker can absorb, which is the
//! `weighted_imbalance` metric (`max_i(L_i/c_i) − m/W`, weights normalized
//! to mean 1) both arms are judged by here.
//!
//! Grid: capacity ratio `r ∈ {1:1, 2:1, 4:1}` × `W ∈ {10, 50}` × Zipf
//! exponent `z ∈ {0.0, 2.0}` (uniform and heavily skewed; 10k keys,
//! `S = 4` sources, local estimation). A ratio `r:1` is a *graded* cluster:
//! capacities ramp linearly from `r` (worker 0) down to `1` (worker W−1),
//! the mixed-VM shape of a real cloud deployment — and, because every
//! worker's speed differs, a hot key's two hash candidates never share a
//! capacity, so capacity-aware splitting strictly improves the head term
//! even past the two-choice saturation limit of §IV (where a two-class
//! half-fast/half-slow cluster would leave PKG's hot-key split unchanged
//! whenever both candidates land in the same class). Per point the driver
//! runs **weighted** PKG (routing sees the capacities) and **blind** PKG
//! (today's scheme; the report still measures weighted imbalance).
//!
//! Exits non-zero unless every gate holds:
//!
//! 1. **Heterogeneous dominance** — at every skewed-capacity point (2:1,
//!    4:1) the weighted arm's average *normalized* imbalance is strictly
//!    below the blind arm's.
//! 2. **Uniform degeneration** — at every 1:1 point the weighted arm is
//!    *byte-identical* to a capacity-free run of the same config
//!    (per-worker loads and every imbalance column), i.e. `fig2`-style
//!    numbers reproduce exactly.
//! 3. **Fair-share routing** — at 4:1 on the uniform stream the weighted
//!    arm's fast-half:slow-half load split matches the halves' capacity
//!    ratio within 5% in both directions (capacity-proportional
//!    water-filling; the blind arm stays near 1:1), and on every 4:1
//!    point the weighted arm shifts strictly more mass to the fast half
//!    than the blind arm does.
//! 4. **Engine capacity scaling** — a two-instance stall topology with a
//!    quarter-speed instance charges exactly 4× the service time on that
//!    instance (deterministic in the requested durations, under whichever
//!    executor `PKG_ENGINE_EXECUTOR` selects — CI runs both).
//!
//! `--smoke` shrinks the grid to `r ∈ {1:1, 4:1} × W = 10` with a shorter
//! stream and keeps every gate — fast and deterministic, run in CI.

use std::fmt::Write as _;
use std::time::Duration;

use pkg_bench::{scaled, seed, sim_tsv, threads, Report, TextTable};
use pkg_core::{EstimateKind, SchemeSpec};
use pkg_datagen::DatasetProfile;
use pkg_engine::prelude::*;
use pkg_sim::sweep::{run_parallel, Job};
use pkg_sim::{SimConfig, SimReport};

/// Messages per grid point before `PKG_SCALE` (smoke: fixed 60k).
const MESSAGES: u64 = 200_000;
/// Distinct keys of the synthetic Zipf streams.
const KEYS: u64 = 10_000;
/// Source PEIs (each with its own load estimate).
const SOURCES: usize = 4;

/// A graded cluster: capacities ramp linearly from `ratio` (worker 0) down
/// to 1.0 (worker `W−1`), so the fastest:slowest ratio is `ratio:1` and no
/// two workers share a speed (see the module docs for why that matters
/// past the two-choice saturation limit). `ratio = 1` is the homogeneous
/// cluster.
fn capacity_vector(workers: usize, ratio: f64) -> Vec<f64> {
    (0..workers)
        .map(|i| 1.0 + (ratio - 1.0) * (workers - 1 - i) as f64 / (workers - 1).max(1) as f64)
        .collect()
}

struct Point {
    ratio: f64,
    w: usize,
    z: f64,
    /// Capacity-aware routing.
    weighted: SimReport,
    /// Raw-load routing measured under the same weighted metric.
    blind: SimReport,
    /// Capacity-free run (only for 1:1 points: the exact-degeneration
    /// oracle).
    plain: Option<SimReport>,
}

fn sweep(ratios: &[f64], ws: &[usize], zs: &[f64], messages: u64) -> Vec<Point> {
    let scheme = SchemeSpec::pkg(EstimateKind::Local);
    let mut jobs = Vec::new();
    let mut shape = Vec::new();
    for &z in zs {
        let spec = scaled(DatasetProfile::zipf_exponent(KEYS, z, messages)).build(seed());
        for &w in ws {
            for &ratio in ratios {
                let caps = capacity_vector(w, ratio);
                let base = SimConfig::new(w, SOURCES, scheme.clone()).with_seed(seed());
                jobs.push(Job { spec: spec.clone(), cfg: base.clone().with_capacities(&caps) });
                jobs.push(Job {
                    spec: spec.clone(),
                    cfg: base.clone().with_capacities(&caps).with_capacity_blind_routing(),
                });
                let uniform = ratio == 1.0;
                if uniform {
                    jobs.push(Job { spec: spec.clone(), cfg: base });
                }
                shape.push((ratio, w, z, uniform));
            }
        }
    }
    let reports = run_parallel(jobs, threads());
    let mut it = reports.into_iter();
    let mut points = Vec::new();
    for (ratio, w, z, uniform) in shape {
        let weighted = it.next().expect("report per job");
        let blind = it.next().expect("report per job");
        let plain = uniform.then(|| it.next().expect("report per job"));
        points.push(Point { ratio, w, z, weighted, blind, plain });
    }
    points
}

/// Gate 4: the engine charges capacity-scaled service time exactly.
fn engine_capacity_check(r: &mut Report) {
    let tuples = 64u64;
    let per_tuple = Duration::from_millis(1);
    struct StallBolt(Duration);
    impl Bolt for StallBolt {
        fn execute(&mut self, _t: Tuple, out: &mut Emitter<'_>) {
            out.stall(self.0);
        }
    }
    let mut topo = Topology::new();
    let s = topo.add_spout("src", 1, move |_| {
        let mut i = 0u64;
        spout_from_fn(move || {
            i += 1;
            (i <= tuples).then(|| Tuple::new(i.to_le_bytes().to_vec(), 1))
        })
    });
    let _ = topo
        .add_bolt("stall", 2, move |_| Box::new(StallBolt(per_tuple)))
        .input(s, Grouping::Shuffle);
    let stats = Runtime::with_options(RuntimeOptions {
        seed: seed(),
        capacities: InstanceCapacities::uniform().with("stall", &[1.0, 0.25]),
        ..RuntimeOptions::default()
    })
    .run(topo);
    let stalled = stats.stalled_ns("stall");
    let per_instance = tuples / 2 * per_tuple.as_nanos() as u64;
    r.check(
        format_args!(
            "engine charges 4x service time on the quarter-speed instance \
             (stalled_ns = {stalled:?})"
        ),
        stats.processed("stall") == tuples
            && stalled[0] == per_instance
            && stalled[1] == 4 * per_instance,
    );
}

fn main() {
    let mut r = Report::start(
        "fig_hetero",
        "fig_hetero: capacity-weighted vs capacity-blind PKG on heterogeneous workers",
    );
    let (ratios, ws, zs, messages): (Vec<f64>, Vec<usize>, Vec<f64>, u64) = if r.smoke() {
        (vec![1.0, 4.0], vec![10], vec![0.0, 2.0], 60_000)
    } else {
        (vec![1.0, 2.0, 4.0], vec![10, 50], vec![0.0, 2.0], MESSAGES)
    };

    let _ = writeln!(
        r,
        "# keys={KEYS} sources={SOURCES} seed={} metric=weighted_imbalance (max L_i/c_i - m/W){}",
        seed(),
        r.smoke_tag(),
    );

    let points = sweep(&ratios, &ws, &zs, messages);

    let mut table = TextTable::new();
    table.row(["ratio", "W", "z", "arm", "avg_wimb", "avg_wfrac", "final_wfrac", "fast/slow"]);
    for p in &points {
        for (arm, rep) in [("weighted", &p.weighted), ("blind", &p.blind)] {
            let fast = rep.load_sum(0..p.w / 2);
            let slow = rep.load_sum(p.w / 2..p.w);
            table.row([
                format!("{}:1", p.ratio),
                p.w.to_string(),
                format!("{:.1}", p.z),
                arm.into(),
                format!("{:.1}", rep.avg_weighted_imbalance),
                format!("{:.2e}", rep.avg_weighted_fraction),
                format!("{:.2e}", rep.final_weighted_fraction),
                format!("{:.2}", fast as f64 / slow.max(1) as f64),
            ]);
        }
    }
    r.push_str(&table.render());

    // Gate 1: weighted routing strictly beats blind routing (on the
    // normalized metric) at every heterogeneous grid point.
    let mut dominance = true;
    for p in points.iter().filter(|p| p.ratio > 1.0) {
        if p.weighted.avg_weighted_imbalance >= p.blind.avg_weighted_imbalance {
            dominance = false;
            let _ = writeln!(
                r,
                "VIOLATION: weighted imbalance {} !< blind {} at r={} W={} z={}",
                p.weighted.avg_weighted_imbalance,
                p.blind.avg_weighted_imbalance,
                p.ratio,
                p.w,
                p.z
            );
        }
    }
    r.check(
        "weighted-PKG normalized imbalance < blind PKG at every skewed-capacity point",
        dominance,
    );

    // Gate 2: uniform capacities reproduce the capacity-free run exactly.
    let mut degeneration = true;
    for p in points.iter().filter(|p| p.ratio == 1.0) {
        let plain = p.plain.as_ref().expect("1:1 points carry the capacity-free oracle");
        for (arm, rep) in [("weighted", &p.weighted), ("blind", &p.blind)] {
            let exact = rep.worker_loads == plain.worker_loads
                && rep.avg_imbalance == plain.avg_imbalance
                && rep.avg_fraction == plain.avg_fraction
                && rep.avg_weighted_imbalance == plain.avg_imbalance
                && rep.final_weighted_fraction == plain.final_fraction;
            if !exact {
                degeneration = false;
                let _ = writeln!(
                    r,
                    "VIOLATION: {arm} arm diverged from the capacity-free run at W={} z={}",
                    p.w, p.z
                );
            }
        }
    }
    r.check("1:1 capacities reproduce capacity-free numbers byte-identically", degeneration);

    // Gate 3: fair-share routing at 4:1 — the weighted arm water-fills by
    // capacity while the blind arm equalizes raw loads.
    let mut fair = true;
    for p in points.iter().filter(|p| p.ratio == 4.0) {
        let split = |rep: &SimReport| {
            let fast = rep.load_sum(0..p.w / 2);
            let slow = rep.load_sum(p.w / 2..p.w);
            fast as f64 / slow.max(1) as f64
        };
        let (wf, bf) = (split(&p.weighted), split(&p.blind));
        // The weighted arm always shifts strictly more mass fast-ward; on
        // the uniform stream it reaches capacity proportionality — the
        // fast-half:slow-half load ratio matches the halves' capacity
        // ratio within 5% in BOTH directions (an over-shift would mean
        // the weighting is applied twice; a saturating head key caps the
        // shift on the skewed stream, so only strict improvement is gated
        // there).
        let caps = capacity_vector(p.w, p.ratio);
        let ideal = caps[..p.w / 2].iter().sum::<f64>() / caps[p.w / 2..].iter().sum::<f64>();
        let proportional = if p.z == 0.0 { wf >= ideal * 0.95 && wf <= ideal * 1.05 } else { true };
        if !proportional || wf <= bf {
            fair = false;
            let _ = writeln!(
                r,
                "VIOLATION: weighted fast/slow load ratio {wf:.2} \
                 (blind {bf:.2}, capacity ratio {ideal:.2}) at W={} z={}",
                p.w, p.z
            );
        }
    }
    r.check(
        "at 4:1 the weighted arm routes more mass to the fast half \
         (capacity-proportional at z=0)",
        fair,
    );

    // Gate 4: engine-side capacity scaling.
    engine_capacity_check(&mut r);
    r.finish(&sim_tsv(points.iter().flat_map(|p| [&p.weighted, &p.blind])));
}
