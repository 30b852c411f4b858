//! **Fig. 5 overhead sweep** — the cost of PKG's second aggregation phase
//! as a function of the aggregation period `T`, for PKG vs. KG vs. shuffle.
//!
//! §V-D: "Shorter aggregation periods reduce the memory requirements, as
//! partial counters are flushed often, at the cost of a higher number of
//! aggregation messages." This driver measures that trade-off end-to-end at
//! simulation scale via `pkg-sim`'s aggregation modeling (`pkg-agg` windows
//! under every worker): merge messages, per-worker window memory,
//! aggregator state, and per-window staleness, over a nested grid of `T`.
//!
//! A second sweep measures the same trade-off for the adaptive D-Choices /
//! W-Choices schemes on a skewed Zipf stream at `W = 50` — the cost side of
//! "When Two Choices Are not Enough": more candidates per head key means
//! more partials per key-window, so merge overhead must order
//! `PKG ≤ D-Choices ≤ W-Choices ≤ SG` at every period (and strictly grow
//! from PKG to D to W in total).
//!
//! It then validates the live two-phase engine pipelines (`pkg-apps`'
//! bolts over `pkg-agg` accumulators) that replaced the hand-rolled flush
//! logic:
//!
//! * word count (PKG and SG): the aggregator's final totals must be
//!   byte-identical to the ground-truth counts of the same seeded stream —
//!   i.e. identical to what the pre-refactor single-phase counters
//!   produced;
//! * heavy hitters: the merged SpaceSaving summary must be byte-identical
//!   to the single-phase computation with the same routing.
//!
//! Exits non-zero if merge-message overhead fails to decrease as `T` grows
//! or if either parity check fails.

use std::fmt::Write as _;
use std::time::Duration;

use pkg_agg::PartialAgg;
use pkg_apps::heavy_hitters::{heavy_hitters_topology, single_phase_summary, HeavyHittersConfig};
use pkg_apps::wordcount::{exact_counts, wordcount_topology, WordCountConfig, WordCountVariant};
use pkg_bench::{scaled, seed, Report, TextTable};
use pkg_core::{EstimateKind, SchemeSpec};
use pkg_datagen::DatasetProfile;
use pkg_engine::{Grouping, Runtime, RuntimeOptions};
use pkg_sim::{run as run_sim, SimConfig};

fn sim_sweep(r: &mut Report, tsv: &mut String) {
    let spec = scaled(DatasetProfile::lognormal2()).build(seed());
    let duration = spec.duration_ms();
    // Nested period grid — each literally divides the next (base, 4·base,
    // …, 256·base), so coarser panes are exact unions of finer ones and the
    // merge-message count is provably non-increasing in `T` for a fixed
    // stream. (Dividing `duration` by a ratio grid would NOT nest after
    // integer truncation.)
    let base = (duration / 512).max(1);
    let periods: Vec<u64> = [1u64, 4, 16, 64, 256].iter().map(|m| base * m).collect();
    let schemes = [
        ("PKG", SchemeSpec::pkg(EstimateKind::Local)),
        ("KG", SchemeSpec::KeyGrouping),
        ("SG", SchemeSpec::ShuffleGrouping),
    ];

    let mut table = TextTable::new();
    table.row([
        "scheme",
        "T_ms",
        "merge_msgs",
        "merge_frac",
        "worker_window",
        "agg_keys",
        "staleness_ms",
    ]);
    let mut ok = true;
    for (label, scheme) in schemes {
        let mut prev: Option<u64> = None;
        for &period in &periods {
            let cfg =
                SimConfig::new(10, 5, scheme.clone()).with_seed(seed()).with_aggregation(period);
            let rep = run_sim(&spec, &cfg);
            let a = rep.aggregation.as_ref().expect("aggregation modeled");
            table.row([
                label.to_string(),
                period.to_string(),
                a.merge_messages.to_string(),
                format!("{:.4}", a.merge_fraction),
                format!("{:.1}", a.avg_worker_state),
                format!("{:.1}", a.avg_aggregator_state),
                format!("{:.1}", a.avg_staleness_ms),
            ]);
            tsv.push_str(&rep.tsv_row());
            tsv.push('\n');
            if let Some(p) = prev {
                if a.merge_messages > p {
                    let _ = writeln!(
                        r,
                        "VIOLATION: {label} merge messages rose {p} -> {} at T={period}",
                        a.merge_messages
                    );
                    ok = false;
                }
            }
            prev = Some(a.merge_messages);
        }
    }
    r.push_str(&table.render());
    r.check("merge-message overhead decreases as T grows for every scheme", ok);
}

/// The adaptive-choice overhead sweep: merge messages per scheme over the
/// nested period grid, on a Zipf z=2.0 stream at `W = 50` where head keys
/// exist (the LN2 profile of the primary sweep has no key past
/// `θ = 2(1+ε)/10` at `W = 10`, so D/W-Choices degenerate to PKG there).
fn choice_sweep(r: &mut Report, tsv: &mut String) {
    let workers = 50;
    let spec = scaled(DatasetProfile::zipf_exponent(10_000, 2.0, 2_000_000)).build(seed());
    let duration = spec.duration_ms();
    let base = (duration / 512).max(1);
    let periods: Vec<u64> = [1u64, 4, 16, 64, 256].iter().map(|m| base * m).collect();
    let schemes = [
        ("PKG", SchemeSpec::pkg(EstimateKind::Local)),
        ("DC", SchemeSpec::d_choices(EstimateKind::Local)),
        ("WC", SchemeSpec::w_choices(EstimateKind::Local)),
        ("SG", SchemeSpec::ShuffleGrouping),
    ];

    let mut table = TextTable::new();
    table.row(["scheme", "T_ms", "merge_msgs", "merge_frac", "worker_window", "agg_keys"]);
    let mut ok = true;
    // merges[scheme][period index]
    let mut merges: Vec<Vec<u64>> = Vec::new();
    for (label, scheme) in &schemes {
        let mut row = Vec::new();
        let mut prev: Option<u64> = None;
        for &period in &periods {
            let cfg = SimConfig::new(workers, 5, scheme.clone())
                .with_seed(seed())
                .with_aggregation(period);
            let rep = run_sim(&spec, &cfg);
            let a = rep.aggregation.as_ref().expect("aggregation modeled");
            table.row([
                label.to_string(),
                period.to_string(),
                a.merge_messages.to_string(),
                format!("{:.4}", a.merge_fraction),
                format!("{:.1}", a.avg_worker_state),
                format!("{:.1}", a.avg_aggregator_state),
            ]);
            tsv.push_str(&rep.tsv_row());
            tsv.push('\n');
            if let Some(p) = prev {
                if a.merge_messages > p {
                    ok = false;
                    let _ = writeln!(
                        r,
                        "VIOLATION: {label} merge messages rose {p} -> {} at T={period}",
                        a.merge_messages
                    );
                }
            }
            prev = Some(a.merge_messages);
            row.push(a.merge_messages);
        }
        merges.push(row);
    }
    r.push_str(&table.render());

    // Candidate-count ordering at every period: PKG ≤ DC ≤ WC ≤ SG.
    let mut ordered = true;
    for (t, &period) in periods.iter().enumerate() {
        let (pkg, dc, wc, sg) = (merges[0][t], merges[1][t], merges[2][t], merges[3][t]);
        if !(pkg <= dc && dc <= wc && wc <= sg) {
            ordered = false;
            let _ = writeln!(
                r,
                "VIOLATION: merge ordering PKG {pkg} ≤ DC {dc} ≤ WC {wc} ≤ SG {sg} broken at \
                 T={period}"
            );
        }
    }
    // And strictly more candidates ⇒ strictly more merges overall.
    let sum = |i: usize| merges[i].iter().sum::<u64>();
    if !(sum(0) < sum(1) && sum(1) < sum(2)) {
        ordered = false;
        let _ = writeln!(
            r,
            "VIOLATION: total merges not strictly increasing PKG {} / DC {} / WC {}",
            sum(0),
            sum(1),
            sum(2)
        );
    }
    r.check("adaptive-choice merge overhead ordered PKG ≤ DC ≤ WC ≤ SG (strict totals)", ordered);
    r.check("merge-message overhead decreases as T grows for D/W-Choices", ok);
}

/// Word count on the live engine: the two-phase totals must equal the
/// ground truth of the seeded stream byte-for-byte (what the pre-refactor
/// single-phase counters produced).
fn wordcount_parity(r: &mut Report, variant: WordCountVariant) {
    let cfg = WordCountConfig {
        variant,
        messages_per_source: 20_000,
        vocabulary: 500,
        counters: 6,
        aggregation_period: Some(Duration::from_millis(20)),
        seed: seed(),
        ..WordCountConfig::default()
    };
    let collector = pkg_apps::Collector::new();
    let (mut topo, _, _, aggregator) = wordcount_topology(&cfg);
    let c = collector.clone();
    let _sink =
        topo.add_bolt("collector", 1, move |_| c.bolt()).input(aggregator, Grouping::Global);
    Runtime::new().run(topo);

    let render = |pairs: &[(String, i64)]| {
        pairs.iter().fold(String::new(), |mut s, (w, n)| {
            let _ = writeln!(s, "{w}\t{n}");
            s
        })
    };
    let mut got: Vec<(String, i64)> = collector
        .totals()
        .into_iter()
        .map(|(k, v)| (String::from_utf8(k.to_vec()).expect("words are utf8"), v))
        .collect();
    got.sort_unstable();
    let mut want: Vec<(String, i64)> = exact_counts(&cfg).into_iter().collect();
    want.sort_unstable();
    r.check(
        format_args!(
            "wordcount/{} two-phase totals byte-identical to single-phase",
            cfg.variant.label()
        ),
        render(&got) == render(&want),
    );
}

/// Heavy hitters on the live engine vs. the single-phase oracle.
fn heavy_hitters_parity(r: &mut Report) {
    let cfg = HeavyHittersConfig {
        workers: 8,
        profile: DatasetProfile::cashtags().with_messages(50_000),
        engine_seed: seed(),
        ..HeavyHittersConfig::default()
    };
    let (topo, collector) = heavy_hitters_topology(&cfg);
    Runtime::with_options(RuntimeOptions {
        channel_capacity: 1024,
        seed: cfg.engine_seed,
        ..RuntimeOptions::default()
    })
    .run(topo);
    let engine = pkg_apps::heavy_hitters::final_summary(&collector).expect("summary collected");
    let oracle = single_phase_summary(&cfg);
    r.check(
        "heavy-hitters merged summary byte-identical to single-phase",
        engine.encoded() == oracle.encoded(),
    );
}

fn main() {
    let mut r = Report::start(
        "fig5_overhead",
        "Fig. 5 overhead: aggregation period T vs merge messages / memory / staleness",
    );
    let _ = writeln!(r, "# workers=10 sources=5 seed={} (sim: lognormal2 profile)", seed());
    let mut tsv = String::from(pkg_sim::SimReport::tsv_header());
    tsv.push('\n');

    sim_sweep(&mut r, &mut tsv);
    r.push_str("\n# Adaptive-choice overhead (Zipf z=2.0, workers=50, sources=5)\n");
    choice_sweep(&mut r, &mut tsv);
    wordcount_parity(&mut r, WordCountVariant::PartialKeyGrouping);
    wordcount_parity(&mut r, WordCountVariant::ShuffleGrouping);
    heavy_hitters_parity(&mut r);
    r.finish(&tsv);
}
