//! The benchmark's fixed vocabulary: workload names, end-to-end metrics
//! with their regression bounds, and the per-layer ledger. `BENCHMARK.json`
//! at the repo root lists the same names; a unit test parses that file and
//! compares, so the two cannot drift apart.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric. `bound` is the share of the parent's median by which
/// an end-to-end metric may worsen before a change counts as a regression;
/// per-layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better, bound: None }
}

/// `(name, why)` of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "wc_sat_pool",
        "flagship: saturated PKG word count, 5 sources / 44 counters; transfer and schedule dominate, batched route_batch path",
    ),
    (
        "wc_optin_pool",
        "same topology with never-shedding ingress and adaptive load signals on: scalar per-tuple routing, batched path disabled",
    ),
    (
        "wc_paced_pool",
        "the paper's Q4 regime: 20 us emulated service, source paced at 75% of capacity; the timer wheel, not the CPU, is the bottleneck",
    ),
    (
        "wc_flush_pool",
        "merge-heavy: 60k-word vocabulary, 20 ms aggregation period; PartialAgg insert, flush, codec and phase-two merge dominate",
    ),
    (
        "route_sim",
        "no engine: pkg_sim::run over a Zipf stream for KG, PKG, D-Choices, W-Choices, single thread; sample, hash, route only",
    ),
];

/// The metrics a user of the system sees, reported with `--trace 0`. Each
/// bound is at least three times the widest spread (IQR ÷ median over ten
/// seeds) measured for the metric on any workload, with room for the
/// phases in which a neighbour on the sandbox's host slows whole runs by a
/// tenth to a fifth; the README has the tables.
pub const END_TO_END: [MetricSpec; 6] = [
    e2e("tuples_per_s", "1/s", Better::Higher, 0.20),
    e2e("lat_p50_us", "us", Better::Lower, 0.20),
    e2e("lat_p99_us", "us", Better::Lower, 0.25),
    e2e("max_load_pct", "%", Better::Lower, 0.15),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

const NS: &str = "ns";
const L: Better = Better::Lower;

/// The per-layer ledger, reported with `--trace 1` (layers are the crates).
pub const PER_LAYER: [MetricSpec; 54] = [
    layer("datagen.zipf_sample_ns", NS, L),
    layer("datagen.stream_iter_ns", NS, L),
    layer("datagen.zipf_fit_ms", "ms", L),
    layer("apps.topology_build_ms", "ms", L),
    layer("hash.murmur3_u64_ns", NS, L),
    layer("hash.murmur3_bytes16_ns", NS, L),
    layer("hash.family_choices_d2_ns", NS, L),
    layer("core.route_kg_ns", NS, L),
    layer("core.route_pkg_ns", NS, L),
    layer("core.route_dchoices_ns", NS, L),
    layer("core.route_wchoices_ns", NS, L),
    layer("core.head_tracker_observe_ns", NS, L),
    layer("core.route_pkg_signals_ns", NS, L),
    layer("core.signals_dispatch_complete_ns", NS, L),
    layer("sim.kg_ns_per_msg", NS, L),
    layer("sim.pkg_ns_per_msg", NS, L),
    layer("sim.dchoices_ns_per_msg", NS, L),
    layer("sim.wchoices_ns_per_msg", NS, L),
    layer("engine.grouping.route_ns", NS, L),
    layer("engine.grouping.route_batch256_ns", NS, L),
    layer("engine.tuple.new_inline_ns", NS, L),
    layer("engine.ring.push_pop_b1_ns", NS, L),
    layer("engine.ring.push_pop_b64_ns", NS, L),
    layer("engine.ring.push_pop_b256_ns", NS, L),
    layer("engine.ring.xthread_b64_ns", NS, L),
    layer("engine.pool.ns_per_tuple", NS, L),
    layer("engine.pool.residual_ns", NS, L),
    layer("engine.pool.tuples_per_activation", "count", Better::Higher),
    layer("engine.pool.max_depth", "count", L),
    layer("engine.pool.workers1_ns_per_tuple", NS, L),
    layer("engine.pool.mutex_mailbox_ratio", "ratio", L),
    layer("engine.executor.threads_ns_per_tuple", NS, L),
    layer("ingress.on_delta_pct", "%", L),
    layer("engine.load.pending_delta_pct", "%", L),
    layer("engine.load.peak_ewma_delta_pct", "%", L),
    layer("elastic.empty_plan_delta_pct", "%", L),
    layer("ingress.bucket_admit_ns", NS, L),
    layer("metrics.histogram_record_ns", NS, L),
    layer("metrics.capacity_estimator_observe_ns", NS, L),
    layer("agg.sum_insert_ns", NS, L),
    layer("agg.sum_merge_ns", NS, L),
    layer("agg.sum_encode_ns", NS, L),
    layer("agg.sum_decode_ns", NS, L),
    layer("agg.topk_insert_ns", NS, L),
    layer("agg.spacesaving_offer_ns", NS, L),
    layer("agg.partials_per_tuple", "ratio", L),
    layer("trace.datagen_sample_ns", NS, L),
    layer("trace.hash_key_id_ns", NS, L),
    layer("trace.route_batch_ns", NS, L),
    layer("trace.ring_transfer_ns", NS, L),
    layer("trace.agg_insert_ns", NS, L),
    layer("trace.agg_flush_ns", NS, L),
    layer("trace.overhead_pct", "%", L),
    layer("trace.spans", "count", L),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn legal(name: &str, extra: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_use_the_contract_charset() {
        let all = || END_TO_END.iter().chain(PER_LAYER.iter());
        for m in all() {
            assert!(legal(m.name, "_.-", 64), "bad metric name {:?}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(legal(m.unit, "_/%.-", 16), "bad unit {:?} of {}", m.unit, m.name);
        }
        for (w, why) in WORKLOADS {
            assert!(legal(w, "_.-", 64), "bad workload name {w:?}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {w} too long");
        }
        let mut names: Vec<&str> =
            all().map(|m| m.name).chain(WORKLOADS.iter().map(|w| w.0)).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used twice");
    }

    #[test]
    fn bounds_respect_the_contract() {
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s present");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
    }

    /// `BENCHMARK.json` must list exactly the names this binary prints.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(Value::as_array).expect("array").to_vec();
        let text_of = |v: &Value, key: &str| {
            v.get(key).and_then(Value::as_str).expect("string field").to_string()
        };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (v, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!((text_of(v, "name"), text_of(v, "why")), (name.into(), why.into()));
        }
        for (key, specs) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed = list(key);
            assert_eq!(listed.len(), specs.len(), "{key} length");
            for (v, m) in listed.iter().zip(specs) {
                assert_eq!(text_of(v, "name"), m.name);
                assert_eq!(text_of(v, "unit"), m.unit, "unit of {}", m.name);
                assert_eq!(text_of(v, "better"), m.better.label(), "direction of {}", m.name);
                assert_eq!(v.get("bound").and_then(Value::as_f64), m.bound, "bound of {}", m.name);
            }
        }
        let paths = list("paths");
        assert_eq!(paths.iter().filter_map(Value::as_str).collect::<Vec<_>>(), ["benchmark"]);
    }
}
