//! Quickstart: route a skewed stream with key grouping, shuffle grouping
//! and PARTIAL KEY GROUPING, and compare imbalance and memory. Exits
//! non-zero unless the table shows the paper's ordering: KG keeps one
//! counter per key but is badly imbalanced, PKG keeps at most two and
//! balances like SG.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use partial_key_grouping::prelude::*;
use pkg_core::ReplicationTracker;
use pkg_datagen::DatasetProfile;
use pkg_metrics::imbalance;

fn main() {
    let workers = 10;
    let messages = 1_000_000;
    // A Wikipedia-like stream: Zipf keys, the hottest carrying 9.32% of
    // traffic (Table I of the paper).
    let spec = DatasetProfile::wikipedia().with_messages(messages).with_keys(100_000).build(42);

    let mut schemes = [
        ("KeyGrouping   (KG)", Partitioner::KeyGrouping(KeyGrouping::new(workers, 42))),
        ("ShuffleGrouping(SG)", Partitioner::ShuffleGrouping(ShuffleGrouping::new(workers))),
        (
            "PartialKeyGrp (PKG)",
            Partitioner::PartialKeyGrouping(PartialKeyGrouping::new(
                workers,
                2,
                Estimate::local(workers),
                42,
            )),
        ),
    ];

    println!("routing {messages} messages (p1 = 9.32%) to {workers} workers\n");
    println!(
        "{:<22}{:>14}{:>12}{:>16}{:>14}",
        "scheme", "imbalance", "I/m", "counters", "max repl."
    );
    // (imbalance, max replication) per scheme, in table order.
    let mut rows = Vec::new();
    for (name, p) in schemes.iter_mut() {
        let mut loads = vec![0u64; workers];
        let mut tracker = ReplicationTracker::new();
        for msg in spec.iter(7) {
            let w = p.route(msg.key, msg.ts_ms);
            loads[w] += 1;
            tracker.record(msg.key, w);
        }
        let imb = imbalance(&loads);
        println!(
            "{:<22}{:>14.1}{:>12.2e}{:>16}{:>14}",
            name,
            imb,
            imb / messages as f64,
            tracker.total_pairs(),
            tracker.max_replication(),
        );
        rows.push((imb, tracker.max_replication()));
    }
    println!(
        "\nPKG matches SG's balance while touching at most 2 workers per key\n\
         (KG: 1 worker but massive imbalance; SG: perfect balance but every\n\
         key's state smeared over all {workers} workers)."
    );

    let [(kg_imb, kg_repl), (sg_imb, _), (pkg_imb, pkg_repl)] = rows[..] else {
        unreachable!("one row per scheme")
    };
    assert_eq!(kg_repl, 1, "KG must keep each key on one worker");
    assert!(pkg_repl <= 2, "PKG must keep each key on at most two workers, got {pkg_repl}");
    assert!(pkg_imb < 0.01 * kg_imb, "PKG imbalance {pkg_imb} must be < 1% of KG's {kg_imb}");
    assert!(sg_imb <= 1.0, "SG imbalance {sg_imb} must be at most one message");
}
