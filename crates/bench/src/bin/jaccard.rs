//! **Q2 detail: choice overlap between G and L** — "interestingly, even
//! though both G and L achieve very good load balance, their choices are
//! quite different. In an experiment measuring the agreement on the
//! destination of each message, G and L have only 47% Jaccard overlap.
//! Hence, L reaches a local minimum which is very close in value to the one
//! obtained by G, although different." (§V-B, Q2)
//!
//! This driver routes the *same* stream through PKG-with-oracle and
//! PKG-with-local-estimation in lockstep and reports, per dataset:
//! the per-message agreement rate, the Jaccard overlap of the
//! (key → worker-set) assignments, and both final imbalances — reproducing
//! the claim that the two schemes balance equally despite disagreeing on
//! destinations about half the time.

use std::fmt::Write as _;

use pkg_bench::{scaled, seed, Report, TextTable};
use pkg_core::{Estimate, PartialKeyGrouping, SharedLoads};
use pkg_datagen::DatasetProfile;
use pkg_hash::{FxHashMap, FxHashSet};
use pkg_metrics::imbalance;

fn main() {
    let datasets = [
        scaled(DatasetProfile::wikipedia()).scale(0.4),
        scaled(DatasetProfile::twitter()).scale(0.4),
        scaled(DatasetProfile::cashtags()),
    ];
    let (workers, sources) = (10usize, 5usize);

    let mut r =
        Report::start("jaccard", "Q2: agreement between PKG-G and PKG-L on message destinations");
    let _ = writeln!(r, "# W={workers} S={sources} seed={} (paper: 47% Jaccard overlap)", seed());
    let mut table = TextTable::new();
    table.row(["dataset", "msg_agreement", "jaccard", "I(G)", "I(L)"]);

    for profile in &datasets {
        let spec = profile.build(seed());
        let shared = SharedLoads::new(workers);
        // G: all sources share the oracle; L: each source its own estimate.
        let mut g_sources: Vec<PartialKeyGrouping> = (0..sources)
            .map(|_| PartialKeyGrouping::new(workers, 2, Estimate::global(shared.clone()), seed()))
            .collect();
        let mut l_sources: Vec<PartialKeyGrouping> = (0..sources)
            .map(|_| PartialKeyGrouping::new(workers, 2, Estimate::local(workers), seed()))
            .collect();

        let mut loads_g = vec![0u64; workers];
        let mut loads_l = vec![0u64; workers];
        let mut agree = 0u64;
        let mut m = 0u64;
        // (key, worker) assignment sets for the Jaccard overlap.
        let mut set_g: FxHashMap<u64, FxHashSet<usize>> = FxHashMap::default();
        let mut set_l: FxHashMap<u64, FxHashSet<usize>> = FxHashMap::default();
        let mut src = 0usize;
        for msg in spec.iter(seed()) {
            let wg = g_sources[src].route(msg.key, msg.ts_ms);
            shared.record(wg); // the oracle tracks G's realized loads
            let wl = l_sources[src].route(msg.key, msg.ts_ms);
            loads_g[wg] += 1;
            loads_l[wl] += 1;
            if wg == wl {
                agree += 1;
            }
            set_g.entry(msg.key).or_default().insert(wg);
            set_l.entry(msg.key).or_default().insert(wl);
            m += 1;
            src = (src + 1) % sources;
        }

        // Jaccard over (key, worker) pairs.
        let mut inter = 0u64;
        let mut union = 0u64;
        for (key, gs) in &set_g {
            let ls = set_l.get(key);
            for w in gs {
                union += 1;
                if ls.is_some_and(|s| s.contains(w)) {
                    inter += 1;
                }
            }
        }
        for (key, ls) in &set_l {
            let gs = set_g.get(key);
            for w in ls {
                if !gs.is_some_and(|s| s.contains(w)) {
                    union += 1;
                }
            }
        }
        table.row([
            profile.name.clone(),
            format!("{:.1}%", 100.0 * agree as f64 / m as f64),
            format!("{:.1}%", 100.0 * inter as f64 / union as f64),
            format!("{:.1}", imbalance(&loads_g)),
            format!("{:.1}", imbalance(&loads_l)),
        ]);
    }
    r.push_str(&table.render());
    r.push_str("\n# expectation: agreement well below 100% while both imbalances stay tiny\n");
    r.push_str("# (local estimation finds a different but equally good minimum).\n");
    r.finish("");
}
