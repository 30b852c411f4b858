//! **Table I** — Summary of the datasets used in the experiments: number of
//! messages, number of keys and percentage of messages having the most
//! frequent key (p1).
//!
//! Paper values:
//!
//! ```text
//! Dataset        Symbol  Messages  Keys   p1(%)
//! Wikipedia      WP      22M       2.9M   9.32
//! Twitter        TW      1.2G      31M    2.67
//! Cashtags       CT      690k      2.9k   3.29
//! Synthetic 1    LN1     10M       16k    14.71
//! Synthetic 2    LN2     10M       1.1k   7.01
//! LiveJournal    LJ      69M       4.9M   0.29
//! Slashdot0811   SL1     905k      77k    3.28
//! Slashdot0902   SL2     948k      82k    3.11
//! ```
//!
//! This driver builds every synthetic profile at the configured scale,
//! streams it once, and reports the *achieved* statistics next to the
//! paper's. Zipf profiles match p1 exactly by construction; log-normal and
//! graph profiles have emergent p1 (the paper's values are one draw from
//! the same generative family).

use std::fmt::Write as _;

use pkg_bench::{scaled, seed, Report, TextTable};
use pkg_datagen::DatasetProfile;
use pkg_hash::FxHashMap;

struct PaperRow {
    symbol: &'static str,
    messages: &'static str,
    keys: &'static str,
    p1: f64,
}

fn main() {
    let rows: Vec<(DatasetProfile, PaperRow)> = vec![
        (
            scaled(DatasetProfile::wikipedia()),
            PaperRow { symbol: "WP", messages: "22M", keys: "2.9M", p1: 9.32 },
        ),
        (
            scaled(DatasetProfile::twitter()),
            PaperRow { symbol: "TW", messages: "1.2G", keys: "31M", p1: 2.67 },
        ),
        (
            scaled(DatasetProfile::cashtags()),
            PaperRow { symbol: "CT", messages: "690k", keys: "2.9k", p1: 3.29 },
        ),
        (
            scaled(DatasetProfile::lognormal1()),
            PaperRow { symbol: "LN1", messages: "10M", keys: "16k", p1: 14.71 },
        ),
        (
            scaled(DatasetProfile::lognormal2()),
            PaperRow { symbol: "LN2", messages: "10M", keys: "1.1k", p1: 7.01 },
        ),
        (
            scaled(DatasetProfile::livejournal()),
            PaperRow { symbol: "LJ", messages: "69M", keys: "4.9M", p1: 0.29 },
        ),
        (
            scaled(DatasetProfile::slashdot1()),
            PaperRow { symbol: "SL1", messages: "905k", keys: "77k", p1: 3.28 },
        ),
        (
            scaled(DatasetProfile::slashdot2()),
            PaperRow { symbol: "SL2", messages: "948k", keys: "82k", p1: 3.11 },
        ),
    ];

    let mut table = TextTable::new();
    table.row([
        "Symbol",
        "paper msgs",
        "ours msgs",
        "paper keys",
        "ours keys",
        "paper p1%",
        "ours p1%",
    ]);
    for (profile, paper) in rows {
        let spec = profile.build(seed());
        let mut counts: FxHashMap<u64, u64> = FxHashMap::default();
        let mut m = 0u64;
        for msg in spec.iter(seed()) {
            *counts.entry(msg.key).or_default() += 1;
            m += 1;
        }
        let max = counts.values().copied().max().unwrap_or(0);
        let p1 = 100.0 * max as f64 / m as f64;
        table.row([
            paper.symbol.to_string(),
            paper.messages.to_string(),
            format!("{m}"),
            paper.keys.to_string(),
            format!("{}", counts.len()),
            format!("{:.2}", paper.p1),
            format!("{p1:.2}"),
        ]);
    }
    let mut r = Report::start("table1", "Table I: dataset summary, paper vs synthesized");
    let _ = writeln!(r, "# scale={} seed={}", pkg_bench::scale(), seed());
    r.push_str(&table.render());
    r.finish("");
}
