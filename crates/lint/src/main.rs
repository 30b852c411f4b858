//! `pkg-lint` — repo-invariant static analysis for the workspace.
//!
//! A dependency-free, token-level scanner (comments and string/char
//! literals are blanked before matching, `#[cfg(test)]`/`#[test]`-gated
//! regions are skipped) that enforces the concurrency-hygiene rules the
//! model-checked suite relies on. The per-file rules read the shipped code
//! under `crates/`, `vendor/` and `src/`. The cross-file `orphan` rule also
//! reads `examples/` and `benchmark/src/`, as users of the layer crates'
//! API. Integration tests (`tests/`) are no users: an item only a test
//! names is an orphan unless it is allow-listed, and the rule reads them
//! only to check that an allow-list entry's cited test still names its item.
//!
//! | rule      | scope                         | invariant                                     |
//! |-----------|-------------------------------|-----------------------------------------------|
//! | `facade`  | every engine `src/*.rs` but   | no `std::sync` / `std::thread::sleep` /       |
//! |           | `FACADE_EXEMPT` (each with a  | `std::time::Instant` outside `crate::sync`    |
//! |           | reason); crossbeam `deque.rs` | (the clock file excepted for the last), no    |
//! |           |                               | `thread_local!`, and no direct                |
//! |           |                               | `std::hint::spin_loop` or                     |
//! |           |                               | `std::thread::yield_now` — what makes the     |
//! |           |                               | code model-checkable at all                   |
//! | `clock`   | `pkg-engine` non-test code    | `Instant` only in `schedule.rs`, which defines|
//! |           |                               | `now_ns`: one clock for a virtual one to      |
//! |           |                               | replace                                       |
//! | `ordering`| whole workspace               | every memory-ordering token (`SeqCst`, …)     |
//! |           |                               | carries a `// ordering:` justification within |
//! |           |                               | 3 lines                                       |
//! | `panic`   | `pkg-engine` and              | no `.unwrap()` / `.expect(` — engine errors   |
//! |           | `pkg-ingress` non-test code   | surface as typed panics with context          |
//! | `unsafe`  | every crate root              | `#![forbid(unsafe_code)]` present             |
//! | `argmin`  | whole workspace               | `prefers(`, the greedy comparison, is called  |
//! |           |                               | only by `LoadView`'s one argmin loop (and     |
//! |           |                               | defined in `metrics/src/capacity.rs`)         |
//! | `ordered_`| `pkg-core` and agg's          | no `BTreeMap` / `BTreeSet` — per-message      |
//! | `map`     | `spacesaving.rs`, non-test    | routing state stays O(1)                      |
//! | `driver`  | `pkg-engine` non-test code    | `.execute(` / `.not_before(` only in          |
//! |           |                               | `task.rs` — one instance loop drives bolts    |
//! |           |                               | and spouts, under every schedule              |
//! | `emit_`   | `pkg-engine` non-test code    | `push_run(` called only in the emitter's      |
//! | `seam`    |                               | `flush`; `Emitter {` built once in `activate` |
//! |           |                               | (and in `drop_sink`) — one way out            |
//! | `outbox_` | `pkg-engine` non-test code    | an outbox grows only in `push_run` (a run's   |
//! | `seam`    |                               | spill) and in `close` (the Eofs); the retry   |
//! |           |                               | puts back the one packet it took, in          |
//! |           |                               | `deliver_outbox` — a cursor's partials reach  |
//! |           |                               | it only by spilling                           |
//! | `load_`   | whole workspace               | `.with_signals(` only under `pkg-core` — the  |
//! | `seam`    |                               | simulator and the engine attach signal state  |
//! |           |                               | through `LoadSignalOptions::attach`           |
//! | `signal_` | whole workspace               | `.dispatch(` only under `pkg-core` — a routed |
//! | `seam`    |                               | tuple's one shared write is its count         |
//! |           |                               | (`SharedLoads::record`)                       |
//! | `key_`    | whole workspace but engine    | no `.as_bytes().key_id(` — a key is hashed    |
//! | `seam`    | `tuple.rs`, non-test          | once, when its `TupleKey` is built, and read  |
//! |           |                               | as `TupleKey::key_id` after that              |
//! | `partial_`| `pkg-apps` non-test code but  | no `Tuple::with_payload(` — phase-one bolts   |
//! | `seam`    | `bolts.rs`                    | flush through `emit_partials`, which picks a  |
//! |           |                               | partial's wire form (value or encoded state)  |
//! | `route_`  | whole workspace but `pkg-hash`| no `.hash_seeded(` — a key is routed by a     |
//! | `seam`    | and `pkg-core`, non-test      | `pkg_core::Partitioner`, never by a second    |
//! |           |                               | hash-and-reduce of its own                    |
//! | `orphan`  | `pub` items of the layer      | each item's *name* appears, as a whole word,  |
//! |           | crates' `src/` (all but       | in non-test code of another file under        |
//! |           | `pkg-lint`, `pkg-bench` and   | `crates/`, `src/`, `examples/` or             |
//! |           | `pool_model.rs`), non-test    | `benchmark/src/` — a `pub use` or a same-named|
//! |           |                               | definition is no use — or the item is on      |
//! |           |                               | `ORPHAN_ALLOW` with a reason. Names, not      |
//! |           |                               | paths: an item whose name another file spells |
//! |           |                               | for anything else (`new`, `len`) passes       |
//! |           |                               | unchecked. A stale allow-list entry (item     |
//! |           |                               | gone, named elsewhere, or no longer named by  |
//! |           |                               | the `tests/` file its reason cites) fails too |
//!
//! Exit status: 0 when clean, 1 with one diagnostic line per violation.
//! Usage: `cargo run -p pkg-lint [workspace-root]`.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Files the `panic` rule skips: the facade maps poisoning to a panic by
/// design, and the model suite is test-only code compiled as a child of
/// `pool` (the scanner cannot see the `#[cfg(all(test, …))]` gate, which
/// lives at the `mod` declaration in `pool.rs`).
const PANIC_RULE_EXEMPT: [&str; 2] =
    ["crates/engine/src/sync.rs", "crates/engine/src/pool_model.rs"];

/// The engine directory every file of which the `facade` rule covers,
/// unless `FACADE_EXEMPT` names it: a file split out of the runtime, or
/// added beside it, cannot fall outside the rule. Every engine file an
/// activation runs through must reach `std` only through the cfg-switched
/// `crate::sync` facade, so the model checker sees each of its locks and
/// atomics.
const FACADE_DIR: &str = "crates/engine/src/";

/// Engine files the `facade` rule skips: `(file, reason)`.
const FACADE_EXEMPT: [(&str, &str); 8] = [
    ("crates/engine/src/sync.rs", "the facade itself: it re-exports `std::sync`"),
    ("crates/engine/src/pool_model.rs", "test-only model suite: its fixtures record through std"),
    ("crates/engine/src/grouping.rs", "groupings share an immutable plan through `std::sync::Arc`"),
    ("crates/engine/src/metrics.rs", "statistics values, read after the run"),
    ("crates/engine/src/spout.rs", "the `Spout` trait and its adapters: no shared state"),
    ("crates/engine/src/topology.rs", "topology description, built before the run"),
    ("crates/engine/src/tuple.rs", "allocation-audit counters, outside every wake protocol"),
    ("crates/engine/src/lib.rs", "crate root: module declarations and re-exports"),
];

/// Files outside the engine the `facade` rule covers: the work-stealing
/// deque is model-checked with the pool, so it reaches `std` only through
/// vendored crossbeam's own `crate::atomic` facade.
const FACADE_EXTRA: [&str; 1] = ["vendor/crossbeam/src/deque.rs"];

/// Tokens banned by the `facade` rule. `std::thread::scope` stays legal
/// (pool spawn-and-join structure is not a sync primitive), as does
/// `std::time::Duration` (a value type, not a clock). `thread_local!` is
/// banned because per-thread state is an input the model checker cannot
/// see: which worker raised a wake, say, is passed as an argument instead.
/// A busy-wait pauses through the facade's `spin_loop`, a scheduling point
/// under the model; a direct `std::hint::spin_loop` or
/// `std::thread::yield_now` would let a spinner run ahead of the threads it
/// waits for. `std::time::Instant` is legal in `CLOCK_FILE` alone, which the
/// `clock` rule makes the engine's one reader of the clock.
const FACADE_BANNED: [&str; 6] = [
    "std::sync",
    "std::thread::sleep",
    "std::time::Instant",
    "thread_local!",
    "std::hint::spin_loop",
    "std::thread::yield_now",
];

/// The only files that may spell `prefers(`: its definition and the one
/// argmin loop of the greedy family. A second loop elsewhere would bring
/// back a per-scheme tie rule that the byte-identity gates compare with
/// nothing.
const ARGMIN_FILES: [&str; 2] = ["crates/metrics/src/capacity.rs", "crates/core/src/load_view.rs"];

/// Ordered collections the `ordered_map` rule bans from the routing core:
/// their O(log n) updates on the per-message path are what the head
/// tracker's stream-summary replaced.
const ORDERED_MAPS: [&str; 2] = ["BTreeMap", "BTreeSet"];

/// Where the `ordered_map` rule applies besides pkg-core: the Space-Saving
/// summary every routed message of a head-key scheme updates.
const ROUTING_SUMMARY: &str = "crates/agg/src/spacesaving.rs";

/// Files the `driver` rule skips: `task.rs`, whose `activate` is the only
/// caller of `Bolt::execute` and `Spout::not_before` whichever schedule
/// runs it, and the test-only model suite (compiled as a child of `pool`).
/// A caller anywhere else would be a second instance loop.
const DRIVER_FILES: [&str; 2] = ["crates/engine/src/task.rs", "crates/engine/src/pool_model.rs"];

/// Calls only the instance driver may make (`driver` rule).
const DRIVER_CALLS: [&str; 2] = [".execute(", ".not_before("];

/// Where the `emit_seam` rule lets each delivery token appear in pkg-engine
/// non-test code: `(token, file, enclosing fn, most occurrences there)`.
/// Every tuple leaves an instance through the one flush, and the one
/// emitter an activation builds is the only way to reach it; a second call
/// site or literal would be a second delivery loop. (The model suite, a
/// test-only child of `pool`, is exempt like it is from `driver`.)
const EMIT_SEAM: [(&str, &str, &str, usize); 3] = [
    ("push_run(", "crates/engine/src/bolt.rs", "flush", usize::MAX),
    ("Emitter {", "crates/engine/src/task.rs", "activate", 1),
    ("Emitter {", "crates/engine/src/bolt.rs", "drop_sink", 1),
];

/// Calls that grow an outbox (`outbox_seam` rule).
const OUTBOX_GROWTH: [&str; 5] = [
    "outbox.push_back(",
    "outbox.push_front(",
    "outbox.extend(",
    "outbox.append(",
    "outbox.insert(",
];

/// Where the `outbox_seam` rule lets an outbox grow in pkg-engine non-test
/// code: `(call, file, enclosing fn)`. A spill enters through `push_run`
/// alone and the Eofs through `close`; `deliver_outbox` puts back the one
/// packet its retry took. A cursor pulled anywhere else into an outbox
/// would copy a closed pane there whole, which is what the cursor is for
/// not doing. (The model suite is exempt, as from `emit_seam`.)
const OUTBOX_SEAM: [(&str, &str, &str); 3] = [
    ("outbox.extend(", "crates/engine/src/transport.rs", "push_run"),
    ("outbox.extend(", "crates/engine/src/bolt.rs", "close"),
    ("outbox.push_front(", "crates/engine/src/transport.rs", "deliver_outbox"),
];

/// The only directory whose non-test code may make the calls in
/// `CORE_SEAMS`.
const CORE_SEAM_DIR: &str = "crates/core/src/";

/// Load-signal calls kept inside pkg-core: `(token, rule, remedy)`.
/// `load_seam`: the simulator and the engine share one options type, so
/// signal state is built in one place, `LoadSignalOptions::attach`.
/// `signal_seam`: in-flight is derived from the routed count, so a routed
/// tuple's one shared write is `SharedLoads::record` and no sender outside
/// pkg-core calls `SharedSignals::dispatch`.
const CORE_SEAMS: [(&str, &str, &str); 2] = [
    (
        ".with_signals(",
        "load_seam",
        "outside pkg-core (attach signal state through `LoadSignalOptions::attach`)",
    ),
    (
        ".dispatch(",
        "signal_seam",
        "outside pkg-core (the routed count `SharedLoads::record` is the dispatch tally)",
    ),
];

/// The one engine file whose non-test code may spell `Instant`: it defines
/// `now_ns`, the runtime's clock. A virtual clock then has one source to
/// replace. (The model suite, test-only, freezes the clock through the
/// epoch and is exempt.)
const CLOCK_FILE: &str = "crates/engine/src/schedule.rs";
const CLOCK_EXEMPT: &str = "crates/engine/src/pool_model.rs";

/// The one file whose non-test code may fingerprint a key's bytes, and the
/// call that does it. `key_seam`: `TupleKey`'s constructors hash a key once
/// and store the result; everything downstream reads the stored fingerprint.
const KEY_SEAM_FILE: &str = "crates/engine/src/tuple.rs";
const KEY_SEAM: (&str, &str, &str) = (
    ".as_bytes().key_id(",
    "key_seam",
    "re-hashes key bytes (read the fingerprint the key carries: `TupleKey::key_id`)",
);

/// Where the `partial_seam` rule applies, the one file there that may build
/// payload tuples, and the call. Every phase-one bolt flushes a pane through
/// `emit_partials` in `bolts.rs`, which ships a single-observation partial as
/// its value and anything else as its encoded state; a bolt that built its
/// own payload tuples would bypass that choice.
const PARTIAL_SEAM_DIR: &str = "crates/apps/src/";
const PARTIAL_SEAM_FILE: &str = "crates/apps/src/bolts.rs";
const PARTIAL_SEAM: (&str, &str, &str) = (
    "Tuple::with_payload(",
    "partial_seam",
    "outside `bolts.rs` (flush partials through `pkg_apps::bolts::emit_partials`)",
);

/// The crates whose non-test code may hash a key with a seed, and the call.
/// `route_seam`: pkg-hash defines the seeded hashes and pkg-core's
/// `Partitioner` is the one router over them, shared by the simulator and
/// every keyed engine edge; a `.hash_seeded(` anywhere else would be a
/// second router whose decisions no byte-identity gate compares.
const ROUTE_SEAM_DIRS: [&str; 2] = ["crates/core/", "crates/hash/"];
const ROUTE_SEAM: (&str, &str, &str) = (
    ".hash_seeded(",
    "route_seam",
    "outside pkg-hash and pkg-core (route through a `pkg_core::Partitioner`)",
);

/// Files whose code the `orphan` rule reads as no one's use: the lint
/// itself, and the model suite, test-only code the scanner cannot see as
/// such (its `#[cfg(all(test, …))]` gate sits at the `mod` in `pool.rs`).
const ORPHAN_NON_USERS: [&str; 2] = ["crates/lint/src/main.rs", "crates/engine/src/pool_model.rs"];

/// `pub` items of the layer crates that no other file names, kept on
/// purpose: `(file, item, reason)`. Types that appear in a public
/// signature, test-support API, and the oracles and bounds integration
/// tests read; a reason that cites a `tests/` file is checked against it.
const ORPHAN_ALLOW: [(&str, &str, &str); 18] = [
    ("crates/agg/src/accumulators.rs", "Distinct", "law-checked in tests/agg_laws.rs"),
    ("crates/agg/src/spacesaving.rs", "min_count", "tests/property_tests.rs bounds it by m/k"),
    ("crates/apps/src/decision_tree.rs", "Tree", "returned by `Spdt::tree`"),
    ("crates/apps/src/heavy_hitters.rs", "HhSummary", "returned by `final_summary`"),
    ("crates/core/src/greedy.rs", "sorted_desc", "tests/routing_golden.rs reads the head keys"),
    ("crates/core/src/head_tracker.rs", "tracked", "tests/property_tests.rs naive oracle"),
    ("crates/core/src/head_tracker.rs", "check_invariants", "tests/property_tests.rs"),
    ("crates/core/src/partitioner.rs", "resizable", "tests/routing_golden.rs picks schemes by it"),
    ("crates/datagen/src/stream.rs", "StreamIter", "returned by `StreamSpec::iter`"),
    ("crates/elastic/src/lib.rs", "epoch_at", "tests/property_tests.rs epoch oracle"),
    ("crates/engine/src/bolt.rs", "drop_sink", "pkg-apps unit tests run bolts through it"),
    ("crates/engine/src/grouping.rs", "is_batchable", "tests/routing_golden.rs batch replay"),
    ("crates/engine/src/ingress.rs", "ShedPolicyFactory", "the type of `IngressOptions::policy`"),
    ("crates/engine/src/topology.rs", "BoltHandle", "returned by `Topology::add_bolt`"),
    ("crates/hash/src/fx.rs", "FxHasher", "the hasher of `FxHashMap` / `FxHashSet`"),
    ("crates/hash/src/murmur3.rs", "murmur3_128", "tests/property_tests.rs u64 fast path"),
    ("crates/metrics/src/imbalance.rs", "worst_case_imbalance", "tests/property_tests.rs bound"),
    ("crates/metrics/src/welford.rs", "variance", "tests/agg_laws.rs merge law"),
];

/// Memory-ordering tokens that demand a `// ordering:` justification.
const ORDERING_TOKENS: [&str; 5] = ["SeqCst", "Relaxed", "Acquire", "Release", "AcqRel"];

/// How many raw lines above an ordering token the justification may sit.
const ORDERING_WINDOW: usize = 3;

fn main() -> ExitCode {
    let root = match std::env::args().nth(1) {
        Some(p) => PathBuf::from(p),
        None => workspace_root(),
    };
    let (files, violations) = scan(&root);
    if violations.is_empty() {
        println!("pkg-lint: clean ({files} files)");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!("pkg-lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// The workspace root, resolved from this crate's own manifest directory so
/// the binary works from any cwd.
fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.ancestors().nth(2).unwrap_or(manifest).to_path_buf()
}

/// Lint the tree under `root`: the per-file rules over `crates/`, `vendor/`
/// and `src/`, then the cross-file `orphan` pass, whose users also include
/// `examples/` and `benchmark/src/` (and which reads `tests/` for the
/// allow-list's cited tests). Returns the number of files read and the
/// violations.
fn scan(root: &Path) -> (usize, Vec<String>) {
    let mut paths = Vec::new();
    for top in ["crates", "vendor", "src", "examples", "benchmark/src", "tests"] {
        collect_rs_files(&root.join(top), &mut paths);
    }
    paths.sort();
    let mut violations = Vec::new();
    let mut users = Vec::new();
    for path in &paths {
        let Ok(src) = std::fs::read_to_string(path) else {
            violations.push(format!("{}: unreadable", path.display()));
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        if ["crates/", "vendor/", "src/"].iter().any(|top| rel.starts_with(top)) {
            violations.extend(lint_file(&rel, &src));
        }
        if !rel.starts_with("vendor/") {
            users.push((rel, src));
        }
    }
    violations.extend(rule_orphan(&users, &ORPHAN_ALLOW));
    (paths.len(), violations)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Run every applicable rule over one file.
fn lint_file(rel: &str, src: &str) -> Vec<String> {
    let mut out = Vec::new();
    let code = blank_code(src);
    let raw: Vec<&str> = src.lines().collect();
    let in_test = test_lines(&code);

    let engine = rel.starts_with(FACADE_DIR);
    if engine && !FACADE_EXEMPT.iter().any(|&(file, _)| file == rel) || FACADE_EXTRA.contains(&rel)
    {
        rule_facade(rel, &code, &in_test, &mut out);
    }
    if engine && rel != CLOCK_FILE && rel != CLOCK_EXEMPT {
        rule_clock(rel, &code, &in_test, &mut out);
    }
    rule_ordering(rel, &code, &raw, &in_test, &mut out);
    if (rel.starts_with("crates/engine/src/") || rel.starts_with("crates/ingress/src/"))
        && !PANIC_RULE_EXEMPT.contains(&rel)
    {
        rule_panic(rel, &code, &in_test, &mut out);
    }
    if !ARGMIN_FILES.contains(&rel) {
        rule_argmin(rel, &code, &in_test, &mut out);
    }
    if rel.starts_with("crates/core/src/") || rel == ROUTING_SUMMARY {
        rule_ordered_map(rel, &code, &in_test, &mut out);
    }
    if rel.starts_with("crates/engine/src/") && !DRIVER_FILES.contains(&rel) {
        rule_driver(rel, &code, &in_test, &mut out);
    }
    if rel.starts_with("crates/engine/src/") && rel != "crates/engine/src/pool_model.rs" {
        rule_emit_seam(rel, &code, &in_test, &mut out);
        rule_outbox_seam(rel, &code, &in_test, &mut out);
    }
    if !rel.starts_with(CORE_SEAM_DIR) {
        for seam in CORE_SEAMS {
            rule_token(rel, &code, &in_test, seam, &mut out);
        }
    }
    if rel != KEY_SEAM_FILE {
        rule_token(rel, &code, &in_test, KEY_SEAM, &mut out);
    }
    if rel.starts_with(PARTIAL_SEAM_DIR) && rel != PARTIAL_SEAM_FILE {
        rule_token(rel, &code, &in_test, PARTIAL_SEAM, &mut out);
    }
    if !ROUTE_SEAM_DIRS.iter().any(|dir| rel.starts_with(dir)) {
        rule_token(rel, &code, &in_test, ROUTE_SEAM, &mut out);
    }
    if is_crate_root(rel) && !src.contains("#![forbid(unsafe_code)]") {
        out.push(format!("{rel}:1: [unsafe] crate root is missing #![forbid(unsafe_code)]"));
    }
    out
}

fn is_crate_root(rel: &str) -> bool {
    rel.ends_with("/src/lib.rs") || rel == "src/lib.rs" || rel == "crates/lint/src/main.rs"
}

fn rule_facade(rel: &str, code: &[String], in_test: &[bool], out: &mut Vec<String>) {
    for (i, line) in code.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        for banned in FACADE_BANNED {
            let clock = rel == CLOCK_FILE && banned == "std::time::Instant";
            if line.contains(banned) && !clock {
                out.push(format!(
                    "{rel}:{}: [facade] `{banned}` bypasses the crate::sync facade \
                     (the module must stay model-checkable)",
                    i + 1
                ));
            }
        }
    }
}

fn rule_clock(rel: &str, code: &[String], in_test: &[bool], out: &mut Vec<String>) {
    for (i, line) in code.iter().enumerate() {
        if !in_test[i] && has_word(line, "Instant") {
            out.push(format!(
                "{rel}:{}: [clock] `Instant` outside {CLOCK_FILE} \
                 (read the runtime's one clock, `Shared::now_ns`)",
                i + 1
            ));
        }
    }
}

fn rule_ordering(
    rel: &str,
    code: &[String],
    raw: &[&str],
    in_test: &[bool],
    out: &mut Vec<String>,
) {
    let mut in_use = false;
    for (i, line) in code.iter().enumerate() {
        let trimmed = line.trim();
        if !in_use && is_use_decl(trimmed) {
            in_use = true;
        }
        let was_use = in_use;
        if in_use && trimmed.contains(';') {
            in_use = false;
        }
        if in_test[i] || was_use {
            continue;
        }
        for token in ORDERING_TOKENS {
            if has_word(line, token) {
                let lo = i.saturating_sub(ORDERING_WINDOW);
                let justified = raw[lo..=i].iter().any(|r| r.contains("ordering:"));
                if !justified {
                    out.push(format!(
                        "{rel}:{}: [ordering] `{token}` without a `// ordering:` \
                         justification within {ORDERING_WINDOW} lines",
                        i + 1
                    ));
                }
            }
        }
    }
}

fn rule_panic(rel: &str, code: &[String], in_test: &[bool], out: &mut Vec<String>) {
    for (i, line) in code.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        for needle in [".unwrap()", ".expect("] {
            if line.contains(needle) {
                out.push(format!(
                    "{rel}:{}: [panic] `{needle}` in engine non-test code \
                     (panic with a diagnostic message instead)",
                    i + 1
                ));
            }
        }
    }
}

fn rule_argmin(rel: &str, code: &[String], in_test: &[bool], out: &mut Vec<String>) {
    for (i, line) in code.iter().enumerate() {
        if !in_test[i] && line.contains("prefers(") {
            out.push(format!(
                "{rel}:{}: [argmin] `prefers(` outside LoadView \
                 (route through `LoadView`, whose one argmin loop the family shares)",
                i + 1
            ));
        }
    }
}

fn rule_ordered_map(rel: &str, code: &[String], in_test: &[bool], out: &mut Vec<String>) {
    for (i, line) in code.iter().enumerate() {
        for map in ORDERED_MAPS {
            if !in_test[i] && has_word(line, map) {
                out.push(format!(
                    "{rel}:{}: [ordered_map] `{map}` in routing state \
                     (per-message routing state must stay O(1))",
                    i + 1
                ));
            }
        }
    }
}

fn rule_driver(rel: &str, code: &[String], in_test: &[bool], out: &mut Vec<String>) {
    for (i, line) in code.iter().enumerate() {
        for call in DRIVER_CALLS {
            if !in_test[i] && line.contains(call) {
                out.push(format!(
                    "{rel}:{}: [driver] `{call}` outside task.rs \
                     (instances are driven only by `activate`, the one instance loop)",
                    i + 1
                ));
            }
        }
    }
}

fn rule_emit_seam(rel: &str, code: &[String], in_test: &[bool], out: &mut Vec<String>) {
    let fns = enclosing_fns(code);
    let mut seen = [0usize; EMIT_SEAM.len()];
    for (i, line) in code.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let within = fns[i].as_deref().unwrap_or("");
        for token in ["push_run(", "Emitter {"] {
            // The definition `fn push_run(` is not a call.
            let hits = line.matches(token).count() - line.matches(&format!("fn {token}")).count();
            for _ in 0..hits {
                let site = EMIT_SEAM
                    .iter()
                    .position(|&(t, file, f, _)| (t, file, f) == (token, rel, within));
                match site {
                    Some(k) if seen[k] < EMIT_SEAM[k].3 => seen[k] += 1,
                    _ => out.push(format!(
                        "{rel}:{}: [emit_seam] `{token}` in `{within}` \
                         (tuples leave an instance only through the emitter's one flush)",
                        i + 1
                    )),
                }
            }
        }
    }
}

fn rule_outbox_seam(rel: &str, code: &[String], in_test: &[bool], out: &mut Vec<String>) {
    let fns = enclosing_fns(code);
    for (i, line) in code.iter().enumerate() {
        let within = fns[i].as_deref().unwrap_or("");
        for call in OUTBOX_GROWTH {
            if !in_test[i] && line.contains(call) && !OUTBOX_SEAM.contains(&(call, rel, within)) {
                out.push(format!(
                    "{rel}:{}: [outbox_seam] `{call}` in `{within}` (an outbox grows only by \
                     a spill in `push_run` and the Eofs in `close`)",
                    i + 1
                ));
            }
        }
    }
}

/// Flag every non-test line holding `token`: `[rule] `token` remedy`.
fn rule_token(
    rel: &str,
    code: &[String],
    in_test: &[bool],
    (token, rule, remedy): (&str, &str, &str),
    out: &mut Vec<String>,
) {
    for (i, line) in code.iter().enumerate() {
        if !in_test[i] && line.contains(token) {
            out.push(format!("{rel}:{}: [{rule}] `{token}` {remedy}", i + 1));
        }
    }
}

/// Does this file declare layer API for the `orphan` rule? Non-test code of
/// the layer crates' `src/`; pkg-lint, pkg-bench (drivers, which nothing
/// calls) and the `pkg_model`-only model suite are out of scope.
fn declares_layer_api(rel: &str) -> bool {
    rel.starts_with("crates/")
        && rel.split('/').nth(2) == Some("src")
        && !rel.starts_with("crates/bench/")
        && !ORPHAN_NON_USERS.contains(&rel)
}

/// Keywords whose next word, after whitespace only, is a definition rather
/// than a use of that name.
const DEF_KEYWORDS: [&str; 9] =
    ["fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union"];

/// `orphan`: every `pub` item a layer file declares must be named, as a
/// whole word, in non-test code of another file outside `tests/`. A
/// `pub use` re-export and a definition of the same name are not uses.
/// `allow` lists the deliberate exceptions as `(file, name, reason)`; an
/// entry whose item is gone, is now named elsewhere, or is no longer named
/// anywhere in the `tests/` file its reason cites, is reported too.
fn rule_orphan(files: &[(String, String)], allow: &[(&str, &str, &str)]) -> Vec<String> {
    let codes: Vec<Vec<String>> = files.iter().map(|(_, src)| blank_code(src)).collect();
    let tests: Vec<Vec<bool>> = codes.iter().map(|code| test_lines(code)).collect();
    let mut named_in: HashMap<&str, Vec<usize>> = HashMap::new();
    for (f, (rel, _)) in files.iter().enumerate() {
        if ORPHAN_NON_USERS.contains(&rel.as_str()) || rel.starts_with("tests/") {
            continue;
        }
        let mut in_reexport = false;
        for (line, &test) in codes[f].iter().zip(&tests[f]) {
            let trimmed = line.trim();
            in_reexport |= trimmed.starts_with("pub") && is_use_decl(trimmed);
            let skip = test || in_reexport;
            if in_reexport && trimmed.contains(';') {
                in_reexport = false;
            }
            if skip {
                continue;
            }
            for word in used_words(line) {
                let users = named_in.entry(word).or_default();
                if users.last() != Some(&f) {
                    users.push(f);
                }
            }
        }
    }
    let mut out = Vec::new();
    let mut declared = vec![false; allow.len()];
    for (f, (rel, _)) in files.iter().enumerate() {
        if !declares_layer_api(rel) {
            continue;
        }
        for (i, line) in codes[f].iter().enumerate() {
            let Some(name) = pub_item(line.trim()).filter(|_| !tests[f][i]) else {
                continue;
            };
            let elsewhere = named_in.get(name).and_then(|users| users.iter().find(|&&g| g != f));
            match allow.iter().position(|&(file, item, _)| (file, item) == (rel, name)) {
                Some(k) => {
                    declared[k] = true;
                    let reason = allow[k].2;
                    if let Some(&g) = elsewhere {
                        out.push(format!(
                            "{rel}:{}: [orphan] allow-list entry `{name}` ({reason}) is stale: \
                             `{}` names it (drop the entry)",
                            i + 1,
                            files[g].0
                        ));
                    }
                    let cited = reason.split_whitespace().find(|w| w.starts_with("tests/"));
                    let names_it = |test: &str| {
                        files.iter().zip(&codes).any(|((r, _), code)| {
                            r == test && code.iter().any(|l| used_words(l).any(|w| w == name))
                        })
                    };
                    if let Some(test) = cited.filter(|test| !names_it(test)) {
                        out.push(format!(
                            "{rel}:{}: [orphan] allow-list entry `{name}` ({reason}) is stale: \
                             `{test}` does not name it (delete, narrow, or re-justify)",
                            i + 1
                        ));
                    }
                }
                None if elsewhere.is_none() => out.push(format!(
                    "{rel}:{}: [orphan] `pub` item `{name}` is named in no other file \
                     (delete it, narrow it, or allow-list it with a reason)",
                    i + 1
                )),
                None => {}
            }
        }
    }
    for (&(file, name, reason), found) in allow.iter().zip(declared) {
        if !found {
            out.push(format!(
                "{file}: [orphan] allow-list entry `{name}` ({reason}) is stale: \
                 no `pub` item of that name (drop the entry)"
            ));
        }
    }
    out
}

/// The name a trimmed code line declares as a `pub` item (`pub fn`,
/// `pub struct`, `pub const`, …), or `None`: `pub(crate)` and narrower, a
/// `pub use`, a field.
fn pub_item(trimmed: &str) -> Option<&str> {
    let mut words = trimmed.strip_prefix("pub ")?.split_whitespace().peekable();
    loop {
        match words.next()? {
            "unsafe" | "async" | "extern" => {}
            "const" if matches!(words.peek(), Some(&("fn" | "unsafe"))) => {}
            kw if DEF_KEYWORDS.contains(&kw) => {
                let name = words.find(|&w| w != "mut")?;
                let end = name.find(|c: char| !is_ident_byte(c as u8)).unwrap_or(name.len());
                return Some(&name[..end]).filter(|n| !n.is_empty());
            }
            _ => return None,
        }
    }
}

/// The identifiers on a code line, less each name a definition introduces
/// (the word after `fn`, `struct`, … and whitespace).
fn used_words(line: &str) -> impl Iterator<Item = &str> {
    let (mut prev, mut gap_from) = ("", 0);
    line.split(|c: char| !c.is_ascii() || !is_ident_byte(c as u8))
        .filter(|word| !word.is_empty())
        .filter(move |word| {
            let start = word.as_ptr() as usize - line.as_ptr() as usize;
            let defined = DEF_KEYWORDS.contains(&prev) && line[gap_from..start].trim().is_empty();
            (prev, gap_from) = (word, start + word.len());
            !defined
        })
}

/// The innermost `fn` whose body each line sits in (`None` outside every
/// function), by tracking `fn name` headers and brace depth over the blanked
/// code. A header ended by `;` (a bodiless trait method) opens nothing.
fn enclosing_fns(code: &[String]) -> Vec<Option<String>> {
    let mut stack: Vec<(String, i64)> = Vec::new();
    let mut pending: Option<String> = None;
    let mut depth = 0i64;
    let mut out = Vec::with_capacity(code.len());
    for line in code {
        let bytes = line.as_bytes();
        let mut k = 0;
        while k < bytes.len() {
            match bytes[k] {
                b'f' if line[k..].starts_with("fn ")
                    && (k == 0 || !is_ident_byte(bytes[k - 1])) =>
                {
                    let name: String = line[k + 3..]
                        .trim_start()
                        .chars()
                        .take_while(|&c| is_ident_byte(c as u8) && c.is_ascii())
                        .collect();
                    if !name.is_empty() {
                        pending = Some(name);
                    }
                    k += 3;
                    continue;
                }
                b'{' => {
                    if let Some(name) = pending.take() {
                        stack.push((name, depth));
                    }
                    depth += 1;
                }
                b'}' => {
                    depth -= 1;
                    if stack.last().is_some_and(|&(_, d)| d == depth) {
                        stack.pop();
                    }
                }
                b';' => pending = None,
                _ => {}
            }
            k += 1;
        }
        out.push(stack.last().map(|(name, _)| name.clone()));
    }
    out
}

/// Is this trimmed code line the start of a `use` declaration (possibly
/// behind a visibility modifier)?
fn is_use_decl(trimmed: &str) -> bool {
    let rest = if let Some(r) = trimmed.strip_prefix("pub") {
        if let Some(paren) = r.strip_prefix('(') {
            match paren.split_once(')') {
                Some((_, tail)) => tail.trim_start(),
                None => return false,
            }
        } else {
            r.trim_start()
        }
    } else {
        trimmed
    };
    rest.starts_with("use ")
}

/// Whole-word containment: `needle` bounded by non-identifier characters.
fn has_word(line: &str, needle: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let pre = start == 0 || !is_ident_byte(bytes[start - 1]);
        let post = end == bytes.len() || !is_ident_byte(bytes[end]);
        if pre && post {
            return true;
        }
        from = start + 1;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Blank comments and string/char literals out of `src`, preserving line
/// structure and column alignment, so rules match code tokens only.
fn blank_code(src: &str) -> Vec<String> {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut i = 0;
    let mut prev_ident = false;
    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                out.push(std::mem::take(&mut cur));
                prev_ident = false;
                i += 1;
            }
            '/' if chars.get(i + 1) == Some(&'/') => {
                while i < n && chars[i] != '\n' {
                    cur.push(' ');
                    i += 1;
                }
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                let mut depth = 1usize;
                cur.push_str("  ");
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '\n' {
                        out.push(std::mem::take(&mut cur));
                        i += 1;
                    } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        cur.push_str("  ");
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        cur.push_str("  ");
                        i += 2;
                    } else {
                        cur.push(' ');
                        i += 1;
                    }
                }
                prev_ident = false;
            }
            '"' => {
                i = blank_string_body(&chars, i + 1, &mut cur, &mut out);
                prev_ident = false;
            }
            'r' | 'b' if !prev_ident => {
                if let Some(next) = blank_literal_prefix(&chars, i, &mut cur, &mut out) {
                    i = next;
                    prev_ident = false;
                } else {
                    cur.push(c);
                    prev_ident = true;
                    i += 1;
                }
            }
            '\'' => {
                // Char literal vs lifetime: 'x' / '\..' are literals, a
                // lone quote followed by an identifier is a lifetime.
                if chars.get(i + 1) == Some(&'\\') {
                    cur.push(' ');
                    i += 1;
                    while i < n && chars[i] != '\'' {
                        cur.push(' ');
                        i += 1;
                    }
                    if i < n {
                        cur.push(' ');
                        i += 1;
                    }
                } else if chars.get(i + 2) == Some(&'\'') {
                    cur.push_str("   ");
                    i += 3;
                } else {
                    cur.push('\'');
                    i += 1;
                }
                prev_ident = false;
            }
            _ => {
                cur.push(c);
                prev_ident = is_ident_byte(c as u8) || !c.is_ascii();
                i += 1;
            }
        }
    }
    out.push(cur);
    out
}

/// Blank a (possibly raw / byte) literal starting at `chars[i]` (`r` or
/// `b`); returns the index after the literal, or `None` when `chars[i]` is
/// just an identifier character.
fn blank_literal_prefix(
    chars: &[char],
    i: usize,
    cur: &mut String,
    out: &mut Vec<String>,
) -> Option<usize> {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j) == Some(&'\'') {
            // Byte char literal b'x' / b'\..'.
            cur.push_str("  ");
            j += 1;
            if chars.get(j) == Some(&'\\') {
                cur.push(' ');
                j += 1;
            }
            while j < chars.len() && chars[j] != '\'' {
                cur.push(' ');
                j += 1;
            }
            if j < chars.len() {
                cur.push(' ');
                j += 1;
            }
            return Some(j);
        }
    }
    if chars.get(j) == Some(&'r') {
        j += 1;
    }
    let mut hashes = 0;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) != Some(&'"') {
        return None;
    }
    for _ in i..=j {
        cur.push(' ');
    }
    j += 1;
    if hashes == 0 && i + 1 == j - 1 && chars[i] == 'b' {
        // b"..." — plain string with escapes.
        return Some(blank_string_body(chars, j, cur, out));
    }
    if hashes == 0 && chars[i] == 'r' || hashes > 0 {
        // Raw string: ends at `"` followed by `hashes` hashes, no escapes.
        while j < chars.len() {
            if chars[j] == '\n' {
                out.push(std::mem::take(cur));
                j += 1;
            } else if chars[j] == '"'
                && chars[j + 1..].iter().take_while(|&&c| c == '#').count() >= hashes
            {
                for _ in 0..=hashes {
                    cur.push(' ');
                }
                return Some(j + 1 + hashes);
            } else {
                cur.push(' ');
                j += 1;
            }
        }
        return Some(j);
    }
    Some(blank_string_body(chars, j, cur, out))
}

/// Blank a normal string body (escapes honored) starting just after the
/// opening quote; returns the index after the closing quote.
fn blank_string_body(
    chars: &[char],
    mut i: usize,
    cur: &mut String,
    out: &mut Vec<String>,
) -> usize {
    cur.push(' ');
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                cur.push(' ');
                i += 1;
                if i < chars.len() {
                    if chars[i] == '\n' {
                        out.push(std::mem::take(cur));
                    } else {
                        cur.push(' ');
                    }
                    i += 1;
                }
            }
            '"' => {
                cur.push(' ');
                return i + 1;
            }
            '\n' => {
                out.push(std::mem::take(cur));
                i += 1;
            }
            _ => {
                cur.push(' ');
                i += 1;
            }
        }
    }
    i
}

/// Mark lines that live inside `#[test]`- or `#[cfg(test)]`-gated items, by
/// tracking attributes and brace depth over the blanked code.
fn test_lines(code: &[String]) -> Vec<bool> {
    let mut flags = vec![false; code.len()];
    let mut depth = 0i64;
    let mut skip_stack: Vec<i64> = Vec::new();
    let mut in_attr = false;
    let mut attr_buf = String::new();
    let mut attr_depth = 0i64;
    let mut pending_test = false;
    for (ln, line) in code.iter().enumerate() {
        if !skip_stack.is_empty() {
            flags[ln] = true;
        }
        let cs: Vec<char> = line.chars().collect();
        let mut k = 0;
        while k < cs.len() {
            let c = cs[k];
            if in_attr {
                match c {
                    '[' => {
                        attr_depth += 1;
                        attr_buf.push(c);
                    }
                    ']' => {
                        attr_depth -= 1;
                        if attr_depth == 0 {
                            in_attr = false;
                            if attr_buf.contains("test") {
                                pending_test = true;
                            }
                            attr_buf.clear();
                        } else {
                            attr_buf.push(c);
                        }
                    }
                    _ => attr_buf.push(c),
                }
                k += 1;
                continue;
            }
            match c {
                '#' => {
                    let mut j = k + 1;
                    if cs.get(j) == Some(&'!') {
                        j += 1;
                    }
                    if cs.get(j) == Some(&'[') {
                        in_attr = true;
                        attr_depth = 1;
                        k = j + 1;
                        continue;
                    }
                }
                '{' => {
                    if pending_test {
                        skip_stack.push(depth);
                        pending_test = false;
                        flags[ln] = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if skip_stack.last() == Some(&depth) {
                        skip_stack.pop();
                        flags[ln] = true;
                    }
                }
                // `#[cfg(test)] mod x;` — a bodiless gated item ends here.
                ';' if skip_stack.is_empty() => pending_test = false,
                _ => {}
            }
            k += 1;
        }
        if !skip_stack.is_empty() {
            flags[ln] = true;
        }
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(rel: &str, src: &str) -> Vec<String> {
        lint_file(rel, src)
    }

    #[test]
    fn comments_and_strings_are_blanked() {
        let code = blank_code("let x = \"std::sync\"; // std::sync\nlet y = 'a';");
        assert!(!code[0].contains("std::sync"), "{:?}", code[0]);
        assert!(code[0].contains("let x ="));
        assert!(!code[1].contains('a'));
    }

    #[test]
    fn raw_strings_and_byte_literals_are_blanked() {
        let code = blank_code("let s = r#\"SeqCst \"inner\" \"#; let b = b\"Relaxed\";\nSeqCst");
        assert!(!code[0].contains("SeqCst"), "{:?}", code[0]);
        assert!(!code[0].contains("Relaxed"), "{:?}", code[0]);
        assert_eq!(code[1], "SeqCst");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let code = blank_code("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(code[0].contains("fn f<'a>"), "{:?}", code[0]);
    }

    #[test]
    fn test_gated_regions_are_skipped() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap() }\n}\nfn c() {}\n";
        let code = blank_code(src);
        let flags = test_lines(&code);
        assert_eq!(flags, vec![false, false, true, true, true, false, false]);
    }

    #[test]
    fn seeded_facade_violation_is_caught() {
        let src = "use std::sync::Mutex;\nfn f() {}\n";
        let v = lint("crates/engine/src/pool.rs", src);
        assert!(v.iter().any(|v| v.contains("[facade]") && v.contains("pool.rs:1")), "{v:?}");
    }

    #[test]
    fn facade_rule_only_covers_the_facade_files() {
        let src = "use std::sync::Mutex;\nfn f() {}\n";
        let v = lint("crates/engine/src/sync.rs", src);
        assert!(!v.iter().any(|v| v.contains("[facade]")), "{v:?}");
    }

    #[test]
    fn seeded_unjustified_ordering_is_caught() {
        let src = "fn f(a: &AtomicU8) {\n    a.store(1, Ordering::SeqCst);\n}\n";
        let v = lint("crates/core/src/x.rs", src);
        assert!(v.iter().any(|v| v.contains("[ordering]") && v.contains("x.rs:2")), "{v:?}");
    }

    #[test]
    fn justified_ordering_passes() {
        let src = "fn f(a: &AtomicU8) {\n    // ordering: SeqCst — test fixture\n    a.store(1, Ordering::SeqCst);\n}\n";
        assert_eq!(lint("crates/core/src/x.rs", src), Vec::<String>::new());
    }

    #[test]
    fn use_declarations_do_not_need_ordering_comments() {
        let src = "use std::sync::atomic::Ordering::SeqCst;\npub(crate) use std::sync::atomic::{\n    Ordering::Relaxed,\n};\n";
        assert_eq!(lint("crates/core/src/x.rs", src), Vec::<String>::new());
    }

    #[test]
    fn seeded_unwrap_in_engine_is_caught() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        let v = lint("crates/engine/src/runtime.rs", src);
        assert!(v.iter().any(|v| v.contains("[panic]")), "{v:?}");
        // The same code outside pkg-engine is fine.
        assert!(lint("crates/sim/src/runner.rs", src).is_empty());
        // …and inside engine test code too.
        let gated = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint("crates/engine/src/runtime.rs", &gated).is_empty());
    }

    #[test]
    fn seeded_unwrap_in_ingress_is_caught() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        let v = lint("crates/ingress/src/bucket.rs", src);
        assert!(v.iter().any(|v| v.contains("[panic]")), "{v:?}");
    }

    #[test]
    fn engine_ingress_is_a_facade_file() {
        let src = "use std::sync::Mutex;\nfn f() {}\n";
        let v = lint("crates/engine/src/ingress.rs", src);
        assert!(v.iter().any(|v| v.contains("[facade]")), "{v:?}");
    }

    #[test]
    fn engine_load_signals_are_facade_and_panic_covered() {
        let src = "use std::sync::Arc;\nfn f() {}\n";
        let v = lint("crates/engine/src/load.rs", src);
        assert!(v.iter().any(|v| v.contains("[facade]")), "{v:?}");
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        let v = lint("crates/engine/src/load.rs", src);
        assert!(v.iter().any(|v| v.contains("[panic]")), "{v:?}");
    }

    #[test]
    fn missing_forbid_unsafe_is_caught() {
        let v = lint("crates/core/src/lib.rs", "fn f() {}\n");
        assert!(v.iter().any(|v| v.contains("[unsafe]")), "{v:?}");
        assert!(lint("crates/core/src/lib.rs", "#![forbid(unsafe_code)]\nfn f() {}\n").is_empty());
    }

    #[test]
    fn pasted_second_argmin_loop_is_caught() {
        let src =
            "fn pick(caps: Option<&Capacities>, loads: &[u64], cands: &[usize]) -> usize {\n    \
                   let mut best = cands[0];\n    \
                   for &c in &cands[1..] {\n        \
                   if pkg_metrics::prefers(caps, loads[c], c, loads[best], best) {\n            \
                   best = c;\n        }\n    }\n    best\n}\n";
        let v = lint("crates/core/src/pkg.rs", src);
        assert!(v.iter().any(|v| v.contains("[argmin]") && v.contains("pkg.rs:4")), "{v:?}");
        // The one loop and the definition are where it belongs; importing
        // the name or mentioning it in a comment is not a call.
        assert!(lint("crates/core/src/load_view.rs", src).is_empty());
        assert!(lint("crates/metrics/src/capacity.rs", src).is_empty());
        let mention = "use pkg_metrics::prefers;\n// prefers(a, b) decides ties\nfn f() {}\n";
        assert!(lint("crates/core/src/pkg.rs", mention).is_empty());
    }

    #[test]
    fn pasted_btreemap_field_in_core_is_caught() {
        let src = "use std::collections::BTreeMap;\n\
                   pub struct Tracker {\n    buckets: BTreeMap<u64, Vec<u64>>,\n}\n";
        let v = lint("crates/core/src/head_tracker.rs", src);
        assert!(v.iter().any(|v| v.contains("[ordered_map]") && v.contains(".rs:3")), "{v:?}");
        assert!(v.iter().any(|v| v.contains("[ordered_map]") && v.contains(".rs:1")), "{v:?}");
        // Outside pkg-core, in core test code, or in a comment it is fine.
        assert!(lint("crates/agg/src/topk.rs", src).is_empty());
        let gated = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint("crates/core/src/head_tracker.rs", &gated).is_empty());
        let mention = "// replaced a BTreeMap<u64, FxHashSet<u64>>\nfn f() {}\n";
        assert!(lint("crates/core/src/head_tracker.rs", mention).is_empty());
    }

    #[test]
    fn pasted_btreeset_in_the_routing_summary_is_caught() {
        // The head tracker's per-message state lives in agg's summary.
        let src =
            "pub struct SpaceSaving {\n    by_count: std::collections::BTreeSet<(u64, u64)>,\n}\n";
        let v = lint("crates/agg/src/spacesaving.rs", src);
        assert!(v.iter().any(|v| v.contains("[ordered_map]") && v.contains(".rs:2")), "{v:?}");
        let map = "fn f() { let m = std::collections::BTreeMap::<u64, u32>::new(); }\n";
        assert_eq!(lint("crates/agg/src/spacesaving.rs", map).len(), 1);
        // The rest of pkg-agg may order its state.
        assert!(lint("crates/agg/src/histogram_sketch.rs", src).is_empty());
    }

    #[test]
    fn pasted_second_instance_loop_is_caught() {
        let src = "fn run_bolt(mut bolt: Box<dyn Bolt>, rx: Receiver<Packet>, edges: &mut [OutEdge]) {\n    \
                   while let Ok(Packet::Tuple(t)) = rx.recv() {\n        \
                   let mut em = Emitter::detached(edges);\n        \
                   bolt.execute(t, &mut em);\n    }\n}\n\
                   fn run_spout(spout: &mut dyn Spout) {\n    \
                   while let Some(wait) = spout.not_before() {\n        \
                   std::thread::sleep(wait);\n    }\n}\n";
        let v = lint("crates/engine/src/executor.rs", src);
        assert!(v.iter().any(|v| v.contains("[driver]") && v.contains("executor.rs:4")), "{v:?}");
        assert!(v.iter().any(|v| v.contains("[driver]") && v.contains("executor.rs:8")), "{v:?}");
        // The one loop is where it belongs, and the pool schedule is not
        // that place; engine tests, other crates and a mention in a comment
        // are not a second driver.
        assert!(!lint("crates/engine/src/task.rs", src).iter().any(|v| v.contains("[driver]")));
        assert!(lint("crates/engine/src/pool.rs", src).iter().any(|v| v.contains("[driver]")));
        assert!(lint("crates/apps/src/bolts.rs", src).is_empty());
        let gated = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint("crates/engine/src/runtime.rs", &gated).is_empty());
        let mention = "// activate calls bolt.execute(t, &mut em)\nfn f() {}\n";
        assert!(lint("crates/engine/src/bolt.rs", mention).is_empty());
    }

    #[test]
    fn pasted_second_delivery_loop_is_caught() {
        let src =
            "fn deliver_all(shared: &Shared, targets: &TargetBatch, outbox: &mut Outbox) {\n    \
                   for (d, run) in targets.runs() {\n        \
                   shared.push_run(d, run.iter().map(packet), outbox);\n    }\n}\n";
        let v = lint("crates/engine/src/pool.rs", src);
        assert!(v.iter().any(|v| v.contains("[emit_seam]") && v.contains("pool.rs:3")), "{v:?}");
        // The one flush is where delivery belongs; the definition, engine
        // tests and a mention in a comment are not a second loop.
        let flush = src.replace("fn deliver_all", "fn flush");
        assert!(lint("crates/engine/src/bolt.rs", &flush).is_empty());
        let def = "pub(crate) fn push_run(&self, dest: usize) {\n    let _ = dest;\n}\n";
        assert!(lint("crates/engine/src/pool.rs", def).is_empty());
        let gated = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint("crates/engine/src/pool.rs", &gated).is_empty());
        let mention = "// the flush calls shared.push_run(d, run, outbox)\nfn f() {}\n";
        assert!(lint("crates/engine/src/pool.rs", mention).is_empty());
        // One emitter per activation: a second literal is a second way out.
        let literal = "Emitter { outlet: None, emitted, now_ns: 0 }";
        let twice =
            format!("fn activate() {{\n    let a = {literal};\n    let b = {literal};\n}}\n");
        let v = lint("crates/engine/src/task.rs", &twice);
        assert!(v.iter().any(|v| v.contains("[emit_seam]") && v.contains("task.rs:3")), "{v:?}");
        assert!(!v.iter().any(|v| v.contains("task.rs:2")), "{v:?}");
    }

    #[test]
    fn pasted_outbox_growth_outside_the_seam_is_caught() {
        // A pull that copies a cursor into the outbox, skipping the mailbox.
        let src = "fn pull(outlet: &mut Outlet, dest: usize) {\n    \
                   for tuple in outlet.cursor.take().into_iter().flatten() {\n        \
                   outlet.outbox.push_back((dest, Packet::Tuple(tuple)));\n    }\n}\n";
        let v = lint("crates/engine/src/bolt.rs", src);
        assert!(v.iter().any(|v| v.contains("[outbox_seam]") && v.contains("bolt.rs:3")), "{v:?}");
        // The seams themselves, engine tests, the model suite and a mention
        // in a comment are not a violation.
        let spill = "fn push_run(outbox: &mut Outbox) {\n    outbox.extend(left);\n}\n";
        assert!(lint("crates/engine/src/transport.rs", spill).is_empty());
        assert!(
            !lint("crates/engine/src/bolt.rs", spill).is_empty(),
            "push_run lives in transport"
        );
        let eof = "fn close(&mut self) {\n    outlet.outbox.extend(eofs);\n}\n";
        assert!(lint("crates/engine/src/bolt.rs", eof).is_empty());
        let put_back = "fn deliver_outbox() {\n    outbox.push_front((dest, packet));\n}\n";
        assert!(lint("crates/engine/src/transport.rs", put_back).is_empty());
        let pushed = put_back.replace("push_front", "push_back");
        assert!(!lint("crates/engine/src/transport.rs", &pushed).is_empty(), "only a put-back");
        let gated = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint("crates/engine/src/bolt.rs", &gated).is_empty());
        assert!(lint("crates/engine/src/pool_model.rs", src).is_empty());
        let mention = "// a pull never calls outbox.push_back(p)\nfn f() {}\n";
        assert!(lint("crates/engine/src/bolt.rs", mention).is_empty());
    }

    #[test]
    fn pasted_signal_state_outside_core_is_caught() {
        let src = "fn component(opts: &LoadSignalOptions, n: usize) -> SharedLoads {\n    \
                   let estimator = opts.estimator_window.map(|w| CapacityEstimator::new(n, w));\n    \
                   SharedLoads::new(n).with_signals(opts.metric, estimator.map(Arc::new))\n}\n";
        let v = lint("crates/engine/src/load.rs", src);
        assert!(v.iter().any(|v| v.contains("[load_seam]") && v.contains("load.rs:3")), "{v:?}");
        let v = lint("crates/sim/src/simulation.rs", src);
        assert!(v.iter().any(|v| v.contains("[load_seam]")), "{v:?}");
        // pkg-core builds it; tests and a mention in a comment are fine.
        assert!(lint("crates/core/src/signals.rs", src).is_empty());
        let gated = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint("crates/engine/src/load.rs", &gated).is_empty());
        let mention = "// attach calls loads.with_signals(metric, estimator)\nfn f() {}\n";
        assert!(lint("crates/sim/src/simulation.rs", mention).is_empty());
    }

    #[test]
    fn pasted_second_dispatch_write_is_caught() {
        let src = "fn note(loads: &SharedLoads, w: usize) {\n    \
                   loads.record(w);\n    \
                   if let Some(signals) = loads.signals() {\n        \
                   signals.dispatch(w);\n    }\n}\n";
        let v = lint("crates/engine/src/bolt.rs", src);
        assert!(v.iter().any(|v| v.contains("[signal_seam]") && v.contains("bolt.rs:4")), "{v:?}");
        let v = lint("crates/sim/src/simulation.rs", src);
        assert!(v.iter().any(|v| v.contains("[signal_seam]")), "{v:?}");
        // pkg-core defines it; tests and a mention in a comment are fine.
        assert!(lint("crates/core/src/signals.rs", src).is_empty());
        let gated = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint("crates/engine/src/bolt.rs", &gated).is_empty());
        let mention = "// the count replaced signals.dispatch(w)\nfn f() {}\n";
        assert!(lint("crates/engine/src/bolt.rs", mention).is_empty());
    }

    #[test]
    fn pasted_second_key_hash_is_caught() {
        let src = "fn execute(&mut self, tuple: Tuple) {\n    \
                   use pkg_hash::StreamKey;\n    \
                   let key_id = tuple.key.as_bytes().key_id();\n    \
                   self.window.insert(tuple.key, key_id, tuple.value, self.ticks);\n}\n";
        let v = lint("crates/apps/src/bolts.rs", src);
        assert!(v.iter().any(|v| v.contains("[key_seam]") && v.contains("bolts.rs:3")), "{v:?}");
        let v = lint("crates/engine/src/grouping.rs", src);
        assert!(v.iter().any(|v| v.contains("[key_seam]")), "{v:?}");
        // The key type itself hashes its bytes; tests and a mention in a
        // comment are fine.
        assert!(lint("crates/engine/src/tuple.rs", src).is_empty());
        let gated = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint("crates/apps/src/bolts.rs", &gated).is_empty());
        let mention = "// the counter used to call key.as_bytes().key_id()\nfn f() {}\n";
        assert!(lint("crates/apps/src/bolts.rs", mention).is_empty());
    }

    #[test]
    fn pasted_partial_flush_outside_bolts_is_caught() {
        let src = "fn emit_pane(&mut self, pane: Pane<TupleKey, A>, out: &mut Emitter<'_>) {\n    \
                   for (key, acc) in pane.accs {\n        \
                   out.emit(Tuple::with_payload(key, acc.emit(), acc.encoded()));\n    }\n}\n";
        let v = lint("crates/apps/src/heavy_hitters.rs", src);
        assert!(
            v.iter().any(|v| v.contains("[partial_seam]") && v.contains("heavy_hitters.rs:3")),
            "{v:?}"
        );
        let v = lint("crates/apps/src/wordcount.rs", src);
        assert!(v.iter().any(|v| v.contains("[partial_seam]")), "{v:?}");
        // The helper's file, other crates, tests and a mention in a comment
        // are fine.
        assert!(lint("crates/apps/src/bolts.rs", src).is_empty());
        assert!(lint("crates/bench/src/bin/fig_elastic.rs", src).is_empty());
        let gated = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint("crates/apps/src/heavy_hitters.rs", &gated).is_empty());
        let mention =
            "// the pane used to go out as Tuple::with_payload(key, v, bytes)\nfn f() {}\n";
        assert!(lint("crates/apps/src/heavy_hitters.rs", mention).is_empty());
    }

    #[test]
    fn pasted_second_key_router_is_caught() {
        let src = "fn route(&mut self, key_id: u64) -> Target {\n    \
                   use pkg_hash::StreamKey;\n    \
                   Target::One((key_id.hash_seeded(self.seed) % self.n as u64) as usize)\n}\n";
        let v = lint("crates/engine/src/grouping.rs", src);
        assert!(
            v.iter().any(|v| v.contains("[route_seam]") && v.contains("grouping.rs:3")),
            "{v:?}"
        );
        for rel in ["crates/apps/src/shed.rs", "crates/sim/src/simulation.rs", "src/lib.rs"] {
            assert!(lint(rel, src).iter().any(|v| v.contains("[route_seam]")), "{rel}");
        }
        // pkg-hash and pkg-core hash keys; tests and a mention in a comment
        // are fine.
        assert!(lint("crates/core/src/key_grouping.rs", src).is_empty());
        assert!(lint("crates/hash/src/seeded.rs", src).is_empty());
        let gated = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint("crates/engine/src/grouping.rs", &gated).is_empty());
        let mention = "// KG was key_id.hash_seeded(seed) % n\nfn f() {}\n";
        assert!(lint("crates/engine/src/grouping.rs", mention).is_empty());
    }

    #[test]
    fn pasted_thread_local_in_the_pool_is_caught() {
        let src = "thread_local! {\n    static WORKER: Cell<Option<usize>> = Cell::new(None);\n}\n\
                   fn wake(shared: &Shared, t: usize) {\n    let _ = (shared, t);\n}\n";
        let v = lint("crates/engine/src/pool.rs", src);
        assert!(v.iter().any(|v| v.contains("[facade]") && v.contains("pool.rs:1")), "{v:?}");
        // Tests and a mention in a comment are fine.
        let gated = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint("crates/engine/src/pool.rs", &gated).is_empty());
        let mention = "// the worker id is an argument, not a thread_local! cell\nfn f() {}\n";
        assert!(lint("crates/engine/src/pool.rs", mention).is_empty());
    }

    #[test]
    fn pasted_direct_spin_or_yield_in_the_pool_is_caught() {
        for call in ["std::hint::spin_loop()", "std::thread::yield_now()"] {
            let src = format!(
                "fn spin_until(parker: &Parker) {{\n    while !parker.park_timeout(Duration::ZERO) {{\n        {call};\n    }}\n}}\n"
            );
            let v = lint("crates/engine/src/pool.rs", &src);
            assert!(v.iter().any(|v| v.contains("[facade]") && v.contains("pool.rs:3")), "{v:?}");
            // The facade's own hint is the sanctioned spelling.
            let facade = src.replace(call, "crate::sync::spin_loop()");
            assert!(lint("crates/engine/src/pool.rs", &facade).is_empty(), "{call}");
        }
    }

    #[test]
    fn new_engine_files_are_facade_covered() {
        let src = "use std::sync::atomic::AtomicBool;\nfn f() {}\n";
        let v = lint("crates/engine/src/deterministic.rs", src);
        assert!(v.iter().any(|v| v.contains("[facade]")), "{v:?}");
        // Only the exempt list, each entry with its reason, escapes the rule.
        for (rel, reason) in FACADE_EXEMPT {
            assert!(!reason.is_empty(), "{rel}");
            assert!(!lint(rel, src).iter().any(|v| v.contains("[facade]")), "{rel}");
        }
    }

    #[test]
    fn pasted_clock_read_outside_the_clock_seam_is_caught() {
        let src = "fn stamp(out: &mut Emitter<'_>) {\n    \
                   out.now_ns = std::time::Instant::now().elapsed().as_nanos() as u64;\n}\n";
        let v = lint("crates/engine/src/task.rs", src);
        assert!(v.iter().any(|v| v.contains("[clock]") && v.contains("task.rs:2")), "{v:?}");
        let aliased = "use crate::sync::Instant;\nfn f() -> Instant {\n    Instant::now()\n}\n";
        let v = lint("crates/engine/src/pool.rs", aliased);
        assert_eq!(v.iter().filter(|v| v.contains("[clock]")).count(), 3, "{v:?}");
        // The clock file, engine tests, other crates and a comment are fine.
        let clock = "use std::time::Instant;\nfn epoch() -> Instant {\n    Instant::now()\n}\n";
        assert!(lint(CLOCK_FILE, clock).is_empty(), "{:?}", lint(CLOCK_FILE, clock));
        let gated = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint("crates/engine/src/task.rs", &gated).is_empty());
        assert!(!lint("crates/sim/src/runner.rs", src).iter().any(|v| v.contains("[clock]")));
        let mention = "// the epoch is an Instant\nfn f() {}\n";
        assert!(lint("crates/engine/src/task.rs", mention).is_empty());
    }

    #[test]
    fn instance_path_files_are_facade_covered() {
        let src = "use std::sync::Arc;\nfn f() {}\n";
        for rel in ["crates/engine/src/bolt.rs", "crates/engine/src/runtime.rs"] {
            assert!(lint(rel, src).iter().any(|v| v.contains("[facade]")), "{rel}");
        }
    }

    fn orphans(files: &[(&str, &str)], allow: &[(&str, &str, &str)]) -> Vec<String> {
        let files: Vec<(String, String)> =
            files.iter().map(|&(rel, src)| (rel.to_string(), src.to_string())).collect();
        rule_orphan(&files, allow)
    }

    #[test]
    fn pasted_orphan_is_caught() {
        let decl = "pub fn used() {}\npub fn pasted(x: u8) -> u8 {\n    x\n}\n";
        let user = "fn f() {\n    pkg_core::used();\n}\n";
        let v = orphans(&[("crates/core/src/x.rs", decl), ("crates/sim/src/y.rs", user)], &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("[orphan]") && v[0].contains("x.rs:2") && v[0].contains("`pasted`"));
        // Narrower visibility, fields, test code, drivers and the lint itself
        // declare no layer API.
        let quiet = "pub struct S {\n    pub field: u8,\n}\npub(crate) fn a() {}\n\
                     #[cfg(test)]\nmod tests {\n    pub fn b() {}\n}\n";
        let user = "fn f(s: S) {}\n";
        assert!(orphans(&[("crates/core/src/x.rs", quiet), ("src/lib.rs", user)], &[]).is_empty());
        for rel in ["crates/bench/src/bin/fig.rs", "crates/lint/src/main.rs", "src/lib.rs"] {
            assert!(orphans(&[(rel, decl)], &[]).is_empty(), "{rel}");
        }
    }

    #[test]
    fn test_code_reexports_and_definitions_do_not_rescue_an_orphan() {
        let decl = ("crates/core/src/x.rs", "pub fn lonely() {}\nfn g() {\n    lonely();\n}\n");
        for user in [
            "#[cfg(test)]\nmod tests {\n    fn t() {\n        crate::x::lonely();\n    }\n}\n",
            "pub use x::lonely;\n",
            "pub use x::{\n    g, lonely,\n};\n",
            "fn lonely() {}\n",
            "// lonely() is called by nothing\nfn f() {}\n",
        ] {
            let v = orphans(&[decl, ("crates/core/src/lib.rs", user)], &[]);
            assert!(v.iter().any(|v| v.contains("`lonely`")), "{user:?} rescued it");
        }
        for user in ["use crate::x::lonely;\n", "fn f() {\n    x::lonely();\n}\n"] {
            assert!(orphans(&[decl, ("crates/core/src/lib.rs", user)], &[]).is_empty(), "{user:?}");
        }
    }

    #[test]
    fn uses_in_examples_and_the_benchmark_rescue_an_item() {
        let root = std::env::temp_dir().join(format!("pkg-lint-orphan-{}", std::process::id()));
        let write = |rel: &str, src: &str| {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
            std::fs::write(path, src).expect("write");
        };
        let caught = |name: &str| {
            let needle = format!("`{name}` is named in no other file");
            scan(&root).1.iter().any(|v| v.contains(&needle))
        };
        write(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn shown() {}\npub fn benched() {}\n",
        );
        // Integration tests are not users.
        write("tests/t.rs", "fn t() {\n    pkg_core::shown();\n    pkg_core::benched();\n}\n");
        let before = (caught("shown"), caught("benched"));
        write("examples/demo.rs", "fn main() {\n    pkg_core::shown();\n}\n");
        write("benchmark/src/main.rs", "fn main() {\n    pkg_core::benched();\n}\n");
        let after = (caught("shown"), caught("benched"));
        std::fs::remove_dir_all(&root).expect("clean up");
        assert_eq!(before, (true, true));
        assert_eq!(after, (false, false));
    }

    #[test]
    fn stale_allow_entries_are_reported() {
        let decl = ("crates/core/src/x.rs", "pub fn kept() {}\npub fn called() {}\n");
        let user = ("examples/e.rs", "fn main() {\n    called();\n}\n");
        let allow = [
            ("crates/core/src/x.rs", "kept", "deliberate"),
            ("crates/core/src/x.rs", "called", "now used"),
            ("crates/core/src/x.rs", "gone", "deleted"),
        ];
        let v = orphans(&[decl, user], &allow);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|v| v.contains("`called`") && v.contains("examples/e.rs")), "{v:?}");
        assert!(v.iter().any(|v| v.contains("`gone`") && v.contains("stale")), "{v:?}");
        assert!(orphans(&[decl, user], &allow[..1]).is_empty());
        // An entry whose reason cites an integration test holds only while
        // that test names the item; another test naming it does not count.
        let cites = [("crates/core/src/x.rs", "kept", "oracle in tests/t.rs")];
        let test = |rel, src| [decl, user, (rel, src)];
        let oracle = "#[test]\nfn t() {\n    pkg_core::kept();\n}\n";
        assert!(orphans(&test("tests/t.rs", oracle), &cites).is_empty());
        for (rel, src) in [("tests/t.rs", "#[test]\nfn t() {}\n"), ("tests/u.rs", oracle)] {
            let v = orphans(&test(rel, src), &cites);
            assert_eq!(v.len(), 1, "{v:?}");
            assert!(v[0].contains("`kept`") && v[0].contains("`tests/t.rs` does not name it"));
        }
    }

    /// The tree this binary ships in must itself be clean — the same scan
    /// CI runs, as a plain test.
    #[test]
    fn repo_is_clean() {
        let (files, violations) = scan(&workspace_root());
        assert!(files > 20, "workspace scan found too few files");
        assert!(violations.is_empty(), "workspace must lint clean:\n{}", violations.join("\n"));
    }
}
