//! `pkg-lint` — repo-invariant static analysis for the workspace.
//!
//! A dependency-free, token-level scanner (comments and string/char
//! literals are blanked before matching, `#[cfg(test)]`/`#[test]`-gated
//! regions are skipped) that enforces the concurrency-hygiene rules the
//! model-checked suite relies on. Scope: the shipped code under `crates/`,
//! `vendor/`, and `src/` — integration tests, examples, and benches are
//! deliberately out of scope.
//!
//! | rule      | scope                         | invariant                                     |
//! |-----------|-------------------------------|-----------------------------------------------|
//! | `facade`  | engine `pool.rs`, `timer.rs`, | no `std::sync` / `std::thread::sleep` /       |
//! |           | `elastic.rs`, `ring.rs`,      | `std::time::Instant` outside `crate::sync` —  |
//! |           | `ingress.rs`, `load.rs`,      | what makes the code model-checkable at all    |
//! |           | `bolt.rs`, `runtime.rs`;      |                                               |
//! |           | crossbeam `deque.rs`          |                                               |
//! | `ordering`| whole workspace               | every memory-ordering token (`SeqCst`, …)     |
//! |           |                               | carries a `// ordering:` justification within |
//! |           |                               | 3 lines                                       |
//! | `panic`   | `pkg-engine` and              | no `.unwrap()` / `.expect(` — engine errors   |
//! |           | `pkg-ingress` non-test code   | surface as typed panics with context          |
//! | `unsafe`  | every crate root              | `#![forbid(unsafe_code)]` present             |
//! | `argmin`  | whole workspace               | `prefers(`, the greedy comparison, is called  |
//! |           |                               | only by `LoadView`'s one argmin loop (and     |
//! |           |                               | defined in `metrics/src/capacity.rs`)         |
//! | `ordered_`| `pkg-core` non-test code      | no `BTreeMap` / `BTreeSet` — per-message      |
//! | `map`     |                               | routing state stays O(1)                      |
//! | `driver`  | `pkg-engine` non-test code    | `.execute(` / `.not_before(` only in          |
//! |           |                               | `pool.rs` — one instance loop drives bolts    |
//! |           |                               | and spouts, under every schedule              |
//! | `emit_`   | `pkg-engine` non-test code    | `push_run(` called only in the emitter's      |
//! | `seam`    |                               | `flush`; `Emitter {` built once in `activate` |
//! |           |                               | (and in `drop_sink`) — one way out            |
//! | `load_`   | whole workspace               | `.with_signals(` only under `pkg-core` — the  |
//! | `seam`    |                               | simulator and the engine attach signal state  |
//! |           |                               | through `LoadSignalOptions::attach`           |
//! | `signal_` | whole workspace               | `.dispatch(` only under `pkg-core` — a routed |
//! | `seam`    |                               | tuple's one shared write is its count         |
//! |           |                               | (`SharedLoads::record`)                       |
//!
//! Exit status: 0 when clean, 1 with one diagnostic line per violation.
//! Usage: `cargo run -p pkg-lint [workspace-root]`.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Files the `panic` rule skips: the facade maps poisoning to a panic by
/// design, and the model suite is test-only code compiled as a child of
/// `pool` (the scanner cannot see the `#[cfg(all(test, …))]` gate, which
/// lives at the `mod` declaration in `pool.rs`).
const PANIC_RULE_EXEMPT: [&str; 2] =
    ["crates/engine/src/sync.rs", "crates/engine/src/pool_model.rs"];

/// Files the `facade` rule covers. The ring and the work-stealing deque
/// joined with the pool's raw-speed hot path: both are model-checked, so
/// both must reach `std` only through their crate's cfg-switched facade
/// (`crate::sync` in the engine, `crate::atomic` in vendored crossbeam).
/// The engine's ingress wiring shares types with the pool (depth gauges
/// flow into shed decisions), so it is held to the same facade; likewise
/// the load-signal wiring (`load.rs`), whose shared state is read and fed
/// inside pool activations. The emitter (`bolt.rs`) and the runtime entry
/// point (`runtime.rs`) complete the instance path: every engine file an
/// activation runs through is model-checkable.
const FACADE_FILES: [&str; 9] = [
    "crates/engine/src/bolt.rs",
    "crates/engine/src/elastic.rs",
    "crates/engine/src/ingress.rs",
    "crates/engine/src/load.rs",
    "crates/engine/src/pool.rs",
    "crates/engine/src/ring.rs",
    "crates/engine/src/runtime.rs",
    "crates/engine/src/timer.rs",
    "vendor/crossbeam/src/deque.rs",
];

/// Tokens banned by the `facade` rule. `std::thread::scope` stays legal
/// (pool spawn-and-join structure is not a sync primitive), as does
/// `std::time::Duration` (a value type, not a clock).
const FACADE_BANNED: [&str; 3] = ["std::sync", "std::thread::sleep", "std::time::Instant"];

/// The only files that may spell `prefers(`: its definition and the one
/// argmin loop of the greedy family. A second loop elsewhere would bring
/// back a per-scheme tie rule that the byte-identity gates compare with
/// nothing.
const ARGMIN_FILES: [&str; 2] = ["crates/metrics/src/capacity.rs", "crates/core/src/load_view.rs"];

/// Ordered collections the `ordered_map` rule bans from the routing core:
/// their O(log n) updates on the per-message path are what the head
/// tracker's stream-summary replaced.
const ORDERED_MAPS: [&str; 2] = ["BTreeMap", "BTreeSet"];

/// Files the `driver` rule skips: `pool.rs`, whose `activate` is the only
/// caller of `Bolt::execute` and `Spout::not_before` whichever schedule
/// runs it, and its test-only model suite (compiled as a child of `pool`).
/// A caller anywhere else would be a second instance loop.
const DRIVER_FILES: [&str; 2] = ["crates/engine/src/pool.rs", "crates/engine/src/pool_model.rs"];

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
    ("Emitter {", "crates/engine/src/pool.rs", "activate", 1),
    ("Emitter {", "crates/engine/src/bolt.rs", "drop_sink", 1),
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
    (".with_signals(", "load_seam", "attach signal state through `LoadSignalOptions::attach`"),
    (".dispatch(", "signal_seam", "the routed count `SharedLoads::record` is the dispatch tally"),
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
    let mut files = Vec::new();
    for top in ["crates", "vendor", "src"] {
        collect_rs_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut violations = Vec::new();
    for path in &files {
        let Ok(src) = std::fs::read_to_string(path) else {
            violations.push(format!("{}: unreadable", path.display()));
            continue;
        };
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        violations.extend(lint_file(&rel, &src));
    }
    if violations.is_empty() {
        println!("pkg-lint: clean ({} files)", files.len());
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

    if FACADE_FILES.contains(&rel) {
        rule_facade(rel, &code, &in_test, &mut out);
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
    if rel.starts_with("crates/core/src/") {
        rule_ordered_map(rel, &code, &in_test, &mut out);
    }
    if rel.starts_with("crates/engine/src/") && !DRIVER_FILES.contains(&rel) {
        rule_driver(rel, &code, &in_test, &mut out);
    }
    if rel.starts_with("crates/engine/src/") && rel != "crates/engine/src/pool_model.rs" {
        rule_emit_seam(rel, &code, &in_test, &mut out);
    }
    if !rel.starts_with(CORE_SEAM_DIR) {
        rule_core_seams(rel, &code, &in_test, &mut out);
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
            if line.contains(banned) {
                out.push(format!(
                    "{rel}:{}: [facade] `{banned}` bypasses the crate::sync facade \
                     (the module must stay model-checkable)",
                    i + 1
                ));
            }
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
                 (route through `LoadView::argmin`, the family's one argmin loop)",
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
                    "{rel}:{}: [ordered_map] `{map}` in pkg-core \
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
                    "{rel}:{}: [driver] `{call}` outside pool.rs \
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

fn rule_core_seams(rel: &str, code: &[String], in_test: &[bool], out: &mut Vec<String>) {
    for (i, line) in code.iter().enumerate() {
        for (token, rule, remedy) in CORE_SEAMS {
            if !in_test[i] && line.contains(token) {
                out.push(format!(
                    "{rel}:{}: [{rule}] `{token}` outside pkg-core ({remedy})",
                    i + 1
                ));
            }
        }
    }
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
        // The one loop is where it belongs; engine tests, other crates and a
        // mention in a comment are not a second driver.
        assert!(!lint("crates/engine/src/pool.rs", src).iter().any(|v| v.contains("[driver]")));
        assert!(lint("crates/agg/src/bolts.rs", src).is_empty());
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
        let v = lint("crates/engine/src/pool.rs", &twice);
        assert!(v.iter().any(|v| v.contains("[emit_seam]") && v.contains("pool.rs:3")), "{v:?}");
        assert!(!v.iter().any(|v| v.contains("pool.rs:2")), "{v:?}");
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
    fn instance_path_files_are_facade_covered() {
        let src = "use std::sync::Arc;\nfn f() {}\n";
        for rel in ["crates/engine/src/bolt.rs", "crates/engine/src/runtime.rs"] {
            assert!(lint(rel, src).iter().any(|v| v.contains("[facade]")), "{rel}");
        }
    }

    /// The tree this binary ships in must itself be clean — the same scan
    /// CI runs, as a plain test.
    #[test]
    fn repo_is_clean() {
        let root = workspace_root();
        let mut files = Vec::new();
        for top in ["crates", "vendor", "src"] {
            collect_rs_files(&root.join(top), &mut files);
        }
        assert!(files.len() > 20, "workspace scan found too few files");
        let mut violations = Vec::new();
        for path in &files {
            let src = std::fs::read_to_string(path).expect("readable source");
            let rel = path
                .strip_prefix(&root)
                .expect("file under root")
                .to_string_lossy()
                .replace(std::path::MAIN_SEPARATOR, "/");
            violations.extend(lint_file(&rel, &src));
        }
        assert!(violations.is_empty(), "workspace must lint clean:\n{}", violations.join("\n"));
    }
}
