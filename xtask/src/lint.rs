//! The project lint engine.
//!
//! Eighteen textual lints over the workspace's library crates, built
//! on the masked source view of [`crate::lexer`] — no rustc plugin,
//! fully offline. Findings are suppressed inline with
//! `// sentinet-allow(lint-name): reason` on the same line or on the
//! comment block directly above; the reason is mandatory.
//!
//! | lint | fires on |
//! |---|---|
//! | `unwrap-used` | `.unwrap()` in library code |
//! | `expect-used` | `.expect(…)` in library code |
//! | `panic-used` | `panic!` / `unreachable!` / `todo!` / `unimplemented!` |
//! | `dbg-used` | `dbg!` / `println!` / `print!` / `eprintln!` / `eprint!` |
//! | `float-eq` | `==` / `!=` with a float-literal operand |
//! | `unseeded-rng` | `thread_rng` / `from_entropy` / `rand::random` |
//! | `missing-forbid-unsafe` | `lib.rs` without `#![forbid(unsafe_code)]` |
//! | `missing-deny-docs` | `lib.rs` without `#![deny(missing_docs)]` |
//! | `hot-path-alloc` | allocation markers in registered hot functions |
//! | `thread-spawn` | `thread::spawn` outside `crates/gateway` |
//! | `resume-unwind` | `resume_unwind` anywhere |
//! | `unbounded-channel` | `unbounded` channels anywhere |
//! | `net-outside-gateway` | `std::net` / `std::os::unix::net` outside `crates/gateway` |
//! | `socket-read-timeout` | socket reads in a file that never sets a read timeout |
//! | `io-outside-vfs` | raw filesystem mutation outside `gateway/src/vfs.rs` |
//! | `ack-ordering` | fn writing an `Ack`/`AckUpTo` to the wire with no durability check first |
//! | `partition-map-mutation` | `.commit_owner(` / `.commit_health(` / `.split_at(` / `.transfer(` outside the federation commit path |
//! | `stale-suppression` | `sentinet-allow` comment that no longer suppresses any finding |
//!
//! Test code (`#[cfg(test)] mod`s and `#[test]` fns) is exempt from
//! all except the header lints, and the `cli`/`bench` crates are
//! exempt from the panic-family, `dbg-used` and header lints (they are
//! terminal programs where aborting and printing are the interface).
//! `assert!`/`debug_assert!` are deliberately allowed: validated
//! preconditions are part of the API contract. A caught panic must
//! never be re-raised, and channels must be bounded so a stuck consumer
//! back-pressures instead of buffering without limit. Live network I/O
//! is the gateway's monopoly: raw sockets elsewhere would bypass its
//! framing, dedup, WAL, and backpressure, and any file naming a socket
//! stream type that reads from it must configure a read timeout so a
//! dead peer cannot wedge a thread forever. Durable file mutation is
//! the storage layer's monopoly (`io-outside-vfs`): a raw
//! `File::create`, `OpenOptions`, or `std::fs` write outside
//! `gateway::vfs` would bypass the injectable `Vfs` seam, so disk-fault
//! chaos could never reach it and its fsync/crash semantics would go
//! untested.
//!
//! The ack-after-durable rule of the pipelined protocol gets its own
//! dataflow pass (`ack-ordering`): a function body that constructs a
//! `Message::AckUpTo` and also writes to the wire (`write_all`) must
//! check durability first — an earlier `synced_cursor`/`sync_wal`
//! consultation on the same path.
//! Anything else is the eager-ack bug the protocol model checker
//! (`xtask protocol-check`) exists to catch. And suppression hygiene
//! is enforced by `stale-suppression`: a well-formed `sentinet-allow`
//! comment that no longer silences any actual finding is itself a
//! finding, so fixed code sheds its stale annotations instead of
//! carrying holes a future regression could slip through.

use crate::lexer::{match_brace, SourceMap};
use std::fmt;
use std::path::{Path, PathBuf};

/// Every lint name, for suppression validation.
pub const LINTS: &[&str] = &[
    "unwrap-used",
    "expect-used",
    "panic-used",
    "dbg-used",
    "float-eq",
    "unseeded-rng",
    "missing-forbid-unsafe",
    "missing-deny-docs",
    "hot-path-alloc",
    "thread-spawn",
    "resume-unwind",
    "unbounded-channel",
    "net-outside-gateway",
    "socket-read-timeout",
    "io-outside-vfs",
    "ack-ordering",
    "partition-map-mutation",
    "stale-suppression",
];

/// Needles whose word-bounded occurrence in a fn body marks an ack
/// construction (or pattern) the `ack-ordering` lint anchors on.
const ACK_NEEDLES: &[&str] = &["Message::AckUpTo"];

/// Occurrences that dominate an ack release: consulting the fsync
/// watermark or forcing it.
const ACK_DOMINATORS: &[&str] = &["synced_cursor", "sync_wal"];

/// Functions that must stay lexically allocation-free, keyed by a path
/// suffix of the file that defines them. These are the PR-1 hot paths:
/// the steady-state ingest/window/update code the benches measure.
pub const HOT_PATHS: &[(&str, &[&str])] = &[
    ("core/src/window.rs", &["push", "trimmed_mean_with"]),
    ("core/src/pipeline.rs", &["push_values"]),
    ("hmm/src/matrix.rs", &["reinforce"]),
    ("hmm/src/online.rs", &["observe"]),
];

/// Allocation markers searched inside hot-path function bodies.
/// `Vec::new()`/`.collect()` into pre-sized scratch are not markers:
/// the hot bodies reuse recycled buffers, and an empty `Vec::new` does
/// not touch the allocator.
const ALLOC_MARKERS: &[&str] = &[
    "vec![",
    ".to_vec()",
    ".to_owned()",
    ".to_string()",
    "String::from(",
    "format!",
    "Box::new(",
    "with_capacity(",
    ".clone()",
];

/// Crates whose code is a terminal program rather than a library.
const EXEMPT_CRATES: &[&str] = &["cli", "bench"];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Lint name.
    pub lint: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.lint,
            self.message
        )
    }
}

/// What the lint engine knows about the file being checked.
#[derive(Debug, Clone, Default)]
pub struct FileContext {
    /// The file belongs to an exempt (terminal-program) crate.
    pub exempt_crate: bool,
    /// The file is a crate root (`lib.rs`) subject to header lints.
    pub is_lib_root: bool,
    /// The file belongs to `crates/gateway` (may spawn threads and
    /// open sockets — live I/O is its monopoly).
    pub gateway_crate: bool,
    /// The file belongs to `crates/controller` (drives collectors over
    /// the gateway's live transports, so it shares the socket grant).
    pub controller_crate: bool,
    /// The file is the federation commit path
    /// (`controller/src/federation.rs`), the one place allowed to
    /// mutate partition-map ownership or health.
    pub controller_commit_file: bool,
    /// The file is the storage abstraction (`gateway/src/vfs.rs`),
    /// the one place allowed to touch the real filesystem.
    pub vfs_file: bool,
    /// Hot-path function names registered for this file.
    pub hot_functions: Vec<String>,
}

impl FileContext {
    /// Builds the context for a workspace file at `path` (used by the
    /// directory walker; tests construct contexts directly).
    pub fn for_path(path: &Path) -> Self {
        let p = path.to_string_lossy().replace('\\', "/");
        let crate_name = p
            .split("crates/")
            .nth(1)
            .and_then(|rest| rest.split('/').next())
            .unwrap_or("");
        let hot_functions = HOT_PATHS
            .iter()
            .find(|(suffix, _)| p.ends_with(suffix))
            .map(|(_, fns)| fns.iter().map(|s| s.to_string()).collect())
            .unwrap_or_default();
        Self {
            exempt_crate: EXEMPT_CRATES.contains(&crate_name),
            is_lib_root: p.ends_with("src/lib.rs"),
            gateway_crate: crate_name == "gateway",
            controller_crate: crate_name == "controller",
            controller_commit_file: p.ends_with("controller/src/federation.rs"),
            vfs_file: p.ends_with("gateway/src/vfs.rs"),
            hot_functions,
        }
    }
}

/// Runs every lint over one file.
pub fn lint_source(path: &Path, source: &str, ctx: &FileContext) -> Vec<Finding> {
    let map = SourceMap::new(source);
    let mut findings = Vec::new();
    // Suppression lines that actually silenced a finding; whatever is
    // left over at the end is stale.
    let mut used_suppressions: std::collections::BTreeSet<usize> =
        std::collections::BTreeSet::new();
    let mut push = |map: &SourceMap, offset: usize, lint: &str, message: String| {
        let line = map.line_of(offset);
        match map.covering_suppression(lint, line) {
            Some(sup_line) => {
                used_suppressions.insert(sup_line);
            }
            None => findings.push(Finding {
                file: path.to_path_buf(),
                line,
                lint: lint.to_string(),
                message,
            }),
        }
    };

    // Panic-family, dbg and rng lints: library code only, tests exempt.
    if !ctx.exempt_crate {
        for offset in find_all(&map.masked, ".unwrap()") {
            if !map.in_test_region(offset) {
                push(
                    &map,
                    offset,
                    "unwrap-used",
                    "`.unwrap()` in library code; return a typed error or justify with sentinet-allow".into(),
                );
            }
        }
        for offset in find_all(&map.masked, ".expect(") {
            if !map.in_test_region(offset) {
                push(
                    &map,
                    offset,
                    "expect-used",
                    "`.expect(…)` in library code; return a typed error or justify with sentinet-allow".into(),
                );
            }
        }
        for mac in ["panic!", "unreachable!", "todo!", "unimplemented!"] {
            for offset in find_macro(&map.masked, mac) {
                if !map.in_test_region(offset) {
                    push(
                        &map,
                        offset,
                        "panic-used",
                        format!("`{mac}` in library code; prefer a typed error (assert!/debug_assert! are fine)"),
                    );
                }
            }
        }
        for mac in ["dbg!", "println!", "print!", "eprintln!", "eprint!"] {
            for offset in find_macro(&map.masked, mac) {
                if !map.in_test_region(offset) {
                    push(
                        &map,
                        offset,
                        "dbg-used",
                        format!("`{mac}` in library code; return data instead of printing"),
                    );
                }
            }
        }
    }

    // Float equality and unseeded RNG apply everywhere outside tests.
    for (offset, op, lhs, rhs) in find_float_eq(&map.masked) {
        if !map.in_test_region(offset) {
            push(
                &map,
                offset,
                "float-eq",
                format!("float literal compared with `{op}` (`{lhs} {op} {rhs}`); use an epsilon or total_cmp"),
            );
        }
    }
    for needle in ["thread_rng", "from_entropy", "rand::random"] {
        for offset in find_word(&map.masked, needle) {
            if !map.in_test_region(offset) {
                push(
                    &map,
                    offset,
                    "unseeded-rng",
                    format!("`{needle}` breaks reproducibility; seed a StdRng explicitly"),
                );
            }
        }
    }

    // Crate-root header lints (never suppressible by test regions).
    if ctx.is_lib_root && !ctx.exempt_crate {
        if !map.masked.contains("#![forbid(unsafe_code)]") {
            push(
                &map,
                0,
                "missing-forbid-unsafe",
                "crate root lacks `#![forbid(unsafe_code)]`".into(),
            );
        }
        if !map.masked.contains("#![deny(missing_docs)]") {
            push(
                &map,
                0,
                "missing-deny-docs",
                "crate root lacks `#![deny(missing_docs)]`".into(),
            );
        }
    }

    // Hot-path allocation lint: registered functions only.
    for func in &ctx.hot_functions {
        for (open, close) in function_bodies(&map.masked, func) {
            if map.in_test_region(open) {
                continue;
            }
            let body = &map.masked[open..close];
            for marker in ALLOC_MARKERS {
                for pos in find_all(body, marker) {
                    push(
                        &map,
                        open + pos,
                        "hot-path-alloc",
                        format!(
                            "`{marker}` inside hot-path fn `{func}` (registered allocation-free)"
                        ),
                    );
                }
            }
        }
    }

    // Thread spawning is the gateway's (socket accept/reader threads).
    if !ctx.gateway_crate {
        for offset in find_all(&map.masked, "thread::spawn") {
            if !map.in_test_region(offset) {
                push(
                    &map,
                    offset,
                    "thread-spawn",
                    "`thread::spawn` outside crates/gateway; route concurrency through it".into(),
                );
            }
        }
    }

    // Live network I/O is the gateway's monopoly: raw sockets anywhere
    // else would bypass its framing, dedup, WAL, and backpressure. The
    // controller tier is admitted — it federates collectors over the
    // gateway's own transports and needs the socket types in scope.
    if !ctx.gateway_crate && !ctx.controller_crate {
        for needle in ["std::net", "std::os::unix::net"] {
            for offset in find_all(&map.masked, needle) {
                if !map.in_test_region(offset) {
                    push(
                        &map,
                        offset,
                        "net-outside-gateway",
                        format!(
                            "`{needle}` outside crates/gateway; route live I/O through the gateway"
                        ),
                    );
                }
            }
        }
    }

    // Sockets must never block forever: a file that names a socket
    // stream type and reads from it must configure a read timeout,
    // otherwise a dead peer wedges the reading thread. One finding per
    // file, anchored at the first read call.
    let names_socket = ["TcpStream", "UnixStream"]
        .iter()
        .flat_map(|w| find_word(&map.masked, w))
        .any(|offset| !map.in_test_region(offset));
    if names_socket && !map.masked.contains("set_read_timeout") {
        let mut reads: Vec<usize> = [".read(", ".read_exact(", ".read_to_end("]
            .iter()
            .flat_map(|n| find_all(&map.masked, n))
            .filter(|&offset| !map.in_test_region(offset))
            .collect();
        reads.sort_unstable();
        if let Some(&first) = reads.first() {
            push(
                &map,
                first,
                "socket-read-timeout",
                "blocking socket read in a file that never calls `set_read_timeout`; a dead peer would wedge this thread".into(),
            );
        }
    }

    // Durable file mutation is the storage layer's monopoly: a raw
    // filesystem write outside `gateway::vfs` bypasses the injectable
    // seam, so disk-fault chaos (ENOSPC, failed fsync, torn writes)
    // could never reach it. Reads are deliberately not flagged — only
    // mutation needs fault coverage to protect durability.
    if !ctx.vfs_file {
        for needle in [
            "File::create(",
            "OpenOptions::new(",
            "fs::write(",
            "fs::rename(",
            "fs::remove_file(",
            "fs::create_dir_all(",
            "fs::remove_dir_all(",
        ] {
            for offset in find_macro(&map.masked, needle) {
                if !map.in_test_region(offset) {
                    push(
                        &map,
                        offset,
                        "io-outside-vfs",
                        format!(
                            "`{needle}…)` outside gateway::vfs; route durable writes through the Vfs trait so fault injection covers them"
                        ),
                    );
                }
            }
        }
    }

    // Panics must surface as typed errors (not be re-raised) and
    // channels must be bounded so a stuck consumer back-pressures
    // instead of buffering forever.
    for offset in find_word(&map.masked, "resume_unwind") {
        if !map.in_test_region(offset) {
            push(
                &map,
                offset,
                "resume-unwind",
                "`resume_unwind` re-raises a caught panic; surface the crash as a typed error instead".into(),
            );
        }
    }
    for offset in find_word(&map.masked, "unbounded") {
        if !map.in_test_region(offset) {
            push(
                &map,
                offset,
                "unbounded-channel",
                "unbounded channel; use `bounded` with an explicit capacity".into(),
            );
        }
    }

    // Ack-ordering: a fn body that both constructs an Ack/AckUpTo and
    // writes to the wire must consult durability first on the same
    // path. One finding per body, anchored at the first ack needle;
    // nested fns are claimed innermost-first so an inner violation is
    // not double-counted through its enclosing body.
    let mut claimed_anchors: Vec<usize> = Vec::new();
    let mut bodies = all_function_bodies(&map.masked);
    bodies.sort_by_key(|&(open, close)| close - open);
    for (open, close) in bodies {
        if map.in_test_region(open) {
            continue;
        }
        let body = &map.masked[open..close];
        let anchor = ACK_NEEDLES.iter().flat_map(|n| find_word(body, n)).min();
        let Some(anchor) = anchor else {
            continue;
        };
        if claimed_anchors.contains(&(open + anchor)) {
            continue;
        }
        if find_all(body, "write_all(").is_empty() {
            continue;
        }
        let dominated = ACK_DOMINATORS
            .iter()
            .flat_map(|d| find_all(body, d))
            .any(|pos| pos < anchor);
        claimed_anchors.push(open + anchor);
        if !dominated {
            push(
                &map,
                open + anchor,
                "ack-ordering",
                "Ack/AckUpTo written to the wire with no dominating `synced_cursor`/`sync_wal` check; an unsynced crash would lose acked data".into(),
            );
        }
    }

    // Partition ownership, health and range transitions are the
    // federation commit path's monopoly: a `.commit_owner(`/
    // `.commit_health(` call anywhere else could re-assign a partition
    // without fencing the old owner or recording the epoch bump, and a
    // `.split_at(`/`.transfer(` could move a sensor range without the
    // two-phase cut/adopt handoff — either silently forks the fleet's
    // view of who may ack.
    if !ctx.controller_commit_file {
        for needle in [
            ".commit_owner(",
            ".commit_health(",
            ".split_at(",
            ".transfer(",
        ] {
            for offset in find_all(&map.masked, needle) {
                if !map.in_test_region(offset) {
                    push(
                        &map,
                        offset,
                        "partition-map-mutation",
                        format!(
                            "`{needle}…)` outside controller::federation; route ownership/health/range transitions through the federation commit path"
                        ),
                    );
                }
            }
        }
    }

    // Malformed or unknown suppressions are findings themselves, so a
    // typo cannot silently disable a lint.
    for sup in &map.suppressions {
        if !LINTS.contains(&sup.lint.as_str()) {
            findings.push(Finding {
                file: path.to_path_buf(),
                line: sup.line,
                lint: "unknown-suppression".into(),
                message: format!("sentinet-allow names unknown lint `{}`", sup.lint),
            });
        } else if !sup.has_reason {
            findings.push(Finding {
                file: path.to_path_buf(),
                line: sup.line,
                lint: "unknown-suppression".into(),
                message: format!(
                    "sentinet-allow({}) lacks a reason; write `// sentinet-allow({}): why`",
                    sup.lint, sup.lint
                ),
            });
        }
    }

    // Suppression hygiene: a well-formed sentinet-allow that silenced
    // nothing is stale — the code it excused was fixed or moved, and
    // leaving the annotation behind would mask a future regression.
    // (Malformed suppressions were already reported above.)
    for sup in &map.suppressions {
        if !LINTS.contains(&sup.lint.as_str()) || !sup.has_reason {
            continue;
        }
        if used_suppressions.contains(&sup.line) {
            continue;
        }
        if let Some(cover) = map.covering_suppression("stale-suppression", sup.line) {
            used_suppressions.insert(cover);
            continue;
        }
        findings.push(Finding {
            file: path.to_path_buf(),
            line: sup.line,
            lint: "stale-suppression".into(),
            message: format!(
                "sentinet-allow({}) no longer suppresses any finding; remove it",
                sup.lint
            ),
        });
    }

    findings.sort_by(|a, b| (a.line, &a.lint).cmp(&(b.line, &b.lint)));
    findings
}

/// Lints every `.rs` file under `crates/*/src` of `repo_root`.
pub fn lint_workspace(repo_root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    let crates_dir = repo_root.join("crates");
    for entry in std::fs::read_dir(&crates_dir)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    files.sort();
    let mut findings = Vec::new();
    for file in files {
        let source = std::fs::read_to_string(&file)?;
        let ctx = FileContext::for_path(&file);
        let rel = file.strip_prefix(repo_root).unwrap_or(&file).to_path_buf();
        findings.extend(lint_source(&rel, &source, &ctx));
    }
    Ok(findings)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Byte offsets of every occurrence of `needle` in `hay`.
fn find_all(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = hay[from..].find(needle) {
        out.push(from + pos);
        from += pos + needle.len();
    }
    out
}

/// Macro invocations: the name must start a token (not `.foo!` or part
/// of a longer identifier like `eprintln!` when searching `print!`).
fn find_macro(hay: &str, mac: &str) -> Vec<usize> {
    find_all(hay, mac)
        .into_iter()
        .filter(|&pos| {
            let before = hay[..pos].bytes().next_back();
            !matches!(before, Some(b) if b.is_ascii_alphanumeric() || b == b'_' || b == b'.')
        })
        .collect()
}

/// Identifier-ish occurrences: not embedded in a longer identifier.
fn find_word(hay: &str, word: &str) -> Vec<usize> {
    find_all(hay, word)
        .into_iter()
        .filter(|&pos| {
            let before = hay[..pos].bytes().next_back();
            let after = hay.as_bytes().get(pos + word.len());
            let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
            !matches!(before, Some(b) if ident(b)) && !matches!(after, Some(&b) if ident(b))
        })
        .collect()
}

/// `==`/`!=` comparisons where either operand is a float literal.
/// Returns `(offset, operator, lhs, rhs)`.
fn find_float_eq(masked: &str) -> Vec<(usize, &'static str, String, String)> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    for op in ["==", "!="] {
        for pos in find_all(masked, op) {
            // Exclude `<=`, `>=`, `===`-like runs and `!=` inside `=!=`.
            let before = pos.checked_sub(1).map(|i| bytes[i]);
            let after = bytes.get(pos + 2).copied();
            if matches!(before, Some(b'=') | Some(b'<') | Some(b'>') | Some(b'!'))
                || after == Some(b'=')
            {
                continue;
            }
            let lhs = token_before(masked, pos);
            let rhs = token_after(masked, pos + 2);
            if is_float_literal(&lhs) || is_float_literal(&rhs) {
                out.push((pos, if op == "==" { "==" } else { "!=" }, lhs, rhs));
            }
        }
    }
    out.sort_by_key(|&(pos, ..)| pos);
    out
}

fn token_before(hay: &str, end: usize) -> String {
    let bytes = hay.as_bytes();
    let mut i = end;
    while i > 0 && bytes[i - 1] == b' ' {
        i -= 1;
    }
    let stop = i;
    while i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || matches!(bytes[i - 1], b'_' | b'.')) {
        i -= 1;
    }
    hay[i..stop].to_string()
}

fn token_after(hay: &str, start: usize) -> String {
    let bytes = hay.as_bytes();
    let mut i = start;
    while i < bytes.len() && bytes[i] == b' ' {
        i += 1;
    }
    let begin = i;
    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || matches!(bytes[i], b'_' | b'.')) {
        i += 1;
    }
    hay[begin..i].to_string()
}

/// A numeric token that is a float: starts with a digit and has a
/// decimal point, a pure-digit exponent, or an f32/f64 suffix.
fn is_float_literal(token: &str) -> bool {
    let Some(first) = token.bytes().next() else {
        return false;
    };
    if !first.is_ascii_digit() {
        return false;
    }
    if token.contains('.') {
        return true;
    }
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit() || b == b'_');
    if let Some(mantissa) = token
        .strip_suffix("f32")
        .or_else(|| token.strip_suffix("f64"))
    {
        if digits(mantissa) {
            return true;
        }
    }
    match token.split_once(['e', 'E']) {
        Some((mantissa, exponent)) => digits(mantissa) && digits(exponent),
        None => false,
    }
}

/// Brace-matched bodies of every `fn` in the masked source, named or
/// not (trait-method declarations without bodies are skipped).
fn all_function_bodies(masked: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for pos in find_word(masked, "fn") {
        let sig_start = pos + 2;
        let Some(open) = masked[sig_start..].find('{').map(|p| sig_start + p) else {
            continue;
        };
        if masked[sig_start..open].contains(';') {
            continue;
        }
        if let Some(close) = match_brace(masked, open) {
            out.push((open, close + 1));
        }
    }
    out
}

/// Brace-matched bodies of every `fn <name>` in the masked source.
fn function_bodies(masked: &str, name: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for pos in find_all(masked, &format!("fn {name}")) {
        // The name must end the identifier: `fn push(` but not `fn push_values(`.
        let after = masked.as_bytes().get(pos + 3 + name.len());
        if matches!(after, Some(&b) if b.is_ascii_alphanumeric() || b == b'_') {
            continue;
        }
        let sig_end = pos + 3 + name.len();
        if let Some(open) = masked[sig_end..].find('{').map(|p| sig_end + p) {
            if masked[sig_end..open].contains(';') {
                continue; // a trait method declaration, no body
            }
            if let Some(close) = match_brace(masked, open) {
                out.push((open, close + 1));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> FileContext {
        FileContext::default()
    }

    fn run(src: &str) -> Vec<Finding> {
        lint_source(Path::new("test.rs"), src, &ctx())
    }

    #[test]
    fn detects_unwrap_outside_tests_only() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod t { fn b() { y.unwrap(); } }\n";
        let f = run(src);
        assert_eq!(f.iter().filter(|f| f.lint == "unwrap-used").count(), 1);
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let f = run("fn a() { x.unwrap_or(1); x.unwrap_or_default(); }\n");
        assert!(f.iter().all(|f| f.lint != "unwrap-used"));
    }

    #[test]
    fn string_contents_do_not_fire() {
        let f = run("fn a() { let s = \".unwrap() panic! 1.0 == 2.0\"; drop(s); }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn float_eq_needs_float_literal() {
        let f = run("fn a() { if x == 0.0 {} if a == b {} if n == 3 {} }\n");
        assert_eq!(f.iter().filter(|f| f.lint == "float-eq").count(), 1);
    }

    #[test]
    fn comparison_operators_do_not_fire_float_eq() {
        let f = run("fn a() { if x <= 0.0 {} if x >= 1.0 {} }\n");
        assert!(f.iter().all(|f| f.lint != "float-eq"));
    }

    #[test]
    fn suppression_with_reason_silences() {
        let src = "fn a() {\n    // sentinet-allow(unwrap-used): invariant documented\n    x.unwrap();\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn unknown_suppression_is_reported() {
        let src = "// sentinet-allow(no-such-lint): whatever\nfn a() {}\n";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "unknown-suppression");
    }

    #[test]
    fn header_lints_fire_on_lib_root() {
        let mut c = ctx();
        c.is_lib_root = true;
        let f = lint_source(Path::new("crates/x/src/lib.rs"), "//! docs\n", &c);
        let lints: Vec<_> = f.iter().map(|f| f.lint.as_str()).collect();
        assert!(lints.contains(&"missing-forbid-unsafe"));
        assert!(lints.contains(&"missing-deny-docs"));
    }

    #[test]
    fn hot_path_alloc_checks_registered_fn_only() {
        let mut c = ctx();
        c.hot_functions = vec!["push".into()];
        let src =
            "fn push(&mut self) { let v = x.to_vec(); }\nfn other() { let w = y.to_vec(); }\n";
        let f = lint_source(Path::new("w.rs"), src, &c);
        assert_eq!(f.iter().filter(|f| f.lint == "hot-path-alloc").count(), 1);
    }

    #[test]
    fn exempt_crate_skips_panic_family() {
        let mut c = ctx();
        c.exempt_crate = true;
        let f = lint_source(
            Path::new("cli.rs"),
            "fn a() { panic!(); x.unwrap(); }\n",
            &c,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unwind_and_unbounded_lints_fire_in_any_crate() {
        let src = "fn a(p: P) { let (tx, rx) = unbounded(); std::panic::resume_unwind(p); }\n";
        for path in [
            "crates/engine/src/lib.rs",
            "crates/gateway/src/server.rs",
            "crates/controller/src/federation.rs",
        ] {
            let f = lint_source(
                Path::new(path),
                src,
                &FileContext::for_path(Path::new(path)),
            );
            assert_eq!(
                f.iter().filter(|f| f.lint == "resume-unwind").count(),
                1,
                "{path}"
            );
            assert_eq!(
                f.iter().filter(|f| f.lint == "unbounded-channel").count(),
                1,
                "{path}"
            );
        }
    }

    #[test]
    fn raw_fs_mutation_flagged_outside_vfs() {
        let src = "fn a(p: &Path) { std::fs::write(p, b\"x\").ok(); let f = File::create(p); }\n";
        let f = run(src);
        assert_eq!(f.iter().filter(|f| f.lint == "io-outside-vfs").count(), 2);
        let mut c = ctx();
        c.vfs_file = true;
        let f = lint_source(Path::new("crates/gateway/src/vfs.rs"), src, &c);
        assert!(f.is_empty(), "{f:?}");
        // Reads stay unflagged: only mutation needs fault coverage.
        let f = run("fn a(p: &Path) { let s = fs::read_to_string(p); let f = File::open(p); }\n");
        assert!(f.iter().all(|f| f.lint != "io-outside-vfs"), "{f:?}");
    }

    #[test]
    fn ack_ordering_requires_dominating_sync_check() {
        // An ack written to the wire with no durability check upstream fires.
        let bad = "fn reply(w: &mut W) {\n    let f = encode(Message::AckUpTo { sensor, seq });\n    w.write_all(&f).ok();\n}\n";
        let f = run(bad);
        assert_eq!(f.iter().filter(|f| f.lint == "ack-ordering").count(), 1);
        // A `synced_cursor` comparison before the ack dominates it: silent.
        let synced = "fn reply(w: &mut W) {\n    if cursor > self.synced_cursor() { return; }\n    let f = encode(Message::AckUpTo { sensor, seq });\n    w.write_all(&f).ok();\n}\n";
        assert!(run(synced).iter().all(|f| f.lint != "ack-ordering"));
        // Admission alone is not durability: `deliver_batch` ahead of the
        // ack does not dominate it.
        let delivered = "fn reply(w: &mut W) {\n    let out = self.collector.deliver_batch(&r);\n    let f = encode(Message::AckUpTo { sensor, seq });\n    w.write_all(&f).ok();\n}\n";
        let f = run(delivered);
        assert_eq!(f.iter().filter(|f| f.lint == "ack-ordering").count(), 1);
        // Constructing the message without writing it is not a release.
        let no_write =
            "fn queue(&mut self) {\n    self.pending.push(Message::AckUpTo { sensor, seq });\n}\n";
        assert!(run(no_write).iter().all(|f| f.lint != "ack-ordering"));
    }

    #[test]
    fn stale_suppression_reports_unused_allow() {
        // The allow excuses nothing: the body has no float comparison.
        let src = "// sentinet-allow(float-eq): excused code was rewritten\nfn a(x: f64) -> f64 { x.max(0.0) }\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "stale-suppression");
        assert!(f[0].message.contains("sentinet-allow(float-eq)"));
        // A live suppression is not stale.
        let live = "fn a(x: f64) {\n    // sentinet-allow(float-eq): documented tolerance\n    if x == 1.0 {}\n}\n";
        assert!(run(live).is_empty());
        // A stale allow can itself be suppressed, one level deep.
        let excused = "// sentinet-allow(stale-suppression): kept for doc purposes\n// sentinet-allow(float-eq): intentionally stale\nfn a(x: f64) -> f64 { x.max(0.0) }\n";
        assert!(run(excused).is_empty());
        // Reasonless allows are already flagged by suppression-missing-reason;
        // the stale pass skips them rather than double-reporting.
        let reasonless = "// sentinet-allow(float-eq)\nfn a(x: f64) -> f64 { x.max(0.0) }\n";
        let f = run(reasonless);
        assert!(f.iter().all(|f| f.lint != "stale-suppression"), "{f:?}");
    }

    #[test]
    fn partition_map_mutation_flagged_outside_commit_path() {
        let src = "fn adopt(map: &mut PartitionMap) {\n    map.commit_owner(0, 2);\n    map.commit_health(0, PartitionHealth::Ok);\n    if let Ok(q) = map.split_at(0, SensorId(2)) {\n        let _ = map.transfer(q, 0);\n    }\n}\n";
        let f = run(src);
        assert_eq!(
            f.iter()
                .filter(|f| f.lint == "partition-map-mutation")
                .count(),
            4
        );
        // The federation commit path owns these transitions.
        let mut c = ctx();
        c.controller_commit_file = true;
        let f = lint_source(Path::new("crates/controller/src/federation.rs"), src, &c);
        assert!(f.is_empty(), "{f:?}");
        // The definitions themselves (no leading dot) are not calls.
        let defs = "impl PartitionMap {\n    pub fn commit_owner(&mut self, p: PartitionId, epoch: u64) {}\n}\n";
        assert!(run(defs).iter().all(|f| f.lint != "partition-map-mutation"));
    }

    #[test]
    fn thread_spawn_flagged_outside_gateway() {
        let src = "fn a() { std::thread::spawn(|| {}); }\n";
        let f = run(src);
        assert_eq!(f.iter().filter(|f| f.lint == "thread-spawn").count(), 1);
        let engine = Path::new("crates/engine/src/lib.rs");
        let f = lint_source(engine, src, &FileContext::for_path(engine));
        assert_eq!(f.iter().filter(|f| f.lint == "thread-spawn").count(), 1);
        let mut c = ctx();
        c.gateway_crate = true;
        let f = lint_source(Path::new("crates/gateway/src/server.rs"), src, &c);
        assert!(f.is_empty());
    }
}
