//! Structural extraction over the token stream: function boundaries,
//! `#[cfg(test)]` regions, lock-acquisition events with approximate guard
//! lifetimes, direct calls, and the raw sites the per-file checks consume.
//!
//! The guard-lifetime model is deliberately simple but block-scoped, because
//! the codebase relies on block scoping for its lock discipline (e.g. the
//! supervisor's monitor loop takes the job lock inside `{ … }` *before*
//! touching the status lock — a flat "held to end of function" model would
//! report a false SupervisorJob→SupervisorStatus edge and a false deadlock
//! cycle):
//!
//! * a `let`-bound guard (`let g = x.lock();`, including `let _g = …` and
//!   tuple bindings like `let (_k, wait) = locks.lock_timed(..)`) is held
//!   until the block containing the `let` closes;
//! * a statement temporary (`x.lock().push(..);`) is held until the first
//!   `;` at or below its brace depth;
//! * `drop(g)` releases `g`'s guard at that point.
//!
//! Closure bodies are treated as inline code of the enclosing function —
//! conservative for edges out of the enclosing holds, and accurate enough
//! in practice because this codebase's closures run either inline or on
//! fresh threads with no enclosing holds.

use crate::scanner::{Scanned, Token, TokenKind};
use squery_common::lockorder::LockClass;

/// Methods whose call on a mapped receiver field constitutes acquiring that
/// receiver's lock class.
pub const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write", "try_lock", "lock_timed"];

/// Result-returning methods whose value must not be `.unwrap()`/`.expect()`ed
/// in non-test code (SQ002): lock and channel operations plus thread joins,
/// where a stray panic would bypass the `catch_unwind` recovery funnels.
pub const PANIC_SOURCE_METHODS: &[&str] = &[
    "lock",
    "read",
    "write",
    "try_lock",
    "send",
    "recv",
    "try_recv",
    "recv_timeout",
    "join",
];

/// Methods whose call can block the current thread indefinitely (or for an
/// externally-controlled time): channel receives, `Condvar` waits, thread
/// joins, file syncs (the WAL fsync path), and channel sends — the vendored
/// channel's bounded `send` blocks when the buffer is full. `join` counts
/// only with no arguments (`Vec::join(sep)` / `Path::join(p)` take one).
pub const BLOCKING_METHODS: &[&str] = &[
    "recv",
    "recv_timeout",
    "wait",
    "wait_timeout",
    "join",
    "send",
    "sync_data",
    "sync_all",
];

/// One lock acquisition while another class was held: a lock-order edge.
#[derive(Debug, Clone)]
pub struct HeldEdge {
    pub held: LockClass,
    pub held_line: u32,
    pub acquired: LockClass,
    pub acquired_line: u32,
}

/// A direct call made while a lock class was held.
#[derive(Debug, Clone)]
pub struct HeldCall {
    pub held: LockClass,
    pub held_line: u32,
    pub callee: String,
    pub call_line: u32,
}

/// A blocking operation executed while a lock class was held (SQ005 site).
#[derive(Debug, Clone)]
pub struct HeldBlock {
    pub held: LockClass,
    pub held_line: u32,
    /// The blocking method (`recv`, `join`, `wait`, `sync_data`, …).
    pub op: String,
    pub op_line: u32,
}

/// Everything extracted from one function body.
#[derive(Debug, Clone)]
pub struct FunctionInfo {
    pub name: String,
    pub line: u32,
    /// Lock classes acquired directly anywhere in the body, with a site.
    pub acquires: Vec<(LockClass, u32)>,
    /// Names of functions/methods called anywhere in the body.
    pub calls: Vec<(String, u32)>,
    /// Ordered pairs observed inside this body (A held while B acquired).
    pub edges: Vec<HeldEdge>,
    /// Calls made while a class was held (inter-procedural edge seeds).
    pub held_calls: Vec<HeldCall>,
    /// Blocking operations anywhere in the body (SQ005 may-block seeds).
    pub blocking: Vec<(String, u32)>,
    /// Blocking operations executed while a class was held (SQ005 sites).
    pub held_blocking: Vec<HeldBlock>,
    /// Token-index range of the body (`tokens[open..end]`), for passes that
    /// re-walk the body (SQ006's taint scan).
    pub body: (usize, usize),
}

/// An `.unwrap()`/`.expect(` on a lock/channel/join result (SQ002 site).
#[derive(Debug, Clone)]
pub struct PanicSite {
    pub line: u32,
    /// The Result/Option-producing method (`lock`, `recv`, `join`, …).
    pub source_method: String,
    /// `unwrap` or `expect`.
    pub sink_method: String,
}

/// A telemetry-name call site (SQ003).
#[derive(Debug, Clone)]
pub struct NameSite {
    pub line: u32,
    /// The registering function (`counter`, `start`, `span_under_round`, …).
    pub function: String,
    /// First string-literal argument, i.e. the name being registered.
    pub name: String,
}

/// An `unsafe` keyword occurrence (SQ004 site).
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    pub line: u32,
}

/// Extraction result for one file.
#[derive(Debug, Default)]
pub struct FileInfo {
    pub functions: Vec<FunctionInfo>,
    pub panic_sites: Vec<PanicSite>,
    pub name_sites: Vec<NameSite>,
    pub unsafe_sites: Vec<UnsafeSite>,
}

/// Map a lock receiver field identifier to its class.
///
/// Entries are either file-qualified (basename, ident) — for identifiers
/// whose meaning differs between files — or unqualified. Unknown receivers
/// (locals in tests, query-scratch mutexes, foreign types) map to `None`
/// and are ignored by SQ001: the check covers the engine's *named* lock
/// fields, which is where cross-subsystem ordering matters.
pub fn lock_class_of(file_basename: &str, receiver: &str) -> Option<LockClass> {
    // File-qualified entries first: same ident, different meaning.
    let qualified: &[(&str, &str, LockClass)] = &[
        ("metrics.rs", "inner", LockClass::Histogram),
        ("grid.rs", "faults", LockClass::GridCatalog),
        ("replication.rs", "faults", LockClass::Replication),
        ("replication.rs", "worker_faults", LockClass::Replication),
        ("trace.rs", "shard", LockClass::SpanShard),
        ("trace.rs", "shards", LockClass::SpanShard),
        ("imap.rs", "telemetry", LockClass::MapMeta),
        ("snapshot.rs", "telemetry", LockClass::MapMeta),
        ("imap.rs", "recent_keys", LockClass::StatsRing),
        ("snapshot.rs", "exec_cache", LockClass::ExecCache),
        ("stats.rs", "sketches", LockClass::SketchState),
        // wal.rs: per-partition segment files and the manager commit log
        // share one class; "stores" keeps its unqualified GridCatalog
        // meaning (the manager's store-WAL map mirrors the grid catalog).
        ("wal.rs", "segs", LockClass::WalSegment),
        ("wal.rs", "commit", LockClass::WalSegment),
        ("checkpoint.rs", "round", LockClass::CaptureFence),
        ("state.rs", "release", LockClass::CaptureRelease),
    ];
    for (f, r, c) in qualified {
        if *f == file_basename && *r == receiver {
            return Some(*c);
        }
    }
    let unqualified: &[(&str, LockClass)] = &[
        ("status", LockClass::SupervisorStatus),
        ("monitor_status", LockClass::SupervisorStatus),
        ("job", LockClass::SupervisorJob),
        ("monitor_job", LockClass::SupervisorJob),
        ("jobs", LockClass::CoreJobs),
        ("in_progress", LockClass::RegistryInProgress),
        ("committed", LockClass::RegistryCommitted),
        ("maps", LockClass::GridCatalog),
        ("snapshots", LockClass::GridCatalog),
        ("stores", LockClass::GridCatalog),
        ("placements", LockClass::PartitionTable),
        ("backups", LockClass::Replication),
        ("worker_backups", LockClass::Replication),
        ("parts", LockClass::SnapshotPartition),
        ("part", LockClass::SnapshotPartition),
        ("locks", LockClass::KeyStripe),
        ("stripes", LockClass::KeyStripe),
        ("stripe", LockClass::KeyStripe),
        ("map", LockClass::PartitionMap),
        ("value_schema", LockClass::MapMeta),
        ("write_listener", LockClass::MapMeta),
        ("records", LockClass::CheckpointStats),
        ("aborted", LockClass::CheckpointStats),
        ("counters", LockClass::Telemetry),
        ("gauges", LockClass::Telemetry),
        ("histograms", LockClass::Telemetry),
        ("ring", LockClass::EventRing),
        ("log", LockClass::FaultState),
        ("armed", LockClass::FaultState),
    ];
    unqualified
        .iter()
        .find(|(r, _)| *r == receiver)
        .map(|(_, c)| *c)
}

/// Registering functions whose first string argument is a metric name.
pub const METRIC_NAME_FNS: &[&str] = &[
    "counter",
    "gauge",
    "histogram",
    "counter_value",
    "gauge_value",
];

/// Registering functions whose first string argument is a span kind.
pub const SPAN_NAME_FNS: &[&str] = &["start", "forced", "child", "span_under_round", "start_node"];

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "let", "fn", "pub", "impl", "struct",
    "enum", "trait", "mod", "use", "const", "static", "mut", "ref", "move", "as", "in", "where",
    "unsafe", "dyn", "break", "continue", "crate", "self", "Self", "super", "type", "async",
    "await", "box",
];

/// Compute which lines sit inside `#[cfg(test)]` items or `#[test]` fns.
///
/// Strategy: whenever a `#[cfg(test)]` or `#[test]` attribute is seen, the
/// next brace-balanced block (the annotated item's body) is marked as a test
/// region. Attributes between the marker and the block (e.g. `#[test]` then
/// `fn name()`) are naturally skipped because only `{ … }` balancing counts.
pub fn test_line_ranges(scanned: &Scanned) -> Vec<(u32, u32)> {
    let toks = &scanned.tokens;
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is_test_attribute(toks, i) {
            // Find the opening brace of the annotated item.
            let mut j = i;
            while j < toks.len() && !toks[j].is_punct('{') {
                j += 1;
            }
            if j < toks.len() {
                let start_line = toks[i].line;
                let mut depth = 0i32;
                let mut k = j;
                while k < toks.len() {
                    if toks[k].is_punct('{') {
                        depth += 1;
                    } else if toks[k].is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                let end_line = toks.get(k).map_or(u32::MAX, |t| t.line);
                ranges.push((start_line, end_line));
                i = k;
                continue;
            }
        }
        i += 1;
    }
    ranges
}

/// Does `#` at index `i` start `#[cfg(test)]` or `#[test]`?
fn is_test_attribute(toks: &[Token], i: usize) -> bool {
    if !toks[i].is_punct('#') || i + 2 >= toks.len() || !toks[i + 1].is_punct('[') {
        return false;
    }
    if toks[i + 2].is_ident("test") {
        return true;
    }
    toks[i + 2].is_ident("cfg")
        && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
        && toks.get(i + 4).is_some_and(|t| t.is_ident("test"))
}

/// True if `line` falls in any of `ranges`.
pub fn in_test_region(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(s, e)| line >= s && line <= e)
}

/// Extract all checked structures from one scanned file.
pub fn extract(file_basename: &str, scanned: &Scanned) -> FileInfo {
    let toks = &scanned.tokens;
    let mut info = FileInfo::default();
    let mut i = 0;
    while i < toks.len() {
        // unsafe audit sites (everywhere, including tests).
        if toks[i].is_ident("unsafe") {
            info.unsafe_sites.push(UnsafeSite { line: toks[i].line });
        }
        // Function bodies.
        if toks[i].is_ident("fn") && i + 1 < toks.len() {
            if let Some(name) = toks[i + 1].ident() {
                let fn_line = toks[i + 1].line;
                // Find the body's opening brace; a `;` first means a trait
                // method declaration or extern fn — no body.
                let mut j = i + 2;
                let mut opened = None;
                let mut angle = 0i32;
                while j < toks.len() {
                    match &toks[j].kind {
                        TokenKind::Punct('<') => angle += 1,
                        TokenKind::Punct('>') => angle -= 1,
                        TokenKind::Punct(';') if angle <= 0 => break,
                        TokenKind::Punct('{') => {
                            opened = Some(j);
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(open) = opened {
                    let (mut func, end) =
                        extract_function(file_basename, toks, name.to_string(), fn_line, open);
                    func.body = (open, end.min(toks.len()));
                    collect_flat_sites(&toks[open..end.min(toks.len())], &mut info);
                    info.functions.push(func);
                    i = end;
                    continue;
                }
            }
        }
        i += 1;
    }
    // Sites outside any fn body (consts, statics) still need SQ003 scanning;
    // in practice name registrations only occur inside fns, so the per-body
    // collection above is complete for this codebase.
    info
}

/// A currently-held guard during the body walk.
struct Hold {
    class: LockClass,
    line: u32,
    depth: i32,
    let_bound: bool,
    binding: Option<String>,
}

/// Walk one function body starting at `toks[open] == '{'`; returns the
/// extracted info and the index just past the closing brace.
fn extract_function(
    file_basename: &str,
    toks: &[Token],
    name: String,
    fn_line: u32,
    open: usize,
) -> (FunctionInfo, usize) {
    let mut func = FunctionInfo {
        name,
        line: fn_line,
        acquires: Vec::new(),
        calls: Vec::new(),
        edges: Vec::new(),
        held_calls: Vec::new(),
        blocking: Vec::new(),
        held_blocking: Vec::new(),
        body: (open, open),
    };
    let mut holds: Vec<Hold> = Vec::new();
    let mut depth = 0i32;
    // Pending `let` binding name for the current statement, if any.
    let mut stmt_let_binding: Option<String> = None;
    let mut stmt_is_let = false;
    let mut stmt_depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        let t = &toks[i];
        match &t.kind {
            TokenKind::Punct('{') => {
                depth += 1;
                i += 1;
            }
            TokenKind::Punct('}') => {
                depth -= 1;
                // Block closed: let-bound guards from inside it die, and so
                // do temporaries from unterminated tail expressions.
                holds.retain(|h| h.depth <= depth);
                if depth <= 0 {
                    return (func, i + 1);
                }
                i += 1;
            }
            TokenKind::Punct(';') => {
                // Statement end: temporaries acquired at or above this depth
                // release; a `let` statement's guard survives.
                holds.retain(|h| h.let_bound || h.depth < depth);
                stmt_let_binding = None;
                stmt_is_let = false;
                i += 1;
            }
            TokenKind::Ident(id) if id == "let" => {
                stmt_is_let = true;
                stmt_depth = depth;
                // Binding name: next ident that isn't `mut`/`ref` (tuple
                // patterns record the first name; good enough for drop()).
                let mut j = i + 1;
                stmt_let_binding = None;
                while j < toks.len() && !toks[j].is_punct('=') && !toks[j].is_punct(';') {
                    if let Some(b) = toks[j].ident() {
                        if b != "mut" && b != "ref" && b != "_" {
                            stmt_let_binding = Some(b.to_string());
                            break;
                        }
                    }
                    j += 1;
                }
                i += 1;
            }
            TokenKind::Ident(id) if id == "drop" => {
                // drop(binding) — early release.
                if toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                    if let Some(b) = toks.get(i + 2).and_then(|t| t.ident()) {
                        if toks.get(i + 3).is_some_and(|t| t.is_punct(')')) {
                            holds.retain(|h| h.binding.as_deref() != Some(b));
                            i += 4;
                            continue;
                        }
                    }
                }
                i += 1;
            }
            TokenKind::Ident(id) => {
                let is_call = toks.get(i + 1).is_some_and(|t| t.is_punct('('));
                let is_method = i > 0 && toks[i - 1].is_punct('.');
                if is_call && is_method && ACQUIRE_METHODS.contains(&id.as_str()) {
                    if let Some(recv) = receiver_ident(toks, i - 1) {
                        if let Some(class) = lock_class_of(file_basename, recv) {
                            for h in &holds {
                                if h.class != class {
                                    func.edges.push(HeldEdge {
                                        held: h.class,
                                        held_line: h.line,
                                        acquired: class,
                                        acquired_line: t.line,
                                    });
                                }
                            }
                            func.acquires.push((class, t.line));
                            let let_bound = stmt_is_let && depth == stmt_depth;
                            holds.push(Hold {
                                class,
                                line: t.line,
                                depth,
                                let_bound,
                                binding: if let_bound {
                                    stmt_let_binding.clone()
                                } else {
                                    None
                                },
                            });
                        }
                    }
                    i += 1;
                    continue;
                }
                if is_call && is_method && BLOCKING_METHODS.contains(&id.as_str()) {
                    // `join` blocks only as a thread join — no arguments.
                    // (`Vec::join(sep)`, `Path::join(p)` take one and don't.)
                    let is_blocking =
                        id != "join" || toks.get(i + 2).is_some_and(|t| t.is_punct(')'));
                    if is_blocking {
                        func.blocking.push((id.clone(), t.line));
                        for h in &holds {
                            func.held_blocking.push(HeldBlock {
                                held: h.class,
                                held_line: h.line,
                                op: id.clone(),
                                op_line: t.line,
                            });
                        }
                    }
                    i += 1;
                    continue;
                }
                if is_call && !KEYWORDS.contains(&id.as_str()) {
                    // Only calls whose target is resolvable by name alone
                    // propagate: `self.method()`, `Path::func()`, and bare
                    // `func()`. A method call on any other receiver (e.g.
                    // `opt.map(..)`, `ENABLED.load(..)`) may be a std method
                    // that merely shares a name with a workspace fn; without
                    // type information, following it manufactures false
                    // lock-order cycles.
                    let resolvable = if is_method {
                        i >= 2 && toks[i - 2].is_ident("self")
                    } else {
                        true
                    };
                    if resolvable {
                        func.calls.push((id.clone(), t.line));
                        for h in &holds {
                            func.held_calls.push(HeldCall {
                                held: h.class,
                                held_line: h.line,
                                callee: id.clone(),
                                call_line: t.line,
                            });
                        }
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    (func, toks.len())
}

/// Given the index of the `.` before an acquire method, find the receiver's
/// field identifier, walking back over one `[…]` index expression
/// (`stripes[i].lock()` → `stripes`, `self.parts[p].read()` → `parts`).
pub(crate) fn receiver_ident(toks: &[Token], dot: usize) -> Option<&str> {
    if dot == 0 {
        return None;
    }
    let mut i = dot - 1;
    if toks[i].is_punct(']') {
        // Walk back to the matching '['.
        let mut depth = 1;
        while i > 0 {
            i -= 1;
            if toks[i].is_punct(']') {
                depth += 1;
            } else if toks[i].is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
        if i == 0 {
            return None;
        }
        i -= 1;
    }
    toks[i].ident()
}

/// Collect flat (non-ordering) sites from a body slice: panic sites and
/// telemetry-name sites.
fn collect_flat_sites(body: &[Token], info: &mut FileInfo) {
    let mut i = 0;
    while i < body.len() {
        let t = &body[i];
        if t.is_ident("unsafe") {
            info.unsafe_sites.push(UnsafeSite { line: t.line });
        }
        if let TokenKind::Ident(id) = &t.kind {
            let is_call = body.get(i + 1).is_some_and(|t| t.is_punct('('));
            let is_method = i > 0 && body[i - 1].is_punct('.');
            // SQ002: `.X(..).unwrap()` / `.X(..).expect(..)`.
            if is_call && is_method && (id == "unwrap" || id == "expect") {
                if let Some(src) = result_source_method(body, i - 1) {
                    info.panic_sites.push(PanicSite {
                        line: t.line,
                        source_method: src.to_string(),
                        sink_method: id.clone(),
                    });
                }
            }
            // SQ003: name-registering calls with a literal first argument.
            if is_call
                && (METRIC_NAME_FNS.contains(&id.as_str()) || SPAN_NAME_FNS.contains(&id.as_str()))
            {
                if let Some(name) = first_string_arg(body, i + 1) {
                    info.name_sites.push(NameSite {
                        line: t.line,
                        function: id.clone(),
                        name,
                    });
                }
            }
        }
        i += 1;
    }
}

/// For `.unwrap` at `body[dot] == '.'`, determine whether the value it
/// consumes came from a panic-source method: the preceding tokens must be
/// `… .METHOD ( … )` with balanced parens.
fn result_source_method(body: &[Token], dot: usize) -> Option<&str> {
    if dot == 0 || !body[dot - 1].is_punct(')') {
        return None;
    }
    let mut depth = 1;
    let mut i = dot - 1;
    while i > 0 {
        i -= 1;
        if body[i].is_punct(')') {
            depth += 1;
        } else if body[i].is_punct('(') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
    }
    if i == 0 {
        return None;
    }
    let m = body[i - 1].ident()?;
    if PANIC_SOURCE_METHODS.contains(&m) && i >= 2 && body[i - 2].is_punct('.') {
        Some(m)
    } else {
        None
    }
}

/// First string literal inside the call whose `(` is at `body[open]`,
/// scanning to the matching `)`.
fn first_string_arg(body: &[Token], open: usize) -> Option<String> {
    // Only direct arguments count: a string nested in another call or in a
    // closure body (`QueryLoad::start(n, move || { q("…") })`) is not the
    // name being registered.
    let mut depth = 0;
    let mut braces = 0;
    let mut i = open;
    while i < body.len() {
        if body[i].is_punct('(') {
            depth += 1;
        } else if body[i].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return None;
            }
        } else if body[i].is_punct('{') {
            braces += 1;
        } else if body[i].is_punct('}') {
            braces -= 1;
        } else if depth == 1 && braces == 0 {
            if let Some(s) = body[i].str_lit() {
                return Some(s.to_string());
            }
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn extract_src(src: &str) -> FileInfo {
        extract("test.rs", &scan(src))
    }

    #[test]
    fn let_bound_guard_spans_block_temporary_spans_statement() {
        let src = r#"
fn f(&self) {
    let g = self.in_progress.lock();
    self.committed.lock().push(1);
    self.committed.lock().push(2);
}
"#;
        let info = extract_src(src);
        let f = &info.functions[0];
        // in_progress held across both committed acquisitions; the first
        // committed temporary must NOT be held at the second.
        let pairs: Vec<_> = f.edges.iter().map(|e| (e.held, e.acquired)).collect();
        assert_eq!(
            pairs,
            vec![
                (LockClass::RegistryInProgress, LockClass::RegistryCommitted),
                (LockClass::RegistryInProgress, LockClass::RegistryCommitted),
            ]
        );
    }

    #[test]
    fn block_scoped_guard_released_at_brace() {
        let src = r#"
fn monitor(&self) {
    {
        let j = self.job.lock();
        j.check();
    }
    let s = self.status.lock();
}
"#;
        let info = extract_src(src);
        assert!(
            info.functions[0].edges.is_empty(),
            "job guard died at block close: {:?}",
            info.functions[0].edges
        );
    }

    #[test]
    fn statement_temporaries_overlap_within_one_statement() {
        let src = r#"
fn health(&self) -> bool {
    !self.status.lock().gave_up && !self.job.lock().needs_recovery()
}
"#;
        let info = extract_src(src);
        let e = &info.functions[0].edges;
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].held, LockClass::SupervisorStatus);
        assert_eq!(e[0].acquired, LockClass::SupervisorJob);
    }

    #[test]
    fn drop_releases_early() {
        let src = r#"
fn f(&self) {
    let g = self.in_progress.lock();
    drop(g);
    self.committed.lock().push(1);
}
"#;
        let info = extract_src(src);
        assert!(info.functions[0].edges.is_empty());
    }

    #[test]
    fn indexed_receiver_resolves() {
        let src = r#"
fn f(&self, i: usize) {
    let g = self.stripes[i & 7].lock();
    self.map.write().insert(1, 2);
}
"#;
        let info = extract_src(src);
        let e = &info.functions[0].edges;
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].held, LockClass::KeyStripe);
        assert_eq!(e[0].acquired, LockClass::PartitionMap);
    }

    #[test]
    fn held_calls_recorded() {
        let src = r#"
fn f(&self) {
    let g = self.in_progress.lock();
    self.publish_commit();
}
"#;
        let info = extract_src(src);
        let hc = &info.functions[0].held_calls;
        assert!(hc
            .iter()
            .any(|c| c.callee == "publish_commit" && c.held == LockClass::RegistryInProgress));
    }

    #[test]
    fn panic_sites_found_with_source_method() {
        let src = r#"
fn f(&self) {
    let v = self.rx.recv().unwrap();
    let w = handle.join().expect("worker");
    let ok = some_result().unwrap();
}
"#;
        let info = extract_src(src);
        let sites: Vec<_> = info
            .panic_sites
            .iter()
            .map(|p| (p.source_method.as_str(), p.sink_method.as_str()))
            .collect();
        assert_eq!(sites, vec![("recv", "unwrap"), ("join", "expect")]);
    }

    #[test]
    fn name_sites_capture_first_string() {
        let src = r#"
fn f(reg: &MetricsRegistry) {
    reg.counter("map_reads_total", &[("map", name)]).inc();
    let span = collector.start("query");
    start_node(ctx, "scan", format!("scan{i}"));
}
"#;
        let info = extract_src(src);
        let names: Vec<_> = info
            .name_sites
            .iter()
            .map(|n| (n.function.as_str(), n.name.as_str()))
            .collect();
        assert!(names.contains(&("counter", "map_reads_total")));
        assert!(names.contains(&("start", "query")));
        assert!(names.contains(&("start_node", "scan")));
    }

    #[test]
    fn test_regions_cover_cfg_test_mod() {
        let src = r#"
fn prod() {}
#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn t() { x.lock().unwrap(); }
}
"#;
        let scanned = scan(src);
        let ranges = test_line_ranges(&scanned);
        assert!(in_test_region(&ranges, 7));
        assert!(!in_test_region(&ranges, 2));
    }
}
