//! Intra-procedural CFG-lite dataflow over the parsed function bodies,
//! and the four rules built on it: L1 (lock-order cycles), L2 (guard
//! held across blocking), T1 (untrusted-length taint), C1 (lossy wire
//! casts).
//!
//! The pass stays token-level like everything else in this crate (no
//! `syn` in the container), but recovers just enough structure to be
//! useful: statement/expression segments, guard-binding liveness
//! regions, and branch-condition facts (a comparison against a named
//! `SCREAMING_CASE` bound const clears taint from that point on).
//!
//! | rule | question | scope |
//! |------|----------|-------|
//! | L1 | can two locks be acquired in opposite orders on any pair of call chains? | holders in `[rules.L1].crates`, summaries over the whole graph |
//! | L2 | is a live `MutexGuard`/`RwLock` guard spanning a call that (transitively) blocks? | `[rules.L2].crates`, lib, non-test |
//! | T1 | does a wire-derived length reach `with_capacity`/`vec!`/`resize`/indexing before a named bound check? | files in `[rules.T1].paths`, non-test |
//! | C1 | is a wire-derived integer truncated with `as` instead of `try_into`/a bound? | files in `[rules.T1].paths`, non-test |
//!
//! What counts as what:
//!
//! * **Acquisition** — a zero-argument `.lock()` / `.read()` /
//!   `.write()` whose receiver's last path segment is an identifier
//!   (`self.child.lock()` acquires lock `child`). The empty argument
//!   list is the discriminator against IO: `stream.read(buf)` has an
//!   argument, `rwlock.read()` does not.
//! * **Guard liveness** — a binding produced by an acquisition lives
//!   from its `let` to the end of the enclosing block, a depth-0
//!   `drop(name)`, or (for `if let` / `match` arms) the end of the
//!   arm/block that bound it. Acquisitions not captured by a binding
//!   are live to the end of their statement.
//! * **Blocking** — a call named in [`BLOCKING_CALLS`] (with arguments,
//!   for the `read`/`write` pair), or a call resolving to a workspace
//!   function that transitively reaches one. A blocking call that takes
//!   the guard itself as an argument (condvar `wait(guard)`) releases
//!   the lock and is exempt.
//! * **Taint** — values produced by zero-argument `ByteReader`-shaped
//!   accessors (`.u8()`/`.u16()`/`.u32()`/`.u64()`/`.usize()`/
//!   `.f32()`/`.f64()`/`.string()`) or `uNN::from_le_bytes`, and any
//!   `let` binding whose initializer contains one. Cleared by a
//!   segment that compares the value against an all-caps bound const
//!   (`if len > MAX_FRAME`, `(5..=MAX_FRAME).contains(&len)`,
//!   `n.min(MAX)`) or routes it through a `checked_len` helper.

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::interproc::{chain_text, file_of, push_at};
use crate::lexer::{Tok, TokKind};
use crate::parser::FnDef;
use crate::rules::Finding;
use crate::workspace::{FileKind, SourceFile};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;

/// Calls that park the thread (IO, channels, joins, sleeps). `read`
/// and `write` only count with a non-empty argument list — the
/// zero-argument forms are `RwLock` acquisitions.
const BLOCKING_CALLS: &[&str] = &[
    "read",
    "write",
    "read_exact",
    "read_line",
    "read_to_end",
    "read_to_string",
    "write_all",
    "write_fmt",
    "write_vectored",
    "flush",
    "accept",
    "recv",
    "recv_timeout",
    "recv_deadline",
    "join",
    "park",
    "sleep",
    "wait",
    "wait_timeout",
    "wait_while",
    "connect",
    "copy",
];

/// Zero-argument reader methods whose result is wire-controlled.
const TAINT_READS: &[&str] = &["u8", "u16", "u32", "u64", "usize", "f32", "f64", "string"];

/// Helpers that impose a bound on a raw length (see
/// `tsda_serve::proto2::checked_len`); calling one clears taint.
const BOUND_HELPERS: &[&str] = &["checked_len", "checked_u32_len"];

// ------------------------------------------------------------- facts

/// One lock-acquisition site.
#[derive(Debug, Clone)]
pub struct Acquire {
    /// Lock identity: the receiver's last path segment (`child` in
    /// `replica.child.lock()`).
    pub lock: String,
    /// 1-based source line.
    pub line: u32,
    /// Token index of the `lock`/`read`/`write` ident.
    pub tok: usize,
}

/// A guard with the token region where it is live.
#[derive(Debug, Clone)]
pub struct GuardRegion {
    /// Binding name; empty for a temporary (guard dropped at the end
    /// of its own statement).
    pub name: String,
    /// Lock identity the guard holds.
    pub lock: String,
    /// 1-based line of the acquisition.
    pub line: u32,
    /// Token indices (into the file stream) where the guard is live.
    pub region: Range<usize>,
}

/// Per-function dataflow facts.
#[derive(Debug, Default)]
pub struct FnFlow {
    pub acquires: Vec<Acquire>,
    pub guards: Vec<GuardRegion>,
}

/// Compute acquisition sites and guard-liveness regions for one body.
pub fn function_flow(toks: &[Tok], body: Range<usize>) -> FnFlow {
    let acquires = acquisitions(toks, body.clone());
    let guards = guard_regions(toks, body, &acquires);
    FnFlow { acquires, guards }
}

fn is_acquire_name(t: &Tok) -> bool {
    t.is_ident("lock") || t.is_ident("read") || t.is_ident("write")
}

/// All zero-argument `.lock()`/`.read()`/`.write()` sites in `body`
/// whose receiver names a field or local. `stdout().lock()` and
/// friends have a `)` receiver and are skipped — a `StdoutLock` is a
/// stream handle, not a synchronisation guard.
fn acquisitions(toks: &[Tok], body: Range<usize>) -> Vec<Acquire> {
    let mut out = Vec::new();
    for i in body.clone() {
        if !is_acquire_name(&toks[i]) {
            continue;
        }
        if i < 2 || !toks[i - 1].is_punct('.') || toks[i - 2].kind != TokKind::Ident {
            continue;
        }
        let zero_arg = toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(')'));
        if !zero_arg {
            continue;
        }
        out.push(Acquire { lock: toks[i - 2].text.clone(), line: toks[i].line, tok: i });
    }
    out
}

/// Index of the token closing the group opened at `open`, or `end`.
fn match_close(toks: &[Tok], open: usize, end: usize, o: char, c: char) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < end {
        if toks[i].is_punct(o) {
            depth += 1;
        } else if toks[i].is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    end
}

/// First `;` at brace/paren/bracket depth 0 in `from..end`, or `end`.
#[allow(clippy::needless_range_loop)] // index is the scan result
fn statement_end(toks: &[Tok], from: usize, end: usize) -> usize {
    let mut depth = 0i32;
    for i in from..end {
        match () {
            _ if toks[i].is_punct('{') || toks[i].is_punct('(') || toks[i].is_punct('[') => {
                depth += 1;
            }
            _ if toks[i].is_punct('}') || toks[i].is_punct(')') || toks[i].is_punct(']') => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            _ if toks[i].is_punct(';') && depth == 0 => return i,
            _ => {}
        }
    }
    end
}

/// End of the enclosing block for a binding introduced at `from`: the
/// first depth-0 `drop(name)` or the `}` that closes the block.
fn liveness_end(toks: &[Tok], from: usize, end: usize, name: &str) -> usize {
    let mut depth = 0i32;
    let mut i = from;
    while i < end {
        if toks[i].is_punct('{') {
            depth += 1;
        } else if toks[i].is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return i;
            }
        } else if depth == 0
            && !name.is_empty()
            && toks[i].is_ident("drop")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 2).is_some_and(|t| t.is_ident(name))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            return i;
        }
        i += 1;
    }
    end
}

/// Does `span` consist solely of post-acquisition trailers that keep
/// the guard (`?`, `.unwrap()`, `.expect(..)`, `.map_err(..)`)? A
/// `.map(..)`/`.ok()` tail transforms the guard away, so the binding
/// is no longer one.
fn is_guard_tail(toks: &[Tok], mut i: usize, end: usize) -> bool {
    while i < end {
        if toks[i].is_punct('?') {
            i += 1;
            continue;
        }
        if toks[i].is_punct('.')
            && toks
                .get(i + 1)
                .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect") || t.is_ident("map_err"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
        {
            i = match_close(toks, i + 2, end, '(', ')') + 1;
            continue;
        }
        return false;
    }
    true
}

/// Binding names that are pattern keywords, not fresh guards.
fn bindable(t: &Tok) -> bool {
    t.kind == TokKind::Ident
        && !matches!(t.text.as_str(), "Some" | "None" | "Ok" | "Err" | "_" | "mut" | "ref")
}

/// `Ok ( [mut] NAME )` pattern occurrences in `span`, in order.
fn ok_bound_names(toks: &[Tok], span: Range<usize>) -> Vec<String> {
    let mut names = Vec::new();
    let mut i = span.start;
    while i < span.end {
        if toks[i].is_ident("Ok") && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            let mut j = i + 2;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if toks.get(j).is_some_and(bindable)
                && toks.get(j + 1).is_some_and(|t| t.is_punct(')'))
            {
                names.push(toks[j].text.clone());
            }
        }
        i += 1;
    }
    names
}

/// Does a `match` initializer contain an identity arm `Ok([mut] g) =>
/// g`? If so the surrounding `let` binds the guard itself.
fn has_identity_ok_arm(toks: &[Tok], span: Range<usize>) -> bool {
    let mut i = span.start;
    while i + 5 < span.end {
        if toks[i].is_ident("Ok") && toks[i + 1].is_punct('(') {
            let mut j = i + 2;
            if toks[j].is_ident("mut") {
                j += 1;
            }
            if j + 4 < span.end
                && bindable(&toks[j])
                && toks[j + 1].is_punct(')')
                && toks[j + 2].is_punct('=')
                && toks[j + 3].is_punct('>')
                && toks[j + 4].is_ident(&toks[j].text)
                && toks
                    .get(j + 5)
                    .is_some_and(|t| t.is_punct(',') || t.is_punct('}'))
            {
                return true;
            }
        }
        i += 1;
    }
    false
}

/// Guard-liveness regions for every acquisition in `body`.
#[allow(clippy::needless_range_loop)] // index is the scan result
fn guard_regions(toks: &[Tok], body: Range<usize>, acquires: &[Acquire]) -> Vec<GuardRegion> {
    let mut out: Vec<GuardRegion> = Vec::new();
    let acq_in = |span: &Range<usize>| -> Vec<&Acquire> {
        acquires.iter().filter(|a| span.contains(&a.tok)).collect()
    };

    let mut i = body.start;
    while i < body.end {
        let t = &toks[i];

        // `let [mut] NAME = INIT ;` — the workhorse pattern.
        if t.is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let name_ok = toks.get(j).is_some_and(bindable)
                && toks.get(j + 1).is_some_and(|t| t.is_punct('='))
                && !toks.get(j + 2).is_some_and(|t| t.is_punct('='));
            if name_ok {
                let init = j + 2..statement_end(toks, j + 2, body.end);
                let inits = acq_in(&init);
                if let Some(first) = inits.first() {
                    let is_match = toks.get(init.start).is_some_and(|t| t.is_ident("match"));
                    let binds_guard = if is_match {
                        has_identity_ok_arm(toks, init.clone())
                    } else {
                        is_guard_tail(toks, first.tok + 3, init.end)
                    };
                    if binds_guard {
                        let start = init.end + 1;
                        let end = liveness_end(toks, start, body.end, &toks[j].text);
                        out.push(GuardRegion {
                            name: toks[j].text.clone(),
                            lock: first.lock.clone(),
                            line: first.line,
                            region: start..end,
                        });
                        i = init.end;
                        continue;
                    }
                }
            }
        }

        // `if let` / `while let` with `Ok(..)` guard patterns.
        if (t.is_ident("if") || t.is_ident("while"))
            && toks.get(i + 1).is_some_and(|t| t.is_ident("let"))
        {
            // Pattern runs to the depth-0 `=`; init runs to the `{`.
            let mut depth = 0i32;
            let mut eq = None;
            for k in i + 2..body.end {
                if toks[k].is_punct('(') || toks[k].is_punct('[') {
                    depth += 1;
                } else if toks[k].is_punct(')') || toks[k].is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && toks[k].is_punct('=') && !toks[k + 1].is_punct('=') {
                    eq = Some(k);
                    break;
                } else if toks[k].is_punct('{') {
                    break;
                }
            }
            if let Some(eq) = eq {
                let mut depth = 0i32;
                let mut open = None;
                for k in eq + 1..body.end {
                    if toks[k].is_punct('(') || toks[k].is_punct('[') {
                        depth += 1;
                    } else if toks[k].is_punct(')') || toks[k].is_punct(']') {
                        depth -= 1;
                    } else if depth == 0 && toks[k].is_punct('{') {
                        open = Some(k);
                        break;
                    }
                }
                if let Some(open) = open {
                    let close = match_close(toks, open, body.end, '{', '}');
                    let names = ok_bound_names(toks, i + 2..eq);
                    let inits = acq_in(&(eq + 1..open));
                    for (name, acq) in names.iter().zip(inits.iter()) {
                        out.push(GuardRegion {
                            name: name.clone(),
                            lock: acq.lock.clone(),
                            line: acq.line,
                            region: open + 1..close,
                        });
                    }
                    i = open + 1;
                    continue;
                }
            }
        }

        // `match INIT { .. Ok([mut] NAME) => ARM .. }` — each arm that
        // binds the guard holds it for the arm body.
        if t.is_ident("match") {
            let mut depth = 0i32;
            let mut open = None;
            for k in i + 1..body.end {
                if toks[k].is_punct('(') || toks[k].is_punct('[') {
                    depth += 1;
                } else if toks[k].is_punct(')') || toks[k].is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && toks[k].is_punct('{') {
                    open = Some(k);
                    break;
                }
            }
            if let Some(open) = open {
                let close = match_close(toks, open, body.end, '{', '}');
                let inits = acq_in(&(i + 1..open));
                if let Some(acq) = inits.first() {
                    let mut k = open + 1;
                    while k < close {
                        if toks[k].is_ident("Ok") && toks.get(k + 1).is_some_and(|t| t.is_punct('(')) {
                            let mut j = k + 2;
                            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                                j += 1;
                            }
                            if toks.get(j).is_some_and(bindable)
                                && toks.get(j + 1).is_some_and(|t| t.is_punct(')'))
                                && toks.get(j + 2).is_some_and(|t| t.is_punct('='))
                                && toks.get(j + 3).is_some_and(|t| t.is_punct('>'))
                            {
                                let arm_start = j + 4;
                                let arm_end = arm_body_end(toks, arm_start, close);
                                out.push(GuardRegion {
                                    name: toks[j].text.clone(),
                                    lock: acq.lock.clone(),
                                    line: acq.line,
                                    region: arm_start..arm_end,
                                });
                                k = arm_end;
                                continue;
                            }
                        }
                        k += 1;
                    }
                }
            }
        }

        i += 1;
    }

    // Acquisitions not captured by any named region above are
    // temporaries: live to the end of their statement.
    for a in acquires {
        let captured = out.iter().any(|g| {
            // Captured if a region was derived from a statement or
            // header containing this site.
            a.tok < g.region.start && g.region.start.saturating_sub(a.tok) < 512 && a.lock == g.lock
        });
        if !captured {
            out.push(GuardRegion {
                name: String::new(),
                lock: a.lock.clone(),
                line: a.line,
                region: a.tok + 3..statement_end(toks, a.tok + 3, body.end),
            });
        }
    }
    out.sort_by_key(|g| (g.region.start, g.region.end));
    out
}

/// End of a match arm starting right after `=>`: the matching brace
/// for a block arm, else the depth-0 `,` (or the match's `}`).
#[allow(clippy::needless_range_loop)] // index is the scan result
fn arm_body_end(toks: &[Tok], start: usize, close: usize) -> usize {
    if toks.get(start).is_some_and(|t| t.is_punct('{')) {
        return match_close(toks, start, close, '{', '}');
    }
    let mut depth = 0i32;
    for i in start..close {
        if toks[i].is_punct('(') || toks[i].is_punct('[') || toks[i].is_punct('{') {
            depth += 1;
        } else if toks[i].is_punct(')') || toks[i].is_punct(']') || toks[i].is_punct('}') {
            depth -= 1;
        } else if depth == 0 && toks[i].is_punct(',') {
            return i;
        }
    }
    close
}

// ------------------------------------------------- container locals

/// Constructor shapes that pin a local to a std container type.
const CONTAINER_TYPES: &[&str] =
    &["Vec", "VecDeque", "String", "BTreeMap", "BTreeSet", "BinaryHeap"];

/// Locals provably bound to std containers (`let mut v = Vec::new()`,
/// `let s: String = ..`, `let v = vec![..]`): a `.method()` on such a
/// receiver can never invoke a workspace method, so the call graph
/// drops those candidates (see [`crate::callgraph`]).
///
/// Sound only when every binding of the name is container-shaped *and*
/// the name's first occurrence in the body is one of those `let`s — a
/// parameter or earlier non-container binding of the same name keeps
/// the conservative resolution.
pub fn container_locals(toks: &[Tok], body: Range<usize>) -> BTreeSet<String> {
    let mut container: BTreeMap<String, bool> = BTreeMap::new();
    let mut first_is_let: BTreeMap<String, bool> = BTreeMap::new();
    for i in body.clone() {
        if toks[i].kind == TokKind::Ident && !first_is_let.contains_key(&toks[i].text) {
            let after_let = i >= 1
                && (toks[i - 1].is_ident("let")
                    || (toks[i - 1].is_ident("mut") && i >= 2 && toks[i - 2].is_ident("let")));
            first_is_let.insert(toks[i].text.clone(), after_let);
        }
        if !toks[i].is_ident("let") {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let Some(name) = toks.get(j).filter(|t| bindable(t)) else { continue };
        let end = statement_end(toks, j + 1, body.end);
        let is_container = container_shaped(toks, j + 1..end);
        let e = container.entry(name.text.clone()).or_insert(true);
        *e &= is_container;
    }
    container
        .into_iter()
        .filter(|(name, ok)| *ok && first_is_let.get(name).copied().unwrap_or(false))
        .map(|(name, _)| name)
        .collect()
}

/// Does a `let` declaration span (`: ty = init` part) pin the binding
/// to a std container? Only the shape of the *whole* initializer
/// counts: a constructor nested inside it (`Conn { line: Vec::new() }`,
/// `f(Vec::new())`) says nothing about the binding's own type, and
/// treating it as a container would drop real call edges.
fn container_shaped(toks: &[Tok], span: Range<usize>) -> bool {
    let tok = |k: usize| toks.get(k).filter(|_| k < span.end);
    // `: Vec<..>` type ascription; any other ascribed type is not one.
    if tok(span.start).is_some_and(|t| t.is_punct(':')) {
        return tok(span.start + 1).is_some_and(|t| CONTAINER_TYPES.iter().any(|c| t.is_ident(c)));
    }
    if !tok(span.start).is_some_and(|t| t.is_punct('=')) {
        return false;
    }
    let init = span.start + 1;
    let closes_span =
        |open: usize, o: char, c: char| match_close(toks, open, span.end, o, c) + 1 == span.end;
    // `Vec::new()` / `String::with_capacity(..)` constructors.
    if tok(init).is_some_and(|t| CONTAINER_TYPES.iter().any(|c| t.is_ident(c)))
        && tok(init + 1).is_some_and(|t| t.is_punct(':'))
        && tok(init + 2).is_some_and(|t| t.is_punct(':'))
        && tok(init + 3).is_some_and(|t| t.kind == TokKind::Ident)
        && tok(init + 4).is_some_and(|t| t.is_punct('('))
    {
        return closes_span(init + 4, '(', ')');
    }
    // `vec![..]` / `format!(..)` macros.
    if tok(init).is_some_and(|t| t.is_ident("vec") || t.is_ident("format"))
        && tok(init + 1).is_some_and(|t| t.is_punct('!'))
    {
        return match tok(init + 2) {
            Some(t) if t.is_punct('[') => closes_span(init + 2, '[', ']'),
            Some(t) if t.is_punct('(') => closes_span(init + 2, '(', ')'),
            _ => false,
        };
    }
    // `.to_vec()` / `.to_string()` tails.
    span.end >= init + 4
        && toks[span.end - 4].is_punct('.')
        && (toks[span.end - 3].is_ident("to_vec") || toks[span.end - 3].is_ident("to_string"))
        && toks[span.end - 2].is_punct('(')
        && toks[span.end - 1].is_punct(')')
}

// ------------------------------------------------------------ runner

/// Run L1/L2/T1/C1 and append findings, with per-rule wall time.
pub fn run_dataflow_timed(
    files: &[SourceFile],
    graph: &CallGraph,
    cfg: &Config,
    findings: &mut Vec<Finding>,
    timings: &mut Vec<(String, f64)>,
) {
    let flows: Vec<FnFlow> = graph
        .fns
        .iter()
        .map(|f| match file_of(files, f) {
            Some(file) if !f.in_test && file.kind == FileKind::Lib => {
                function_flow(&file.toks, f.body.clone())
            }
            _ => FnFlow::default(),
        })
        .collect();

    let t0 = std::time::Instant::now();
    check_l1(files, graph, &flows, cfg, findings);
    timings.push(("L1".to_string(), crate::rules::ms_since(t0)));
    let t0 = std::time::Instant::now();
    check_l2(files, graph, &flows, cfg, findings);
    timings.push(("L2".to_string(), crate::rules::ms_since(t0)));
    let t0 = std::time::Instant::now();
    check_taint(files, graph, cfg, TaintMode::Lengths, findings);
    timings.push(("T1".to_string(), crate::rules::ms_since(t0)));
    let t0 = std::time::Instant::now();
    check_taint(files, graph, cfg, TaintMode::Casts, findings);
    timings.push(("C1".to_string(), crate::rules::ms_since(t0)));
}

// ---------------------------------------------------------------- L1

/// One lock-order edge `from -> to` with the holder-side provenance.
struct LockEdge {
    path: String,
    line: u32,
    via: String,
}

fn check_l1(
    files: &[SourceFile],
    graph: &CallGraph,
    flows: &[FnFlow],
    cfg: &Config,
    findings: &mut Vec<Finding>,
) {
    if cfg.l1_crates.is_empty() {
        return;
    }
    // Transitive lock summaries: every lock a call into `f` may take.
    let direct: Vec<BTreeSet<&str>> = flows
        .iter()
        .map(|fl| fl.acquires.iter().map(|a| a.lock.as_str()).collect())
        .collect();
    let mut summary = direct.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for id in 0..graph.fns.len() {
            for e in &graph.edges[id] {
                if e.to == id {
                    continue;
                }
                let add: Vec<&str> =
                    summary[e.to].iter().filter(|l| !summary[id].contains(*l)).copied().collect();
                if !add.is_empty() {
                    changed = true;
                    summary[id].extend(add);
                }
            }
        }
    }

    // Edge map, first provenance wins (fns are in (path, line) order).
    let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    for (id, f) in graph.fns.iter().enumerate() {
        if !cfg.l1_crates.iter().any(|c| c == &f.crate_name) {
            continue;
        }
        // Guards bound by the same `if let`/`while let` header (tuple
        // patterns) hold simultaneously, in acquisition order — regions
        // are identical so neither contains the other's site.
        for w in flows[id].guards.windows(2) {
            if w[0].region == w[1].region && !w[0].name.is_empty() && !w[1].name.is_empty() {
                edges.entry((w[0].lock.clone(), w[1].lock.clone())).or_insert_with(|| LockEdge {
                    path: f.rel_path.clone(),
                    line: w[1].line,
                    via: format!("{} ({}:{})", f.qual_name(), f.rel_path, w[1].line),
                });
            }
        }
        for g in &flows[id].guards {
            // Direct nested acquisitions under this guard.
            for a in &flows[id].acquires {
                if g.region.contains(&a.tok) {
                    edges.entry((g.lock.clone(), a.lock.clone())).or_insert_with(|| LockEdge {
                        path: f.rel_path.clone(),
                        line: a.line,
                        via: format!("{} ({}:{})", f.qual_name(), f.rel_path, a.line),
                    });
                }
            }
            // Calls under the guard, through their lock summaries.
            for e in &graph.edges[id] {
                let call = &f.calls[e.call_idx];
                if !g.region.contains(&call.tok) || summary[e.to].is_empty() {
                    continue;
                }
                let parents = graph.reach_with_parents(&[e.to]);
                for lock in &summary[e.to] {
                    let Some(&acquirer) =
                        parents.keys().find(|&&t| direct[t].contains(lock))
                    else {
                        continue;
                    };
                    edges
                        .entry((g.lock.clone(), lock.to_string()))
                        .or_insert_with(|| LockEdge {
                            path: f.rel_path.clone(),
                            line: call.line,
                            via: format!(
                                "{} ({}:{}) -> {}",
                                f.qual_name(),
                                f.rel_path,
                                call.line,
                                chain_text(graph, &parents, acquirer)
                            ),
                        });
                }
            }
        }
    }

    // Shortest cycle through each start lock; report each cycle once,
    // anchored at its smallest lock name.
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    for start in adj.keys().copied().collect::<Vec<_>>() {
        let Some(cycle) = shortest_cycle(&adj, start) else { continue };
        if cycle.iter().any(|n| *n < start) {
            continue; // reported from its smallest node
        }
        let hops: Vec<String> = cycle
            .windows(2)
            .map(|w| {
                let e = &edges[&(w[0].to_string(), w[1].to_string())];
                format!("acquires `{}` while holding `{}` via {}", w[1], w[0], e.via)
            })
            .collect();
        let order = cycle.iter().map(|n| format!("`{n}`")).collect::<Vec<_>>().join(" -> ");
        let anchor = &edges[&(cycle[0].to_string(), cycle[1].to_string())];
        push_at(
            findings,
            files,
            "L1",
            &anchor.path.clone(),
            anchor.line,
            format!("lock-order cycle: {order}; {}", hops.join("; ")),
        );
    }
}

/// BFS for the shortest `start -> .. -> start` node path, inclusive.
fn shortest_cycle<'a>(adj: &BTreeMap<&'a str, Vec<&'a str>>, start: &'a str) -> Option<Vec<&'a str>> {
    let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue: VecDeque<&str> = VecDeque::new();
    queue.push_back(start);
    while let Some(at) = queue.pop_front() {
        for &next in adj.get(at).into_iter().flatten() {
            if next == start {
                let mut rev = vec![start, at];
                let mut cur = at;
                while cur != start {
                    cur = parent[cur];
                    rev.push(cur);
                }
                rev.reverse();
                return Some(rev);
            }
            if let std::collections::btree_map::Entry::Vacant(v) = parent.entry(next) {
                v.insert(at);
                queue.push_back(next);
            }
        }
    }
    None
}

// ---------------------------------------------------------------- L2

fn check_l2(
    files: &[SourceFile],
    graph: &CallGraph,
    flows: &[FnFlow],
    cfg: &Config,
    findings: &mut Vec<Finding>,
) {
    if cfg.l2_crates.is_empty() {
        return;
    }
    // A call blocks directly when its name is in the set (read/write
    // need arguments — zero-arg forms are RwLock acquisitions).
    let blocks_directly = |file: &SourceFile, f: &FnDef, call_idx: usize| -> Option<String> {
        let call = &f.calls[call_idx];
        if !BLOCKING_CALLS.contains(&call.name.as_str()) {
            return None;
        }
        if matches!(call.name.as_str(), "read" | "write") && !call_has_args(&file.toks, call.tok) {
            return None;
        }
        Some(call.name.clone())
    };

    // Transitively-blocking functions, by reverse propagation from the
    // direct sites.
    let mut blocking: Vec<Option<String>> = graph
        .fns
        .iter()
        .map(|f| {
            if f.in_test {
                return None;
            }
            let file = file_of(files, f)?;
            (0..f.calls.len()).find_map(|ci| blocks_directly(file, f, ci))
        })
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for id in 0..graph.fns.len() {
            if blocking[id].is_some() {
                continue;
            }
            if let Some(op) =
                graph.edges[id].iter().find_map(|e| blocking[e.to].clone())
            {
                blocking[id] = Some(op);
                changed = true;
            }
        }
    }

    for (id, f) in graph.fns.iter().enumerate() {
        if f.in_test || !cfg.l2_crates.iter().any(|c| c == &f.crate_name) {
            continue;
        }
        let Some(file) = file_of(files, f) else { continue };
        if file.kind != FileKind::Lib {
            continue;
        }
        for g in &flows[id].guards {
            for (call_idx, call) in f.calls.iter().enumerate() {
                if !g.region.contains(&call.tok) {
                    continue;
                }
                // Condvar-style `wait(guard)` releases the lock.
                if !g.name.is_empty() && call_args_contain(&file.toks, call.tok, &g.name) {
                    continue;
                }
                if let Some(op) = blocks_directly(file, f, call_idx) {
                    push_at(
                        findings,
                        files,
                        "L2",
                        &f.rel_path,
                        call.line,
                        format!(
                            "`{}` guard (acquired line {}) is held across blocking `{op}` — \
                             take what you need and drop the guard before blocking",
                            g.lock, g.line
                        ),
                    );
                    continue;
                }
                let Some(e) = graph.edges[id]
                    .iter()
                    .find(|e| e.call_idx == call_idx && blocking[e.to].is_some())
                else {
                    continue;
                };
                let parents = graph.reach_with_parents(&[e.to]);
                let op = blocking[e.to].clone().unwrap_or_default();
                let target = parents
                    .keys()
                    .copied()
                    .find(|&t| blocking[t].as_deref() == Some(op.as_str()))
                    .unwrap_or(e.to);
                push_at(
                    findings,
                    files,
                    "L2",
                    &f.rel_path,
                    call.line,
                    format!(
                        "`{}` guard (acquired line {}) is held across `{}` which reaches \
                         blocking `{op}`: {}",
                        g.lock,
                        g.line,
                        call.name,
                        chain_text(graph, &parents, target)
                    ),
                );
            }
        }
    }
}

/// Does the call at name-token `tok` have a non-empty argument list?
fn call_has_args(toks: &[Tok], tok: usize) -> bool {
    let open = if toks.get(tok + 1).is_some_and(|t| t.is_punct('(')) {
        tok + 1
    } else {
        return false; // turbofish blocking calls don't occur here
    };
    !toks.get(open + 1).is_some_and(|t| t.is_punct(')'))
}

/// Does the call's argument list mention `name`?
fn call_args_contain(toks: &[Tok], tok: usize, name: &str) -> bool {
    if !toks.get(tok + 1).is_some_and(|t| t.is_punct('(')) {
        return false;
    }
    let close = match_close(toks, tok + 1, toks.len(), '(', ')');
    toks[tok + 2..close].iter().any(|t| t.is_ident(name))
}

// ------------------------------------------------------------ T1/C1

#[derive(Clone, Copy, PartialEq)]
enum TaintMode {
    /// T1: tainted lengths reaching allocation/index sinks.
    Lengths,
    /// C1: `as` casts on tainted integers.
    Casts,
}

fn check_taint(
    files: &[SourceFile],
    graph: &CallGraph,
    cfg: &Config,
    mode: TaintMode,
    findings: &mut Vec<Finding>,
) {
    if cfg.t1_paths.is_empty() {
        return;
    }
    for file in files {
        if !cfg.t1_paths.iter().any(|p| &file.rel_path == p) {
            continue;
        }
        for f in graph.fns.iter().filter(|f| f.rel_path == file.rel_path && !f.in_test) {
            taint_fn(file, f.body.clone(), mode, findings);
        }
    }
}

fn is_bound_const(t: &Tok) -> bool {
    t.kind == TokKind::Ident
        && t.text.len() >= 2
        && t.text.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        && t.text.chars().any(|c| c.is_ascii_uppercase())
}

/// Does `span` contain a wire read (`.u32()`-family zero-arg accessor
/// or `uNN::from_le_bytes`)?
fn span_has_source(toks: &[Tok], span: Range<usize>) -> bool {
    let mut i = span.start;
    while i < span.end {
        let t = &toks[i];
        if t.is_punct('.')
            && toks
                .get(i + 1)
                .is_some_and(|t| TAINT_READS.iter().any(|r| t.is_ident(r)))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            return true;
        }
        if t.is_ident("from_le_bytes")
            && i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && matches!(toks[i - 3].text.as_str(), "u16" | "u32" | "u64" | "usize")
        {
            return true;
        }
        i += 1;
    }
    false
}

/// Does `span` bound-check a value: a named all-caps const next to a
/// comparison-shaped use, or a `checked_len`-family helper call?
fn span_clears(toks: &[Tok], span: Range<usize>) -> bool {
    let consts = toks[span.clone()].iter().any(is_bound_const);
    let compare = toks[span.clone()].iter().any(|t| {
        t.is_punct('<')
            || t.is_punct('>')
            || t.is_ident("contains")
            || t.is_ident("min")
            || t.is_ident("clamp")
    });
    let helper = toks[span].iter().any(|t| BOUND_HELPERS.iter().any(|h| t.is_ident(h)));
    (consts && compare) || helper
}

/// Linear taint walk over one body: `let` bindings pick up or clear
/// taint from their initializer; segment-level comparisons against
/// bound consts clear it; sinks report.
fn taint_fn(file: &SourceFile, body: Range<usize>, mode: TaintMode, findings: &mut Vec<Finding>) {
    let toks = &file.toks;
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    // Segment boundaries: flat split on `;`, `{`, `}` — except that a
    // `;` inside square brackets is a repeat-length separator
    // (`vec![0; n]`, `[0u8; 4]`), not a statement end.
    let mut bounds: Vec<usize> = vec![body.start];
    let mut brackets = 0usize;
    for i in body.clone() {
        if toks[i].is_punct('[') {
            brackets += 1;
        } else if toks[i].is_punct(']') {
            brackets = brackets.saturating_sub(1);
        }
        if (toks[i].is_punct(';') && brackets == 0)
            || toks[i].is_punct('{')
            || toks[i].is_punct('}')
        {
            bounds.push(i + 1);
        }
    }
    bounds.push(body.end);

    for w in bounds.windows(2) {
        let seg = w[0]..w[1].min(body.end).max(w[0]);
        if seg.is_empty() {
            continue;
        }
        let seg_tainted: Vec<String> = tainted
            .iter()
            .filter(|n| toks[seg.clone()].iter().any(|t| t.is_ident(n)))
            .cloned()
            .collect();
        let clears = span_clears(toks, seg.clone());

        // `let [mut] NAME = INIT` — (re)bind NAME's taint.
        let mut bound_here: Option<String> = None;
        if toks[seg.start].is_ident("let") {
            let mut j = seg.start + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if toks.get(j).is_some_and(bindable)
                && toks.get(j + 1).is_some_and(|t| t.is_punct('='))
            {
                let name = toks[j].text.clone();
                let init = j + 2..seg.end;
                // Closures capture taint but are not integer values —
                // carrying taint through them (e.g. a `fail` error
                // closure capturing a wire-read id) only muddies labels.
                let is_closure = toks
                    .get(init.start)
                    .is_some_and(|t| t.is_punct('|') || t.is_ident("move"));
                let from_wire = span_has_source(toks, init.clone())
                    || tainted.iter().any(|n| {
                        *n != name && toks[init.clone()].iter().any(|t| t.is_ident(n))
                    });
                if from_wire && !is_closure && !span_clears(toks, init.clone()) {
                    tainted.insert(name.clone());
                } else {
                    tainted.remove(&name);
                }
                bound_here = Some(name);
            }
        }

        if clears {
            // A bound check blesses every tainted name it mentions.
            for n in &seg_tainted {
                tainted.remove(n);
            }
            continue;
        }

        match mode {
            TaintMode::Lengths => {
                report_length_sinks(file, &seg, &seg_tainted, bound_here.as_deref(), findings)
            }
            TaintMode::Casts => {
                report_cast_sinks(file, &seg, &seg_tainted, findings)
            }
        }
    }
}

/// Is any token of `span` a tainted name or an inline wire read?
fn span_is_tainted(toks: &[Tok], span: Range<usize>, tainted: &[String]) -> bool {
    tainted.iter().any(|n| toks[span.clone()].iter().any(|t| t.is_ident(n)))
        || span_has_source(toks, span)
}

fn taint_label(toks: &[Tok], span: Range<usize>, tainted: &[String]) -> String {
    tainted
        .iter()
        .find(|n| toks[span.clone()].iter().any(|t| t.is_ident(n)))
        .cloned()
        .unwrap_or_else(|| "wire read".to_string())
}

fn report_length_sinks(
    file: &SourceFile,
    seg: &Range<usize>,
    tainted: &[String],
    bound_here: Option<&str>,
    findings: &mut Vec<Finding>,
) {
    let toks = &file.toks;
    // A freshly-bound name is tainted *within* its own statement too
    // (`let v = vec![0; n]` where n was already tainted is caught via
    // `tainted`; the binding itself can't sink on its own line).
    let _ = bound_here;
    let mut i = seg.start;
    while i < seg.end {
        let t = &toks[i];
        // `with_capacity(..)` / `.resize(..)` / `.reserve(..)`.
        if (t.is_ident("with_capacity") || t.is_ident("resize") || t.is_ident("reserve"))
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            let close = match_close(toks, i + 1, seg.end, '(', ')');
            let args = i + 2..close;
            if span_is_tainted(toks, args.clone(), tainted) {
                let what = taint_label(toks, args, tainted);
                push_taint(findings, file, t.line, format!(
                    "untrusted length `{what}` reaches `{}` before any named bound check — \
                     compare against a MAX_* const or route through `checked_len` first",
                    t.text
                ));
                i = close + 1;
                continue;
            }
        }
        // `vec![elem; len]`.
        if t.is_ident("vec")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('['))
        {
            let close = match_close(toks, i + 2, seg.end, '[', ']');
            if let Some(semi) = (i + 3..close).find(|&k| toks[k].is_punct(';')) {
                let len = semi + 1..close;
                if span_is_tainted(toks, len.clone(), tainted) {
                    let what = taint_label(toks, len, tainted);
                    push_taint(findings, file, t.line, format!(
                        "untrusted length `{what}` sizes a `vec![..]` before any named bound \
                         check — compare against a MAX_* const first"
                    ));
                }
            }
            i = close + 1;
            continue;
        }
        // Slice indexing `expr[..tainted..]`.
        if t.is_punct('[')
            && i > seg.start
            && (toks[i - 1].kind == TokKind::Ident || toks[i - 1].is_punct(')') || toks[i - 1].is_punct(']'))
        {
            let close = match_close(toks, i, seg.end, '[', ']');
            let idx = i + 1..close;
            if span_is_tainted(toks, idx.clone(), tainted) {
                let what = taint_label(toks, idx, tainted);
                push_taint(findings, file, t.line, format!(
                    "untrusted value `{what}` indexes a slice before any named bound check — \
                     a short frame panics here; bound it or use `get(..)`"
                ));
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
}

fn report_cast_sinks(
    file: &SourceFile,
    seg: &Range<usize>,
    tainted: &[String],
    findings: &mut Vec<Finding>,
) {
    let toks = &file.toks;
    for i in seg.start..seg.end {
        if !toks[i].is_ident("as") {
            continue;
        }
        // Walk the cast operand back to a depth-0 expression boundary.
        let mut j = i;
        let mut depth = 0i32;
        while j > seg.start {
            let p = &toks[j - 1];
            if p.is_punct(')') || p.is_punct(']') {
                depth += 1;
            } else if p.is_punct('(') || p.is_punct('[') {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if depth == 0
                && (p.is_punct('=')
                    || p.is_punct(',')
                    || p.is_punct(';')
                    || p.is_punct('{')
                    || p.is_punct('<')
                    || p.is_punct('>')
                    || p.is_punct('+')
                    || p.is_punct('-')
                    || p.is_punct('*')
                    || p.is_punct('/')
                    || p.is_ident("as"))
            {
                break;
            }
            j -= 1;
        }
        let operand = j..i;
        if span_is_tainted(toks, operand.clone(), tainted) {
            let what = taint_label(toks, operand, tainted);
            push_taint(findings, file, toks[i].line, format!(
                "lossy `as` cast on wire-derived `{what}` — bound-check it first or use \
                 `try_into` so truncation is an error, not a wrap"
            ));
        }
    }
}

fn push_taint(findings: &mut Vec<Finding>, file: &SourceFile, line: u32, message: String) {
    let rule = if message.starts_with("lossy") { "C1" } else { "T1" };
    findings.push(Finding {
        rule,
        path: file.rel_path.clone(),
        line,
        message,
        snippet: file.line_text(line).to_string(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::lexer::lex;

    fn lib_file(crate_name: &str, src: &str) -> SourceFile {
        let toks = lex(src);
        let in_test = vec![false; toks.len()];
        SourceFile {
            crate_name: crate_name.into(),
            rel_path: format!("crates/{crate_name}/src/lib.rs"),
            kind: FileKind::Lib,
            lines: src.lines().map(str::to_string).collect(),
            toks,
            in_test,
        }
    }

    fn cfg_with(f: impl FnOnce(&mut Config)) -> Config {
        let mut cfg = Config::default();
        f(&mut cfg);
        cfg
    }

    fn run(files: Vec<SourceFile>, cfg: &Config) -> Vec<Finding> {
        let graph = CallGraph::build(&files);
        let mut findings = Vec::new();
        let mut timings = Vec::new();
        run_dataflow_timed(&files, &graph, cfg, &mut findings, &mut timings);
        crate::rules::sort_dedup(&mut findings);
        findings
    }

    fn flow_of(src: &str) -> FnFlow {
        let file = lib_file("x", src);
        let graph = CallGraph::build(std::slice::from_ref(&file));
        let f = &graph.fns[0];
        function_flow(&file.toks, f.body.clone())
    }

    #[test]
    fn simple_let_guard_lives_to_block_end() {
        let flow = flow_of(
            "pub fn f(s: &S) -> u32 {\n    let g = s.inner.lock().unwrap();\n    *g\n}\n",
        );
        assert_eq!(flow.acquires.len(), 1);
        assert_eq!(flow.acquires[0].lock, "inner");
        let g = flow.guards.iter().find(|g| g.name == "g").expect("guard bound");
        assert_eq!(g.lock, "inner");
    }

    #[test]
    fn drop_ends_the_guard_region() {
        let file = lib_file(
            "x",
            "pub fn f(s: &S) {\n    let g = s.m.lock().unwrap();\n    drop(g);\n    after();\n}\nfn after() {}\n",
        );
        let graph = CallGraph::build(std::slice::from_ref(&file));
        let f = graph.fns.iter().find(|f| f.name == "f").unwrap();
        let flow = function_flow(&file.toks, f.body.clone());
        let g = flow.guards.iter().find(|g| g.name == "g").unwrap();
        let after = f.calls.iter().find(|c| c.name == "after").unwrap();
        assert!(!g.region.contains(&after.tok), "drop(g) must end the region");
    }

    #[test]
    fn match_arm_binding_scopes_to_the_arm() {
        let flow = flow_of(
            "pub fn f(s: &S) -> bool {\n    let taken = match s.child.lock() {\n        Ok(mut guard) => guard.take(),\n        Err(_) => None,\n    };\n    taken.is_some()\n}\n",
        );
        // `taken` is not a guard (the arm maps it away); `guard` lives
        // only inside the arm body.
        assert!(flow.guards.iter().all(|g| g.name != "taken"));
        let g = flow.guards.iter().find(|g| g.name == "guard").expect("arm binding");
        assert!(g.region.len() < 8, "arm region stays small: {:?}", g.region);
    }

    #[test]
    fn identity_match_arm_binds_the_let_name() {
        let flow = flow_of(
            "pub fn f(s: &S) {\n    let mut table = match s.buckets.lock() {\n        Ok(t) => t,\n        Err(_) => return,\n    };\n    table.clear();\n}\n",
        );
        assert!(flow.guards.iter().any(|g| g.name == "table" && g.lock == "buckets"));
    }

    #[test]
    fn l2_flags_blocking_under_guard_directly_and_transitively() {
        let cfg = cfg_with(|c| c.l2_crates = vec!["x".into()]);
        let findings = run(
            vec![lib_file(
                "x",
                "pub fn direct(s: &S, c: &mut Child) {\n    let g = s.m.lock().unwrap();\n    let _st = c.wait();\n    drop(g);\n}\npub fn via(s: &S) {\n    let g = s.m.lock().unwrap();\n    helper();\n}\nfn helper() {\n    std::thread::sleep(d());\n}\nfn d() -> Duration { Duration::ZERO }\n",
            )],
            &cfg,
        );
        let l2: Vec<_> = findings.iter().filter(|f| f.rule == "L2").collect();
        assert_eq!(l2.len(), 2, "{findings:?}");
        assert!(l2[0].message.contains("blocking `wait`"), "{}", l2[0].message);
        assert!(l2[1].message.contains("x::helper"), "{}", l2[1].message);
    }

    #[test]
    fn l2_stays_quiet_after_drop_and_for_condvar_wait() {
        let cfg = cfg_with(|c| c.l2_crates = vec!["x".into()]);
        let findings = run(
            vec![lib_file(
                "x",
                "pub fn narrowed(s: &S, c: &mut Child) {\n    let g = s.m.lock().unwrap();\n    drop(g);\n    let _st = c.wait();\n}\npub fn condvar(s: &S) {\n    let g = s.m.lock().unwrap();\n    let _g = s.cv.wait(g);\n}\n",
            )],
            &cfg,
        );
        assert!(findings.iter().all(|f| f.rule != "L2"), "{findings:?}");
    }

    #[test]
    fn l1_reports_the_cycle_with_both_chains() {
        let cfg = cfg_with(|c| c.l1_crates = vec!["x".into()]);
        let findings = run(
            vec![lib_file(
                "x",
                "impl P {\n    pub fn ab(&self) -> u32 {\n        let g = self.a.lock().unwrap();\n        *g + self.grab_b()\n    }\n    pub fn grab_b(&self) -> u32 {\n        let g = self.b.lock().unwrap();\n        *g\n    }\n    pub fn ba(&self) -> u32 {\n        let g = self.b.lock().unwrap();\n        let n = self.a.lock().unwrap();\n        *g + *n\n    }\n}\n",
            )],
            &cfg,
        );
        let l1: Vec<_> = findings.iter().filter(|f| f.rule == "L1").collect();
        assert_eq!(l1.len(), 1, "{findings:?}");
        let m = &l1[0].message;
        assert!(m.contains("lock-order cycle: `a` -> `b` -> `a`"), "{m}");
        assert!(m.contains("x::P::ab") && m.contains("x::P::grab_b") && m.contains("x::P::ba"), "{m}");
    }

    #[test]
    fn l1_sequential_scopes_make_no_edge() {
        let cfg = cfg_with(|c| c.l1_crates = vec!["x".into()]);
        let findings = run(
            vec![lib_file(
                "x",
                "impl P {\n    pub fn seq(&self) {\n        if let Ok(mut g) = self.a.lock() {\n            *g = 1;\n        }\n        if let Ok(mut g) = self.b.lock() {\n            *g = 2;\n        }\n    }\n    pub fn rev(&self) {\n        let g = self.b.lock().unwrap();\n        let n = self.a.lock().unwrap();\n        *g + *n;\n    }\n}\n",
            )],
            &cfg,
        );
        assert!(findings.iter().all(|f| f.rule != "L1"), "{findings:?}");
    }

    #[test]
    fn t1_and_c1_fire_on_unchecked_wire_lengths() {
        let cfg = cfg_with(|c| c.t1_paths = vec!["crates/x/src/lib.rs".into()]);
        let findings = run(
            vec![lib_file(
                "x",
                "pub fn decode(r: &mut Wire) -> Vec<u8> {\n    let n = r.u32() as usize;\n    let mut out = Vec::with_capacity(n);\n    out.resize(n, 0);\n    out\n}\n",
            )],
            &cfg,
        );
        let t1 = findings.iter().filter(|f| f.rule == "T1").count();
        let c1 = findings.iter().filter(|f| f.rule == "C1").count();
        assert_eq!((t1, c1), (2, 1), "{findings:?}");
    }

    #[test]
    fn named_bound_consts_and_checked_len_clear_taint() {
        let cfg = cfg_with(|c| c.t1_paths = vec!["crates/x/src/lib.rs".into()]);
        let findings = run(
            vec![lib_file(
                "x",
                "pub const MAX_N: usize = 1024;\npub fn bounded(r: &mut Wire) -> Vec<u8> {\n    let n = r.u32();\n    if n as usize > MAX_N {\n        return Vec::new();\n    }\n    let mut out = Vec::with_capacity(n as usize);\n    out.resize(n as usize, 0);\n    out\n}\npub fn helper_bounded(r: &mut Wire) -> Vec<u8> {\n    let n = checked_len(r.u32(), MAX_N, \"len\");\n    vec![0; n]\n}\n",
            )],
            &cfg,
        );
        assert!(
            findings.iter().all(|f| f.rule != "T1" && f.rule != "C1"),
            "{findings:?}"
        );
    }

    #[test]
    fn t1_flags_tainted_slice_indexing() {
        let cfg = cfg_with(|c| c.t1_paths = vec!["crates/x/src/lib.rs".into()]);
        let findings = run(
            vec![lib_file(
                "x",
                "pub fn slice(buf: &[u8], r: &mut Wire) -> u8 {\n    let n = r.u32() as usize;\n    buf[n]\n}\n",
            )],
            &cfg,
        );
        assert!(
            findings.iter().any(|f| f.rule == "T1" && f.message.contains("indexes a slice")),
            "{findings:?}"
        );
    }

    #[test]
    fn t1_sees_through_the_repeat_semi_in_vec_macros() {
        let cfg = cfg_with(|c| c.t1_paths = vec!["crates/x/src/lib.rs".into()]);
        let findings = run(
            vec![lib_file(
                "x",
                "pub fn make(r: &mut Wire) -> Vec<u8> {\n    let mut raw = [0u8; 4];\n    raw[0] = 1;\n    let n = r.u32() as usize;\n    vec![0; n]\n}\n",
            )],
            &cfg,
        );
        assert!(
            findings.iter().any(|f| f.rule == "T1" && f.message.contains("sizes a `vec![..]`")),
            "{findings:?}"
        );
        // The fixed-size array literal's `;` is not a statement end and
        // its bracket is not an indexing sink.
        assert!(
            !findings.iter().any(|f| f.rule == "T1" && f.line == 2),
            "{findings:?}"
        );
    }

    #[test]
    fn container_locals_require_unanimous_bindings() {
        let file = lib_file(
            "x",
            "pub fn f(ds: &Dataset) {\n    let mut dims = Vec::new();\n    dims.push(1);\n    let mut s = String::new();\n    let mut mixed = Vec::new();\n    let mixed = ds.clone();\n    param_use(ds);\n}\n",
        );
        let graph = CallGraph::build(std::slice::from_ref(&file));
        let f = &graph.fns[0];
        let locals = container_locals(&file.toks, f.body.clone());
        assert!(locals.contains("dims") && locals.contains("s"), "{locals:?}");
        assert!(!locals.contains("mixed"), "shadowed by a non-container binding");
        assert!(!locals.contains("ds"), "params stay conservative");
    }

    #[test]
    fn container_locals_judge_the_whole_initializer() {
        let file = lib_file(
            "x",
            "pub fn f() {\n    let mut conn = Conn { line: Vec::new(), out: String::new() };\n\
             let wrapped = wrap(Vec::new());\n    let chars = String::new().chars();\n\
             let v = vec![1u8];\n    let s = format!(\"{}\", 1);\n    let t = name.to_string();\n\
             let w = Vec::with_capacity(4);\n    conn.answer();\n}\n",
        );
        let graph = CallGraph::build(std::slice::from_ref(&file));
        let locals = container_locals(&file.toks, graph.fns[0].body.clone());
        for name in ["v", "s", "t", "w"] {
            assert!(locals.contains(name), "{name}: {locals:?}");
        }
        for name in ["conn", "wrapped", "chars"] {
            assert!(!locals.contains(name), "{name} is not a container: {locals:?}");
        }
    }
}
