//! Pass 1: a lightweight workspace symbol index.
//!
//! Built once over every prepped file, then read by the P-rule family. Like
//! the D-rules, this is a token-level pass over masked source — no `syn` — so
//! it indexes exactly the shapes the workspace actually writes (rustfmt'd
//! code, `comm.recv(None, Some(TAG))`-style rmpi calls) and stays
//! dependency-free:
//!
//! * **fn body spans** (innermost-span ownership handles nested fns), which
//!   bound the search for how an `irecv` Request is consumed;
//! * **rmpi sites** (send/recv/irecv) with the SCREAMING_SNAKE
//!   constants mentioned in their tag argument, and a per-site usage
//!   classification for `irecv` Requests.

use crate::{each_match, ident_before, is_ident_char, FilePrep, IndexStats};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RmpiKind {
    Send,
    /// Untimed blocking receive (`recv`, `recv_value`).
    Recv,
    Irecv,
}

#[derive(Debug, Clone)]
pub(crate) struct RmpiSite {
    pub(crate) file: usize,
    pub(crate) pos: usize,
    pub(crate) kind: RmpiKind,
    /// SCREAMING_SNAKE idents mentioned in the tag argument.
    pub(crate) tag_consts: Vec<String>,
}

/// How an `irecv` call's Request is consumed, judged within its fn body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum IrecvUse {
    /// `.irecv(..).wait_timeout(..)` etc — consumed in the same chain.
    Chained,
    /// Bound to `_` or dropped as an expression statement: the posted
    /// receive can never be completed or cancelled.
    Discarded,
    /// Bound to a name that is never read again in this fn.
    BoundUnused(String),
    /// Bound and later used, or escapes the fn (tail expression, argument,
    /// collected into a Vec handed to `waitall`...).
    Consumed,
}

#[derive(Debug, Clone)]
pub(crate) struct IrecvSite {
    pub(crate) file: usize,
    pub(crate) pos: usize,
    pub(crate) usage: IrecvUse,
}

pub(crate) struct WorkspaceIndex {
    pub(crate) rmpi: Vec<RmpiSite>,
    pub(crate) irecvs: Vec<IrecvSite>,
    /// True when any indexed file mentions `RetryPolicy` — arms rule P2.
    pub(crate) retry_armed: bool,
    pub(crate) stats: IndexStats,
}

pub(crate) fn build(preps: &[FilePrep]) -> WorkspaceIndex {
    let mut fns = 0usize;
    let mut rmpi: Vec<RmpiSite> = Vec::new();
    let mut irecvs: Vec<IrecvSite> = Vec::new();
    let mut retry_armed = false;

    for (fi, prep) in preps.iter().enumerate() {
        let text = &prep.text;
        each_match(text, "RetryPolicy", |_| retry_armed = true);

        // -- fn body spans ----------------------------------------------------
        let mut spans: Vec<(usize, usize)> = Vec::new();
        each_match(text, "fn ", |pos| spans.extend(fn_body_span(text, pos)));
        fns += spans.len();
        // A site in a nested fn belongs to the nested fn, not the enclosing
        // one: the innermost span owns it.
        let owner_body_end = |pos: usize| -> usize {
            spans
                .iter()
                .filter(|&&(start, end)| start < pos && pos < end)
                .min_by_key(|&&(start, end)| end - start)
                .map_or(text.len(), |&(_, end)| end)
        };

        // -- rmpi sites -------------------------------------------------------
        // (method, kind, min args, tag arg index, arg0 must be None/Some)
        const RMPI_NEEDLES: &[(&str, RmpiKind, usize, usize, bool)] = &[
            (".send", RmpiKind::Send, 3, 1, false),
            (".isend", RmpiKind::Send, 3, 1, false),
            (".send_value", RmpiKind::Send, 4, 1, false),
            (".recv", RmpiKind::Recv, 2, 1, true),
            (".recv_value", RmpiKind::Recv, 2, 1, true),
            (".irecv", RmpiKind::Irecv, 2, 1, true),
        ];
        for &(needle, kind, min_args, tag_idx, optlike) in RMPI_NEEDLES {
            each_match(text, needle, |pos| {
                // Argument list opens right after the method name, or after a
                // turbofish (`.recv_value::<T>(...)`).
                let mut open = pos + needle.len();
                if text[open..].starts_with("::<") {
                    let bytes = text.as_bytes();
                    let mut depth = 0i64;
                    let mut k = open + 2;
                    while k < bytes.len() {
                        match bytes[k] as char {
                            '<' => depth += 1,
                            '>' => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    open = k + 1;
                }
                if text.as_bytes().get(open) != Some(&b'(') {
                    return;
                }
                let Some(close) = balance(text, open) else { return };
                let args = split_args(&text[open + 1..close]);
                if args.len() < min_args {
                    return;
                }
                if optlike {
                    let a0 = args[0].trim_start();
                    if !(a0.starts_with("None") || a0.starts_with("Some")) {
                        return;
                    }
                }
                let tag_consts = args.get(tag_idx).map(|a| screaming_idents(a)).unwrap_or_default();
                rmpi.push(RmpiSite { file: fi, pos, kind, tag_consts });
                if kind == RmpiKind::Irecv {
                    let usage = classify_irecv(text, pos, close, owner_body_end(pos));
                    irecvs.push(IrecvSite { file: fi, pos, usage });
                }
            });
        }
    }

    let stats = IndexStats { files: preps.len(), fns, rmpi_sites: rmpi.len() };
    WorkspaceIndex { rmpi, irecvs, retry_armed, stats }
}

/// Body span `(`{` pos, `}` pos)` of the fn whose `fn ` keyword starts at
/// `pos`. Returns `None` for bodyless declarations (trait methods, extern
/// blocks).
fn fn_body_span(text: &str, pos: usize) -> Option<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut j = pos + 3;
    while j < bytes.len() && (bytes[j] as char).is_whitespace() {
        j += 1;
    }
    let name_start = j;
    while j < bytes.len() && is_ident_char(bytes[j] as char) {
        j += 1;
    }
    if j == name_start {
        return None;
    }
    while j < bytes.len() && (bytes[j] as char).is_whitespace() {
        j += 1;
    }
    // Generics.
    if bytes.get(j) == Some(&b'<') {
        let mut depth = 0i64;
        while j < bytes.len() {
            match bytes[j] as char {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        while j < bytes.len() && (bytes[j] as char).is_whitespace() {
            j += 1;
        }
    }
    if bytes.get(j) != Some(&b'(') {
        return None;
    }
    let params_close = balance(text, j)?;
    // Body: the next `{` before any `;` (a `;` first means no body).
    let mut k = params_close + 1;
    while k < bytes.len() {
        match bytes[k] as char {
            '{' => break,
            ';' => return None,
            _ => k += 1,
        }
    }
    if k >= bytes.len() {
        return None;
    }
    Some((k, balance_brace(text, k)?))
}

/// Matching `)` for the `(` at `open`.
pub(crate) fn balance(text: &str, open: usize) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut depth = 0i64;
    let mut k = open;
    while k < bytes.len() {
        match bytes[k] as char {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
        k += 1;
    }
    None
}

/// Matching `}` for the `{` at `open`.
fn balance_brace(text: &str, open: usize) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut depth = 0i64;
    let mut k = open;
    while k < bytes.len() {
        match bytes[k] as char {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
        k += 1;
    }
    None
}

/// Split an argument (or parameter) list on top-level commas, tracking all
/// bracket kinds so struct literals and nested calls stay whole.
pub(crate) fn split_args(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let (mut paren, mut brace, mut bracket, mut angle) = (0i64, 0i64, 0i64, 0i64);
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '(' => paren += 1,
            ')' => paren -= 1,
            '{' => brace += 1,
            '}' => brace -= 1,
            '[' => bracket += 1,
            ']' => bracket -= 1,
            '<' => angle += 1,
            '>' => angle = (angle - 1).max(0),
            ',' if paren == 0 && brace == 0 && bracket == 0 && angle <= 0 => {
                out.push(cur.trim().to_string());
                cur = String::new();
                continue;
            }
            _ => {}
        }
        cur.push(c);
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

/// SCREAMING_SNAKE idents (len >= 2, no lowercase, at least one letter)
/// inside an expression — how tag constants appear in tag arguments, both
/// bare (`Some(BASIC_TAG)`) and computed (`coll_tag(OP_BCAST, seq)`).
fn screaming_idents(expr: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = expr.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if is_ident_char(bytes[i] as char) {
            let start = i;
            while i < bytes.len() && is_ident_char(bytes[i] as char) {
                i += 1;
            }
            let ident = &expr[start..i];
            let has_alpha = ident.chars().any(|c| c.is_ascii_alphabetic());
            let screaming = !ident.chars().any(|c| c.is_ascii_lowercase());
            if ident.len() >= 2 && has_alpha && screaming && !out.contains(&ident.to_string()) {
                out.push(ident.to_string());
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Classify how the Request returned by the `.irecv(` at `dot` (args closing
/// at `close`) is consumed, looking within the owning fn body ending at
/// `body_end`.
fn classify_irecv(text: &str, dot: usize, close: usize, body_end: usize) -> IrecvUse {
    let bytes = text.as_bytes();
    // Chained consumption: `.irecv(..).wait()` / `.attach(..)` / ...
    let mut a = close + 1;
    while a < bytes.len() && (bytes[a] as char).is_whitespace() {
        a += 1;
    }
    if bytes.get(a) == Some(&b'.') || bytes.get(a) == Some(&b'?') {
        return IrecvUse::Chained;
    }
    // Walk back over the receiver chain (`comm`, `self.comm`, ...) to the
    // expression start.
    let mut j = dot;
    loop {
        let stop = j;
        while j > 0 && is_ident_char(bytes[j - 1] as char) {
            j -= 1;
        }
        if j == stop {
            break;
        }
        let mut k = j;
        while k > 0 && (bytes[k - 1] as char).is_whitespace() {
            k -= 1;
        }
        if k > 0 && bytes[k - 1] as char == '.' {
            j = k - 1;
            continue;
        }
        break;
    }
    let mut p = j;
    while p > 0 && (bytes[p - 1] as char).is_whitespace() {
        p -= 1;
    }
    match bytes.get(p.wrapping_sub(1)).map(|&b| b as char) {
        Some('=') => {
            let Some(name) = ident_before(text, p - 1) else { return IrecvUse::Consumed };
            if name == "_" {
                return IrecvUse::Discarded;
            }
            // `_` can't be read back but named bindings can: consumed iff
            // the name is mentioned again before the fn body ends.
            let rest = &text[close + 1..body_end.min(text.len())];
            let mut seen = false;
            each_match(rest, &name, |_| seen = true);
            if seen {
                IrecvUse::Consumed
            } else {
                IrecvUse::BoundUnused(name)
            }
        }
        Some(';') | Some('{') | Some('}') => {
            // Expression statement: the Request drops at the `;`.
            if bytes.get(a) == Some(&b';') {
                IrecvUse::Discarded
            } else {
                IrecvUse::Consumed // block tail expression: escapes
            }
        }
        _ => IrecvUse::Consumed, // argument position, closure tail, `return`...
    }
}
