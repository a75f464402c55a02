//! detlint — determinism & concurrency lints for the simulation workspace.
//!
//! Every result this reproduction publishes (fig09/fig10 ratios, chaos-matrix
//! replays, `CHAOS_SEED` bisection) assumes the workspace is a *pure function
//! of the seed and the virtual clock*. detlint enforces that assumption as
//! deny-by-default diagnostics over the crate sources:
//!
//! * **D1** — no `std::time::{Instant, SystemTime}` wall-clock outside `simt`
//!   internals; use `simt::now()` / `simt::time`.
//! * **D2** — no `std::thread::{spawn, Builder, sleep}` anywhere, `simt`
//!   included (its green threads are coroutines on the caller's OS thread);
//!   use `simt::spawn` / `simt::sleep`.
//! * **D3** — no `rand` / OS-entropy sources; use `simt::SeededRng` (or a
//!   seeded generator justified by an allow comment).
//! * **D4** — no iteration over `HashMap` / `HashSet` in message-path crates
//!   (`netz`, `fabric`, `rmpi`, `sparklet`, `core`, `obs`); iteration order
//!   leaks into message and scheduling order — and, for `obs`, into the
//!   exported timeline bytes. Use `BTreeMap` / `BTreeSet` or a sorted
//!   collect.
//! * **D5** — no `std::sync::{Mutex, RwLock}` outside `simt`: a guard alive
//!   when a green thread parks hangs every other green thread on the one OS
//!   thread, and only `simt::sync::Mutex` guards are counted and checked at
//!   park time.
//! * **D7** — no `thread_local!` outside `simt`: all green threads of a
//!   simulation share one OS thread, so a thread-local is shared by all of
//!   them and interleaves their state. Use `simt::with_local`.
//!
//! Findings can be waived per line with an explicit, reasoned escape hatch:
//!
//! ```text
//! // detlint: allow(D3, reason = "seeded SmallRng; stream is a pure function of cfg.seed")
//! ```
//!
//! The directive covers its own line, or — when it stands alone on a line —
//! the next code line. A missing `reason` is itself an error.
//!
//! The scanner is deliberately a token-level pass over comment- and
//! string-masked source (this workspace vendors no `syn`): it tracks lines,
//! `#[cfg(test)]` regions and hash-collection idents, which is enough to make
//! the rules precise on real-world rustfmt'd code while staying
//! dependency-free.
//!
//! On top of the per-file D-rules, [`analyze_files`] runs a two-pass
//! *workspace* analysis: pass 1 ([`index`]) indexes fn body spans and the rmpi
//! send/recv/irecv sites with their tag constants; pass 2 runs the cross-file
//! rule family over it:
//!
//! * **P1** — request leak: an `irecv` Request must reach
//!   `wait`/`wait_timeout`/`cancel`/`waitall`/`attach` or escape the function.
//! * **P2** — no untimed `recv` on message paths covered by `RetryPolicy`
//!   (the retry fires after a timeout; an unbounded receive strands it).
//! * **P3** — send/recv tag-constant consistency across crates: a tag
//!   constant sent but never received (or vice versa) can never match.
//!
//! Waivers that stop suppressing anything are themselves reported (rule
//! `stale`), so the allow inventory cannot rot.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

pub(crate) mod index;
pub(crate) mod protocol;

/// One finding, pointing at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Display path (workspace-relative when produced by [`scan_workspace`]).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (see [`RULES`]), `allow` for a malformed allow
    /// directive, or `stale` for a waiver that no longer suppresses anything.
    pub rule: String,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl Diagnostic {
    /// `path:line: rule: message` — the plain-text output format.
    pub fn render(&self) -> String {
        format!("{}:{}: {}: {}", self.path, self.line, self.rule, self.message)
    }

    /// One-line JSON object (no escaping surprises: paths and messages are
    /// ASCII by construction).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"path\":{:?},\"line\":{},\"rule\":{:?},\"message\":{:?}}}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// The rule catalog: every id a finding can carry, besides `allow` and `stale`.
/// Ids are stable: D6 (busy-spin on `Request::test()`) left with that method.
pub const RULES: &[&str] = &["D1", "D2", "D3", "D4", "D5", "D7", "P1", "P2", "P3"];

/// Crates whose sources sit on the message path: any hash-order leak here
/// reorders packets, RPCs, or task scheduling (rule D4's scope). `obs` is
/// included because span records and metric snapshots feed the byte-stable
/// timeline export.
pub const MESSAGE_PATH_CRATES: &[&str] = &["netz", "fabric", "rmpi", "sparklet", "core", "obs"];

// ---------------------------------------------------------------------------
// Source masking: blank comments and string/char literals, preserving the
// character count per line, and collect comment text for allow directives.
// ---------------------------------------------------------------------------

pub(crate) struct Masked {
    /// Source with comments and string/char literal *contents* replaced by
    /// spaces. Newlines are preserved, so offsets map to the original lines.
    pub(crate) code: Vec<char>,
    /// `(1-based line, comment text)` for every comment.
    pub(crate) comments: Vec<(usize, String)>,
    /// Char index of the start of each line (line 1 at index 0).
    pub(crate) line_starts: Vec<usize>,
}

impl Masked {
    pub(crate) fn line_of(&self, pos: usize) -> usize {
        match self.line_starts.binary_search(&pos) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }
}

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

pub(crate) fn mask(src: &str) -> Masked {
    let chars: Vec<char> = src.chars().collect();
    let mut code: Vec<char> = Vec::with_capacity(chars.len());
    let mut comments: Vec<(usize, String)> = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    macro_rules! push {
        ($c:expr) => {{
            let c = $c;
            if c == '\n' {
                line += 1;
            }
            code.push(c);
        }};
    }
    // Emit `c` as masked filler (newlines kept, everything else a space).
    macro_rules! blank {
        ($c:expr) => {
            push!(if $c == '\n' { '\n' } else { ' ' })
        };
    }

    while i < chars.len() {
        let c = chars[i];
        // Line comment.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start_line = line;
            let mut text = String::new();
            while i < chars.len() && chars[i] != '\n' {
                text.push(chars[i]);
                blank!(chars[i]);
                i += 1;
            }
            comments.push((start_line, text));
            continue;
        }
        // Block comment (nesting).
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let start_line = line;
            let mut text = String::new();
            let mut depth = 0usize;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    text.push_str("/*");
                    blank!('/');
                    blank!('*');
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    text.push_str("*/");
                    blank!('*');
                    blank!('/');
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    text.push(chars[i]);
                    blank!(chars[i]);
                    i += 1;
                }
            }
            comments.push((start_line, text));
            continue;
        }
        // Raw / byte strings: r"..", r#".."#, b"..", br#".."#.
        let prev_ident = i > 0 && is_ident_char(chars[i - 1]);
        if (c == 'r' || c == 'b') && !prev_ident {
            let mut j = i;
            if chars[j] == 'b' {
                j += 1;
            }
            let raw = chars.get(j) == Some(&'r');
            if raw {
                j += 1;
            }
            let mut hashes = 0usize;
            while chars.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if chars.get(j) == Some(&'"') && (raw || hashes == 0) {
                // Blank the prefix and opening quote.
                while i <= j {
                    blank!(chars[i]);
                    i += 1;
                }
                // Scan to the terminator: `"` followed by `hashes` #'s (raw),
                // or unescaped `"` (cooked).
                while i < chars.len() {
                    if chars[i] == '\\' && !raw {
                        blank!(chars[i]);
                        i += 1;
                        if i < chars.len() {
                            blank!(chars[i]);
                            i += 1;
                        }
                        continue;
                    }
                    if chars[i] == '"' {
                        let mut k = 0usize;
                        while k < hashes && chars.get(i + 1 + k) == Some(&'#') {
                            k += 1;
                        }
                        if k == hashes {
                            for _ in 0..=hashes {
                                blank!(chars[i]);
                                i += 1;
                            }
                            break;
                        }
                    }
                    blank!(chars[i]);
                    i += 1;
                }
                continue;
            }
            // Not a string prefix: fall through as code.
        }
        // Cooked string.
        if c == '"' {
            blank!(c);
            i += 1;
            while i < chars.len() {
                if chars[i] == '\\' {
                    blank!(chars[i]);
                    i += 1;
                    if i < chars.len() {
                        blank!(chars[i]);
                        i += 1;
                    }
                    continue;
                }
                let done = chars[i] == '"';
                blank!(chars[i]);
                i += 1;
                if done {
                    break;
                }
            }
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let next = chars.get(i + 1).copied();
            let is_char_lit = match next {
                Some('\\') => true,
                Some(n) if n != '\'' => chars.get(i + 2) == Some(&'\''),
                _ => false,
            };
            if is_char_lit {
                blank!(c);
                i += 1;
                if chars.get(i) == Some(&'\\') {
                    blank!(chars[i]);
                    i += 1;
                    // Escape body up to the closing quote.
                    while i < chars.len() && chars[i] != '\'' {
                        blank!(chars[i]);
                        i += 1;
                    }
                } else {
                    blank!(chars[i]);
                    i += 1;
                }
                if i < chars.len() {
                    blank!(chars[i]); // closing '
                    i += 1;
                }
                continue;
            }
            // Lifetime: emit as code.
            push!(c);
            i += 1;
            continue;
        }
        push!(c);
        i += 1;
    }

    let mut line_starts = vec![0usize];
    for (idx, &ch) in code.iter().enumerate() {
        if ch == '\n' {
            line_starts.push(idx + 1);
        }
    }
    Masked { code, comments, line_starts }
}

// ---------------------------------------------------------------------------
// `#[cfg(test)]` / `#[test]` region removal: lints govern simulation code;
// test modules may block, spawn, and shuffle however they like.
// ---------------------------------------------------------------------------

pub(crate) fn blank_test_regions(m: &mut Masked) {
    let text: String = m.code.iter().collect();
    let mut blank_ranges: Vec<(usize, usize)> = Vec::new();
    for attr in ["#[cfg(test)]", "#[test]"] {
        let mut from = 0usize;
        while let Some(off) = find_from(&text, attr, from) {
            from = off + attr.len();
            // Find the body: next `{` before any `;` at the same level ends
            // the annotated item. Attributes/idents in between are fine.
            let mut j = from;
            let chars = &m.code;
            while j < chars.len() && chars[j] != '{' && chars[j] != ';' {
                j += 1;
            }
            if j >= chars.len() || chars[j] == ';' {
                blank_ranges.push((off, j.min(chars.len())));
                continue;
            }
            // Balance braces from j.
            let mut depth = 0i64;
            let mut k = j;
            while k < chars.len() {
                match chars[k] {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            blank_ranges.push((off, k.min(chars.len().saturating_sub(1))));
            from = k;
        }
    }
    for (a, b) in blank_ranges {
        for idx in a..=b.min(m.code.len().saturating_sub(1)) {
            if m.code[idx] != '\n' {
                m.code[idx] = ' ';
            }
        }
    }
}

fn find_from(haystack: &str, needle: &str, from: usize) -> Option<usize> {
    // `from` is a char index; the masked text is ASCII after masking (all
    // non-ASCII lived in strings/comments), so bytes == chars here.
    haystack.get(from..).and_then(|s| s.find(needle)).map(|p| p + from)
}

// ---------------------------------------------------------------------------
// Allow directives.
// ---------------------------------------------------------------------------

/// One parsed `// detlint: allow(R1, R2, reason = "...")` directive.
#[derive(Debug, Clone)]
pub(crate) struct Directive {
    /// Line the comment sits on.
    pub(crate) line: usize,
    /// Line the waiver covers (== `line` for a trailing comment, the next
    /// code line for a standalone one).
    pub(crate) target: usize,
    /// Rules waived by this directive.
    pub(crate) rules: Vec<String>,
}

pub(crate) struct Allows {
    /// Line -> rules waived on that line.
    pub(crate) by_line: BTreeMap<usize, BTreeSet<String>>,
    /// Well-formed directives, in source order (for stale-waiver tracking).
    pub(crate) directives: Vec<Directive>,
    /// Malformed directives (missing reason, unparsable).
    pub(crate) errors: Vec<(usize, String)>,
}

pub(crate) fn parse_allows(m: &Masked) -> Allows {
    let mut by_line: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    let mut directives: Vec<Directive> = Vec::new();
    let mut errors = Vec::new();
    for (line, text) in &m.comments {
        // Doc comments are documentation, not directives — the rule docs
        // themselves quote example waivers.
        if text.starts_with("///")
            || text.starts_with("//!")
            || text.starts_with("/**")
            || text.starts_with("/*!")
        {
            continue;
        }
        let Some(pos) = text.find("detlint:") else { continue };
        let rest = text[pos + "detlint:".len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            errors.push((*line, format!("unrecognized detlint directive: `{}`", rest.trim())));
            continue;
        };
        let Some(close) = args.find(')') else {
            errors.push((*line, "unterminated detlint: allow(...) directive".to_string()));
            continue;
        };
        let body = &args[..close];
        // Comma-separated rule ids up to the `reason = "..."` clause; the
        // reason text itself may contain commas.
        let mut rules: Vec<String> = Vec::new();
        let mut reason: Option<&str> = None;
        let mut rest_body = body;
        loop {
            let (tok, remainder) = match rest_body.find(',') {
                Some(p) => (&rest_body[..p], Some(&rest_body[p + 1..])),
                None => (rest_body, None),
            };
            let t = tok.trim();
            if t.strip_prefix("reason")
                .is_some_and(|r| r.trim_start().starts_with('=') || r.trim_start().is_empty())
            {
                reason = Some(rest_body.trim());
                break;
            }
            rules.push(t.to_string());
            match remainder {
                Some(r) => rest_body = r,
                None => break,
            }
        }
        let reason_ok = reason
            .and_then(|r| r.strip_prefix("reason"))
            .map(|r| r.trim_start().strip_prefix('=').map(str::trim).unwrap_or(""))
            .map(|r| r.len() > 2 && r.starts_with('"'))
            .unwrap_or(false);
        let rules_ok = !rules.is_empty()
            && rules.iter().all(|r| !r.is_empty() && r.chars().all(is_ident_char));
        if !rules_ok || !reason_ok {
            let shown = if rules.is_empty() || rules[0].is_empty() {
                "D?".to_string()
            } else {
                rules.join(", ")
            };
            errors.push((
                *line,
                format!(
                    "allow directive must name a rule and a reason: \
                     `// detlint: allow({shown}, reason = \"...\")`"
                ),
            ));
            continue;
        }
        // The directive covers its own line; if the comment stands alone,
        // it covers the next line that has code on it.
        let mut target = *line;
        let own_line_code = m
            .line_starts
            .get(target - 1)
            .map(|&s| {
                let e = m.line_starts.get(target).copied().unwrap_or(m.code.len());
                m.code[s..e].iter().any(|&c| !c.is_whitespace())
            })
            .unwrap_or(false);
        if !own_line_code {
            let total_lines = m.line_starts.len();
            let mut l = target + 1;
            while l <= total_lines {
                let s = m.line_starts[l - 1];
                let e = m.line_starts.get(l).copied().unwrap_or(m.code.len());
                if m.code[s..e].iter().any(|&c| !c.is_whitespace()) {
                    break;
                }
                l += 1;
            }
            target = l;
        }
        for rule in &rules {
            by_line.entry(target).or_default().insert(rule.clone());
            by_line.entry(*line).or_default().insert(rule.clone());
        }
        directives.push(Directive { line: *line, target, rules });
    }
    Allows { by_line, directives, errors }
}

// ---------------------------------------------------------------------------
// The scanner.
// ---------------------------------------------------------------------------

/// Where a file sits in the workspace; drives per-rule exemptions.
#[derive(Debug, Clone)]
pub struct FileOrigin {
    /// Crate directory name (`simt`, `netz`, ... or `root` for the umbrella
    /// package).
    pub crate_name: String,
    /// Path relative to the crate root, e.g. `src/engine.rs`.
    pub rel_path: String,
}

struct RuleCtx<'a> {
    origin: &'a FileOrigin,
    display_path: &'a str,
}

impl RuleCtx<'_> {
    fn is_simt(&self) -> bool {
        self.origin.crate_name == "simt"
    }
    fn on_message_path(&self) -> bool {
        MESSAGE_PATH_CRATES.contains(&self.origin.crate_name.as_str())
    }
}

/// One file's masked, test-blanked, allow-parsed source — shared between the
/// per-file D-rules and the workspace index (pass 1).
pub(crate) struct FilePrep {
    pub(crate) display: String,
    pub(crate) origin: FileOrigin,
    pub(crate) masked: Masked,
    /// `masked.code` collected to a `String` (ASCII after masking).
    pub(crate) text: String,
    pub(crate) allows: Allows,
}

pub(crate) fn prep_file(display_path: &str, origin: &FileOrigin, src: &str) -> FilePrep {
    let mut m = mask(src);
    blank_test_regions(&mut m);
    let allows = parse_allows(&m);
    let text: String = m.code.iter().collect();
    FilePrep { display: display_path.to_string(), origin: origin.clone(), masked: m, text, allows }
}

/// Run the per-file D-rules (plus malformed-directive findings) over a prep.
pub(crate) fn d_rules(prep: &FilePrep) -> BTreeSet<Diagnostic> {
    let ctx = RuleCtx { origin: &prep.origin, display_path: &prep.display };
    let mut found: BTreeSet<Diagnostic> = BTreeSet::new();
    for (line, msg) in &prep.allows.errors {
        found.insert(Diagnostic {
            path: prep.display.clone(),
            line: *line,
            rule: "allow".to_string(),
            message: msg.clone(),
        });
    }
    rule_d1(&ctx, &prep.masked, &prep.text, &mut found);
    rule_d2(&ctx, &prep.masked, &prep.text, &mut found);
    rule_d3(&ctx, &prep.masked, &prep.text, &mut found);
    rule_d4(&ctx, &prep.masked, &prep.text, &mut found);
    rule_d5(&ctx, &prep.masked, &prep.text, &mut found);
    rule_d7(&ctx, &prep.masked, &prep.text, &mut found);
    found
}

/// Apply the file's allow directives to `found`, collapsing to one finding
/// per `(line, rule)` — overlapping needles (e.g. `std::thread::spawn` and
/// `thread::spawn`) otherwise double-report. Every suppression is recorded
/// in `used` as `(directive index, rule)` for stale-waiver detection.
fn apply_allows_one(
    prep: &FilePrep,
    found: BTreeSet<Diagnostic>,
    used: &mut BTreeSet<(usize, String)>,
) -> Vec<Diagnostic> {
    let allows = &prep.allows;
    let mut by_key: BTreeMap<(usize, String), Diagnostic> = BTreeMap::new();
    for d in found {
        let waivable = d.rule != "allow" && d.rule != "stale";
        let allowed =
            waivable && allows.by_line.get(&d.line).map(|rs| rs.contains(&d.rule)).unwrap_or(false);
        if allowed {
            for (di, dir) in allows.directives.iter().enumerate() {
                if (dir.line == d.line || dir.target == d.line) && dir.rules.contains(&d.rule) {
                    used.insert((di, d.rule.clone()));
                }
            }
            continue;
        }
        by_key.entry((d.line, d.rule.clone())).or_insert(d);
    }
    by_key.into_values().collect()
}

/// Scan one file's source with the per-file D-rules only. `display_path` is
/// used verbatim in diagnostics. The workspace rules (P, stale waivers)
/// need cross-file context — see [`analyze_files`].
pub fn scan_source(display_path: &str, origin: &FileOrigin, src: &str) -> Vec<Diagnostic> {
    let prep = prep_file(display_path, origin, src);
    let found = d_rules(&prep);
    let mut used = BTreeSet::new();
    apply_allows_one(&prep, found, &mut used)
}

// ---------------------------------------------------------------------------
// Whole-workspace analysis (two passes).
// ---------------------------------------------------------------------------

/// One source file handed to [`analyze_files`].
pub struct SourceFile {
    /// Path used verbatim in diagnostics.
    pub display_path: String,
    pub origin: FileOrigin,
    pub src: String,
}

/// Size counters from pass 1, surfaced for benches and tooling.
#[derive(Debug, Clone, Default)]
pub struct IndexStats {
    pub files: usize,
    pub fns: usize,
    /// rmpi send/recv/irecv call sites.
    pub rmpi_sites: usize,
}

/// Outcome of a whole-workspace analysis.
pub struct Analysis {
    /// All findings (D, P, `allow`, `stale`), sorted by path/line/rule.
    pub diagnostics: Vec<Diagnostic>,
    pub stats: IndexStats,
}

/// Two-pass analysis over a set of files: per-file D-rules, then the
/// workspace index and the P rule family, then allow application with
/// stale-waiver detection.
pub fn analyze_files(files: &[SourceFile]) -> Analysis {
    let preps: Vec<FilePrep> =
        files.iter().map(|f| prep_file(&f.display_path, &f.origin, &f.src)).collect();
    let idx = index::build(&preps);

    let mut per_file: Vec<BTreeSet<Diagnostic>> = preps.iter().map(d_rules).collect();
    let by_path: BTreeMap<&str, usize> =
        preps.iter().enumerate().map(|(i, p)| (p.display.as_str(), i)).collect();
    for d in protocol::run(&idx, &preps) {
        if let Some(&i) = by_path.get(d.path.as_str()) {
            per_file[i].insert(d);
        }
    }

    let mut diagnostics = Vec::new();
    for (i, prep) in preps.iter().enumerate() {
        let mut used: BTreeSet<(usize, String)> = BTreeSet::new();
        let found = std::mem::take(&mut per_file[i]);
        let mut kept = apply_allows_one(prep, found, &mut used);
        for (di, dir) in prep.allows.directives.iter().enumerate() {
            for r in &dir.rules {
                if !used.contains(&(di, r.clone())) {
                    kept.push(Diagnostic {
                        path: prep.display.clone(),
                        line: dir.line,
                        rule: "stale".to_string(),
                        message: format!(
                            "stale waiver: `{r}` never fires here; remove it from the \
                             directive or fix the rule id"
                        ),
                    });
                }
            }
        }
        diagnostics.extend(kept);
    }
    diagnostics.sort();
    diagnostics.dedup();
    Analysis { diagnostics, stats: idx.stats }
}

/// Render diagnostics as one valid JSON array (pretty enough for humans,
/// parseable by `jq`).
pub fn render_json_array(diags: &[Diagnostic]) -> String {
    if diags.is_empty() {
        return "[]".to_string();
    }
    let rows: Vec<String> = diags.iter().map(|d| format!("  {}", d.render_json())).collect();
    format!("[\n{}\n]", rows.join(",\n"))
}

/// True when the match of `needle` at `pos` is not glued to identifier
/// characters: a needle starting with an ident char must not continue one
/// (`spark()` is not `park()`), and one ending with an ident char must not
/// run into one (`rand_chacha` is not `rand`).
pub(crate) fn word_match(text: &str, pos: usize, needle: &str) -> bool {
    let bytes = text.as_bytes();
    let first = needle.chars().next().unwrap_or(' ');
    if pos > 0 && is_ident_char(first) && is_ident_char(bytes[pos - 1] as char) {
        return false;
    }
    let end = pos + needle.len();
    if let Some(&next) = bytes.get(end) {
        let next = next as char;
        let last = needle.chars().next_back().unwrap_or(' ');
        if is_ident_char(last) && is_ident_char(next) {
            return false;
        }
    }
    true
}

pub(crate) fn each_match(text: &str, needle: &str, mut f: impl FnMut(usize)) {
    let mut from = 0usize;
    while let Some(pos) = find_from(text, needle, from) {
        if word_match(text, pos, needle) {
            f(pos);
        }
        from = pos + needle.len();
    }
}

fn push_diag(
    out: &mut BTreeSet<Diagnostic>,
    ctx: &RuleCtx<'_>,
    line: usize,
    rule: &str,
    message: String,
) {
    out.insert(Diagnostic {
        path: ctx.display_path.to_string(),
        line,
        rule: rule.to_string(),
        message,
    });
}

fn rule_d1(ctx: &RuleCtx<'_>, m: &Masked, text: &str, out: &mut BTreeSet<Diagnostic>) {
    if ctx.is_simt() {
        return;
    }
    for needle in ["std::time::Instant", "std::time::SystemTime", "std::time::UNIX_EPOCH"] {
        each_match(text, needle, |pos| {
            push_diag(
                out,
                ctx,
                m.line_of(pos),
                "D1",
                format!(
                    "wall-clock `{needle}` in simulated code; use `simt::now()` / `simt::time` \
                     so timings replay under a seed"
                ),
            );
        });
    }
    each_match(text, "SystemTime::now", |pos| {
        push_diag(
            out,
            ctx,
            m.line_of(pos),
            "D1",
            "wall-clock `SystemTime::now` in simulated code; use `simt::now()`".to_string(),
        );
    });
}

fn rule_d2(ctx: &RuleCtx<'_>, m: &Masked, text: &str, out: &mut BTreeSet<Diagnostic>) {
    for (needle, alt) in [
        ("std::thread::spawn", "simt::spawn"),
        ("std::thread::sleep", "simt::sleep"),
        ("std::thread::Builder", "simt::spawn"),
        ("thread::spawn", "simt::spawn"),
        ("thread::sleep", "simt::sleep"),
    ] {
        each_match(text, needle, |pos| {
            push_diag(
                out,
                ctx,
                m.line_of(pos),
                "D2",
                format!(
                    "OS thread API `{needle}`; use `{alt}` so the scheduler stays deterministic"
                ),
            );
        });
    }
    each_match(text, "use std::thread", |pos| {
        push_diag(
            out,
            ctx,
            m.line_of(pos),
            "D2",
            "importing `std::thread`; green threads come from `simt::spawn`".to_string(),
        );
    });
}

fn rule_d3(ctx: &RuleCtx<'_>, m: &Masked, text: &str, out: &mut BTreeSet<Diagnostic>) {
    if ctx.is_simt() {
        return;
    }
    for needle in ["thread_rng", "from_entropy", "OsRng", "getrandom", "SystemRandom"] {
        each_match(text, needle, |pos| {
            push_diag(
                out,
                ctx,
                m.line_of(pos),
                "D3",
                format!(
                    "OS-entropy source `{needle}`; all randomness must derive from the run \
                     seed — use `simt::SeededRng`"
                ),
            );
        });
    }
    // Any use of the `rand` crate: seeded use is waivable with an allow
    // comment; unseeded use is a reproducibility bug.
    each_match(text, "use rand", |pos| {
        push_diag(
            out,
            ctx,
            m.line_of(pos),
            "D3",
            "`rand` crate in simulated code; prefer `simt::SeededRng`, or annotate the seeded \
             use with `// detlint: allow(D3, reason = \"...\")`"
                .to_string(),
        );
    });
    each_match(text, "rand::", |pos| {
        push_diag(
            out,
            ctx,
            m.line_of(pos),
            "D3",
            "`rand` crate in simulated code; prefer `simt::SeededRng`, or annotate the seeded \
             use with `// detlint: allow(D3, reason = \"...\")`"
                .to_string(),
        );
    });
}

// --- D4: hash-collection iteration on the message path ---------------------

const ITER_ADAPTERS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".retain(",
];

/// Idents bound to `HashMap`/`HashSet` in this file: let-bindings (by type
/// annotation or initializer), struct fields, and fn params.
fn collect_hash_idents(text: &str) -> BTreeSet<String> {
    let mut idents = BTreeSet::new();
    for coll in ["HashMap", "HashSet"] {
        each_match(text, coll, |pos| {
            if let Some(name) = ident_bound_at(text, pos) {
                idents.insert(name);
            }
        });
    }
    idents
}

/// Given the offset of a `HashMap`/`HashSet` token, walk backward to the
/// ident it is bound to: `name: ...HashMap<...>` (field/param/let-annotation)
/// or `let [mut] name = HashMap::new()`-style initializers.
fn ident_bound_at(text: &str, pos: usize) -> Option<String> {
    let b = text.as_bytes();
    let mut j = pos;
    // Walk back over the type/path prefix to the single `:` that introduces
    // it, stopping cold at statement/expression boundaries.
    while j > 0 {
        let c = b[j - 1] as char;
        match c {
            ':' => {
                if j >= 2 && b[j - 2] as char == ':' {
                    j -= 2; // `::` path separator, keep walking
                    continue;
                }
                // Single colon: the ident sits right before it.
                return ident_before(text, j - 1);
            }
            '=' => {
                // Initializer: look for `let [mut] name =`.
                return let_ident_before(text, j - 1);
            }
            c if is_ident_char(c) || c.is_whitespace() || "<>&,'()".contains(c) => {
                j -= 1;
            }
            _ => return None,
        }
    }
    None
}

/// Parse the identifier ending just before `end` (skipping trailing spaces).
pub(crate) fn ident_before(text: &str, end: usize) -> Option<String> {
    let b = text.as_bytes();
    let mut j = end;
    while j > 0 && (b[j - 1] as char).is_whitespace() {
        j -= 1;
    }
    let stop = j;
    while j > 0 && is_ident_char(b[j - 1] as char) {
        j -= 1;
    }
    if j == stop {
        return None;
    }
    let name = &text[j..stop];
    const KEYWORDS: &[&str] = &["mut", "let", "pub", "ref", "in", "as", "dyn", "impl", "where"];
    if KEYWORDS.contains(&name) || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    Some(name.to_string())
}

/// For `let [mut] NAME = <expr with HashMap>`: parse NAME from just before
/// the `=` at `eq`.
fn let_ident_before(text: &str, eq: usize) -> Option<String> {
    let name = ident_before(text, eq)?;
    let b = text.as_bytes();
    // Verify a `let` introduces this binding (walk back over `mut`/ws/name).
    let mut j = eq;
    while j > 0 && (b[j - 1] as char).is_whitespace() {
        j -= 1;
    }
    j -= name.len();
    while j > 0 && (b[j - 1] as char).is_whitespace() {
        j -= 1;
    }
    if text[..j].ends_with("mut") {
        j -= 3;
        while j > 0 && (b[j - 1] as char).is_whitespace() {
            j -= 1;
        }
    }
    if text[..j].ends_with("let") {
        Some(name)
    } else {
        None
    }
}

/// Walk backward from `dot` (the `.` starting an iterator adapter) and
/// collect the plain-ident segments of the receiver chain, skipping over
/// call segments like `.lock()`.
fn receiver_segments(text: &str, dot: usize) -> Vec<String> {
    let b = text.as_bytes();
    let mut segs = Vec::new();
    let mut j = dot;
    loop {
        while j > 0 && (b[j - 1] as char).is_whitespace() {
            j -= 1;
        }
        if j == 0 {
            break;
        }
        let c = b[j - 1] as char;
        if c == ')' {
            // Balance back to the matching '(' and skip the method name.
            let mut depth = 0i64;
            while j > 0 {
                match b[j - 1] as char {
                    ')' => depth += 1,
                    '(' => {
                        depth -= 1;
                        if depth == 0 {
                            j -= 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j -= 1;
            }
            while j > 0 && (b[j - 1] as char).is_whitespace() {
                j -= 1;
            }
            // Method name (a call segment): skip it.
            let stop = j;
            while j > 0 && is_ident_char(b[j - 1] as char) {
                j -= 1;
            }
            if j == stop {
                break; // e.g. a closing paren of a grouped expr: give up
            }
        } else if is_ident_char(c) {
            let stop = j;
            while j > 0 && is_ident_char(b[j - 1] as char) {
                j -= 1;
            }
            segs.push(text[j..stop].to_string());
        } else {
            break;
        }
        while j > 0 && (b[j - 1] as char).is_whitespace() {
            j -= 1;
        }
        if j > 0 && b[j - 1] as char == '.' {
            j -= 1;
            continue;
        }
        break;
    }
    segs
}

fn rule_d4(ctx: &RuleCtx<'_>, m: &Masked, text: &str, out: &mut BTreeSet<Diagnostic>) {
    if !ctx.on_message_path() {
        return;
    }
    let hash_idents = collect_hash_idents(text);
    if hash_idents.is_empty() {
        return;
    }
    let flag = |out: &mut BTreeSet<Diagnostic>, pos: usize, name: &str, how: &str| {
        push_diag(
            out,
            ctx,
            m.line_of(pos),
            "D4",
            format!(
                "{how} over hash collection `{name}` on the message path: iteration order is \
                 nondeterministic and leaks into message/scheduling order; use \
                 `BTreeMap`/`BTreeSet` or a sorted collect"
            ),
        );
    };
    for adapter in ITER_ADAPTERS {
        each_match(text, adapter, |pos| {
            for seg in receiver_segments(text, pos) {
                if hash_idents.contains(&seg) {
                    flag(out, pos, &seg, &format!("`{adapter}`"));
                    break;
                }
            }
        });
    }
    // `for pat in <expr> {` where <expr> resolves to a hash ident.
    each_match(text, "for ", |pos| {
        let Some(in_pos) = find_from(text, " in ", pos) else { return };
        let Some(brace) = find_from(text, "{", in_pos) else { return };
        if brace.saturating_sub(pos) > 200 {
            return; // not a plausible single for-header
        }
        for seg in receiver_segments(text, brace) {
            if hash_idents.contains(&seg) {
                flag(out, pos, &seg, "`for` loop");
                break;
            }
        }
    });
}

// --- D5: locks the engine cannot count --------------------------------------

fn rule_d5(ctx: &RuleCtx<'_>, m: &Masked, text: &str, out: &mut BTreeSet<Diagnostic>) {
    if ctx.is_simt() {
        return;
    }
    let mut flag = |pos: usize, what: &str| {
        push_diag(
            out,
            ctx,
            m.line_of(pos),
            "D5",
            format!(
                "uncounted lock `{what}` outside simt: a guard alive when a green thread parks \
                 hangs every other green thread on the one OS thread, and only \
                 `simt::sync::Mutex` guards are checked at park time; use it"
            ),
        );
    };
    for needle in ["std::sync::Mutex", "std::sync::RwLock"] {
        each_match(text, needle, |pos| flag(pos, needle));
    }
    // `use std::sync::{Arc, Mutex};`
    each_match(text, "std::sync::{", |pos| {
        let group = text[pos..].split('}').next().unwrap_or_default();
        for name in ["Mutex", "RwLock"] {
            each_match(group, name, |_| flag(pos, &format!("std::sync::{name}")));
        }
    });
}

// --- D7: thread-locals shared by every green thread -------------------------

fn rule_d7(ctx: &RuleCtx<'_>, m: &Masked, text: &str, out: &mut BTreeSet<Diagnostic>) {
    if ctx.is_simt() {
        return;
    }
    each_match(text, "thread_local!", |pos| {
        push_diag(
            out,
            ctx,
            m.line_of(pos),
            "D7",
            "`thread_local!` outside simt: green threads share one OS thread, so this state \
             is shared by all of them and interleaves across blocking calls; keep per-task \
             state in `simt::with_local`"
                .to_string(),
        );
    });
}

// ---------------------------------------------------------------------------
// Workspace walking.
// ---------------------------------------------------------------------------

/// Every workspace crate's `src/` tree (plus the umbrella package's `src/`)
/// under `root`, in a fixed order, ready for [`analyze_files`].
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files: Vec<(PathBuf, FileOrigin)> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let crate_name =
                dir.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_string();
            collect_rs(&dir.join("src"), &dir, &crate_name, &mut files)?;
        }
    }
    collect_rs(&root.join("src"), root, "root", &mut files)?;

    let mut sources = Vec::with_capacity(files.len());
    for (path, origin) in files {
        let src = std::fs::read_to_string(&path)?;
        let display = path
            .strip_prefix(root)
            .map(|p| p.display().to_string())
            .unwrap_or_else(|_| path.display().to_string());
        sources.push(SourceFile { display_path: display, origin, src });
    }
    Ok(sources)
}

/// Run the full two-pass analysis over [`workspace_sources`].
pub fn analyze_workspace(root: &Path) -> std::io::Result<Analysis> {
    Ok(analyze_files(&workspace_sources(root)?))
}

/// Scan every workspace crate under `root` and return the diagnostics alone
/// (the full two-pass analysis, including the P rules and stale waivers),
/// sorted by path, line, rule.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    Ok(analyze_workspace(root)?.diagnostics)
}

fn collect_rs(
    dir: &Path,
    crate_root: &Path,
    crate_name: &str,
    files: &mut Vec<(PathBuf, FileOrigin)>,
) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, crate_root, crate_name, files)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            let rel = path
                .strip_prefix(crate_root)
                .map(|p| p.display().to_string())
                .unwrap_or_else(|_| path.display().to_string());
            files.push((path, FileOrigin { crate_name: crate_name.to_string(), rel_path: rel }));
        }
    }
    Ok(())
}

/// Locate the workspace root: walk up from `start` until a `Cargo.toml`
/// containing `[workspace]` appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(s) = std::fs::read_to_string(&manifest) {
                if s.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}
