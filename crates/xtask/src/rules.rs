//! The lint rules, R1–R10, over the [`crate::model`] workspace model.
//!
//! Every rule is a plain function over model types so the test suite
//! can point them at seeded-violation fixtures under `tests/fixtures/`
//! (which the workspace walker skips). Rules 2/3/5/6 — previously
//! substring scans over raw lines — now pattern-match the token
//! stream, so occurrences inside string literals and comments can no
//! longer produce findings (the old false-positive classes have
//! regression fixtures).

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use ltree::SchemeRegistry;

use crate::archdoc::{CrateGraph, WireTagTable};
use crate::lexer::{string_value, TokKind, Token};
use crate::model::{fn_items, SourceFile, Workspace};
use crate::Finding;

fn finding(path: &Path, line: u32, rule: &'static str, message: String) -> Finding {
    Finding {
        path: path.to_path_buf(),
        line: line as usize,
        rule,
        message,
    }
}

// ---------------------------------------------------------------------
// R1 · crate-attrs
// ---------------------------------------------------------------------

/// Rule 1 (`crate-attrs`): a crate root must carry both lint
/// attributes.
pub fn check_crate_attrs(path: &Path, content: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    for attr in ["#![forbid(unsafe_code)]", "#![deny(missing_docs)]"] {
        if !content.lines().any(|l| l.trim() == attr) {
            out.push(finding(
                path,
                0,
                "crate-attrs",
                format!("crate root is missing `{attr}`"),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// R2 · fixed-port
// ---------------------------------------------------------------------

/// Rule 2 (`fixed-port`): no fixed TCP ports in test string literals.
/// Flags `127.0.0.1:<port>` / `localhost:<port>` for any literal port
/// other than `0`. Token-based: a port mentioned in a comment (or a
/// doc example) is not a finding.
pub fn check_fixed_ports(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for tok in &file.tokens {
        if !tok.kind.is_string() {
            continue;
        }
        let Some(value) = string_value(tok, &file.content) else {
            continue;
        };
        for host in ["127.0.0.1:", "localhost:"] {
            let mut rest = value.as_str();
            while let Some(pos) = rest.find(host) {
                let after = &rest[pos + host.len()..];
                let digits: String = after.chars().take_while(char::is_ascii_digit).collect();
                if !digits.is_empty() && digits != "0" {
                    out.push(finding(
                        &file.path,
                        tok.line,
                        "fixed-port",
                        format!(
                            "fixed port `{host}{digits}` in a test — bind `:0` and pass \
                             the OS-assigned address around instead"
                        ),
                    ));
                }
                rest = after;
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// R3 · lock-unwrap
// ---------------------------------------------------------------------

const LOCK_METHODS: [&str; 3] = ["lock", "read", "write"];

/// Rule 3 (`lock-unwrap`): no `unwrap()` on lock results; poisoning
/// must be recovered with `unwrap_or_else(|p| p.into_inner())` (the
/// repo-wide idiom). Token-based: matches the call chain
/// `.lock().unwrap()` (and the `read`/`write` variants) in code only —
/// never inside strings or comments.
pub fn check_lock_unwrap(file: &SourceFile) -> Vec<Finding> {
    let src = &file.content;
    let code: Vec<&Token> = file.code_tokens().collect();
    let mut out = Vec::new();
    for w in code.windows(8) {
        let texts: Vec<&str> = w.iter().map(|t| t.text(src)).collect();
        if texts[0] == "."
            && LOCK_METHODS.contains(&texts[1])
            && texts[2] == "("
            && texts[3] == ")"
            && texts[4] == "."
            && texts[5] == "unwrap"
            && texts[6] == "("
            && texts[7] == ")"
        {
            out.push(finding(
                &file.path,
                w[1].line,
                "lock-unwrap",
                format!(
                    "`.{}().unwrap()` propagates lock poisoning — use \
                     `unwrap_or_else(|p| p.into_inner())`",
                    texts[1]
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// R4 · spec-grammar
// ---------------------------------------------------------------------

/// Extract every backtick span from one line. Ignores multi-backtick
/// fences (``` and longer).
pub fn backtick_spans(line: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find('`') {
        let after = &rest[open + 1..];
        if after.starts_with('`') {
            // A fence or empty span: skip the run of backticks.
            let run = after.chars().take_while(|&c| c == '`').count();
            rest = &after[run..];
            continue;
        }
        let Some(close) = after.find('`') else { break };
        spans.push(&after[..close]);
        rest = &after[close + 1..];
    }
    spans
}

/// Does this span look like a registry spec (`name(args)` over the
/// whole span, scheme-name charset) as opposed to arbitrary quoted
/// code? Returns the top-level name when it does.
fn spec_shaped(span: &str) -> Option<&str> {
    let open = span.find('(')?;
    if !span.ends_with(')') {
        return None;
    }
    let name = &span[..open];
    let mut chars = name.chars();
    let first = chars.next()?;
    if !first.is_ascii_lowercase() {
        return None;
    }
    if !chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-') {
        return None;
    }
    Some(name)
}

fn check_spec_line(path: &Path, line_no: u32, line: &str, reg: &SchemeRegistry) -> Vec<Finding> {
    let mut out = Vec::new();
    for span in backtick_spans(line) {
        let Some(name) = spec_shaped(span) else {
            continue;
        };
        if !reg.contains(name) {
            continue;
        }
        // Doc grammar templates use `[...]` for optional parts and
        // `…`/`...` or capitalized metavariables for placeholders;
        // strip the optional markers and skip spans that still hold
        // placeholder characters rather than a concrete spec.
        let concrete = span.replace(['[', ']'], "");
        if concrete.contains('…')
            || concrete.contains("...")
            || concrete.chars().any(|c| c.is_ascii_uppercase())
        {
            continue;
        }
        if let Err(e) = reg.validate_spec(&concrete) {
            out.push(finding(
                path,
                line_no,
                "spec-grammar",
                format!("quoted spec `{span}` does not parse: {e}"),
            ));
        }
    }
    out
}

/// Rule 4 (`spec-grammar`), Rust side: backtick-quoted spec strings in
/// doc comments whose top-level name is a registered scheme must parse
/// against the live grammar. Doc comments are found via the token
/// stream, so a spec-shaped string in *code* is never scanned.
pub fn check_spec_strings_rs(file: &SourceFile, reg: &SchemeRegistry) -> Vec<Finding> {
    let mut out = Vec::new();
    for tok in &file.tokens {
        if !tok.kind.is_doc() {
            continue;
        }
        let text = tok.text(&file.content);
        for (off, raw) in text.lines().enumerate() {
            let line = raw
                .trim_start()
                .trim_start_matches("///")
                .trim_start_matches("//!")
                .trim_start_matches("/**")
                .trim_start_matches("/*!")
                .trim_start_matches('*');
            out.extend(check_spec_line(
                &file.path,
                tok.line + off as u32,
                line,
                reg,
            ));
        }
    }
    out
}

/// Rule 4 (`spec-grammar`), markdown side: every line outside fenced
/// code blocks is scanned for spec-shaped backtick spans.
pub fn check_spec_strings_md(path: &Path, content: &str, reg: &SchemeRegistry) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for (idx, raw) in content.lines().enumerate() {
        if raw.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        out.extend(check_spec_line(path, idx as u32 + 1, raw, reg));
    }
    out
}

// ---------------------------------------------------------------------
// R5 · fixed-path
// ---------------------------------------------------------------------

/// Rule 5 (`fixed-path`): no fixed absolute filesystem paths in test
/// string literals — tests derive scratch space at runtime
/// (`ltree::remote::scratch_dir` / `std::env::temp_dir()`) so parallel
/// runs never collide. Token-based: a path in a comment is not a
/// finding.
pub fn check_fixed_paths(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for tok in &file.tokens {
        if !tok.kind.is_string() {
            continue;
        }
        let Some(value) = string_value(tok, &file.content) else {
            continue;
        };
        let fixed = ["/tmp/", "/var/", "/home/"]
            .iter()
            .any(|p| value.starts_with(p))
            || value.starts_with("C:\\");
        if fixed {
            out.push(finding(
                &file.path,
                tok.line,
                "fixed-path",
                format!(
                    "fixed filesystem path `{value}` in a test — derive scratch space \
                     at runtime (`ltree::remote::scratch_dir` or `std::env::temp_dir()`) \
                     so parallel runs cannot collide"
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// R6 · metric-names
// ---------------------------------------------------------------------

const METRIC_PREFIXES: [&str; 5] = ["net/", "wal/", "audit/", "obs/", "seg/"];

/// Canonical form of a series name for the naming-table lookup: format
/// placeholders (`{…}`) and literal digit runs both become `<i>`, so
/// `net/conn{}` in a `format!` and `net/conn0/round-trips` in a test
/// both resolve to the table's `net/conn<i>…` family row.
pub fn normalize_metric_name(name: &str) -> String {
    let mut out = String::new();
    let mut chars = name.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '{' {
            for n in chars.by_ref() {
                if n == '}' {
                    break;
                }
            }
            out.push_str("<i>");
        } else if c.is_ascii_digit() {
            while chars.peek().is_some_and(char::is_ascii_digit) {
                chars.next();
            }
            out.push_str("<i>");
        } else {
            out.push(c);
        }
    }
    out
}

/// Does a documented naming-table entry cover a normalized candidate?
/// `<i>` in the candidate matches any non-`/` run in the entry, and an
/// entry extending past the candidate still counts — prefix literals
/// (`starts_with("net/conn")` filters) are covered by the family rows
/// they select.
pub fn metric_name_matches(entry: &str, candidate: &str) -> bool {
    if let Some(pos) = candidate.find("<i>") {
        let (head, rest) = (&candidate[..pos], &candidate[pos + 3..]);
        let Some(tail) = entry.strip_prefix(head) else {
            return false;
        };
        let limit = tail.find('/').unwrap_or(tail.len());
        (0..=limit).any(|k| metric_name_matches(&tail[k..], rest))
    } else {
        entry.starts_with(candidate)
    }
}

/// The series names `ARCHITECTURE.md` documents: every backtick-quoted
/// span under a policed namespace, wherever it appears in the file (the
/// Observability naming table in practice).
pub fn documented_metric_names(architecture: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in architecture.lines() {
        for span in backtick_spans(line) {
            if METRIC_PREFIXES.iter().any(|p| span.starts_with(p)) {
                out.push(span.to_owned());
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Rule 6 (`metric-names`): every series name a string literal mints
/// under the policed namespaces must appear in the `ARCHITECTURE.md`
/// naming table (`documented`, from [`documented_metric_names`]).
/// Literals that are prose (whitespace or `*`) or bare namespace
/// filters (trailing `/`) are not names and are skipped. Token-based:
/// a series name quoted in a comment is not a finding.
pub fn check_metric_names(file: &SourceFile, documented: &[String]) -> Vec<Finding> {
    let mut out = Vec::new();
    for tok in &file.tokens {
        if !tok.kind.is_string() {
            continue;
        }
        let Some(lit) = string_value(tok, &file.content) else {
            continue;
        };
        if !METRIC_PREFIXES.iter().any(|p| lit.starts_with(p)) {
            continue;
        }
        if lit.ends_with('/') || lit.contains('*') || lit.chars().any(char::is_whitespace) {
            continue;
        }
        let candidate = normalize_metric_name(&lit);
        if !documented
            .iter()
            .any(|d| metric_name_matches(d, &candidate))
        {
            out.push(finding(
                &file.path,
                tok.line,
                "metric-names",
                format!(
                    "series name `{lit}` is not in ARCHITECTURE.md's Observability \
                     naming table — document it (as `{candidate}`) before shipping it"
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// R7 · lock-order
// ---------------------------------------------------------------------

/// One "lock B acquired while A's guard is live" observation.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Identity of the lock whose guard was live.
    pub from: String,
    /// Identity of the lock acquired under it.
    pub to: String,
    /// Where `from`'s guard was bound.
    pub from_site: (PathBuf, u32),
    /// Where `to` was acquired.
    pub to_site: (PathBuf, u32),
}

struct Guard {
    id: String,
    binding: String,
    depth: i32,
    line: u32,
}

/// Extract per-function lock-acquisition-order edges from one file.
///
/// An *acquisition* is a no-argument `.lock()` / `.read()` / `.write()`
/// call (the empty argument list is what separates lock APIs from
/// `io::Read::read(&mut buf)`-style calls). A `let`-bound acquisition
/// keeps its guard live until the enclosing block closes or an explicit
/// `drop(guard)`; while any guard is live, every further acquisition
/// records an edge. Lock identity is the receiver path, with `self.*`
/// receivers qualified by the enclosing `impl` type
/// (`SimDir::state`), so two types' same-named fields do not alias.
pub fn lock_edges(file: &SourceFile) -> Vec<LockEdge> {
    let src = &file.content;
    let mut edges = Vec::new();
    for item in fn_items(file) {
        let toks: Vec<&Token> = file.tokens[item.body.clone()]
            .iter()
            .filter(|t| !t.kind.is_comment())
            .collect();
        let mut guards: Vec<Guard> = Vec::new();
        let mut depth = 0i32;
        let mut j = 0usize;
        while j < toks.len() {
            let text = toks[j].text(src);
            match text {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    guards.retain(|g| g.depth <= depth);
                }
                "drop" if toks.get(j + 1).is_some_and(|t| t.text(src) == "(") => {
                    if let Some(name) = toks.get(j + 2).map(|t| t.text(src)) {
                        guards.retain(|g| g.binding != name);
                    }
                }
                "." => {
                    if let Some((id, line, binding)) =
                        acquisition_at(&toks, j, src, &item.impl_type)
                    {
                        for g in &guards {
                            edges.push(LockEdge {
                                from: g.id.clone(),
                                to: id.clone(),
                                from_site: (file.path.clone(), g.line),
                                to_site: (file.path.clone(), line),
                            });
                        }
                        if let Some(binding) = binding {
                            guards.push(Guard {
                                id,
                                binding,
                                depth,
                                line,
                            });
                        }
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    edges
}

/// Is `toks[j]` (a `.`) the dot of a no-argument lock acquisition?
/// Returns `(lock id, line, let-binding name if bound)`.
fn acquisition_at(
    toks: &[&Token],
    j: usize,
    src: &str,
    impl_type: &Option<String>,
) -> Option<(String, u32, Option<String>)> {
    let m = toks.get(j + 1)?.text(src);
    if !LOCK_METHODS.contains(&m) {
        return None;
    }
    if toks.get(j + 2)?.text(src) != "(" || toks.get(j + 3)?.text(src) != ")" {
        return None;
    }
    // Walk the receiver backwards: idents, `.`, `::` and balanced
    // index brackets.
    let mut parts: Vec<&str> = Vec::new();
    let mut k = j;
    while k > 0 {
        let t = toks[k - 1];
        let text = t.text(src);
        match t.kind {
            TokKind::Ident | TokKind::RawIdent => parts.push(text),
            TokKind::Punct if text == "." || text == ":" => parts.push(text),
            TokKind::Punct if text == "]" => {
                // Skip the whole index expression.
                let mut bal = 1;
                k -= 1;
                while k > 0 && bal > 0 {
                    match toks[k - 1].text(src) {
                        "]" => bal += 1,
                        "[" => bal -= 1,
                        _ => {}
                    }
                    k -= 1;
                }
                continue;
            }
            _ => break,
        }
        k -= 1;
    }
    if parts.is_empty() {
        return None;
    }
    parts.reverse();
    let receiver: String = parts.concat();
    // `self.*` receivers are qualified by the impl type so same-named
    // fields of different types never alias.
    let id = match receiver.strip_prefix("self") {
        Some(rest) => {
            let owner = impl_type.as_deref().unwrap_or("?");
            let rest = rest.trim_start_matches('.');
            if rest.is_empty() {
                format!("{owner}::<self>")
            } else {
                format!("{owner}::{rest}")
            }
        }
        None => receiver,
    };
    // Let-binding: `let [mut] name = <receiver>…`.
    let mut b = k; // index of first receiver token
    let binding = (|| {
        if b == 0 || toks[b - 1].text(src) != "=" {
            return None;
        }
        b -= 1;
        let name = toks.get(b.checked_sub(1)?)?;
        if !matches!(name.kind, TokKind::Ident | TokKind::RawIdent) {
            return None;
        }
        let mut l = b - 1;
        if l > 0 && toks[l - 1].text(src) == "mut" {
            l -= 1;
        }
        if l > 0 && toks[l - 1].text(src) == "let" {
            Some(name.text(src).to_string())
        } else {
            None
        }
    })();
    Some((id, toks[j + 1].line, binding))
}

/// Rule 7 (`lock-order`): cycles in the workspace-wide lock-order
/// graph. Every cycle is reported once, naming each edge's two sites —
/// the static complement to `ltree_checked::interleave`'s dynamic
/// schedule exploration.
pub fn lock_cycle_findings(edges: &[LockEdge]) -> Vec<Finding> {
    // Adjacency, deduplicated to the first-seen site pair per (from, to).
    let mut adj: BTreeMap<&str, Vec<(&str, &LockEdge)>> = BTreeMap::new();
    let mut seen_pair = BTreeSet::new();
    for e in edges {
        if seen_pair.insert((e.from.as_str(), e.to.as_str())) {
            adj.entry(&e.from).or_default().push((&e.to, e));
        }
    }

    let mut out = Vec::new();
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    // DFS with an explicit path; a back edge into the current path is a
    // cycle. The graph has a handful of nodes, so the simple O(V·E)
    // enumeration is fine.
    for &start in adj.keys().collect::<Vec<_>>().iter() {
        let mut path: Vec<(&str, &LockEdge)> = Vec::new();
        dfs(
            start,
            start,
            &adj,
            &mut path,
            &mut BTreeSet::new(),
            &mut |cycle| {
                let mut key: Vec<String> = cycle.iter().map(|(n, _)| n.to_string()).collect();
                key.sort();
                if !reported.insert(key) {
                    return;
                }
                let mut msg = String::from("lock-order cycle: ");
                for (idx, (node, edge)) in cycle.iter().enumerate() {
                    if idx > 0 {
                        msg.push_str("; ");
                    }
                    msg.push_str(&format!(
                        "`{}` then `{}` (guard bound {}:{}, acquired {}:{})",
                        node,
                        edge.to,
                        edge.from_site.0.display(),
                        edge.from_site.1,
                        edge.to_site.0.display(),
                        edge.to_site.1,
                    ));
                }
                let site = cycle[0].1;
                out.push(Finding {
                    path: site.to_site.0.clone(),
                    line: site.to_site.1 as usize,
                    rule: "lock-order",
                    message: msg,
                });
            },
        );
    }
    out
}

fn dfs<'a>(
    start: &'a str,
    node: &'a str,
    adj: &BTreeMap<&'a str, Vec<(&'a str, &'a LockEdge)>>,
    path: &mut Vec<(&'a str, &'a LockEdge)>,
    visited: &mut BTreeSet<&'a str>,
    report: &mut impl FnMut(&[(&'a str, &'a LockEdge)]),
) {
    if !visited.insert(node) {
        return;
    }
    for &(to, edge) in adj.get(node).into_iter().flatten() {
        if to == start {
            path.push((node, edge));
            report(path);
            path.pop();
        } else if !visited.contains(to) {
            path.push((node, edge));
            dfs(start, to, adj, path, visited, report);
            path.pop();
        }
    }
}

// ---------------------------------------------------------------------
// R8 · atomics-audit
// ---------------------------------------------------------------------

const MEMORY_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Rule 8 (`atomics-audit`): every `Ordering::*` use must carry an
/// adjacent why-comment — a non-doc comment on the same line or within
/// the three lines above (doc comments document the API, not the
/// memory-ordering choice, so they do not count). `SeqCst` is
/// deny-by-default: its adjacent comment must carry a `seqcst:` marker
/// justifying why a weaker ordering does not suffice.
pub fn check_atomics(file: &SourceFile) -> Vec<Finding> {
    let src = &file.content;
    // Lines covered by non-doc comments, and their texts for the
    // `seqcst:` marker search.
    let mut comment_lines: BTreeSet<u32> = BTreeSet::new();
    let mut comments: Vec<(u32, u32, &str)> = Vec::new();
    for tok in &file.tokens {
        if !tok.kind.is_comment() || tok.kind.is_doc() {
            continue;
        }
        let text = tok.text(src);
        let last = tok.line + text.matches('\n').count() as u32;
        for l in tok.line..=last {
            comment_lines.insert(l);
        }
        comments.push((tok.line, last, text));
    }

    let code: Vec<&Token> = file.code_tokens().collect();
    let mut out = Vec::new();
    let mut flagged_lines = BTreeSet::new();
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokKind::Ident || !tok.text(src).ends_with("Ordering") {
            continue;
        }
        let Some(name) = code.get(i + 3) else {
            continue;
        };
        if code[i + 1].text(src) != ":" || code[i + 2].text(src) != ":" {
            continue;
        }
        let name_text = name.text(src);
        if !MEMORY_ORDERINGS.contains(&name_text) {
            continue;
        }
        let line = name.line;
        if !flagged_lines.insert(line) {
            continue; // one finding per line (compare_exchange has two)
        }
        let window = line.saturating_sub(3)..=line;
        let commented = comment_lines.iter().any(|l| window.contains(l));
        if name_text == "SeqCst" {
            let justified = comments
                .iter()
                .filter(|(first, last, _)| *last >= *window.start() && *first <= line)
                .any(|(_, _, t)| t.to_ascii_lowercase().contains("seqcst:"));
            if !justified {
                out.push(finding(
                    &file.path,
                    line,
                    "atomics-audit",
                    "`Ordering::SeqCst` is deny-by-default — justify it with an adjacent \
                     `// seqcst: …` comment or use the weakest ordering that works"
                        .to_string(),
                ));
                continue;
            }
        }
        if !commented {
            out.push(finding(
                &file.path,
                line,
                "atomics-audit",
                format!(
                    "`Ordering::{name_text}` without an adjacent why-comment — state why \
                     this ordering suffices (same line or the lines directly above)"
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// R9 · crate-layering
// ---------------------------------------------------------------------

/// Token-index ranges (into `code`) of `#[cfg(test)] mod … { … }`
/// bodies — unit tests inside `src/` files, which Cargo compiles with
/// dev-dependencies in scope.
fn cfg_test_mod_ranges(code: &[&Token], src: &str) -> Vec<std::ops::Range<usize>> {
    let text = |i: usize| code.get(i).map(|t| t.text(src)).unwrap_or("");
    let mut out = Vec::new();
    let mut i = 0;
    while i + 6 < code.len() {
        let is_cfg_test = text(i) == "#"
            && text(i + 1) == "["
            && text(i + 2) == "cfg"
            && text(i + 3) == "("
            && text(i + 4) == "test"
            && text(i + 5) == ")"
            && text(i + 6) == "]";
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let mut j = i + 7;
        // Skip any further attributes between the cfg and the item.
        while text(j) == "#" && text(j + 1) == "[" {
            let mut bal = 0i32;
            j += 1;
            while j < code.len() {
                match text(j) {
                    "[" => bal += 1,
                    "]" => {
                        bal -= 1;
                        if bal == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            j += 1;
        }
        if text(j) == "pub" {
            j += 1;
        }
        if text(j) == "mod" {
            // Find the body braces and mark the whole range.
            while j < code.len() && text(j) != "{" && text(j) != ";" {
                j += 1;
            }
            if text(j) == "{" {
                let start = j;
                let mut depth = 0i32;
                while j < code.len() {
                    match text(j) {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                out.push(start..j + 1);
            }
        }
        i = j.max(i + 1);
    }
    out
}

/// Rule 9 (`crate-layering`): every `Cargo.toml` dependency edge and
/// every `use`/path-qualified cross-crate reference between workspace
/// crates must be permitted by `ARCHITECTURE.md`'s declared crate
/// graph. Dev contexts (`[dev-dependencies]`, files outside the
/// crate's `src/`, and `#[cfg(test)]` modules inside it) additionally
/// get the graph's dev edges.
pub fn check_layering(ws: &Workspace, graph: &CrateGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    let member_names: BTreeSet<&str> = ws.crates.iter().map(|c| c.name.as_str()).collect();

    // Manifest edges.
    for c in &ws.crates {
        let manifest = if c.dir.is_empty() {
            ws.root.join("Cargo.toml")
        } else {
            ws.root.join(&c.dir).join("Cargo.toml")
        };
        if !graph.declares(&c.name) {
            out.push(finding(
                &manifest,
                0,
                "crate-layering",
                format!(
                    "crate `{}` has no row in ARCHITECTURE.md's [xtask:crate-graph] — \
                     declare its place in the layering before adding code to it",
                    c.name
                ),
            ));
            continue;
        }
        for (deps, dev) in [(&c.deps, false), (&c.dev_deps, true)] {
            for dep in deps.iter().filter(|d| member_names.contains(d.as_str())) {
                if !graph.allows(&c.name, dep, dev) {
                    let line = c.dep_lines.get(dep).copied().unwrap_or(0);
                    out.push(finding(
                        &manifest,
                        line as u32,
                        "crate-layering",
                        format!(
                            "`{}` → `{}`{} is not permitted by ARCHITECTURE.md's \
                             [xtask:crate-graph] — either the layering or the graph is wrong",
                            c.name,
                            dep,
                            if dev { " (dev)" } else { "" }
                        ),
                    ));
                }
            }
        }
    }

    // `use` / path-qualified reference edges.
    let ident_to_pkg: BTreeMap<String, &str> = ws
        .crates
        .iter()
        .map(|c| (c.name.replace('-', "_"), c.name.as_str()))
        .collect();
    for file in &ws.files {
        let Some(owner) = file.crate_name.as_deref() else {
            continue;
        };
        let crate_dir = ws
            .crates
            .iter()
            .find(|c| c.name == owner)
            .map(|c| c.dir.as_str())
            .unwrap_or("");
        let src_prefix = if crate_dir.is_empty() {
            "src/".to_string()
        } else {
            format!("{crate_dir}/src/")
        };
        let file_dev = !file.rel.starts_with(&src_prefix);
        let src = &file.content;
        let code: Vec<&Token> = file.code_tokens().collect();
        let test_mods = if file_dev {
            Vec::new()
        } else {
            cfg_test_mod_ranges(&code, src)
        };
        let mut seen_lines = BTreeSet::new();
        for (i, tok) in code.iter().enumerate() {
            if tok.kind != TokKind::Ident {
                continue;
            }
            let dev = file_dev || test_mods.iter().any(|r| r.contains(&i));
            // Only path-qualified references (`pkg::…`) count: a bare
            // ident is a local name, not a crate edge.
            if code.get(i + 1).map(|t| t.text(src)) != Some(":")
                || code.get(i + 2).map(|t| t.text(src)) != Some(":")
            {
                continue;
            }
            // `foo::pkg::…` — only the leading segment names a crate.
            if i >= 2 && code[i - 1].text(src) == ":" && code[i - 2].text(src) == ":" {
                continue;
            }
            let Some(&pkg) = ident_to_pkg.get(tok.text(src)) else {
                continue;
            };
            if pkg == owner || graph.allows(owner, pkg, dev) {
                continue;
            }
            if seen_lines.insert((tok.line, pkg)) {
                out.push(finding(
                    &file.path,
                    tok.line,
                    "crate-layering",
                    format!(
                        "`{owner}` references `{pkg}` but ARCHITECTURE.md's \
                         [xtask:crate-graph] does not permit that edge{}",
                        if dev { " (dev context)" } else { "" }
                    ),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// R10 · wire-tags
// ---------------------------------------------------------------------

/// The `(variant, tag, line)` pairs extracted from `wire.rs`'s encode
/// (`put_error`) and decode (`decode_error`) paths.
#[derive(Debug, Default)]
pub struct WireTagPairs {
    /// From `put_error`: variant → (tag, line).
    pub encode: Vec<(String, u8, u32)>,
    /// From `decode_error`: tag → (variant, line).
    pub decode: Vec<(u8, String, u32)>,
}

/// Extract the wire-tag pairs from a lexed `wire.rs`. Returns `None`
/// when either function is missing (the caller reports that as its own
/// finding).
pub fn wire_tag_pairs(file: &SourceFile) -> Option<WireTagPairs> {
    let src = &file.content;
    let items = fn_items(file);
    let body_tokens = |name: &str| -> Option<Vec<&Token>> {
        let item = items.iter().find(|i| i.name == name)?;
        Some(
            file.tokens[item.body.clone()]
                .iter()
                .filter(|t| !t.kind.is_comment())
                .collect(),
        )
    };
    let enc = body_tokens("put_error")?;
    let dec = body_tokens("decode_error")?;
    let mut pairs = WireTagPairs::default();

    // Encode: a `LTreeError::Variant` match arm followed (before the
    // next variant) by its first `put_u8(_, N)` literal.
    let mut current: Option<(String, u32)> = None;
    let mut i = 0;
    while i < enc.len() {
        let t = enc[i].text(src);
        if t == "LTreeError"
            && enc.get(i + 1).map(|t| t.text(src)) == Some(":")
            && enc.get(i + 2).map(|t| t.text(src)) == Some(":")
        {
            if let Some(v) = enc.get(i + 3) {
                current = Some((v.text(src).to_string(), v.line));
                i += 4;
                continue;
            }
        }
        if t == "put_u8" {
            // `put_u8(b, N)` — second argument must be a numeric
            // literal to count as the tag byte.
            if enc.get(i + 1).map(|t| t.text(src)) == Some("(")
                && enc.get(i + 3).map(|t| t.text(src)) == Some(",")
                && enc.get(i + 4).map(|t| t.kind) == Some(TokKind::Num)
            {
                if let Some((variant, line)) = current.take() {
                    if let Ok(tag) = enc[i + 4].text(src).parse::<u8>() {
                        pairs.encode.push((variant, tag, line));
                    }
                }
            }
        }
        i += 1;
    }

    // Decode: `N => LTreeError::Variant` match arms.
    for i in 0..dec.len() {
        if dec[i].kind != TokKind::Num {
            continue;
        }
        if dec.get(i + 1).map(|t| t.text(src)) != Some("=")
            || dec.get(i + 2).map(|t| t.text(src)) != Some(">")
        {
            continue;
        }
        if dec.get(i + 3).map(|t| t.text(src)) != Some("LTreeError")
            || dec.get(i + 4).map(|t| t.text(src)) != Some(":")
            || dec.get(i + 5).map(|t| t.text(src)) != Some(":")
        {
            continue;
        }
        let (Ok(tag), Some(v)) = (dec[i].text(src).parse::<u8>(), dec.get(i + 6)) else {
            continue;
        };
        pairs.decode.push((tag, v.text(src).to_string(), v.line));
    }
    Some(pairs)
}

/// Extract the variant names of `pub enum LTreeError` from a lexed
/// `error.rs` (idents at brace depth 1, paren depth 0, attributes
/// skipped).
pub fn error_enum_variants(file: &SourceFile) -> Vec<String> {
    let src = &file.content;
    let code: Vec<&Token> = file.code_tokens().collect();
    let mut start = None;
    for i in 0..code.len() {
        if code[i].text(src) == "enum" && code.get(i + 1).map(|t| t.text(src)) == Some("LTreeError")
        {
            start = Some(i + 2);
            break;
        }
    }
    let Some(mut i) = start else {
        return Vec::new();
    };
    // Skip to the opening brace.
    while i < code.len() && code[i].text(src) != "{" {
        i += 1;
    }
    let mut variants = Vec::new();
    let mut brace = 0i32;
    let mut paren = 0i32;
    while i < code.len() {
        let t = code[i].text(src);
        match t {
            "{" => brace += 1,
            "}" => {
                brace -= 1;
                if brace == 0 {
                    break;
                }
            }
            "(" => paren += 1,
            ")" => paren -= 1,
            "#" if code.get(i + 1).map(|t| t.text(src)) == Some("[") => {
                // Skip the attribute.
                let mut bal = 0i32;
                i += 1;
                while i < code.len() {
                    match code[i].text(src) {
                        "[" => bal += 1,
                        "]" => {
                            bal -= 1;
                            if bal == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            _ => {
                if brace == 1
                    && paren == 0
                    && code[i].kind == TokKind::Ident
                    && code
                        .get(i + 1)
                        .map(|t| matches!(t.text(src), "," | "{" | "(" | "}" | "="))
                        .unwrap_or(false)
                {
                    variants.push(t.to_string());
                }
            }
        }
        i += 1;
    }
    variants
}

/// Rule 10 (`wire-tags`): the `LTreeError`-variant ↔ wire-tag mapping
/// must be unique, must agree between the encode and decode paths, must
/// cover every enum variant (minus the documented canonicalized set),
/// and must match `ARCHITECTURE.md`'s `[xtask:wire-error-tags]` table.
pub fn check_wire_tags(
    wire: &SourceFile,
    error_enum: Option<&SourceFile>,
    table: &WireTagTable,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some(pairs) = wire_tag_pairs(wire) else {
        out.push(finding(
            &wire.path,
            0,
            "wire-tags",
            "could not locate `put_error` / `decode_error` — the wire-tag rule has \
             lost its anchor; update rules.rs alongside the codec refactor"
                .to_string(),
        ));
        return out;
    };

    let mut enc_by_tag: BTreeMap<u8, &str> = BTreeMap::new();
    let mut enc_by_variant: BTreeMap<&str, u8> = BTreeMap::new();
    for (v, t, line) in &pairs.encode {
        if let Some(prev) = enc_by_tag.insert(*t, v) {
            out.push(finding(
                &wire.path,
                *line,
                "wire-tags",
                format!("encode assigns tag {t} to both `{prev}` and `{v}`"),
            ));
        }
        if enc_by_variant.insert(v, *t).is_some() {
            out.push(finding(
                &wire.path,
                *line,
                "wire-tags",
                format!("encode assigns `{v}` more than one tag"),
            ));
        }
    }
    let mut dec_by_tag: BTreeMap<u8, &str> = BTreeMap::new();
    for (t, v, line) in &pairs.decode {
        if dec_by_tag.insert(*t, v).is_some() {
            out.push(finding(
                &wire.path,
                *line,
                "wire-tags",
                format!("decode matches tag {t} twice"),
            ));
        }
    }

    // Encode ↔ decode agreement, both directions.
    for (v, t, line) in &pairs.encode {
        match dec_by_tag.get(t) {
            Some(dv) if *dv == v => {}
            Some(dv) => out.push(finding(
                &wire.path,
                *line,
                "wire-tags",
                format!("tag {t} encodes `{v}` but decodes `{dv}`"),
            )),
            None => out.push(finding(
                &wire.path,
                *line,
                "wire-tags",
                format!("tag {t} (`{v}`) is encoded but never decoded"),
            )),
        }
    }
    for (t, v, line) in &pairs.decode {
        if !enc_by_tag.contains_key(t) {
            out.push(finding(
                &wire.path,
                *line,
                "wire-tags",
                format!("tag {t} (`{v}`) is decoded but never encoded"),
            ));
        }
    }

    // Agreement with the architecture table.
    for (t, v) in &table.tags {
        match enc_by_tag.get(t) {
            Some(ev) if *ev == v => {}
            Some(ev) => out.push(finding(
                &wire.path,
                0,
                "wire-tags",
                format!("ARCHITECTURE.md documents tag {t} as `{v}` but wire.rs encodes `{ev}`"),
            )),
            None => out.push(finding(
                &wire.path,
                0,
                "wire-tags",
                format!("ARCHITECTURE.md documents tag {t} (`{v}`) but wire.rs never encodes it"),
            )),
        }
    }
    for (v, t, _) in &pairs.encode {
        if table.tags.get(t).map(String::as_str) != Some(v.as_str())
            && !table.tags.values().any(|tv| tv == v)
        {
            out.push(finding(
                &wire.path,
                0,
                "wire-tags",
                format!(
                    "wire.rs encodes `{v}` (tag {t}) but ARCHITECTURE.md's \
                     [xtask:wire-error-tags] does not document it"
                ),
            ));
        }
    }

    // Exhaustiveness against the enum itself.
    if let Some(e) = error_enum {
        for v in error_enum_variants(e) {
            let tagged = enc_by_variant.contains_key(v.as_str());
            let canonicalized = table.canonicalized.contains(&v);
            if !tagged && !canonicalized {
                out.push(finding(
                    &wire.path,
                    0,
                    "wire-tags",
                    format!(
                        "`LTreeError::{v}` has no wire tag and is not in the documented \
                         canonicalized set — it cannot travel the wire losslessly"
                    ),
                ));
            }
            if tagged && canonicalized {
                out.push(finding(
                    &wire.path,
                    0,
                    "wire-tags",
                    format!(
                        "`LTreeError::{v}` is both tagged and documented as canonicalized — \
                         pick one"
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn file(content: &str) -> SourceFile {
        SourceFile {
            path: PathBuf::from("mem.rs"),
            rel: "mem.rs".into(),
            crate_name: None,
            in_tests: true,
            content: content.to_string(),
            tokens: lex(content),
        }
    }

    #[test]
    fn backtick_spans_are_extracted() {
        assert_eq!(
            backtick_spans("use `ltree(4,2)` or `gap` here"),
            vec!["ltree(4,2)", "gap"]
        );
        assert_eq!(backtick_spans("``` fenced"), Vec::<&str>::new());
    }

    #[test]
    fn metric_names_normalize_and_match_family_rows() {
        assert_eq!(normalize_metric_name("net/conn{}"), "net/conn<i>");
        assert_eq!(
            normalize_metric_name("net/conn17/round-trips"),
            "net/conn<i>/round-trips"
        );
        assert_eq!(normalize_metric_name("net/requests"), "net/requests");

        let row = "net/conn<i>/round-trips";
        assert!(metric_name_matches(row, "net/conn<i>/round-trips"));
        assert!(metric_name_matches(row, "net/conn<i>"));
        assert!(metric_name_matches(row, "net/conn"), "prefix filters");
        assert!(metric_name_matches("net/phase/decode", "net/phase/<i>"));
        assert!(!metric_name_matches("net/requests", "net/round-trips"));
    }

    #[test]
    fn spec_shapes_are_recognized() {
        assert_eq!(spec_shaped("ltree(4,2)"), Some("ltree"));
        assert_eq!(spec_shaped("list-label(32)"), Some("list-label"));
        assert_eq!(spec_shaped("sharded(2,checked(gap))"), Some("sharded"));
        assert_eq!(spec_shaped("Params::new(4, 2)"), None);
        assert_eq!(spec_shaped("insert_after(anchor)"), None);
        assert_eq!(spec_shaped("gap"), None);
    }

    #[test]
    fn lock_edges_track_guards_scopes_and_drops() {
        let f = file(
            "fn two(a: &M, b: &M) {\n\
             let ga = a.lock();\n\
             let gb = b.lock();\n\
             drop(gb);\n\
             }\n\
             fn scoped(a: &M, c: &M) {\n\
             { let ga = a.lock(); }\n\
             let gc = c.lock();\n\
             }\n",
        );
        let edges = lock_edges(&f);
        let pairs: Vec<(String, String)> = edges
            .iter()
            .map(|e| (e.from.clone(), e.to.clone()))
            .collect();
        assert_eq!(pairs, vec![("a".to_string(), "b".to_string())]);
        assert_eq!(edges[0].from_site.1, 2);
        assert_eq!(edges[0].to_site.1, 3);
    }

    #[test]
    fn self_receivers_are_qualified_by_impl_type() {
        let f = file(
            "impl Server {\n\
             fn go(&self) { let g = self.state.lock(); let h = self.slots[0].lock(); }\n\
             }\n",
        );
        let edges = lock_edges(&f);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].from, "Server::state");
        assert_eq!(edges[0].to, "Server::slots");
    }

    #[test]
    fn io_read_calls_are_not_acquisitions() {
        let f =
            file("fn go(s: &mut TcpStream, buf: &mut [u8]) { let g = m.lock(); s.read(buf); }\n");
        assert!(lock_edges(&f).is_empty(), "read(buf) takes an argument");
    }

    #[test]
    fn lock_cycles_are_reported_once_with_both_sites() {
        let f = file(
            "fn ab(a: &M, b: &M) { let ga = a.lock(); let gb = b.lock(); }\n\
             fn ba(a: &M, b: &M) { let gb = b.lock(); let ga = a.lock(); }\n",
        );
        let findings = lock_cycle_findings(&lock_edges(&f));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "lock-order");
        assert!(findings[0].message.contains("`a` then `b`"));
        assert!(findings[0].message.contains("`b` then `a`"));
    }

    #[test]
    fn atomics_need_nearby_nondoc_comments() {
        let bare = file("fn f(x: &AtomicU64) { x.load(Ordering::Relaxed); }\n");
        assert_eq!(check_atomics(&bare).len(), 1);

        let commented =
            file("fn f(x: &AtomicU64) {\n// counter, no ordering needed\nx.load(Ordering::Relaxed);\n}\n");
        assert!(check_atomics(&commented).is_empty());

        let doc_only =
            file("/// Relaxed is fine here.\nfn f(x: &AtomicU64) { x.load(Ordering::Relaxed); }\n");
        assert_eq!(
            check_atomics(&doc_only).len(),
            1,
            "doc comments do not count"
        );

        let cmp = file("fn f() { if a.cmp(&b) == std::cmp::Ordering::Less {} }\n");
        assert!(
            check_atomics(&cmp).is_empty(),
            "cmp::Ordering is not a memory order"
        );
    }

    #[test]
    fn seqcst_requires_a_marker_justification() {
        let plain =
            file("fn f(x: &AtomicU64) {\n// total order needed\nx.load(Ordering::SeqCst);\n}\n");
        let found = check_atomics(&plain);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("deny-by-default"));

        let justified = file(
            "fn f(x: &AtomicU64) {\n// seqcst: single total order across both flags\nx.load(Ordering::SeqCst);\n}\n",
        );
        assert!(check_atomics(&justified).is_empty());
    }

    #[test]
    fn wire_pairs_extract_encode_and_decode() {
        let f = file(
            "fn put_error(b: &mut Vec<u8>, e: &LTreeError) {\n\
             match e {\n\
             LTreeError::UnknownHandle { handle } => { put_u8(b, 0); put_u64(b, *handle); }\n\
             LTreeError::LabelOverflow { height } => { put_u8(b, 5); put_u8(b, *height as u8); }\n\
             }\n\
             }\n\
             fn decode_error(buf: &[u8]) -> LTreeError {\n\
             match tag {\n\
             0 => LTreeError::UnknownHandle { handle },\n\
             5 => LTreeError::LabelOverflow { height },\n\
             _ => unreachable!(),\n\
             }\n\
             }\n",
        );
        let pairs = wire_tag_pairs(&f).unwrap();
        assert_eq!(
            pairs
                .encode
                .iter()
                .map(|(v, t, _)| (v.as_str(), *t))
                .collect::<Vec<_>>(),
            vec![("UnknownHandle", 0), ("LabelOverflow", 5)],
            "only the first numeric put_u8 after each variant counts"
        );
        assert_eq!(
            pairs
                .decode
                .iter()
                .map(|(t, v, _)| (*t, v.as_str()))
                .collect::<Vec<_>>(),
            vec![(0, "UnknownHandle"), (5, "LabelOverflow")]
        );
    }

    #[test]
    fn error_enum_variants_skip_fields_and_attrs() {
        let f = file(
            "/// Errors.\n\
             #[derive(Debug)]\n\
             pub enum LTreeError {\n\
             #[allow(dead_code)]\n\
             UnknownHandle { handle: u64 },\n\
             EmptyTree,\n\
             Remote { message: String },\n\
             }\n",
        );
        assert_eq!(
            error_enum_variants(&f),
            vec!["UnknownHandle", "EmptyTree", "Remote"]
        );
    }
}
