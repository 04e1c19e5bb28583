//! Panic-surface checks for the engine crates.
//!
//! * **`no-unwrap`** (legacy, PR 1): the unwrap family is banned in
//!   non-test code of `crates/mapreduce` and `crates/core`. Engine code
//!   routes fallible paths through `skymr_common::error` and states real
//!   invariants with `assert!`/`unreachable!`. On the token backend the
//!   rule matches `.unwrap(` / `.expect(` / `.unwrap_err(` /
//!   `.expect_err(` / `.unwrap_unchecked(` as method-call tokens, so
//!   comments, strings, and test regions can never confuse it.
//! * **`panic-reachability`** (new): in functions reachable from a UDF
//!   entry point (mapper/reducer/factory impls, `run_job`)
//!   through the resolved workspace call graph, flag the other panic edges the
//!   unwrap ban does not cover — indexing/slicing with a *computed*
//!   index and division/remainder by a runtime value. A shuffle panic
//!   takes down a simulated task mid-job, which the failure machinery
//!   then replays — so a data-dependent panic turns into a livelock of
//!   retries; these sites must either be restructured or carry a waiver
//!   stating the invariant that rules the panic out.
//!
//! The indexing heuristic is deliberately narrow to keep the
//! signal/noise ratio useful: plain `v[i]` / `v[0]` / `v[..]` are *not*
//! flagged (the surrounding code almost always just produced `i` from
//! `len()`); an index expression is flagged only when it contains binary
//! arithmetic (`i + 1`), a call (`v[f(x)]`), or a two-ended range slice
//! (`v[a..b]`). Division is flagged only for an identifier divisor —
//! literal divisors cannot be zero.

use super::resolve::{is_harness_path, Workspace};
use super::{in_engine_crates, AnalyzedFile, Diagnostic};
use crate::lexer::TokenKind;

const UNWRAP_FAMILY: &[&str] = &[
    "unwrap",
    "expect",
    "unwrap_err",
    "expect_err",
    "unwrap_unchecked",
];

const UNWRAP_HELP: &str = "engine code must route errors through skymr_common::error \
                           (or state the invariant with assert!/unreachable!)";

/// The `no-unwrap` rule over one file.
pub fn check_unwrap_family(f: &AnalyzedFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !in_engine_crates(&f.path) {
        return out;
    }
    for i in 0..f.sig.len() {
        let Some(t) = f.sig_tok(i) else { continue };
        if t.kind != TokenKind::Ident || !UNWRAP_FAMILY.contains(&t.text(&f.src)) {
            continue;
        }
        // A method call: `.name(`.
        if i == 0 || f.sig_text(i - 1) != "." || f.sig_text(i + 1) != "(" {
            continue;
        }
        if f.model.in_test_region(t.start) {
            continue;
        }
        out.push(Diagnostic {
            file: f.path.clone(),
            line: t.line,
            rule: "no-unwrap",
            rank: 0,
            message: format!("`.{}()` — {UNWRAP_HELP}", t.text(&f.src)),
        });
    }
    out
}

/// The `panic-reachability` pass over the whole workspace.
///
/// Roots are engine-crate UDF impls and the job drivers; reachability
/// then follows the resolved graph wherever it leads — including into
/// `skymr_common` helpers the engine calls through `use` imports, which
/// the old intra-crate name graph could not see. Harness files (tests,
/// benches, examples) are never scanned: a panic there fails a test run,
/// not a simulated job.
pub fn check_reachability(ws: &Workspace<'_>) -> Vec<Diagnostic> {
    // Roots: UDF trait impls and the job drivers, in engine crates.
    let mut reachable = vec![false; ws.nodes.len()];
    let mut work: Vec<usize> = Vec::new();
    for (id, seed) in reachable.iter_mut().enumerate() {
        let g = ws.fn_info(id);
        if g.is_test || g.body.is_none() || !in_engine_crates(&ws.file_of(id).path) {
            continue;
        }
        if ws.is_udf_impl(id) || g.name == "run_job" {
            *seed = true;
            work.push(id);
        }
    }
    // BFS over the resolved call graph (macro "calls" produce no edges,
    // so `assert!` can never match a fn named `assert`).
    while let Some(id) = work.pop() {
        for &(_, t) in ws.callees(id) {
            let g = ws.fn_info(t);
            if g.is_test || g.body.is_none() {
                continue;
            }
            if !reachable[t] {
                reachable[t] = true;
                work.push(t);
            }
        }
    }

    let mut out = Vec::new();
    for (id, &hit) in reachable.iter().enumerate() {
        if !hit {
            continue;
        }
        let f = ws.file_of(id);
        if is_harness_path(&f.path) {
            continue;
        }
        let g = ws.fn_info(id);
        let Some(body) = g.body else { continue };
        let (start, end) = f.sig_range(body);
        scan_body(f, start, end, &mut out);
    }
    out
}

/// Scans one reachable fn body (significant range `[start, end)`).
fn scan_body(f: &AnalyzedFile, start: usize, end: usize, out: &mut Vec<Diagnostic>) {
    let mut i = start;
    while i < end {
        let txt = f.sig_text(i);
        // Postfix indexing: `expr[...]` — previous token ends an expression.
        if txt == "[" && i > start {
            let prev = f.sig_tok(i - 1).expect("in range");
            let postfix = matches!(prev.kind, TokenKind::Ident | TokenKind::RawIdent)
                && !is_keyword_before_bracket(prev.text(&f.src))
                || matches!(prev.text(&f.src), ")" | "]");
            if postfix {
                let close = f.sig_balanced_end(i, "[", "]");
                if let Some(why) = suspicious_index(f, i + 1, close.saturating_sub(1)) {
                    out.push(Diagnostic {
                        file: f.path.clone(),
                        line: f.sig_tok(i).map_or(0, |t| t.line),
                        rule: "panic-reachability",
                        rank: 0,
                        message: format!(
                            "{why} in a UDF-reachable hot path can panic and livelock \
                             failure replay; use checked access or waive with the \
                             bounds invariant"
                        ),
                    });
                }
                i = close;
                continue;
            }
        }
        // Division/remainder by an identifier. Float division saturates
        // to ±inf/NaN instead of panicking, so statements whose operands
        // are visibly floats (`as f64` casts, float literals) are exempt.
        if (txt == "/" || txt == "%")
            && is_binary_position(f, i, start)
            && !float_context(f, i)
            && f.sig_kind(i + 1) == Some(TokenKind::Ident)
            && !is_const_name(f.sig_text(i + 1))
        {
            out.push(Diagnostic {
                file: f.path.clone(),
                line: f.sig_tok(i).map_or(0, |t| t.line),
                rule: "panic-reachability",
                rank: 0,
                message: format!(
                    "`{txt} {}` — division/remainder by a runtime value in a \
                     UDF-reachable hot path panics on zero; guard it or waive \
                     with the nonzero invariant",
                    f.sig_text(i + 1)
                ),
            });
        }
        i += 1;
    }
}

/// `true` when the statement around the operator at `i` visibly works in
/// floats — an `f64`/`f32` token (cast or path) or a float literal within
/// the same `;`/`{`/`}`-delimited span. Integer division in a statement
/// that merely *also* mentions floats slips through; the cost of that
/// false negative is far below the noise of flagging every simulated-time
/// formula in the cluster model.
fn float_context(f: &AnalyzedFile, i: usize) -> bool {
    let boundary = |t: &str| matches!(t, ";" | "{" | "}");
    let is_floaty = |j: usize| match f.sig_kind(j) {
        Some(TokenKind::Ident) => matches!(f.sig_text(j), "f64" | "f32"),
        Some(TokenKind::Num) => {
            let t = f.sig_text(j);
            t.contains('.') || t.ends_with("f64") || t.ends_with("f32")
        }
        _ => false,
    };
    // Backward then forward, bounded so pathological token runs stay cheap.
    for j in (i.saturating_sub(40)..i).rev() {
        if boundary(f.sig_text(j)) {
            break;
        }
        if is_floaty(j) {
            return true;
        }
    }
    for j in (i + 1)..(i + 40).min(f.sig.len()) {
        if boundary(f.sig_text(j)) {
            break;
        }
        if is_floaty(j) {
            return true;
        }
    }
    false
}

/// `true` for SCREAMING_SNAKE_CASE idents — `const` items by workspace
/// convention. A compile-time-constant divisor (`% WORD_BITS`,
/// `/ BYTES_PER_TICK`) cannot be a runtime zero, so dividing by one is
/// as safe as a literal divisor.
fn is_const_name(name: &str) -> bool {
    name.len() > 1
        && name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        && name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Keywords that may directly precede `[` without forming an index
/// expression (`let [a, b] = pair;`, `return [x];`, …).
fn is_keyword_before_bracket(t: &str) -> bool {
    matches!(
        t,
        "let" | "return" | "in" | "mut" | "ref" | "move" | "else" | "match" | "break" | "yield"
    )
}

/// `true` when the punct at `i` sits in binary-operator position (the
/// previous token ends an operand), distinguishing `a * b` from `*ptr`
/// and `n - 1` from `-1`.
fn is_binary_position(f: &AnalyzedFile, i: usize, start: usize) -> bool {
    if i == start {
        return false;
    }
    match f.sig_kind(i - 1) {
        Some(TokenKind::Ident | TokenKind::RawIdent | TokenKind::Num) => true,
        Some(TokenKind::Punct) => matches!(f.sig_text(i - 1), ")" | "]"),
        _ => false,
    }
}

/// Is the index expression in significant range `[start, end)` suspicious?
/// Returns a description of why, or `None` for the benign shapes.
fn suspicious_index(f: &AnalyzedFile, start: usize, end: usize) -> Option<String> {
    if start >= end {
        return None; // `v[]` — not our problem
    }
    let mut depth = 0i64;
    for i in start..end {
        let txt = f.sig_text(i);
        match txt {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            _ => {}
        }
        if depth > 0 {
            continue; // nested groups judged by their outer shape only
        }
        // Binary arithmetic inside the index.
        if matches!(txt, "+" | "-" | "*" | "/" | "%") && is_binary_position(f, i, start) {
            return Some(format!("index arithmetic (`… {txt} …`)"));
        }
        // A call computing the index.
        if matches!(f.sig_kind(i), Some(TokenKind::Ident | TokenKind::RawIdent))
            && f.sig_text(i + 1) == "("
            && i + 1 < end
        {
            return Some(format!("computed index (`{}(…)`)", f.sig_text(i)));
        }
        // A two-ended range slice `a..b` (or `a..=b`).
        if txt == "." && f.sig_text(i + 1) == "." && i > start {
            let after = if f.sig_text(i + 2) == "=" {
                i + 3
            } else {
                i + 2
            };
            if after < end {
                return Some("two-ended range slice (`…[a..b]`)".to_owned());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::super::{apply_waivers, collect_waivers, raw_diagnostics, AnalyzedFile, Mode};

    const ENGINE: &str = "crates/mapreduce/src/job.rs";
    const CORE: &str = "crates/core/src/gpsrs.rs";
    const OTHER: &str = "crates/datagen/src/lib.rs";

    fn run(mode: Mode, path: &str, src: &str) -> Vec<super::super::Diagnostic> {
        let f = AnalyzedFile::build(path, src);
        let waivers = collect_waivers(&f);
        let files = [f];
        let raw = raw_diagnostics(&files, mode);
        apply_waivers(raw, &waivers).0
    }

    fn lint(path: &str, src: &str) -> Vec<super::super::Diagnostic> {
        run(Mode::Lint, path, src)
    }

    fn analyze(path: &str, src: &str) -> Vec<super::super::Diagnostic> {
        run(Mode::Analyze, path, src)
    }

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        lint(path, src).into_iter().map(|d| d.rule).collect()
    }

    // ------------------------------------------------------------------
    // no-unwrap (ported PR-1 fixtures).
    // ------------------------------------------------------------------

    #[test]
    fn flags_unwrap_and_expect_in_engine_code() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        let diags = lint(ENGINE, src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "no-unwrap");
        assert_eq!(diags[0].line, 2);
        let src = "fn f(x: Option<u8>) -> u8 { x.expect(\"msg\") }\n";
        assert_eq!(rules_hit(CORE, src), ["no-unwrap"]);
    }

    #[test]
    fn unwrap_family_extends_beyond_the_substring_rule() {
        let src = "fn f(x: Result<u8, u8>) -> u8 { x.unwrap_err() }\n";
        assert_eq!(rules_hit(ENGINE, src), ["no-unwrap"]);
        // …but an ident that merely contains the word is not a call.
        assert!(lint(ENGINE, "fn f(unwrap: u8) -> u8 { unwrap }\n").is_empty());
    }

    #[test]
    fn unwrap_is_allowed_outside_engine_crates_and_in_tests() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(lint(OTHER, src).is_empty());
        assert!(lint("crates/mapreduce/tests/e2e.rs", src).is_empty());
        let src = "\
fn prod() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1).unwrap();
    }
}
";
        assert!(lint(ENGINE, src).is_empty());
    }

    #[test]
    fn test_region_tracking_resumes_after_the_block() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t() { Some(1).unwrap(); }
}
fn prod(x: Option<u8>) -> u8 { x.unwrap() }
";
        let diags = lint(ENGINE, src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 5);
    }

    #[test]
    fn code_after_a_closed_block_comment_still_flags() {
        let src = "fn f() { let x = /* ok */ y.unwrap(); }\n";
        assert_eq!(rules_hit(ENGINE, src), ["no-unwrap"]);
    }

    #[test]
    fn multiline_string_contents_are_ignored() {
        let src =
            "fn f() {\nlet s = \"first line\nstill a string .unwrap()\nend\";\nlet z = q.unwrap();\n}\n";
        let diags = lint(ENGINE, src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 5);
    }

    #[test]
    fn waiver_comment_suppresses_only_the_named_rule() {
        let src = "fn f() { let x = y.unwrap(); } // xtask: allow(no-unwrap)\n";
        assert!(lint(ENGINE, src).is_empty());
        let src = "fn f() { let x = y.unwrap(); } // xtask: allow(seeded-rng)\n";
        assert_eq!(rules_hit(ENGINE, src), ["no-unwrap"]);
    }

    // ------------------------------------------------------------------
    // panic-reachability.
    // ------------------------------------------------------------------

    /// A UDF impl whose helper (reached through the call graph) carries
    /// the given body line.
    fn reachable_fixture(stmt: &str) -> String {
        format!(
            "\
struct M;
impl MapTask for M {{
    fn map(&mut self, v: &[u64]) {{
        self.helper(v);
    }}
}}
impl M {{
    fn helper(&self, v: &[u64]) {{
        {stmt}
    }}
}}
"
        )
    }

    #[test]
    fn flags_index_arithmetic_in_reachable_helper_with_file_and_line() {
        let src = reachable_fixture("let x = v[self.cursor + 1];");
        let diags = analyze(ENGINE, &src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "panic-reachability");
        assert_eq!(diags[0].file, ENGINE);
        assert_eq!(diags[0].line, 9, "the helper body line");
    }

    #[test]
    fn flags_computed_index_division_and_two_ended_slices() {
        for stmt in [
            "let x = v[self.pick(v)];",
            "let s = &v[lo..hi];",
            "let q = v.len() % parts;",
        ] {
            let src = reachable_fixture(stmt);
            let diags = analyze(ENGINE, &src);
            assert_eq!(diags.len(), 1, "{stmt} → {diags:?}");
            assert_eq!(diags[0].rule, "panic-reachability");
        }
    }

    #[test]
    fn benign_shapes_and_unreachable_fns_are_clean() {
        // Plain indexing, literal divisors, open-ended slices: no flag.
        for stmt in [
            "let x = v[0];",
            "let x = v[i];",
            "let h = v.len() / 2;",
            "let s = &v[..];",
            "let s = &v[1..];",
            "let neg = -1i64; let p = *ptr;",
            // Const divisors (SCREAMING_CASE) cannot be a runtime zero.
            "let w = v.len() % WORD_BITS;",
            "let b = total / BYTES_PER_TICK;",
            // Float division saturates instead of panicking.
            "let t = v.len() as f64 / rate;",
            "let u = total / count as f64;",
            "let w = 1.0 / weight;",
        ] {
            let src = reachable_fixture(stmt);
            assert!(analyze(ENGINE, &src).is_empty(), "{stmt}");
        }
        // The same arithmetic index in a fn nothing reaches: no flag.
        let src = "fn orphan(v: &[u64], i: usize) -> u64 { v[i + 1] }\n";
        assert!(analyze(ENGINE, src).is_empty());
        // …and in a non-engine crate, even when reachable-shaped: no flag.
        let src = reachable_fixture("let x = v[i + 1];");
        assert!(analyze(OTHER, &src).is_empty());
    }

    #[test]
    fn reachability_waiver_suppresses_the_diagnostic() {
        let src =
            reachable_fixture("let x = v[self.cursor + 1]; // xtask: allow(panic-reachability)");
        assert!(analyze(ENGINE, &src).is_empty());
        // Lint mode never runs the reachability pass at all.
        let src = reachable_fixture("let x = v[self.cursor + 1];");
        assert!(lint(ENGINE, &src).is_empty());
    }

    /// The fault layer's seeded-derivation waiver shape: a modulo by an
    /// identifier that the surrounding code clamps to nonzero, waived with
    /// a trailing `— justification` after the rule name. Pins both that
    /// the justification text doesn't break waiver parsing and that the
    /// waiver stays scoped to the named rule.
    #[test]
    fn modulo_waiver_with_justification_text_is_honoured() {
        let stmt = "let d = draw % span; // xtask: allow(panic-reachability) — span is clamped to >= 1 above";
        assert!(analyze(ENGINE, &reachable_fixture(stmt)).is_empty());
        // Without the waiver the same shape still flags…
        let diags = analyze(ENGINE, &reachable_fixture("let d = draw % span;"));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "panic-reachability");
        // …and a justified waiver for a *different* rule does not leak.
        let stmt = "let d = draw % span; // xtask: allow(no-unwrap) — wrong rule";
        let diags = analyze(ENGINE, &reachable_fixture(stmt));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "panic-reachability");
    }
}
