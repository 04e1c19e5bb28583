//! The token-aware static analysis framework behind `cargo xtask analyze`
//! (and the legacy-rule subset behind `cargo xtask lint`).
//!
//! Architecture: every workspace `.rs` file is lexed once
//! ([`crate::lexer`]) and parsed once ([`crate::parse`]) into an
//! [`AnalyzedFile`]; rule passes then run over those shared artifacts:
//!
//! * [`rules`] — three of PR 1's four line-based rules (`seeded-rng`,
//!   `no-std-mutex`, `no-thread-spawn`), re-expressed on the token
//!   backend. The fourth, `no-unwrap`, lives in [`panics`] beside the
//!   reachability checks that supersede its substring implementation.
//! * [`udf`] — `udf-determinism`: purity checks inside mapper/reducer/
//!   factory bodies.
//! * [`panics`] — `no-unwrap` (crate-wide unwrap-family ban in engine
//!   code) and `panic-reachability` (suspicious indexing/slicing and
//!   division in functions reachable from UDF entry points via the
//!   intra-crate call graph).
//! * [`rng`] — `seeded-rng-dataflow`: every RNG construction must trace
//!   to an explicit seed root (a literal seed or a `seed`/`*_seed`
//!   parameter plumbed down the call graph).
//! * [`perf`] — `hot-path-alloc` (`cargo xtask perf`): allocation, clone,
//!   unsized-push, and hash-map findings in fns reachable from the hot
//!   entry registry, ranked by effective loop depth.
//! * [`locks`] — `lock-discipline` (`cargo xtask perf`): parking_lot
//!   guards held across pool dispatch, channel ops, or other lock
//!   acquisitions, plus lock-order cycle detection.
//! * [`flow`] — `clock-discipline`, `ambient-io`, `float-ord`
//!   (`cargo xtask flow`): taint-style dataflow rules on the resolved
//!   graph — wall-clock values must stay advisory, UDF-reachable code
//!   must not do ambient I/O, and float comparators must be total.
//!
//! A diagnostic can be waived for one audited line with a trailing
//! `// xtask: allow(<rule>)` comment (several rules comma-separated).
//! Waivers are themselves checked: `cargo xtask lint
//! --list-stale-waivers` reports waivers whose line no longer triggers
//! the waived rule, so audited exceptions cannot rot silently.

pub mod flow;
pub mod locks;
pub mod panics;
pub mod perf;
pub mod resolve;
pub mod rng;
pub mod rules;
pub mod udf;

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::lexer::{lex, Token, TokenKind};
use crate::parse::{parse, FileModel};

// ---------------------------------------------------------------------
// Diagnostics.
// ---------------------------------------------------------------------

/// One rule violation at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier, e.g. `udf-determinism`.
    pub rule: &'static str,
    /// Severity rank; perf findings carry their effective loop depth so
    /// the deepest-nested problem sorts first. 0 for every other rule.
    pub rank: u32,
    /// What was found and what to do instead.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Output rendering for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// `file:line: [rule] message` lines plus a summary (the default).
    #[default]
    Text,
    /// A machine-readable JSON array of diagnostic objects.
    Json,
    /// GitHub Actions workflow commands (`::error file=…,line=…::…`)
    /// so diagnostics land as inline PR annotations.
    Github,
}

impl Format {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "text" => Some(Self::Text),
            "json" => Some(Self::Json),
            "github" => Some(Self::Github),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Analyzed files.
// ---------------------------------------------------------------------

/// One source file with its lexed and parsed artifacts, shared by all
/// passes.
#[derive(Debug)]
pub struct AnalyzedFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// The raw source text.
    pub src: String,
    /// Lossless token stream.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the significant (non-trivia) tokens.
    pub sig: Vec<usize>,
    /// Items, impls, test regions, call sites.
    pub model: FileModel,
}

impl AnalyzedFile {
    /// Lexes and parses `src`.
    pub fn build(path: impl Into<String>, src: impl Into<String>) -> Self {
        let src = src.into();
        let tokens = lex(&src);
        let sig = (0..tokens.len())
            .filter(|&i| !tokens[i].is_trivia())
            .collect();
        let model = parse(&src, &tokens);
        Self {
            path: path.into(),
            src,
            tokens,
            sig,
            model,
        }
    }

    /// Text of the `i`-th significant token, or `""` past the end.
    pub fn sig_text(&self, i: usize) -> &str {
        self.sig
            .get(i)
            .map_or("", |&j| self.tokens[j].text(&self.src))
    }

    /// Kind of the `i`-th significant token.
    pub fn sig_kind(&self, i: usize) -> Option<TokenKind> {
        self.sig.get(i).map(|&j| self.tokens[j].kind)
    }

    /// The `i`-th significant token itself.
    pub fn sig_tok(&self, i: usize) -> Option<&Token> {
        self.sig.get(i).map(|&j| &self.tokens[j])
    }

    /// Significant-token index range `[start, end)` covering the raw token
    /// range `body` (as stored in [`crate::parse::FnInfo::body`]).
    pub fn sig_range(&self, body: (usize, usize)) -> (usize, usize) {
        let start = self.sig.partition_point(|&j| j < body.0);
        let end = self.sig.partition_point(|&j| j <= body.1);
        (start, end)
    }

    /// Given the significant index of an opening delimiter, returns the
    /// significant index one past its matching closer.
    pub fn sig_balanced_end(&self, open_at: usize, open: &str, close: &str) -> usize {
        let mut depth = 0i64;
        let mut i = open_at;
        while i < self.sig.len() {
            let t = self.sig_text(i);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        i
    }
}

// ---------------------------------------------------------------------
// Waivers.
// ---------------------------------------------------------------------

/// One `// xtask: allow(rule)` waiver for one rule on one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line the waiver comment sits on (and waives).
    pub line: usize,
    /// The waived rule name.
    pub rule: String,
}

/// Extracts waivers from a file's comment tokens. Only real comments
/// count — a waiver spelled inside a string literal is inert, which the
/// old line-based checker could not guarantee.
pub fn collect_waivers(file: &AnalyzedFile) -> Vec<Waiver> {
    const NEEDLE: &str = "xtask: allow(";
    let mut out = Vec::new();
    for t in &file.tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = t.text(&file.src);
        let Some(at) = text.find(NEEDLE) else {
            continue;
        };
        let rest = &text[at + NEEDLE.len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        for rule in rest[..close].split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                out.push(Waiver {
                    file: file.path.clone(),
                    line: t.line,
                    rule: rule.to_owned(),
                });
            }
        }
    }
    out
}

/// Splits raw diagnostics into (active, waived) under `waivers`.
pub fn apply_waivers(
    raw: Vec<Diagnostic>,
    waivers: &[Waiver],
) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
    raw.into_iter().partition(|d| {
        !waivers
            .iter()
            .any(|w| w.file == d.file && w.line == d.line && w.rule == d.rule)
    })
}

/// Waivers that no raw diagnostic matches — audited exceptions whose
/// justification has expired.
pub fn stale_waivers(waivers: &[Waiver], raw: &[Diagnostic]) -> Vec<Waiver> {
    waivers
        .iter()
        .filter(|w| {
            !raw.iter()
                .any(|d| d.file == w.file && d.line == w.line && d.rule == w.rule)
        })
        .cloned()
        .collect()
}

// ---------------------------------------------------------------------
// Rule scoping helpers shared by the passes.
// ---------------------------------------------------------------------

/// Trait names whose impl blocks are user-defined functions under the
/// MapReduce contract: their bodies must be pure, deterministic functions
/// of their input.
pub const UDF_TRAITS: &[&str] = &["MapTask", "ReduceTask", "MapFactory", "ReduceFactory"];

/// `true` for non-test sources of the two engine crates.
pub fn in_engine_crates(path: &str) -> bool {
    path.starts_with("crates/mapreduce/src/") || path.starts_with("crates/core/src/")
}

/// The single audited spawn site.
pub fn is_pool(path: &str) -> bool {
    path == "crates/mapreduce/src/pool.rs"
}

// ---------------------------------------------------------------------
// Pass orchestration.
// ---------------------------------------------------------------------

/// Which rule set to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The four PR-1 rules only (`cargo xtask lint`).
    Lint,
    /// Everything: legacy rules plus the three analysis passes
    /// (`cargo xtask analyze`).
    Analyze,
    /// The performance linter: `hot-path-alloc` and `lock-discipline`
    /// (`cargo xtask perf`).
    Perf,
    /// The dataflow linter: `clock-discipline`, `ambient-io`, and
    /// `float-ord` (`cargo xtask flow`).
    Flow,
}

/// Runs the selected passes over `files`, returning raw (pre-waiver)
/// diagnostics sorted by rank (deepest first), then file, line, rule.
/// Non-perf rules all rank 0, so lint/analyze ordering is unchanged.
pub fn raw_diagnostics(files: &[AnalyzedFile], mode: Mode) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // One resolved symbol graph, shared by every graph pass of the mode.
    let ws = resolve::Workspace::build(files);
    match mode {
        Mode::Lint | Mode::Analyze => {
            for f in files {
                out.extend(rules::check_file(f));
                out.extend(panics::check_unwrap_family(f));
                if mode == Mode::Analyze {
                    out.extend(udf::check_file(f));
                }
            }
            if mode == Mode::Analyze {
                out.extend(panics::check_reachability(&ws));
                out.extend(rng::check_dataflow(&ws));
            }
        }
        Mode::Perf => {
            out.extend(perf::check(&ws));
            out.extend(locks::check(&ws));
        }
        Mode::Flow => {
            out.extend(flow::check(&ws));
        }
    }
    out.sort_by(|a, b| {
        b.rank.cmp(&a.rank).then_with(|| {
            (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
        })
    });
    out.dedup();
    out
}

// ---------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------

/// Directories never scanned (vendored stand-ins, build output, VCS), plus
/// this crate itself: its rule tables necessarily spell out every banned
/// pattern, and its behavior is covered by unit tests instead.
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", ".claude"];
const SKIP_PREFIXES: &[&str] = &["crates/xtask"];

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if path.is_dir() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if SKIP_DIRS.contains(&name.as_ref())
                || SKIP_PREFIXES.iter().any(|p| rel_str.starts_with(p))
            {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if rel_str.ends_with(".rs") && !SKIP_PREFIXES.iter().any(|p| rel_str.starts_with(p))
        {
            out.push(path);
        }
    }
}

pub(crate) fn workspace_root() -> Option<PathBuf> {
    // crates/xtask -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()?
        .parent()
        .map(Path::to_path_buf)
}

/// Loads and analyzes every workspace source file.
fn load_workspace() -> Option<Vec<AnalyzedFile>> {
    let root = workspace_root()?;
    let mut paths = Vec::new();
    collect_rs_files(&root, &root, &mut paths);
    paths.sort();
    let mut files = Vec::new();
    for p in &paths {
        let Ok(src) = std::fs::read_to_string(p) else {
            continue;
        };
        let rel = p
            .strip_prefix(&root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(AnalyzedFile::build(rel, src));
    }
    Some(files)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn render(diags: &[Diagnostic], format: Format, task: &str, files_scanned: usize) {
    match format {
        Format::Text => {
            for d in diags {
                println!("{d}");
            }
            if diags.is_empty() {
                println!("xtask {task}: OK ({files_scanned} files scanned)");
            } else {
                println!(
                    "xtask {task}: {} violation(s) across {files_scanned} file(s) scanned",
                    diags.len()
                );
            }
        }
        Format::Json => {
            let mut out = String::from("[");
            for (i, d) in diags.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"rank\":{},\"message\":\"{}\"}}",
                    json_escape(&d.file),
                    d.line,
                    json_escape(d.rule),
                    d.rank,
                    json_escape(&d.message)
                ));
            }
            out.push(']');
            println!("{out}");
        }
        Format::Github => {
            for d in diags {
                // Workflow commands take properties before `::` and the
                // message after; messages here are single-line by
                // construction so no %0A escaping is needed.
                println!(
                    "::error file={},line={}::[{}] {}",
                    d.file, d.line, d.rule, d.message
                );
            }
            if diags.is_empty() {
                println!("::notice::xtask {task}: OK ({files_scanned} files scanned)");
            }
        }
    }
}

/// Parsed command-line options for `lint` / `analyze`.
#[derive(Debug, Default)]
pub struct Options {
    format: Format,
    list_stale_waivers: bool,
}

impl Options {
    /// Parses trailing CLI arguments; returns `Err` with a message for
    /// unknown flags or a bad `--format` value.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Self::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--list-stale-waivers" => opts.list_stale_waivers = true,
                "--format" => {
                    let v = it.next().ok_or("--format needs a value")?;
                    opts.format = Format::parse(v)
                        .ok_or_else(|| format!("unknown format `{v}` (text|json|github)"))?;
                }
                other => {
                    if let Some(v) = other.strip_prefix("--format=") {
                        opts.format = Format::parse(v)
                            .ok_or_else(|| format!("unknown format `{v}` (text|json|github)"))?;
                    } else {
                        return Err(format!("unknown option `{other}`"));
                    }
                }
            }
        }
        Ok(opts)
    }
}

/// Entry point for `cargo xtask lint` and `cargo xtask analyze`.
pub fn run(mode: Mode, opts: &Options) -> ExitCode {
    let Some(files) = load_workspace() else {
        eprintln!("xtask: cannot locate the workspace root");
        return ExitCode::from(2);
    };
    let task = match mode {
        Mode::Lint => "lint",
        Mode::Analyze => "analyze",
        Mode::Perf => "perf",
        Mode::Flow => "flow",
    };
    let waivers: Vec<Waiver> = files.iter().flat_map(collect_waivers).collect();

    if opts.list_stale_waivers {
        // Staleness is judged against the FULL rule set: a waiver for an
        // analyze-only or perf-only rule is not stale just because `lint`
        // runs fewer passes.
        let mut raw = raw_diagnostics(&files, Mode::Analyze);
        raw.extend(raw_diagnostics(&files, Mode::Perf));
        raw.extend(raw_diagnostics(&files, Mode::Flow));
        let stale = stale_waivers(&waivers, &raw);
        for w in &stale {
            println!(
                "{}:{}: stale waiver: this line no longer triggers `{}`",
                w.file, w.line, w.rule
            );
        }
        return if stale.is_empty() {
            println!(
                "xtask {task}: no stale waivers ({} waiver(s) in tree)",
                waivers.len()
            );
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let raw = raw_diagnostics(&files, mode);
    let (active, _waived) = apply_waivers(raw, &waivers);
    render(&active, opts.format, task, files.len());
    if active.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> AnalyzedFile {
        AnalyzedFile::build(path, src)
    }

    #[test]
    fn waivers_only_in_real_comments() {
        let f = file(
            "crates/core/src/x.rs",
            "let a = 1; // xtask: allow(no-unwrap)\nlet s = \"xtask: allow(seeded-rng)\";\n",
        );
        let ws = collect_waivers(&f);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].rule, "no-unwrap");
        assert_eq!(ws[0].line, 1);
    }

    #[test]
    fn comma_separated_waivers() {
        let f = file(
            "a.rs",
            "x; // xtask: allow(panic-reachability, udf-determinism)\n",
        );
        let ws = collect_waivers(&f);
        assert_eq!(
            ws.iter().map(|w| w.rule.as_str()).collect::<Vec<_>>(),
            ["panic-reachability", "udf-determinism"]
        );
    }

    #[test]
    fn apply_and_stale_waivers() {
        let d = |line| Diagnostic {
            file: "a.rs".into(),
            line,
            rule: "no-unwrap",
            rank: 0,
            message: "m".into(),
        };
        let w = |line, rule: &str| Waiver {
            file: "a.rs".into(),
            line,
            rule: rule.into(),
        };
        let raw = vec![d(1), d(2)];
        let waivers = vec![w(1, "no-unwrap"), w(2, "seeded-rng"), w(9, "no-unwrap")];
        let (active, waived) = apply_waivers(raw.clone(), &waivers);
        assert_eq!(active.len(), 1, "only the matching waiver suppresses");
        assert_eq!(active[0].line, 2);
        assert_eq!(waived.len(), 1);
        let stale = stale_waivers(&waivers, &raw);
        assert_eq!(
            stale
                .iter()
                .map(|w| (w.line, w.rule.as_str()))
                .collect::<Vec<_>>(),
            [(2, "seeded-rng"), (9, "no-unwrap")]
        );
    }

    #[test]
    fn options_parse_formats_and_flags() {
        let o = Options::parse(&["--format".into(), "json".into()]).expect("parses");
        assert_eq!(o.format, Format::Json);
        let o = Options::parse(&["--format=github".into(), "--list-stale-waivers".into()])
            .expect("parses");
        assert_eq!(o.format, Format::Github);
        assert!(o.list_stale_waivers);
        assert!(Options::parse(&["--format".into(), "yaml".into()]).is_err());
        assert!(Options::parse(&["--bogus".into()]).is_err());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn whole_workspace_is_clean_under_analyze() {
        // The acceptance gate: `cargo xtask analyze` exits 0 on this tree.
        let files = load_workspace().expect("workspace root");
        assert!(!files.is_empty());
        let waivers: Vec<Waiver> = files.iter().flat_map(collect_waivers).collect();
        let raw = raw_diagnostics(&files, Mode::Analyze);
        let (active, _) = apply_waivers(raw.clone(), &waivers);
        assert!(
            active.is_empty(),
            "workspace has active violations:\n{}",
            active
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        // Staleness is judged against the full rule set, like the CLI.
        let mut full = raw;
        full.extend(raw_diagnostics(&files, Mode::Perf));
        full.extend(raw_diagnostics(&files, Mode::Flow));
        let stale = stale_waivers(&waivers, &full);
        assert!(stale.is_empty(), "stale waivers in tree: {stale:?}");
    }

    #[test]
    fn whole_workspace_is_clean_under_perf() {
        // The acceptance gate: `cargo xtask perf` exits 0 on this tree —
        // hot kernels stay allocation-free (or carry audited waivers) and
        // the lock graph stays acyclic.
        let files = load_workspace().expect("workspace root");
        let waivers: Vec<Waiver> = files.iter().flat_map(collect_waivers).collect();
        let raw = raw_diagnostics(&files, Mode::Perf);
        let (active, _) = apply_waivers(raw, &waivers);
        assert!(
            active.is_empty(),
            "workspace has active perf violations:\n{}",
            active
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
