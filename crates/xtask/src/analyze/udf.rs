//! The `udf-determinism` pass.
//!
//! MR-GPSRS/MR-GPMRS correctness (and the Hadoop contract the paper
//! assumes) requires mapper/reducer UDFs to be pure,
//! deterministic functions of their input: the engine is free to re-run a
//! task after a simulated failure, run it on another host, or reorder it,
//! and the schedule shaker asserts byte-identical job output across all
//! of that. This pass checks the assumption statically inside every UDF
//! body — a fn defined in an `impl` of one of [`super::UDF_TRAITS`]:
//!
//! * **interior mutability** (`RefCell`, `Cell`, `UnsafeCell`,
//!   `Atomic*`, `Mutex`, `RwLock`): shared state observable across
//!   re-runs;
//! * **ambient state** (`std::env`, `SystemTime`, `Instant`): values
//!   that differ between runs — simulated time lives in the engine's
//!   cluster clock, never in UDFs;
//! * **filesystem / network I/O** (`std::fs`, `std::net`, `File`,
//!   `OpenOptions`, `TcpStream`, `TcpListener`, `UdpSocket`): side
//!   channels the replay machinery cannot roll back;
//! * **nondeterministic iteration** (`HashMap`, `HashSet`): iteration
//!   order varies run to run and silently feeds emitted output; use
//!   `BTreeMap`/`BTreeSet` or sort before emitting;
//! * **telemetry recording** (`Collector`, `SpanGuard`, `JobTrace`,
//!   `MetricsRegistry`, `TraceDocument`, `Histogram`): span assembly is a
//!   driver-side concern — a UDF touching the collector would observe (and
//!   perturb) scheduling, and re-runs would double-record. UDFs report
//!   through the replay-aware `Counters` channel instead.
//!
//! Test code is exempt, and any audited exception can be waived with
//! `// xtask: allow(udf-determinism)` on the flagged line.

use super::{AnalyzedFile, Diagnostic, UDF_TRAITS};
use crate::lexer::TokenKind;

/// Runs the pass over one file.
pub fn check_file(f: &AnalyzedFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for g in &f.model.fns {
        if g.is_test {
            continue;
        }
        let Some(body) = g.body else { continue };
        let (start, end) = f.sig_range(body);
        let is_udf = g
            .impl_idx
            .and_then(|ii| f.model.impls[ii].trait_name.as_deref())
            .is_some_and(|t| UDF_TRAITS.contains(&t));
        if is_udf {
            scan(f, start, end, "UDF body", &mut out);
        }
    }
    out
}

/// What a banned token means, for the diagnostic message.
fn verdict(name: &str) -> Option<&'static str> {
    if name.starts_with("Atomic") && name.len() > "Atomic".len() {
        return Some("interior mutability breaks the deterministic-replay contract");
    }
    match name {
        "RefCell" | "Cell" | "UnsafeCell" | "Mutex" | "RwLock" => {
            Some("interior mutability breaks the deterministic-replay contract")
        }
        "SystemTime" | "Instant" => {
            Some("ambient clock state differs between re-runs; simulated time lives in the engine")
        }
        "File" | "OpenOptions" | "TcpStream" | "TcpListener" | "UdpSocket" => {
            Some("filesystem/network I/O is a side channel failure replay cannot roll back")
        }
        "HashMap" | "HashSet" => {
            Some("nondeterministic iteration order can feed emitted output; use BTreeMap/BTreeSet or sort before emitting")
        }
        "Collector" | "SpanGuard" | "JobTrace" | "MetricsRegistry" | "TraceDocument"
        | "Histogram" => {
            Some("telemetry recording is driver-side only; UDFs report through Counters, which the replay machinery de-duplicates")
        }
        _ => None,
    }
}

/// Scans significant range `[start, end)` of a UDF region.
fn scan(f: &AnalyzedFile, start: usize, end: usize, ctx: &str, out: &mut Vec<Diagnostic>) {
    for i in start..end.min(f.sig.len()) {
        let Some(t) = f.sig_tok(i) else { continue };
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text(&f.src);
        // `std::env` is a path, not a single ident.
        let ambient_env = name == "std"
            && f.sig_text(i + 1) == ":"
            && f.sig_text(i + 2) == ":"
            && matches!(f.sig_text(i + 3), "env" | "fs" | "net");
        if ambient_env {
            let seg = f.sig_text(i + 3).to_owned();
            let why = if seg == "env" {
                "ambient process state differs between runs and hosts"
            } else {
                "filesystem/network I/O is a side channel failure replay cannot roll back"
            };
            out.push(Diagnostic {
                file: f.path.clone(),
                line: t.line,
                rule: "udf-determinism",
                rank: 0,
                message: format!("`std::{seg}` in a {ctx} — {why}"),
            });
            continue;
        }
        if let Some(why) = verdict(name) {
            out.push(Diagnostic {
                file: f.path.clone(),
                line: t.line,
                rule: "udf-determinism",
                rank: 0,
                message: format!("`{name}` in a {ctx} — {why}"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{apply_waivers, collect_waivers, raw_diagnostics, AnalyzedFile, Mode};

    const PATH: &str = "crates/core/src/gpsrs.rs";

    fn analyze(path: &str, src: &str) -> Vec<super::super::Diagnostic> {
        let f = AnalyzedFile::build(path, src);
        let waivers = collect_waivers(&f);
        let files = [f];
        let raw = raw_diagnostics(&files, Mode::Analyze);
        apply_waivers(raw, &waivers)
            .0
            .into_iter()
            .filter(|d| d.rule == "udf-determinism")
            .collect()
    }

    fn udf_fixture(stmt: &str) -> String {
        format!(
            "\
struct M;
impl ReduceTask for M {{
    fn reduce(&mut self, out: &mut Vec<u64>) {{
        {stmt}
    }}
}}
"
        )
    }

    #[test]
    fn flags_hashmap_iteration_in_a_udf_body_with_file_and_line() {
        let src = udf_fixture("let mut m = HashMap::new(); for (k, v) in &m { out.push(*v); }");
        let diags = analyze(PATH, &src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].file, PATH);
        assert_eq!(diags[0].line, 4);
        assert!(diags[0].message.contains("HashMap"));
    }

    #[test]
    fn flags_interior_mutability_ambient_state_and_io() {
        for (stmt, needle) in [
            ("let c = RefCell::new(0u64);", "RefCell"),
            ("let n = AtomicU64::new(0);", "AtomicU64"),
            ("let t = Instant::now();", "Instant"),
            ("let home = std::env::var(\"HOME\");", "std::env"),
            ("let f = File::open(\"x\");", "File"),
            ("let d = std::fs::read(\"x\");", "std::fs"),
        ] {
            let diags = analyze(PATH, &udf_fixture(stmt));
            assert_eq!(diags.len(), 1, "{stmt} → {diags:?}");
            assert!(diags[0].message.contains(needle), "{stmt}");
        }
    }

    #[test]
    fn deterministic_udf_bodies_and_non_udf_fns_are_clean() {
        let src = udf_fixture(
            "let mut m = std::collections::BTreeMap::new(); m.insert(1u64, 2u64); \
             for (_, v) in &m { out.push(*v); }",
        );
        assert!(analyze(PATH, &src).is_empty());
        // The same HashMap pattern outside any UDF impl is fine (the
        // engine sorts at shuffle boundaries; only UDFs are constrained).
        let src = "fn driver() { let m: HashMap<u64, u64> = HashMap::new(); drop(m); }\n";
        assert!(analyze(PATH, src).is_empty());
        // And a test-only UDF impl is exempt.
        let src = format!(
            "#[cfg(test)]\nmod t {{\n{}\n}}\n",
            udf_fixture("let x = Instant::now();")
        );
        assert!(analyze(PATH, &src).is_empty());
    }

    #[test]
    fn flags_telemetry_recording_in_udf_bodies() {
        for (stmt, needle) in [
            ("let c = Collector::new(); drop(c);", "Collector"),
            (
                "let r = MetricsRegistry::new(); drop(r);",
                "MetricsRegistry",
            ),
            ("let h = Histogram::new(&[1, 2]); drop(h);", "Histogram"),
            ("self.trace.span(JobTrace::new(\"x\"));", "JobTrace"),
        ] {
            let diags = analyze(PATH, &udf_fixture(stmt));
            assert_eq!(diags.len(), 1, "{stmt} → {diags:?}");
            assert!(diags[0].message.contains(needle), "{stmt}");
            assert!(diags[0].message.contains("driver-side"), "{stmt}");
        }
        // The sanctioned channel stays clean.
        let src = udf_fixture("self.counters.add(\"map.records\", 1);");
        assert!(analyze(PATH, &src).is_empty());
    }

    #[test]
    fn waiver_suppresses_an_audited_site() {
        let src = udf_fixture("let t = Instant::now(); // xtask: allow(udf-determinism)");
        assert!(analyze(PATH, &src).is_empty());
    }
}
