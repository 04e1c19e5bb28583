//! Order statistics, process memory, and result printing.

use std::fmt::Write as _;

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile of `values` with at least ten samples beyond it:
/// `(value, percentile)`. With ten or fewer samples no such percentile
/// exists and the maximum is returned as p100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (v.last().copied().unwrap_or(0.0), 100.0);
    }
    let at = n - 11;
    (v[at], 100.0 * (at + 1) as f64 / n as f64)
}

/// Peak anonymous resident set of this process in MiB: `VmHWM` minus the
/// file-backed and shared pages resident now (the binary's own text, whose
/// residency depends on the page cache, not on the workload). 0 when
/// unknown.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = |key: &str| -> f64 {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .unwrap_or(0.0)
    };
    (kib("VmHWM:") - kib("RssFile:") - kib("RssShmem:")).max(0.0) / 1024.0
}

/// Resets the kernel's peak-RSS mark to the current RSS, so the peak
/// reported later covers only what follows. Returns whether it worked.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Prints every metric by name with its unit, then the one-line JSON
/// result object as the last line of standard output.
pub fn print_result(metrics: &[Metric], attempted: u64, failed: u64, correct: bool) {
    for m in metrics {
        println!("  {:<36} {:>16} {}", m.name, format_value(m.value), m.unit);
    }
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}

fn format_value(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.6}")
    }
}

/// Full-precision JSON number (shortest round-trip form; never NaN/inf).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        // Ten samples (11..=20) lie beyond the 10th value: p50.
        assert_eq!(tail(&v), (10.0, 50.0));
        assert_eq!(tail(&[1.0, 5.0]), (5.0, 100.0));
    }
}
