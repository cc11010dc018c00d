//! Order statistics, process memory and the committed modeled ledger.

use gpu_sim::json::parse;

/// Linear-interpolated quantile `q` in [0, 1] of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The latest committed value of `label` under `bench` in the modeled
/// ledger `BENCH_history.jsonl` at the checkout root. Report-only.
pub fn ledger_value(bench: &str, label: &str) -> Option<f64> {
    let text = std::fs::read_to_string("BENCH_history.jsonl").ok()?;
    text.lines()
        .rev()
        .filter_map(|l| parse(l).ok())
        .filter(|e| e.get("bench").and_then(|b| b.as_str()) == Some(bench))
        .find_map(|e| {
            e.get("points")?.as_arr()?.iter().find_map(|p| {
                (p.get("label")?.as_str()? == label).then(|| p.get("value")?.as_num())?
            })
        })
}
