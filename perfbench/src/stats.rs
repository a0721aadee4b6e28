//! Order statistics, process memory, and the result line.

use jsonio::Value;
use std::time::Instant;

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile, `q` in `[0, 1]` (0 for an empty sample).
fn quantile(xs: &[f64], q: f64) -> f64 {
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

/// The tail latency of a sample: the highest percentile, up to p99, that
/// still has at least ten samples beyond it (the median for fewer than
/// twenty samples). Printed with its sample count.
pub fn tail(label: &str, xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let q = (1.0 - 10.0 / n).clamp(0.5, 0.99);
    println!("samples {label}: n={} tail=p{:.1}", xs.len(), q * 100.0);
    quantile(xs, q)
}

/// Run `f` `reps` times and return its last result with the median time.
pub fn timed_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        out = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (out.expect("at least one repetition"), median(&times))
}

/// Peak resident set (`VmHWM`) of a process, in MB; `pid` `None` = self.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// Metric values in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    pub fn names(&self) -> Vec<&'static str> {
        self.0.iter().map(|m| m.0).collect()
    }

    pub fn to_json(&self) -> Value {
        Value::object(self.0.iter().map(|&(name, value, unit)| {
            (
                name,
                Value::object([("value", Value::from(value)), ("unit", Value::from(unit))]),
            )
        }))
    }
}

/// Tally of checked operations: every analysis or request is attempted
/// once and fails if it errors, is shed, or fails an output check.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb(None).unwrap() > 0.0);
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        assert_eq!((t.attempted, t.failed), (2, 1));
    }
}
