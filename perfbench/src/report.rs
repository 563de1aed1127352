//! Result plumbing shared by the workloads: named metrics with units,
//! nearest-rank percentiles, failure accounting, the machine stamp and the
//! one-line JSON result.

use std::fmt::Write as _;

/// True when `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered set of metrics; each name is set at most once.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Set `name`. Invalid or repeated names are an error in the
    /// benchmark itself, reported rather than silently kept.
    pub fn set(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
    ) -> Result<(), String> {
        if !valid_name(name) {
            return Err(format!("invalid metric name {name:?}"));
        }
        if self.get(name).is_some() {
            return Err(format!("metric {name} set twice"));
        }
        self.0.push(Metric { name, value, unit });
        Ok(())
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    /// Names of metrics whose value is NaN or infinite.
    pub fn non_finite(&self) -> Vec<&'static str> {
        self.0.iter().filter(|m| !m.value.is_finite()).map(|m| m.name).collect()
    }
}

/// Operations attempted and failed in one run (`failed` ≤ `attempted`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count `n` operations of which `failed` failed.
    pub fn add(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed.min(n);
    }

    /// Failed / attempted (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// 1 − [`Tally::fail_ratio`]: the end-to-end form, which never reads 0
    /// while any operation succeeds.
    pub fn success_ratio(&self) -> f64 {
        1.0 - self.fail_ratio()
    }
}

/// Nearest-rank percentile with its sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank `p`-th percentile (0 < p ≤ 100) of `xs`: the value at rank
/// ⌈p/100 · n⌉ of the sorted samples. `None` for an empty input.
pub fn percentile(xs: &[f64], p: f64) -> Option<Percentile> {
    if xs.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(Percentile { value: sorted[rank - 1], samples: n, beyond: n - rank })
}

/// Median (nearest-rank p50) of `xs`, 0 for an empty input.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0).map_or(0.0, |p| p.value)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Git revision of the checkout in the working directory, read from
/// `.git` without running git; `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The machine and inputs a result was measured on.
pub fn machine_stamp(workload: &str, seed: u64, trace: bool) -> String {
    use etalumis_tensor::simd;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \
         \"nproc\": {nproc}, \"avx2\": {}, \"backend\": \"{}\", \"pool_threads\": {}, \
         \"git_revision\": \"{}\"}}",
        simd::avx2_available(),
        simd::active_backend().name(),
        etalumis_tensor::pool::num_threads(),
        git_revision(),
    )
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
/// Non-finite values render as `null` (and the caller marks the run
/// incorrect).
pub fn result_json(correct: bool, tally: Tally, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { format!("{}", m.value) } else { "null".into() };
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(out, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_reports_its_sample_count() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p90 = percentile(&xs, 90.0).unwrap();
        assert_eq!(p90, Percentile { value: 90.0, samples: 100, beyond: 10 });
        let p50 = percentile(&xs, 50.0).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
        // Nearest rank never interpolates: ⌈0.9 · 5⌉ = 5th of 5.
        let small = percentile(&[3.0, 1.0, 2.0, 5.0, 4.0], 90.0).unwrap();
        assert_eq!((small.value, small.beyond), (5.0, 0));
        assert_eq!(percentile(&[7.0], 50.0).unwrap().value, 7.0);
        assert!(percentile(&[], 50.0).is_none());
        assert!(percentile(&[1.0], 0.0).is_none());
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn fail_ratio_counts_failed_over_attempted() {
        let mut t = Tally::default();
        assert_eq!(t.fail_ratio(), 0.0);
        t.add(130, 2);
        t.add(4096, 0);
        assert_eq!(t, Tally { attempted: 4226, failed: 2 });
        assert_eq!(t.fail_ratio(), 2.0 / 4226.0);
        assert_eq!(t.success_ratio(), 1.0 - 2.0 / 4226.0);
        // A batch cannot fail more operations than it attempted.
        t.add(1, 5);
        assert_eq!(t, Tally { attempted: 4227, failed: 3 });
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in ["setup_s", "ppx.frames_per_trace", "runtime.ckpt.journal_bytes", "0-x"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "a b", "q/s", "x\"", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        let mut m = Metrics::default();
        m.set("setup_s", 1.5, "s").unwrap();
        assert!(m.set("setup_s", 2.0, "s").is_err());
        assert!(m.set("bad name", 2.0, "s").is_err());
    }

    #[test]
    fn every_reported_metric_name_is_valid() {
        for name in
            crate::END_TO_END.iter().map(|(n, _)| n).chain(crate::PER_LAYER.iter().map(|(n, _)| n))
        {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("latency_ms", 1.25, "ms").unwrap();
        m.set("broken", f64::NAN, "ms").unwrap();
        let line = result_json(true, Tally { attempted: 3, failed: 1 }, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"latency_ms\": \
             {\"value\": 1.25, \"unit\": \"ms\"}, \"broken\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
        assert_eq!(m.non_finite(), vec!["broken"]);
    }
}
