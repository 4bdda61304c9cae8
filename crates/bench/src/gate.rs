//! The throughput-regression gate over committed `BENCH_*.json` files.
//!
//! `scripts/verify.sh` regenerates the `micro` bench report every run
//! and compares it against the copy committed at `HEAD` with the
//! `bench_gate` binary built from this module. The comparison converts
//! each benchmark's mean ns/iteration into operations per second and
//! takes the **geometric mean of the per-benchmark speedups** over the
//! name intersection of the two reports — robust to benchmarks being
//! added or removed, and to the very different magnitudes the groups
//! span (sub-nanosecond profiler scopes vs multi-microsecond graph
//! walks).
//!
//! Smoke runs use tiny measurement windows (`VLOG_BENCH_MS=5`), so the
//! default tolerance is deliberately loose; `VLOG_GATE_TOLERANCE`
//! (percent) tightens or loosens it. The gate always prints its
//! one-line ops/sec delta; it only *fails* when the geomean regresses
//! beyond the tolerance.

use crate::report::{field, parse_array};

/// One benchmark of a `BENCH_*.json` report, reduced to what the gate
/// compares.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Benchmark id (`group/name/parameter`).
    pub name: String,
    /// Mean ns per iteration.
    pub mean_ns: f64,
}

/// Parses the `{"target": ..., "results": [...]}` document every bench
/// target emits, keeping each result's `name` and `mean_ns`. Entries
/// without a positive `mean_ns` (e.g. rows from non-Criterion reports
/// like `BENCH_regimes.json`) are an error: the gate only compares
/// timing reports.
pub fn parse_bench_json(src: &str) -> Result<Vec<BenchEntry>, String> {
    let mut entries = Vec::new();
    for fields in parse_array(src, "results")? {
        let name = field(&fields, "name")?.as_str("name")?.to_string();
        let mean_ns = field(&fields, "mean_ns")?.as_f64("mean_ns")?;
        if !(mean_ns > 0.0) {
            return Err(format!(
                "benchmark {name:?} has non-positive mean_ns {mean_ns}"
            ));
        }
        entries.push(BenchEntry { name, mean_ns });
    }
    Ok(entries)
}

/// Result of comparing a current bench report against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Benchmarks present in both reports (the compared set).
    pub common: usize,
    /// Benchmarks only in the baseline (removed since).
    pub baseline_only: usize,
    /// Benchmarks only in the current report (added since).
    pub current_only: usize,
    /// Geometric mean over the common set of
    /// `baseline_mean_ns / current_mean_ns` — equivalently, the geomean
    /// ratio of current to baseline ops/sec. `> 1` means faster now.
    pub speedup: f64,
}

impl GateReport {
    /// Ops/sec delta in percent (`+25.0` = 25% faster than baseline).
    pub fn delta_percent(&self) -> f64 {
        (self.speedup - 1.0) * 100.0
    }

    /// Whether the gate passes at `tolerance_percent`: the geomean
    /// ops/sec may regress by at most that much. An empty common set
    /// passes (nothing to compare — the caller reports the counts).
    pub fn passes(&self, tolerance_percent: f64) -> bool {
        self.common == 0 || self.speedup >= 1.0 - tolerance_percent / 100.0
    }
}

/// Compares two parsed reports by benchmark name.
pub fn compare(baseline: &[BenchEntry], current: &[BenchEntry]) -> GateReport {
    let mut log_sum = 0.0f64;
    let mut common = 0usize;
    for cur in current {
        if let Some(base) = baseline.iter().find(|b| b.name == cur.name) {
            log_sum += (base.mean_ns / cur.mean_ns).ln();
            common += 1;
        }
    }
    let speedup = if common == 0 {
        1.0
    } else {
        (log_sum / common as f64).exp()
    };
    GateReport {
        common,
        baseline_only: baseline
            .iter()
            .filter(|b| !current.iter().any(|c| c.name == b.name))
            .count(),
        current_only: current.len() - common,
        speedup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, mean_ns: f64) -> BenchEntry {
        BenchEntry {
            name: name.into(),
            mean_ns,
        }
    }

    #[test]
    fn parses_a_criterion_report() {
        let json = r#"{
  "target": "micro",
  "results": [
    {"name": "a/1", "n": 10, "rejected": 0, "mean_ns": 25.50, "median_ns": 25.00, "stddev_ns": 1.00, "min_ns": 24.00, "max_ns": 28.00, "ci95_ns": 0.60},
    {"name": "b/2", "n": 10, "rejected": 1, "mean_ns": 100.00, "median_ns": 99.00, "stddev_ns": 2.00, "min_ns": 98.00, "max_ns": 105.00, "ci95_ns": 1.20}
  ]
}
"#;
        let entries = parse_bench_json(json).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "a/1");
        assert!((entries[0].mean_ns - 25.5).abs() < 1e-9);
    }

    #[test]
    fn parser_rejects_non_timing_reports() {
        let json = r#"{"target": "x", "results": [{"name": "a", "makespan_s": 1.0}]}"#;
        assert!(parse_bench_json(json).unwrap_err().contains("mean_ns"));
        let json = r#"{"target": "x", "results": [{"name": "a", "mean_ns": 0.0}]}"#;
        assert!(parse_bench_json(json).unwrap_err().contains("non-positive"));
    }

    #[test]
    fn geomean_speedup_and_tolerance() {
        let base = vec![entry("a", 100.0), entry("b", 100.0), entry("gone", 10.0)];
        let cur = vec![entry("a", 50.0), entry("b", 200.0), entry("new", 10.0)];
        let g = compare(&base, &cur);
        // 2x faster on a, 2x slower on b: geomean exactly 1.
        assert_eq!(g.common, 2);
        assert_eq!(g.baseline_only, 1);
        assert_eq!(g.current_only, 1);
        assert!((g.speedup - 1.0).abs() < 1e-12);
        assert!(g.passes(0.0));

        // A uniform 30% ops/sec regression fails a 20% gate, passes 40%.
        let slow: Vec<BenchEntry> = base
            .iter()
            .map(|b| entry(&b.name, b.mean_ns / 0.7))
            .collect();
        let g = compare(&base, &slow);
        assert!((g.delta_percent() + 30.0).abs() < 1e-6);
        assert!(!g.passes(20.0));
        assert!(g.passes(40.0));
    }

    #[test]
    fn empty_intersection_passes_but_reports_counts() {
        let g = compare(&[entry("a", 1.0)], &[entry("b", 1.0)]);
        assert_eq!(g.common, 0);
        assert_eq!(g.speedup, 1.0);
        assert!(g.passes(0.0));
        assert_eq!(g.baseline_only, 1);
        assert_eq!(g.current_only, 1);
    }
}
