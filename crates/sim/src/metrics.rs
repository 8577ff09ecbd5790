//! Metrics time-series sampling.
//!
//! A [`MetricsSeries`] accumulates [`MetricsSample`] snapshots — gauge
//! name/value pairs taken every N cycles by the run's watch (see
//! [`crate::observer::Watch`]) — and exports them as JSON-lines or
//! CSV for plotting queue depths, link occupancy, PE busyness and the
//! like over the course of a run.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::json::Writer;

/// One snapshot of gauge values at a point in simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSample {
    /// Index of the simulated run this sample belongs to (harnesses
    /// often simulate many systems back to back).
    pub run: u32,
    /// Cycle at which the snapshot was taken.
    pub cycle: u64,
    /// Gauge `(name, value)` pairs.
    pub values: Vec<(String, f64)>,
}

impl MetricsSample {
    fn value(&self, key: &str) -> Option<f64> {
        self.values.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// An in-memory metrics time-series with JSONL/CSV export.
#[derive(Debug, Clone, Default)]
pub struct MetricsSeries {
    samples: Vec<MetricsSample>,
}

impl MetricsSeries {
    /// An empty series.
    pub fn new() -> MetricsSeries {
        MetricsSeries::default()
    }

    /// Appends one sample.
    pub fn push(&mut self, sample: MetricsSample) {
        self.samples.push(sample);
    }

    /// All samples in insertion order.
    pub fn samples(&self) -> &[MetricsSample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples were taken.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Moves the samples of `other` into `self`.
    pub fn merge(&mut self, other: MetricsSeries) {
        self.samples.extend(other.samples);
    }

    /// Serializes the series as JSON lines: one object per sample with
    /// `run`, `cycle` and one member per gauge. Non-finite gauge values
    /// become `null`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.samples.len() * 96);
        for s in &self.samples {
            let mut w = Writer::new();
            w.object(|w| {
                w.key("run").u64(u64::from(s.run));
                w.key("cycle").u64(s.cycle);
                for (k, v) in &s.values {
                    w.key(k).f64(*v);
                }
            });
            out.push_str(&w.finish());
            out.push('\n');
        }
        out
    }

    /// Serializes the series as CSV with a `run,cycle,...` header; the
    /// gauge columns are the sorted union of all gauge names, and gauges
    /// missing from a sample (or non-finite) leave an empty cell.
    pub fn to_csv(&self) -> String {
        let keys: BTreeSet<&str> = self
            .samples
            .iter()
            .flat_map(|s| s.values.iter().map(|(k, _)| k.as_str()))
            .collect();
        let mut out = String::new();
        out.push_str("run,cycle");
        for k in &keys {
            out.push(',');
            out.push_str(&k.replace(',', "_"));
        }
        out.push('\n');
        for s in &self.samples {
            let _ = write!(out, "{},{}", s.run, s.cycle);
            for k in &keys {
                out.push(',');
                if let Some(v) = s.value(k) {
                    if v.is_finite() {
                        let _ = write!(out, "{v}");
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    fn sample(run: u32, cycle: u64, pairs: &[(&str, f64)]) -> MetricsSample {
        MetricsSample {
            run,
            cycle,
            values: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        let mut series = MetricsSeries::new();
        series.push(sample(0, 0, &[("dram.queue", 0.0), ("pe_busy", 3.0)]));
        series.push(sample(
            0,
            4096,
            &[("dram.queue", 12.5), ("pe_busy", f64::NAN)],
        ));
        let jsonl = series.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            JsonValue::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line}: {e}"));
        }
        assert!(lines[0].contains("\"cycle\":0"));
        assert!(lines[1].contains("\"pe_busy\":null"));
    }

    #[test]
    fn csv_unions_columns_across_samples() {
        let mut series = MetricsSeries::new();
        series.push(sample(0, 0, &[("b", 1.0)]));
        series.push(sample(1, 10, &[("a", 2.0), ("b", 3.0)]));
        let csv = series.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "run,cycle,a,b");
        assert_eq!(lines[1], "0,0,,1");
        assert_eq!(lines[2], "1,10,2,3");
    }

    #[test]
    fn empty_series_exports_header_only() {
        let series = MetricsSeries::new();
        assert_eq!(series.to_jsonl(), "");
        assert_eq!(series.to_csv(), "run,cycle\n");
        assert!(series.is_empty());
    }
}
