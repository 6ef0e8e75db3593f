//! What a workload hands back: failure accounting, metrics, and the run
//! record lines, plus the JSON line the benchmark ends with.

use std::collections::BTreeMap;

/// Operations attempted and failed. A failed operation is one that never
/// completed or whose output differs from the reference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn absorb(&mut self, other: Tally) {
        self.add(other.attempted, other.failed);
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Named metrics with units, kept in name order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }
}

/// One workload pass: failures, the metrics it measured, the quantities
/// the tracing-overhead comparison needs, and its run record.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    /// `VmHWM` after the first episode (or verdict): the memory one run
    /// of the workload needs, independent of how many fit the budget.
    pub peak_rss_mb: f64,
    pub record: Vec<String>,
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest string that parses back to `v`.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(tally: Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, &(value, unit))| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(value))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_and_full_digits() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.123456789012, "s");
        m.set("peak_rss_mb", 12.5, "MiB");
        let line = result_json(Tally { attempted: 10, failed: 0 }, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"peak_rss_mb\": {\"value\": 12.5, \"unit\": \"MiB\"}, \
             \"setup_s\": {\"value\": 0.123456789012, \"unit\": \"s\"}}}"
        );
        let bad = result_json(Tally { attempted: 10, failed: 1 }, &m);
        assert!(bad.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1,"));
    }

    #[test]
    fn failed_share_counts_against_attempted() {
        let mut t = Tally::default();
        t.add(4, 1);
        t.absorb(Tally { attempted: 4, failed: 0 });
        assert_eq!(t.failed_share(), 0.125);
    }
}
