//! The benchmark's one percentile/statistics helper and its one JSON
//! emitter.

/// Summary of one sample set. Every percentile carries the sample count
/// it was taken over.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice: the
/// smallest sample with at least `p`% of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` and summarises them.
pub fn summarize(samples: &mut [f64]) -> Summary {
    samples.sort_by(f64::total_cmp);
    Summary {
        count: samples.len(),
        p50: nearest_rank(samples, 50.0),
        p99: nearest_rank(samples, 99.0),
    }
}

/// Median of a sample set (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 50.0)
}

/// One named metric of the final report.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in report order.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric `{name}` reported twice"
        );
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.metrics.push(Metric { name, value, unit });
    }

    /// Prints one human-readable line per metric.
    pub fn print_table(&self) {
        for m in &self.metrics {
            println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its unit. Floats use Rust's shortest round-trip rendering, so
    /// each value keeps all of its digits.
    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), 50.0);
        assert_eq!(nearest_rank(&s, 99.0), 99.0);
        assert_eq!(nearest_rank(&s, 100.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn json_keeps_digits() {
        let mut r = Report::default();
        r.push("a", 0.123456789012, "ms");
        r.push("b", 42.0, "count");
        let line = r.to_json(true, 3, 0);
        assert!(line.contains("\"value\": 0.123456789012"));
        assert!(line.contains("\"value\": 42,"));
    }
}
