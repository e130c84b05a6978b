//! What one workload run reports: operations attempted and failed, the
//! metrics by name and unit, and figures kept for the results file only.

use serde_json::{Number, Value};

/// At most this many failure messages are kept; the count is exact.
const KEPT_PROBLEMS: usize = 20;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Operations and output checks that failed.
    pub failed: u64,
    /// The first failure messages.
    pub problems: Vec<String>,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Figures printed and recorded with their units, but left out of
    /// the result line: each applies to some workloads only.
    pub extras: Vec<Metric>,
    /// Figures recorded in the results file only.
    pub diagnostics: Vec<(String, Value)>,
}

impl Report {
    /// Counts one operation or check, failed when `outcome` is an error.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = outcome {
            self.failed += 1;
            if self.problems.len() < KEPT_PROBLEMS {
                self.problems.push(problem);
            }
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a figure outside the result line.
    pub fn extra(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.extras.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a diagnostic figure.
    pub fn diagnostic(&mut self, name: &str, value: Value) {
        self.diagnostics.push((name.to_owned(), value));
    }

    /// True when every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics as a JSON object of `{"value", "unit"}` records.
    pub fn metrics_value(&self) -> Value {
        records(&self.metrics)
    }

    /// The extra figures, as [`Report::metrics_value`] gives metrics.
    pub fn extras_value(&self) -> Value {
        records(&self.extras)
    }

    /// The one-line result the benchmark prints last.
    pub fn result_line(&self) -> String {
        serde_json::json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics_value(),
        })
        .to_string()
    }
}

fn records(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    serde_json::json!({"value": number(m.value), "unit": m.unit}),
                )
            })
            .collect(),
    )
}

/// A JSON number for `x`, which must be finite to be representable.
pub fn number(x: f64) -> Value {
    if x.is_finite() {
        Value::Number(Number::Float(x))
    } else {
        Value::Null
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.op(Ok(()));
        r.op(Err("mismatch".into()));
        r.metric("setup_s", 0.25, "s");
        let v: Value = serde_json::from_str(&r.result_line()).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["correct"], false);
        assert_eq!(v["attempted"].as_u64(), Some(2));
        assert_eq!(v["failed"].as_u64(), Some(1));
        assert_eq!(v["metrics"]["setup_s"]["value"], 0.25);
        assert_eq!(v["metrics"]["setup_s"]["unit"], "s");
    }
}
