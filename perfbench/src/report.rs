//! One run's result: operations attempted and failed, named metrics
//! with units, and the JSON lines the benchmark prints.

use crate::host::HostFacts;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations (and end-of-run invariants) checked.
    pub attempted: u64,
    /// How many of them were wrong.
    pub failed: u64,
    /// `(name, value, unit)`, in the order they were measured.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Extra `(key, JSON value)` pairs for the run record.
    pub record: Vec<(String, String)>,
}

impl Report {
    /// Add a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Add a numeric field to the run record only.
    pub fn note(&mut self, key: impl Into<String>, value: f64) {
        self.record.push((key.into(), json_number(value)));
    }

    /// Count `n` checked operations of which `bad` were wrong.
    pub fn ops(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Count one checked invariant; say on stderr what broke.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Whether every metric is a finite number.
    pub fn metrics_finite(&self) -> bool {
        self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_number(*v)))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0 && self.metrics_finite(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }

    /// The run record: workload, seed, host facts and every extra note.
    pub fn record_line(&self, workload: &str, seed: u64, trace: bool, host: &HostFacts) -> String {
        let mut fields = vec![
            ("record".to_string(), json_string("perfbench-run")),
            ("workload".to_string(), json_string(workload)),
            ("seed".to_string(), seed.to_string()),
            ("trace".to_string(), trace.to_string()),
            ("nproc".to_string(), host.nproc.to_string()),
            ("kernel".to_string(), json_string(&host.kernel)),
            ("cpu".to_string(), json_string(&host.cpu)),
        ];
        fields.extend(self.record.iter().cloned());
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", body.join(","))
    }
}

/// A JSON number with every digit Rust keeps; non-finite values become
/// `null` (and make the run incorrect, see [`Report::result_line`]).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_string(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report::default();
        r.ops(10, 0);
        r.metric("latency_ms", 1.25, "ms");
        r.metric("setup_s", 0.5, "s");
        assert_eq!(
            r.result_line(),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
             \"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"},\
             \"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn a_failure_or_a_non_finite_metric_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check(false, || "boom".into());
        assert!(r
            .result_line()
            .starts_with("{\"correct\":false,\"attempted\":1,\"failed\":1"));
        let mut r = Report::default();
        r.ops(1, 0);
        r.metric("x", f64::NAN, "ms");
        assert!(r.result_line().starts_with("{\"correct\":false"));
        assert!(r.result_line().contains("\"value\":null"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c \"");
    }
}
