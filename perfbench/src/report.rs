//! Metric collection, summary statistics and the JSON lines the benchmark
//! prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Everything one workload run produced: checks, metric samples (one per
/// repetition within the run) and free-form notes.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checks attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Samples per metric name; a metric's value is their median.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Free-form facts for the report line (failed checks, counts).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Records a check: counts one attempt, and a failure unless `ok`.
    /// Failed checks are also noted by `what`, so the report line says
    /// which one broke.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(("failed_check".into(), what.to_string()));
        }
    }

    /// Appends one sample of metric `name`.
    pub fn sample(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Appends one sample per element of `values`.
    pub fn samples(&mut self, name: &str, values: impl IntoIterator<Item = f64>) {
        for v in values {
            self.sample(name, v);
        }
    }

    /// The median of metric `name`'s samples, if it has any.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples.get(name).map(|s| median(s))
    }

    /// A free-form note for the report line.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}

/// Quantile cut points of `data` into `n` equal groups, by the same
/// "exclusive" method as Python's `statistics.quantiles(data, n=n)`.
/// Needs at least two data points; with one, every cut point is it.
pub fn quantiles(data: &[f64], n: usize) -> Vec<f64> {
    let mut d = data.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld == 1 {
        return vec![d[0]; n - 1];
    }
    let m = ld + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64
        })
        .collect()
}

/// The median (the middle value, or the mean of the two middle values).
pub fn median(data: &[f64]) -> f64 {
    assert!(!data.is_empty(), "median of no samples");
    let mut d = data.to_vec();
    d.sort_by(f64::total_cmp);
    let k = d.len();
    if k % 2 == 1 {
        d[k / 2]
    } else {
        (d[k / 2 - 1] + d[k / 2]) / 2.0
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in JSON, with all its digits (Rust's shortest
/// round-trip formatting).
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite());
    format!("{v}")
}

/// The per-metric sample summary: count, median, quartiles, and p90 when
/// at least ten samples lie beyond it (100 samples or more).
fn sample_summary(samples: &[f64]) -> String {
    let q = quantiles(samples, 4);
    let p90 = if samples.len() >= 100 {
        json_num(quantiles(samples, 10)[8])
    } else {
        "null".into()
    };
    format!(
        "{{\"n\":{},\"median\":{},\"q1\":{},\"q3\":{},\"p90\":{}}}",
        samples.len(),
        json_num(median(samples)),
        json_num(q[0]),
        json_num(q[2]),
        p90
    )
}

/// A JSON object from already-encoded values.
fn json_obj(pairs: impl IntoIterator<Item = (String, String)>) -> String {
    let body: Vec<String> = pairs
        .into_iter()
        .map(|(k, v)| format!("{}:{}", json_str(&k), v))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The report line: run metadata, the sample summary of every metric
/// sampled, and the notes.
pub fn report_line(meta: &[(String, String)], outcome: &Outcome) -> String {
    format!(
        "{{\"meta\":{},\"samples\":{},\"notes\":{}}}",
        json_obj(meta.iter().cloned()),
        json_obj(
            outcome
                .samples
                .iter()
                .map(|(k, s)| (k.clone(), sample_summary(s)))
        ),
        json_obj(outcome.notes.iter().map(|(k, v)| (k.clone(), json_str(v))))
    )
}

/// The result line, printed last: `correct`, `attempted`, `failed` and the
/// metrics of `table` (name, unit) in table order, each the median of its
/// samples.
pub fn result_line(outcome: &Outcome, table: &[(&str, &str)]) -> String {
    let metrics = table.iter().map(|(name, unit)| {
        let value = outcome
            .value(name)
            .unwrap_or_else(|| panic!("metric {name} was never sampled"));
        (
            name.to_string(),
            format!(
                "{{\"value\":{},\"unit\":{}}}",
                json_num(value),
                json_str(unit)
            ),
        )
    });
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        json_obj(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&data, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quantiles(&[3.0, 1.0, 2.0], 4), vec![1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let mut o = Outcome::default();
        o.check(true, "x");
        o.samples("run_s", [1.0, 3.0, 2.0]);
        assert_eq!(
            result_line(&o, &[("run_s", "s")]),
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\
             \"metrics\":{\"run_s\":{\"value\":2,\"unit\":\"s\"}}}"
        );
    }
}
