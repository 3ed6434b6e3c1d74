//! One workload run's result: what the child process measured, how it is
//! written under `benchmark/out/`, and the one-line form the driver reads.

use crate::host::Env;
use crate::spec::{self, END_TO_END, PER_LAYER};
use serde_json::Value;

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub workload: &'static str,
    pub env: Env,
    /// Offered flows, and those starved (sim) or not receiving in the
    /// final 500 ms (wire).
    pub attempted: u64,
    pub failed: u64,
    /// Why the outputs are not correct; empty when they are.
    pub violations: Vec<String>,
    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Every per-layer metric this run could measure. An untraced run
    /// holds the report fields only; spans and probes need `--trace 1`.
    pub layers: Vec<(&'static str, f64)>,
    /// FNV-1a digest of the serialized end-of-run report (sim workloads).
    pub report_digest: Option<String>,
    /// Sample counts and sizing, for the reader of the numbers.
    pub notes: Vec<String>,
}

/// Any serializable scalar as a JSON value (the vendored `to_value`
/// cannot fail on numbers and strings).
pub fn json<T: serde::Serialize>(v: &T) -> Value {
    serde_json::to_value(v).unwrap_or(Value::Null)
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::Object(vec![("value".into(), json(&value)), ("unit".into(), json(&unit))])
}

impl RunRecord {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn end_to_end(&self, name: &str) -> Option<f64> {
        self.end_to_end.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    pub fn layer(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    pub fn set_layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(spec::per_layer(name).is_some(), "unregistered layer metric {name}");
        match self.layers.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.layers.push((name, value)),
        }
    }

    /// Repeats the end-to-end metrics as `traced.*` layer metrics, so a
    /// traced run's result line shows what tracing cost.
    pub fn mirror_end_to_end_as_traced(&mut self) {
        for (name, value) in self.end_to_end.clone() {
            self.set_layer(spec::traced_name(name), value);
        }
    }

    /// The driver's result line: end-to-end metrics for an untraced run,
    /// every per-layer metric (0 where the stack has none) for a traced one.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<(String, Value)> = if self.env.traced {
            PER_LAYER
                .iter()
                .map(|m| (m.name.into(), metric_value(self.layer(m.name).unwrap_or(0.0), m.unit)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|e| {
                    let value = self.end_to_end(e.metric.name).unwrap_or(f64::NAN);
                    (e.metric.name.into(), metric_value(value, e.metric.unit))
                })
                .collect()
        };
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), json(&self.attempted)),
            ("failed".into(), json(&self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
        .to_string()
    }

    /// The full record, as written to `benchmark/out/run-<workload>-t<0|1>.json`
    /// and read back by the one command.
    pub fn to_value(&self) -> Value {
        let pairs = |items: &[(&'static str, f64)]| {
            Value::Object(items.iter().map(|&(n, v)| (n.to_string(), json(&v))).collect())
        };
        let strings =
            |items: &[String]| Value::Array(items.iter().cloned().map(Value::String).collect());
        Value::Object(vec![
            ("workload".into(), Value::String(self.workload.into())),
            ("env".into(), json(&self.env)),
            ("correct".into(), Value::Bool(self.correct())),
            ("violations".into(), strings(&self.violations)),
            ("attempted".into(), json(&self.attempted)),
            ("failed".into(), json(&self.failed)),
            ("end_to_end".into(), pairs(&self.end_to_end)),
            ("layers".into(), pairs(&self.layers)),
            ("report_digest".into(), self.report_digest.clone().map_or(Value::Null, Value::String)),
            ("notes".into(), strings(&self.notes)),
        ])
    }
}

/// FNV-1a 64-bit digest of a serialized report, as `pels bench` computes it.
pub fn report_digest(serialized: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in serialized.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    format!("{h:016x}")
}
