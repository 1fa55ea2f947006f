//! The benchmark's contract, read from `BENCHMARK.json`.
//!
//! The file at the repository root is the single declaration of every
//! workload and metric. It is embedded at build time, `--list` prints
//! it, and [`Emitter`] refuses any metric name it does not declare —
//! so what a run prints and what the contract promises cannot drift.

use serde_json::Value;
use std::collections::BTreeMap;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: u64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// Metric and workload names: letters, digits, `_`, `.`, `-`, starting
/// with a letter or a digit, at most 64 long.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: missing string `{key}`"))
}

fn metrics(doc: &Value, key: &str) -> Result<Vec<Metric>, String> {
    let list = doc
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: missing list `{key}`"))?;
    list.iter()
        .map(|m| {
            let metric = Metric {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                better: text(m, "better")?,
                bound: m.get("bound").and_then(Value::as_f64),
            };
            if !valid_name(&metric.name) {
                return Err(format!("BENCHMARK.json: bad metric name `{}`", metric.name));
            }
            Ok(metric)
        })
        .collect()
}

impl Spec {
    /// Parse the embedded `BENCHMARK.json`.
    pub fn load() -> Result<Spec, String> {
        let doc: Value =
            serde_json::from_str(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_array)
            .ok_or("BENCHMARK.json: missing list `workloads`")?
            .iter()
            .map(|w| Ok((text(w, "name")?, text(w, "why")?)))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_u64)
                .ok_or("BENCHMARK.json: missing `run_seconds`")?,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// `--list`: every workload and metric with unit and bound.
    pub fn list(&self, default_seed: u64) -> String {
        let mut out = format!(
            "run_seconds {}   default seed {default_seed}\n\nworkloads:\n",
            self.run_seconds
        );
        for (name, why) in &self.workloads {
            out.push_str(&format!("  {name:<18} {why}\n"));
        }
        out.push_str("\nend-to-end metrics (--trace 0):\n");
        for m in &self.end_to_end {
            let bound = m.bound.map_or("-".to_string(), |b| format!("{b}"));
            out.push_str(&format!(
                "  {:<26} unit {:<6} better {:<6} bound {bound}\n",
                m.name, m.unit, m.better
            ));
        }
        out.push_str("\nper-layer metrics (--trace 1):\n");
        for m in &self.per_layer {
            out.push_str(&format!(
                "  {:<26} unit {:<6} better {}\n",
                m.name, m.unit, m.better
            ));
        }
        out
    }
}

/// Collects one run's metric values against one declared section.
pub struct Emitter<'a> {
    declared: &'a [Metric],
    /// name → (value, human-readable detail).
    values: BTreeMap<String, (f64, String)>,
}

impl<'a> Emitter<'a> {
    pub fn new(declared: &'a [Metric]) -> Emitter<'a> {
        Emitter {
            declared,
            values: BTreeMap::new(),
        }
    }

    /// Record `name = value`; refuses a name `BENCHMARK.json` does not
    /// declare, and a value that is not a finite number.
    pub fn set(&mut self, name: &str, value: f64, detail: String) -> Result<(), String> {
        if !self.declared.iter().any(|m| m.name == name) {
            return Err(format!("metric `{name}` is not declared in BENCHMARK.json"));
        }
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not a finite number: {value}"));
        }
        self.values.insert(name.to_string(), (value, detail));
        Ok(())
    }

    /// The human-readable lines and the `metrics` JSON object, in
    /// declaration order. With `require_all` every declared metric must
    /// have been set; otherwise an unset one (a layer this workload
    /// does not run) reads 0 and is marked so.
    pub fn render(&self, require_all: bool) -> Result<(String, String), String> {
        let mut lines = String::new();
        let mut json = String::from("{");
        for (i, m) in self.declared.iter().enumerate() {
            let (value, detail) = match self.values.get(&m.name) {
                Some((v, d)) => (*v, d.as_str()),
                None if require_all => {
                    return Err(format!("metric `{}` was not measured", m.name));
                }
                None => (0.0, "not on this workload"),
            };
            lines.push_str(&format!("{:<26} = {value} {}", m.name, m.unit));
            if !detail.is_empty() {
                lines.push_str(&format!("   [{detail}]"));
            }
            lines.push('\n');
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        json.push('}');
        Ok((lines, json))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_shipped_contract_parses_and_names_are_valid() {
        let spec = Spec::load().unwrap();
        assert_eq!(spec.workloads.len(), 4);
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.len() <= 128);
        for (name, why) in &spec.workloads {
            assert!(valid_name(name) && why.len() <= 200 && !why.contains('\n'));
        }
        let listing = spec.list(1);
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(listing.contains(&m.name));
        }
    }

    #[test]
    fn undeclared_names_are_refused() {
        let spec = Spec::load().unwrap();
        let mut e = Emitter::new(&spec.end_to_end);
        assert!(e.set("wall_s", 1.5, String::new()).is_ok());
        assert!(e.set("wall_seconds", 1.5, String::new()).is_err());
        assert!(e.set("wall_s", f64::NAN, String::new()).is_err());
        assert!(e.render(true).is_err(), "setup_s and others are unset");
        let (_, json) = Emitter::new(&spec.per_layer).render(false).unwrap();
        assert!(json.contains("\"sim.run_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(!valid_name("bad name") && !valid_name("_x") && valid_name("trace.take_s"));
    }
}
