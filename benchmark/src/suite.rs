//! The suite: every workload, each repetition in a fresh child process
//! (this same executable in single-run mode), aggregated into one
//! results document — and the validator for such documents.

use crate::json::{self, Value};
use crate::stats::{spread, summarize};
use crate::{spec, RunFlags};
use std::process::{Command, Stdio};

pub const RESULTS_SCHEMA_TAG: &str = "egoist-benchmark-results/v1";

/// Timing medians need at least three fresh-process repetitions.
const DEFAULT_REPS: usize = 3;

/// One child run, parsed back from its `detail` line.
struct ChildRun {
    detail: Value,
}

impl ChildRun {
    fn metric(&self, section: &str, name: &str) -> Option<f64> {
        self.detail.get(section)?.get(name)?.get("value")?.as_f64()
    }

    fn field(&self, name: &str) -> &Value {
        self.detail.get(name).unwrap_or(&Value::Null)
    }
}

fn run_child(
    flags: &RunFlags,
    workload: &str,
    traced: bool,
    trace_out: Option<&str>,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &flags.seed.to_string()])
        .args(["--seconds", &flags.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if flags.smoke {
        cmd.arg("--smoke");
    }
    if let Some(path) = trace_out {
        cmd.args(["--trace-out", path]);
    }
    // `output` waits for the child and collects its pipes; the child's
    // stderr (warnings) passes straight through.
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or_else(|| format!("{workload}: child printed no detail line:\n{stdout}"))?;
    let detail = json::parse(detail).map_err(|e| format!("{workload}: bad detail line: {e}"))?;
    if !output.status.success() || detail.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "{workload}: run incorrect ({}):\n{stdout}",
            output.status
        ));
    }
    Ok(ChildRun { detail })
}

fn summary_json(unit: &str, values: &[f64]) -> Value {
    let s = summarize(values);
    json::obj([
        ("unit", json::text(unit)),
        ("median", json::num(s.median)),
        ("min", json::num(s.min)),
        ("max", json::num(s.max)),
        ("samples", json::num(s.samples as f64)),
        ("spread", json::num(spread(values))),
    ])
}

/// All repetitions of one workload → its entry in the results file.
fn aggregate(
    workload: &str,
    runs: &[ChildRun],
    traced: Option<&ChildRun>,
) -> Result<Value, String> {
    let first = &runs[0];
    let mut e2e = Vec::new();
    for m in spec::E2E {
        let values: Vec<f64> = runs
            .iter()
            .map(|r| {
                r.metric("end_to_end", m.name)
                    .ok_or_else(|| format!("{workload}: child omitted {}", m.name))
            })
            .collect::<Result<_, _>>()?;
        if m.simulated && values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
            return Err(format!(
                "{workload}: simulated metric {} differs between repetitions: {values:?}",
                m.name
            ));
        }
        e2e.push((m.name, summary_json(m.unit, &values)));
    }
    for key in ["fingerprint", "ops", "ops_lost", "failed", "sizes"] {
        if runs.iter().any(|r| r.field(key) != first.field(key)) {
            return Err(format!("{workload}: {key} differs between repetitions"));
        }
    }
    let mut entry = vec![
        ("name".to_string(), json::text(workload)),
        ("sizes".to_string(), first.field("sizes").clone()),
        (
            "fingerprint".to_string(),
            first.field("fingerprint").clone(),
        ),
        ("ops".to_string(), first.field("ops").clone()),
        ("ops_lost".to_string(), first.field("ops_lost").clone()),
        ("failed".to_string(), first.field("failed").clone()),
        ("correct".to_string(), Value::Bool(true)),
        ("end_to_end".to_string(), json::obj(e2e)),
    ];
    if let Some(t) = traced {
        let mut layers = Vec::new();
        for m in spec::LAYERS {
            let v = t
                .metric("per_layer", m.name)
                .ok_or_else(|| format!("{workload}: traced child omitted {}", m.name))?;
            layers.push((m.name, summary_json(m.unit, &[v])));
        }
        // Tracing overhead: the traced run's timed section over the
        // untraced median, same workload, seed and sizes.
        let untraced: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.metric("end_to_end", spec::WALL_S))
            .collect();
        let traced_wall = t
            .metric("end_to_end", spec::WALL_S)
            .ok_or_else(|| format!("{workload}: traced child omitted wall_s"))?;
        layers.push((
            spec::OBS_OVERHEAD_RATIO,
            summary_json("ratio", &[traced_wall / crate::stats::median(&untraced)]),
        ));
        entry.push(("per_layer".to_string(), json::obj(layers)));
    }
    Ok(Value::Obj(entry))
}

/// Run the suite described by `flags`; print a summary; write `--out`.
pub fn run(flags: &RunFlags) -> Result<bool, String> {
    let reps = flags.reps.unwrap_or(DEFAULT_REPS);
    let names: Vec<&str> = match &flags.workload {
        Some(w) => vec![w.as_str()],
        None => spec::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let mut entries = Vec::new();
    let mut host = Value::Null;
    for name in names {
        let mut runs = Vec::with_capacity(reps);
        for rep in 0..reps {
            eprintln!("# {name}: repetition {}/{reps}", rep + 1);
            runs.push(run_child(flags, name, false, None)?);
        }
        let traced = if flags.traced {
            eprintln!("# {name}: traced pass");
            let trace_out = flags
                .out
                .as_ref()
                .map(|out| format!("{}.trace.{name}.json", out.trim_end_matches(".json")));
            Some(run_child(flags, name, true, trace_out.as_deref())?)
        } else {
            None
        };
        host = runs[0].field("host").clone();
        let entry = aggregate(name, &runs, traced.as_ref())?;
        print_entry(&entry);
        entries.push(entry);
    }
    let doc = json::obj([
        ("schema", json::text(RESULTS_SCHEMA_TAG)),
        ("seed", json::num(flags.seed as f64)),
        ("seconds", json::num(flags.seconds as f64)),
        ("reps", json::num(reps as f64)),
        ("smoke", Value::Bool(flags.smoke)),
        ("host", host),
        ("workloads", Value::Arr(entries)),
    ]);
    validate(&doc)?;
    if let Some(path) = &flags.out {
        std::fs::write(path, doc.to_pretty()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("# results -> {path}");
    }
    Ok(true)
}

fn print_entry(entry: &Value) {
    let name = entry.get("name").and_then(Value::as_str).unwrap_or("?");
    for section in ["end_to_end", "per_layer"] {
        let Some(metrics) = entry.get(section).and_then(Value::as_obj) else {
            continue;
        };
        for (metric, s) in metrics {
            let f = |k: &str| s.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
            println!(
                "{name} {metric} {:?} {} (min {:?} max {:?} n={})",
                f("median"),
                s.get("unit").and_then(Value::as_str).unwrap_or(""),
                f("min"),
                f("max"),
                f("samples")
            );
        }
    }
    let field = |k: &str| entry.get(k).map(Value::to_line).unwrap_or_default();
    println!(
        "{name} ops {} lost {} failed {} fingerprint {}",
        field("ops"),
        field("ops_lost"),
        field("failed"),
        field("fingerprint")
    );
}

/// `run --check FILE`.
pub fn check_file(path: &str) -> Result<(), String> {
    validate(&load(path)?).map_err(|e| format!("{path}: {e}"))
}

pub fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Validate a results document against `results.schema.json` (compiled
/// in, so the check does not depend on where the binary runs).
pub fn validate(doc: &Value) -> Result<(), String> {
    let schema = json::parse(include_str!("../results.schema.json"))
        .map_err(|e| format!("results.schema.json: {e}"))?;
    validate_at(doc, &schema, "$")
}

/// The subset of JSON Schema the results schema uses: `type`, `const`,
/// `enum`, `minimum`, `required`, `properties`, `additionalProperties`
/// (as a schema) and `items`.
fn validate_at(v: &Value, schema: &Value, at: &str) -> Result<(), String> {
    if let Some(t) = schema.get("type").and_then(Value::as_str) {
        let ok = match t {
            "integer" => v.as_f64().is_some_and(|n| n.fract() == 0.0),
            t => v.type_name() == t,
        };
        if !ok {
            return Err(format!("{at}: expected {t}, found {}", v.type_name()));
        }
    }
    if let Some(c) = schema.get("const") {
        if v != c {
            return Err(format!("{at}: expected {}", c.to_line()));
        }
    }
    if let Some(options) = schema.get("enum").and_then(Value::as_arr) {
        if !options.contains(v) {
            return Err(format!("{at}: {} is not an allowed value", v.to_line()));
        }
    }
    if let (Some(min), Some(n)) = (schema.get("minimum").and_then(Value::as_f64), v.as_f64()) {
        if n < min {
            return Err(format!("{at}: {n} is below the minimum {min}"));
        }
    }
    if let Some(required) = schema.get("required").and_then(Value::as_arr) {
        for key in required.iter().filter_map(Value::as_str) {
            if v.get(key).is_none() {
                return Err(format!("{at}: missing required key {key:?}"));
            }
        }
    }
    if let Some(fields) = v.as_obj() {
        let props = schema.get("properties");
        let extra = schema.get("additionalProperties");
        for (key, child) in fields {
            let child_at = format!("{at}.{key}");
            match (props.and_then(|p| p.get(key)), extra) {
                (Some(sub), _) => validate_at(child, sub, &child_at)?,
                (None, Some(Value::Bool(false))) => {
                    return Err(format!("{child_at}: key not allowed"))
                }
                (None, Some(sub @ Value::Obj(_))) => validate_at(child, sub, &child_at)?,
                (None, _) => {}
            }
        }
    }
    if let (Some(items), Some(sub)) = (v.as_arr(), schema.get("items")) {
        for (i, item) in items.iter().enumerate() {
            validate_at(item, sub, &format!("{at}[{i}]"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A minimal valid results document with one workload whose
    /// `wall_s` samples are `wall` and whose `cost_ratio` is `cost`.
    pub fn results_doc(wall: &[f64], cost: f64, fingerprint: &str) -> Value {
        let e2e = spec::E2E.iter().map(|m| {
            let values = match m.name {
                spec::WALL_S => wall.to_vec(),
                spec::COST_RATIO => vec![cost; wall.len()],
                _ => vec![1.0; wall.len()],
            };
            (m.name, summary_json(m.unit, &values))
        });
        json::obj([
            ("schema", json::text(RESULTS_SCHEMA_TAG)),
            ("seed", json::num(11.0)),
            ("seconds", json::num(10.0)),
            ("reps", json::num(wall.len() as f64)),
            ("smoke", Value::Bool(false)),
            ("host", crate::host_json()),
            (
                "workloads",
                Value::Arr(vec![json::obj([
                    ("name", json::text(spec::WIRING_BR_DELAY)),
                    ("sizes", json::obj([("n", json::num(500.0))])),
                    ("fingerprint", json::text(fingerprint)),
                    ("ops", json::num(1500.0)),
                    ("ops_lost", json::num(0.0)),
                    ("failed", json::num(0.0)),
                    ("correct", Value::Bool(true)),
                    ("end_to_end", json::obj(e2e)),
                ])]),
            ),
        ])
    }

    #[test]
    fn schema_accepts_a_results_document_and_rejects_drift() {
        let doc = results_doc(&[9.0, 9.1, 9.2], 1.37, "00000000000000ab");
        validate(&doc).unwrap();
        // Survives a write / read round trip.
        validate(&json::parse(&doc.to_pretty()).unwrap()).unwrap();

        let Value::Obj(mut fields) = doc.clone() else {
            unreachable!()
        };
        fields[0].1 = json::text("egoist-benchmark-results/v0");
        let err = validate(&Value::Obj(fields)).unwrap_err();
        assert!(err.contains("$.schema"), "{err}");

        let Value::Obj(mut fields) = doc else {
            unreachable!()
        };
        fields.retain(|(k, _)| k != "workloads");
        let err = validate(&Value::Obj(fields)).unwrap_err();
        assert!(err.contains("workloads"), "{err}");
    }
}
