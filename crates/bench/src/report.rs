//! The report harness shared by `policy_race`, `chaos_fleet`,
//! `perf_baseline` and `metrics_check`.
//!
//! A report is declared once, as a [`Report`]: its schema tag, the
//! checked-in schema whose `x-required-*` lists it is held to, and the
//! one rule it adds to the structural check. Everything else — flag
//! parsing, the run-twice determinism gate, `--check`, and refusing to
//! write a document the checker rejects — is here, over documents read
//! back with [`egoist_obs::json::parse`].

use egoist_core::policies::PolicyKind;
use egoist_core::sim::{Metric, SimConfig};
use egoist_obs::json::{parse, Value};

/// Print a one-line error and exit.
fn die(code: i32, msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(code)
}

/// Read a whole file, naming it in the error.
pub fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

/// Parsed command line of a bench bin.
pub struct Flags {
    switches: Vec<String>,
    values: Vec<(String, String)>,
}

impl Flags {
    /// Split `args` into the bare `switches` and the `valued` flags (one
    /// value each) the bin declares; anything else is an error.
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
        switches: &[&str],
        valued: &[&str],
    ) -> Result<Flags, String> {
        let mut flags = Flags {
            switches: Vec::new(),
            values: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if switches.contains(&arg.as_str()) {
                flags.switches.push(arg);
            } else if valued.contains(&arg.as_str()) {
                let value = args.next().ok_or(format!("{arg} needs a value"))?;
                flags.values.push((arg, value));
            } else {
                return Err(format!("unknown flag {arg}"));
            }
        }
        Ok(flags)
    }

    /// [`Flags::parse_from`] the process arguments; a bad command line
    /// is a one-line error and exit status 2.
    pub fn parse(switches: &[&str], valued: &[&str]) -> Flags {
        Self::parse_from(std::env::args().skip(1), switches, valued).unwrap_or_else(|e| die(2, e))
    }

    pub fn on(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    pub fn value(&self, flag: &str) -> Option<&str> {
        let hit = self.values.iter().rev().find(|(f, _)| f == flag);
        hit.map(|(_, v)| v.as_str())
    }
}

/// Build one scenario twice and insist the serializations agree — the
/// determinism gate every report bin runs on every invocation.
pub fn same_twice(bin: &str, label: &str, build: impl Fn() -> String) -> String {
    eprintln!("{bin}: scenario {label} ...");
    let (a, b) = (build(), build());
    assert_eq!(
        a, b,
        "scenario {label} produced two different same-seed reports"
    );
    a
}

/// `--metrics-out PATH` / `--trace`: dump the obs registry
/// (`egoist-obs/v1`) and echo the flight recorder to stderr.
pub fn dump_obs(metrics_out: Option<&str>, trace: bool) {
    if let Some(path) = metrics_out {
        let snapshot = egoist_obs::registry().to_json();
        std::fs::write(path, format!("{snapshot}\n")).expect("write metrics");
        eprintln!("# metrics -> {path}");
    }
    if trace {
        eprintln!("{}", egoist_obs::registry().events_to_json());
    }
}

/// One kind of report document.
pub struct Report {
    /// The `"schema"` tag the document must carry.
    pub tag: &'static str,
    /// Checked-in JSON Schema whose `x-required-keys` /
    /// `x-required-instruments` extensions the document is held to.
    pub schema: Option<&'static str>,
    /// What this report demands beyond structure.
    pub rule: fn(&Value) -> Result<(), String>,
}

/// The scenario entries of a document with their names: an array of
/// objects naming themselves in `"scenario"`, or an object keyed by name.
pub fn scenarios(doc: &Value) -> Result<Vec<(&str, &Value)>, String> {
    let entries: Vec<(&str, &Value)> = match doc.get("scenarios") {
        Some(Value::Arr(items)) => items
            .iter()
            .map(|s| {
                let name = s.get("scenario").and_then(Value::as_str);
                (name.unwrap_or("<unnamed>"), s)
            })
            .collect(),
        Some(Value::Obj(fields)) => fields.iter().map(|(k, v)| (k.as_str(), v)).collect(),
        _ => return Err("report lacks the \"scenarios\" collection".to_string()),
    };
    if entries.is_empty() {
        return Err("report has no scenarios".to_string());
    }
    Ok(entries)
}

/// How many fields named `key` the subtree holds, at any depth.
fn occurrences(v: &Value, key: &str) -> usize {
    match v {
        Value::Arr(items) => items.iter().map(|i| occurrences(i, key)).sum(),
        Value::Obj(fields) => fields
            .iter()
            .map(|(k, f)| usize::from(k == key) + occurrences(f, key))
            .sum(),
        _ => 0,
    }
}

fn strings(list: &Value) -> Result<Vec<&str>, String> {
    let names = list
        .as_arr()
        .and_then(|items| items.iter().map(Value::as_str).collect());
    names.ok_or("schema: expected a list of names".to_string())
}

impl Report {
    /// Hold `report` to the tag, to the `x-required-*` lists of `schema`
    /// (each required key exactly once inside every scenario, each
    /// required instrument in its section) and to the report's own
    /// rule. Returns how many required names the schema listed.
    pub fn check(&self, report: &str, schema: Option<&str>) -> Result<usize, String> {
        let doc = parse(report).map_err(|e| format!("not JSON: {e}"))?;
        if doc.get("schema").and_then(Value::as_str) != Some(self.tag) {
            return Err(format!("document lacks the \"schema\": {:?} tag", self.tag));
        }
        let mut required = 0;
        if let Some(schema) = schema {
            let schema = parse(schema).map_err(|e| format!("schema: not JSON: {e}"))?;
            if let Some(keys) = schema.get("x-required-keys") {
                let keys = strings(keys)?;
                for (name, scenario) in scenarios(&doc)? {
                    for key in &keys {
                        let n = occurrences(scenario, key);
                        if n != 1 {
                            return Err(format!(
                                "scenario {name}: expected one \"{key}\", found {n}"
                            ));
                        }
                    }
                }
                required += keys.len();
            }
            let instruments = schema.get("x-required-instruments");
            for (section, names) in instruments.and_then(Value::as_obj).unwrap_or(&[]) {
                let have = doc.get(section);
                let have = have.ok_or(format!("document lacks the \"{section}\" object"))?;
                for name in strings(names)? {
                    if have.get(name).is_none() {
                        return Err(format!(
                            "required instrument {name} is missing from \"{section}\" \
                             (a layer lost its instrumentation?)"
                        ));
                    }
                    required += 1;
                }
            }
        }
        (self.rule)(&doc)?;
        Ok(required)
    }

    fn check_text(&self, doc: &str, schema_path: Option<&str>) -> Result<usize, String> {
        let schema = schema_path.or(self.schema).map(read).transpose()?;
        self.check(doc, schema.as_deref())
    }

    /// `--check PATH`: print the verdict, or the reason and exit 1.
    /// `schema_path` overrides the report's checked-in schema.
    pub fn check_file(&self, path: &str, schema_path: Option<&str>) {
        match read(path).and_then(|doc| self.check_text(&doc, schema_path)) {
            Ok(0) => println!("{path}: valid {} document", self.tag),
            Ok(required) => println!(
                "{path}: valid {} document, {required} schema-required names present",
                self.tag
            ),
            Err(e) => die(1, format!("{path}: {e}")),
        }
    }

    /// Write `doc` to `out` (stdout without one) — but never ship a
    /// document the checker would reject.
    pub fn ship(&self, bin: &str, doc: &str, schema_path: Option<&str>, out: Option<&str>) {
        if let Err(e) = self.check_text(doc, schema_path) {
            die(
                1,
                format!("{bin}: generated report fails its own check: {e}"),
            );
        }
        match out {
            Some(path) => {
                std::fs::write(path, doc).unwrap_or_else(|e| die(1, format!("write {path}: {e}")));
                eprintln!("{bin}: wrote {path} ({} bytes)", doc.len());
            }
            None => print!("{doc}"),
        }
    }

    /// The whole `main` of a deterministic report bin:
    /// `[--quick] [--out PATH] [--schema PATH] [--check PATH]`, where
    /// `--check` validates an existing file instead of running.
    pub fn main(&self, bin: &str, build: impl FnOnce(bool) -> String) {
        let flags = Flags::parse(&["--quick"], &["--out", "--schema", "--check"]);
        let schema = flags.value("--schema");
        match flags.value("--check") {
            Some(path) => self.check_file(path, schema),
            None => self.ship(
                bin,
                &build(flags.on("--quick")),
                schema,
                flags.value("--out"),
            ),
        }
    }
}

/// `policy_race`: every verdict is an acceptance claim and must hold.
pub const TRAFFIC: Report = Report {
    tag: "egoist-traffic/v1",
    schema: Some("schemas/traffic.schema.json"),
    rule: |doc| {
        for (name, scenario) in scenarios(doc)? {
            let pass = scenario.get("verdict").and_then(|v| v.get("pass"));
            if pass != Some(&Value::Bool(true)) {
                return Err(format!("scenario {name}: failed verdict"));
            }
        }
        Ok(())
    },
};

/// The delivered share a k-Random scenario's routes must reach.
const DELIVERED_FLOOR: f64 = 0.95;

/// `chaos_fleet`: reachability fractions are actual fractions, a
/// scenario that reports its route walk (a k-Random one) delivers at
/// least 95% of its pairs at the end, and the anti-entropy refresh
/// entries are a part of what was pushed.
pub const ROBUSTNESS: Report = Report {
    tag: "egoist-robustness/v1",
    schema: Some("schemas/robustness.schema.json"),
    rule: |doc| {
        for (name, scenario) in scenarios(doc)? {
            let walked = scenario.get("final_delivered").is_some();
            let walk_keys = ["final_delivered", "min_delivered", "final_looped"];
            let keys = ["final_reachability", "min_reachability"]
                .into_iter()
                .chain(walk_keys.into_iter().filter(|_| walked));
            for key in keys {
                match scenario.get(key).and_then(Value::as_f64) {
                    Some(v) if (0.0..=1.0).contains(&v) => {}
                    other => {
                        return Err(format!("scenario {name}: {key} {other:?} outside [0, 1]"))
                    }
                }
            }
            let delivered = scenario.get("final_delivered").and_then(Value::as_f64);
            if let Some(delivered) = delivered.filter(|&d| d < DELIVERED_FLOOR) {
                return Err(format!(
                    "scenario {name}: final_delivered {delivered} is below \
                     {DELIVERED_FLOOR}: routes loop or black-hole"
                ));
            }
            let ae = |key| {
                let v = scenario.get("anti_entropy").and_then(|a| a.get(key));
                v.and_then(Value::as_u64)
            };
            match (ae("refreshed"), ae("pushed")) {
                (Some(refreshed), Some(pushed)) if refreshed <= pushed => {}
                (refreshed, pushed) => {
                    return Err(format!(
                        "scenario {name}: anti_entropy refreshed {refreshed:?} \
                         is not a part of pushed {pushed:?}"
                    ))
                }
            }
        }
        Ok(())
    },
};

/// The obs registry export (`--metrics-out`): every span and histogram
/// entry carries its full set of fields.
pub const METRICS: Report = Report {
    tag: "egoist-obs/v1",
    schema: Some("schemas/metrics.schema.json"),
    rule: |doc| {
        let shapes: [(&str, &[&str]); 2] = [
            ("spans", &["count", "total_ns"]),
            (
                "histograms",
                &["count", "sum", "p50", "p90", "p99", "buckets"],
            ),
        ];
        for (section, fields) in shapes {
            let entries = doc.get(section).and_then(Value::as_obj).unwrap_or(&[]);
            for (name, entry) in entries {
                if let Some(field) = fields.iter().find(|f| entry.get(f).is_none()) {
                    return Err(format!("{section} entry {name} has no \"{field}\""));
                }
            }
        }
        Ok(())
    },
};

/// Fields every `perf_baseline` scenario carries; the per-phase fields
/// are epoch-stepping-only and therefore not listed.
const PERF_FIELDS: [&str; 7] = [
    "n",
    "k",
    "epochs",
    "wall_ms",
    "rewirings",
    "fingerprint",
    "prev_wall_ms",
];

/// `perf_baseline`: counts that are the same on every runner, unlike
/// the milliseconds — one snapshot build per underlay advance, a §5
/// shortlist that cuts exactly when it is offered more than the default
/// `m` candidates, and turns that name to the route state exactly the
/// rows the shortlist kept.
pub const PERF: Report = Report {
    tag: "egoist-perf-baseline/v3",
    schema: None,
    rule: perf_rule,
};

fn perf_rule(doc: &Value) -> Result<(), String> {
    let default_m =
        SimConfig::baseline(1, PolicyKind::BestResponse, Metric::DelayPing, 0).sample_size as u64;
    for (name, s) in scenarios(doc)? {
        let missing: Vec<&str> = PERF_FIELDS
            .iter()
            .copied()
            .filter(|field| s.get(field).is_none())
            .collect();
        if !missing.is_empty() {
            return Err(format!("{name}: no {}", missing.join(", ")));
        }
        let count = |key: &str| s.get(key).and_then(Value::as_u64);
        let (Some(n), Some(epochs)) = (count("n"), count("epochs")) else {
            return Err(format!("{name}: n / epochs are not counts"));
        };
        // Epoch-stepping entries only: the traffic scenario has no
        // snapshot counters.
        let Some(rebuilds) = count("rebuilds") else {
            continue;
        };
        // Re-wirings and churn are deltas, so a snapshot is built
        // once per underlay advance.
        if rebuilds > epochs + 1 {
            return Err(format!(
                "{name}: {rebuilds} snapshot rebuilds in {epochs} epochs — \
                 something invalidates where it should patch"
            ));
        }
        // br_delay_n200 is offered 199 > m candidates and must cut;
        // br_delay_n50 (49) must not — or the sampled turn was
        // silently disabled, or leaked into the paper-scale runs.
        let (Some(offered), Some(kept)) = (count("shortlist_offered"), count("shortlist_kept"))
        else {
            return Err(format!("{name}: no shortlist_offered / shortlist_kept"));
        };
        let cuts = n - 1 > default_m;
        if kept > offered || (kept < offered) != cuts {
            return Err(format!(
                "{name}: shortlist kept {kept} of {offered} candidates, expected {}",
                if cuts { "fewer" } else { "all" }
            ));
        }
        // A turn repairs the rows its solver reads; one that goes back
        // to repairing every row fails here, on every runner.
        if count("residual_named") != Some(kept) {
            return Err(format!(
                "{name}: residual_named is {:?} but the shortlists kept {kept}",
                count("residual_named")
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_file(name: &str) -> String {
        read(&format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"))).unwrap()
    }

    /// An export with every instrument the metrics schema requires.
    fn demo_export(schema: &str) -> String {
        let schema = parse(schema).unwrap();
        let required = |section| strings(schema.get("x-required-instruments")?.get(section)?).ok();
        egoist_obs::enable();
        let r = egoist_obs::registry();
        for name in required("counters").unwrap() {
            r.counter(name).inc();
        }
        for name in required("spans").unwrap() {
            r.timer(name).add_ns(10);
        }
        for name in required("histograms").unwrap() {
            r.histogram(name).observe(1.5);
        }
        let doc = r.to_json();
        egoist_obs::disable();
        doc
    }

    /// Replace the `nth` (0-based) occurrence of `from`.
    fn replace_nth(doc: &str, nth: usize, from: &str, to: &str) -> String {
        let (at, _) = doc.match_indices(from).nth(nth).expect("mutation target");
        format!("{}{to}{}", &doc[..at], &doc[at + from.len()..])
    }

    #[test]
    fn committed_reports_validate_and_every_mutation_is_rejected() {
        let load = |r: &Report| repo_file(r.schema.unwrap());
        let metrics_schema = load(&METRICS);
        let reports = [
            (
                &TRAFFIC,
                repo_file("BENCH_traffic.json"),
                Some(load(&TRAFFIC)),
            ),
            (
                &ROBUSTNESS,
                repo_file("BENCH_robustness.json"),
                Some(load(&ROBUSTNESS)),
            ),
            (&METRICS, demo_export(&metrics_schema), Some(metrics_schema)),
            (&PERF, repo_file("BENCH_perf.json"), None),
        ];
        for (report, doc, schema) in &reports {
            let verdict = report.check(doc, schema.as_deref());
            assert!(verdict.is_ok(), "{}: {verdict:?}", report.tag);
        }
        type Mutation = Box<dyn Fn(&str) -> String>;
        let swap = |nth: usize, from: &'static str, to: &'static str| -> Mutation {
            Box::new(move |doc| replace_nth(doc, nth, from, to))
        };
        let all = |from: &'static str, to: &'static str| -> Mutation {
            Box::new(move |doc| doc.replace(from, to))
        };
        // (report index, mutation, what the rejection must name)
        let table: Vec<(usize, Mutation, &str)> = vec![
            (0, swap(0, "\"workload\":", "\"renamed\":"), "\"workload\""),
            (0, all("egoist-traffic/v1", "egoist-traffic/v0"), "tag"),
            (
                0,
                swap(0, "\"pass\":true", "\"pass\":false"),
                "failed verdict",
            ),
            (0, swap(0, "\"scenarios\":[", "\"renamed\":["), "scenarios"),
            (
                1,
                all("\"min_reachability\":", "\"renamed\":"),
                "\"min_reachability\"",
            ),
            (
                1,
                all("egoist-robustness/v1", "egoist-robustness/v0"),
                "tag",
            ),
            (
                1,
                swap(0, "\"min_reachability\": 0.", "\"min_reachability\": 2."),
                "outside [0, 1]",
            ),
            // The totals agree (the substring counters passed this):
            // the first scenario lacks the key, the second has it twice.
            (
                1,
                Box::new(|doc| {
                    let lacking = replace_nth(doc, 0, "\"min_reachability\":", "\"renamed\":");
                    let nested = "\"fault\": {\"min_reachability\": 0.5, ";
                    replace_nth(&lacking, 1, "\"fault\": {", nested)
                }),
                "storm_partition: expected one \"min_reachability\", found 0",
            ),
            // More refresh entries than LSAs pushed.
            (
                1,
                swap(0, "\"refreshed\": ", "\"refreshed\": 99999999"),
                "storm_partition: anti_entropy refreshed",
            ),
            (1, swap(3, "\"refreshed\":", "\"renamed\":"), "chaos_n1000"),
            // The k-Random scenario's routes stop delivering, or one of
            // its walk shares leaves [0, 1].
            (
                1,
                swap(
                    0,
                    "\"final_delivered\": ",
                    "\"final_delivered\": 0.5, \"was\": ",
                ),
                "chaos_n1000: final_delivered 0.5 is below 0.95",
            ),
            (
                1,
                swap(0, "\"final_looped\": ", "\"final_looped\": 2"),
                "chaos_n1000: final_looped",
            ),
            (
                2,
                all("\"traffic.flow_latency_ms\":", "\"traffic.renamed\":"),
                "traffic.flow_latency_ms",
            ),
            (2, all("egoist-obs/v1", "egoist-obs/v0"), "tag"),
            (2, swap(0, "\"total_ns\":", "\"renamed\":"), "\"total_ns\""),
            (2, swap(0, "\"p90\":", "\"renamed\":"), "\"p90\""),
            (
                2,
                swap(0, "\"histograms\":{", "\"renamed\":{"),
                "\"histograms\"",
            ),
            (
                3,
                all("egoist-perf-baseline/v3", "egoist-perf-baseline/v2"),
                "tag",
            ),
            (
                3,
                swap(0, "\"fingerprint\":", "\"renamed\":"),
                "no fingerprint",
            ),
            (
                3,
                swap(0, "\"rebuilds\":8,", "\"rebuilds\":10,"),
                "10 snapshot rebuilds",
            ),
            // n = 50 must keep every candidate, n = 200 must cut.
            (
                3,
                swap(0, "\"shortlist_kept\":19600", "\"shortlist_kept\":19599"),
                "expected all",
            ),
            (
                3,
                swap(0, "\"shortlist_kept\":56000", "\"shortlist_kept\":159200"),
                "expected fewer",
            ),
            (
                3,
                swap(0, "\"shortlist_kept\":", "\"renamed\":"),
                "no shortlist_offered",
            ),
            // The turns named every row again (n − 1 = 199 per turn).
            (
                3,
                swap(0, "\"residual_named\":56000", "\"residual_named\":159200"),
                "br_delay_n200: residual_named is Some(159200)",
            ),
            (
                3,
                swap(0, "\"residual_named\":", "\"renamed\":"),
                "residual_named is None",
            ),
        ];
        for (i, (which, mutate, names)) in table.iter().enumerate() {
            let (report, doc, schema) = &reports[*which];
            let mutated = mutate(doc);
            assert_ne!(&mutated, doc, "case {i} changed nothing");
            let err = report
                .check(&mutated, schema.as_deref())
                .expect_err(&format!("case {i} ({names}) must be rejected"));
            assert!(
                err.contains(names),
                "case {i}: {err:?} does not name {names:?}"
            );
        }
    }

    #[test]
    fn flags_split_switches_and_values_and_reject_the_rest() {
        let parse = |args: &[&str]| {
            let args = args.iter().map(|a| a.to_string());
            Flags::parse_from(args, &["--quick"], &["--out", "--check"])
        };
        let flags = parse(&["--out", "a.json", "--quick", "--out", "b.json"]).unwrap();
        assert!(flags.on("--quick"));
        assert_eq!(flags.value("--out"), Some("b.json"));
        assert_eq!(flags.value("--check"), None);
        assert_eq!(parse(&["--fast"]).err().unwrap(), "unknown flag --fast");
        assert_eq!(parse(&["--check"]).err().unwrap(), "--check needs a value");
    }

    #[test]
    #[should_panic(expected = "two different same-seed reports")]
    fn determinism_gate_trips_on_a_changing_scenario() {
        let calls = std::cell::Cell::new(0);
        same_twice("test", "drifting", || {
            calls.set(calls.get() + 1);
            calls.get().to_string()
        });
    }
}
