//! `compare A.json B.json`: one row per (workload, metric) of two
//! results files — A the parent, B the change — with both medians, the
//! relative change, the bound, and a verdict.
//!
//! * `ok` — B is not worse than A by more than the bound;
//! * `regressed` — it is (exit code 1);
//! * `unresolved` — the run-to-run spread of either side is wider than
//!   the bound, so the files cannot tell;
//! * `-` — per-layer metrics carry no bound.
//!
//! Fingerprints are compared too: `same` means the simulated outputs
//! are bit-identical (a pure optimisation), `changed` is reported but
//! is not by itself a regression — behaviour may move within the
//! quality metrics' bounds.

use crate::json::Value;
use crate::spec::{self, Better};
use crate::suite;

/// `setup_s` may also move by this much absolute time: a tenth of a
/// short set-up is below what a process start can resolve.
const SETUP_ABS_SLACK_S: f64 = 0.05;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Signed share by which `b` is worse than `a` (negative = better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn verdict(m: &spec::E2eSpec, a: f64, b: f64, spread_a: f64, spread_b: f64) -> Verdict {
    if spread_a.max(spread_b) > m.bound {
        return Verdict::Unresolved;
    }
    let worse = worsening(a, b, m.better);
    let mut allowed = m.bound;
    if m.name == spec::SETUP_S && a > 0.0 {
        allowed = allowed.max(SETUP_ABS_SLACK_S / a);
    }
    if worse > allowed {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn workloads(doc: &Value) -> &[Value] {
    doc.get("workloads").and_then(Value::as_arr).unwrap_or(&[])
}

fn stat(entry: &Value, section: &str, metric: &str, key: &str) -> Option<f64> {
    entry.get(section)?.get(metric)?.get(key)?.as_f64()
}

/// Compare two parsed results documents; returns the printed rows and
/// whether any metric regressed.
pub fn compare_docs(a: &Value, b: &Value) -> Result<(Vec<String>, bool), String> {
    for key in ["seed", "seconds", "smoke"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "the files were measured with different {key}: {} vs {}",
                a.get(key).map(Value::to_line).unwrap_or_default(),
                b.get(key).map(Value::to_line).unwrap_or_default()
            ));
        }
    }
    let mut rows = vec![format!(
        "{:<22} {:<26} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    )];
    let mut regressed = false;
    let mut compared = 0;
    for wa in workloads(a) {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = workloads(b)
            .iter()
            .find(|w| w.get("name") == wa.get("name"))
        else {
            continue;
        };
        compared += 1;
        for m in spec::E2E {
            let get = |w: &Value, key: &str| {
                stat(w, "end_to_end", m.name, key)
                    .ok_or_else(|| format!("{name}: {} has no {key}", m.name))
            };
            let (ma, mb) = (get(wa, "median")?, get(wb, "median")?);
            let v = verdict(m, ma, mb, get(wa, "spread")?, get(wb, "spread")?);
            regressed |= v == Verdict::Regressed;
            let identical = if m.simulated && ma.to_bits() == mb.to_bits() {
                " (bit-equal)"
            } else {
                ""
            };
            rows.push(format!(
                "{name:<22} {:<26} {ma:>14.6} {mb:>14.6} {:>+8.2}% {:>6.1}%  {}{identical}",
                m.name,
                (mb - ma) / ma.abs().max(f64::MIN_POSITIVE) * 100.0,
                m.bound * 100.0,
                v.label()
            ));
        }
        if let (Some(la), Some(lb)) = (
            wa.get("per_layer").and_then(Value::as_obj),
            wb.get("per_layer"),
        ) {
            for (metric, sa) in la {
                let (Some(ma), Some(mb)) = (
                    sa.get("median").and_then(Value::as_f64),
                    lb.get(metric)
                        .and_then(|s| s.get("median"))
                        .and_then(Value::as_f64),
                ) else {
                    continue;
                };
                let change = if ma == 0.0 {
                    0.0
                } else {
                    (mb - ma) / ma.abs() * 100.0
                };
                rows.push(format!(
                    "{name:<22} {metric:<26} {ma:>14.6} {mb:>14.6} {change:>+8.2}% {:>7}  -",
                    "-"
                ));
            }
        }
        let same = wa.get("fingerprint") == wb.get("fingerprint");
        rows.push(format!(
            "{name:<22} {:<26} {:>14} {:>14} {:>9} {:>7}  {}",
            "fingerprint",
            wa.get("fingerprint").and_then(Value::as_str).unwrap_or("?"),
            wb.get("fingerprint").and_then(Value::as_str).unwrap_or("?"),
            "",
            "",
            if same { "same" } else { "changed" }
        ));
    }
    if compared == 0 {
        return Err("the two files share no workload: nothing was compared".into());
    }
    Ok((rows, regressed))
}

/// The `compare` subcommand. `Ok(false)` = at least one regression.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (suite::load(path_a)?, suite::load(path_b)?);
    suite::validate(&a).map_err(|e| format!("{path_a}: {e}"))?;
    suite::validate(&b).map_err(|e| format!("{path_b}: {e}"))?;
    let (rows, regressed) = compare_docs(&a, &b)?;
    for row in rows {
        println!("{row}");
    }
    if regressed {
        eprintln!("compare: at least one metric regressed beyond its bound");
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::tests::results_doc;

    fn row<'a>(rows: &'a [String], metric: &str) -> &'a str {
        rows.iter()
            .find(|r| r.split_whitespace().nth(1) == Some(metric))
            .unwrap()
    }

    #[test]
    fn verdicts_on_hand_made_files() {
        let base = results_doc(&[10.0, 10.1, 10.2], 1.37, "aa");

        // Same numbers: everything ok, fingerprint same.
        let (rows, regressed) = compare_docs(&base, &base).unwrap();
        assert!(!regressed);
        assert!(row(&rows, "wall_s").ends_with("ok"));
        assert!(row(&rows, "cost_ratio").ends_with("ok (bit-equal)"));
        assert!(row(&rows, "fingerprint").ends_with("same"));

        // 40% slower with tight samples: regressed.
        let slow = results_doc(&[14.0, 14.1, 14.2], 1.37, "aa");
        let (rows, regressed) = compare_docs(&base, &slow).unwrap();
        assert!(regressed);
        assert!(row(&rows, "wall_s").ends_with("regressed"));
        // ...and the other way round it is an improvement.
        assert!(!compare_docs(&slow, &base).unwrap().1);

        // 10% slower: inside the 25% bound.
        let near = results_doc(&[11.0, 11.1, 11.2], 1.37, "aa");
        assert!(!compare_docs(&base, &near).unwrap().1);

        // Samples scattered wider than the bound: unresolved, not failed.
        let noisy = results_doc(&[6.0, 12.0, 18.0], 1.37, "aa");
        let (rows, regressed) = compare_docs(&base, &noisy).unwrap();
        assert!(!regressed);
        assert!(row(&rows, "wall_s").ends_with("unresolved"));

        // Worse wiring quality beyond its bound, changed fingerprint.
        let worse = results_doc(&[10.0, 10.1, 10.2], 1.50, "bb");
        let (rows, regressed) = compare_docs(&base, &worse).unwrap();
        assert!(regressed);
        assert!(row(&rows, "cost_ratio").ends_with("regressed"));
        assert!(row(&rows, "fingerprint").ends_with("changed"));
    }

    #[test]
    fn setup_gets_an_absolute_floor_and_direction_is_respected() {
        let setup = spec::e2e(spec::SETUP_S).unwrap();
        // +0.04 s on a 0.1 s set-up is +40% but under the 0.05 s floor.
        assert_eq!(verdict(setup, 0.1, 0.14, 0.0, 0.0), Verdict::Ok);
        assert_eq!(verdict(setup, 0.1, 0.16, 0.0, 0.0), Verdict::Regressed);
        assert_eq!(verdict(setup, 4.0, 5.2, 0.0, 0.0), Verdict::Regressed);
        let reach = spec::e2e(spec::FINAL_REACHABILITY).unwrap();
        assert_eq!(verdict(reach, 0.98, 0.99, 0.0, 0.0), Verdict::Ok);
        assert_eq!(verdict(reach, 0.98, 0.90, 0.0, 0.0), Verdict::Regressed);
    }

    #[test]
    fn files_from_different_inputs_are_refused() {
        let a = results_doc(&[1.0, 1.0], 1.2, "aa");
        let Value::Obj(mut fields) = a.clone() else {
            unreachable!()
        };
        fields[1].1 = crate::json::num(12.0);
        assert!(compare_docs(&a, &Value::Obj(fields)).is_err());
    }
}
