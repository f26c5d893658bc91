//! Snapshot exporters: deterministic JSON and Prometheus text.
//!
//! Both walk the registry's `BTreeMap`s, so field order is sorted name
//! order and two exports of the same state are byte-identical. The
//! only nondeterministic values in an export are span `total_ns` (wall
//! clock) — everything else is a pure function of the simulation, which
//! is what lets CI schema-check the document and tests diff the
//! deterministic subset.
//!
//! Both JSON documents are written through [`crate::json`], compact.

use crate::histogram::{upper_edge, HistogramSnapshot};
use crate::json::{array, num, JsonObject, Layout::Compact};
use crate::recorder::FieldValue;
use crate::registry::Registry;

/// Schema tag stamped into every JSON export.
pub const JSON_SCHEMA: &str = "egoist-obs/v1";

fn hist_json(s: &HistogramSnapshot) -> String {
    let buckets = s
        .buckets
        .iter()
        .map(|&(idx, c)| array(Compact, [num(upper_edge(idx)), c.to_string()]));
    JsonObject::new(Compact)
        .u64("count", s.count)
        .f64("sum", s.sum())
        .f64("p50", s.quantile(0.5))
        .f64("p90", s.quantile(0.9))
        .f64("p99", s.quantile(0.99))
        .raw("buckets", array(Compact, buckets))
        .finish()
}

impl Registry {
    /// The full registry as one deterministic JSON document.
    pub fn to_json(&self) -> String {
        let section = || JsonObject::new(Compact);
        let counters = self
            .counters_sorted()
            .iter()
            .fold(section(), |o, (k, v)| o.u64(k, *v));
        let spans = self
            .spans_sorted()
            .iter()
            .fold(section(), |o, (k, count, ns)| {
                let span = section().u64("count", *count).u64("total_ns", *ns);
                o.raw(k, span.finish())
            });
        let hists = self
            .histograms_sorted()
            .iter()
            .fold(section(), |o, (k, s)| o.raw(k, hist_json(s)));
        JsonObject::new(Compact)
            .str("schema", JSON_SCHEMA)
            .raw("counters", counters.finish())
            .raw("spans", spans.finish())
            .raw("histograms", hists.finish())
            .finish()
    }

    /// The flight-recorder ring as a JSON document (oldest first).
    pub fn events_to_json(&self) -> String {
        let events = self.events();
        let dropped = self.events_recorded() - events.len() as u64;
        let items = events.iter().map(|e| {
            let fields = e
                .fields
                .iter()
                .fold(JsonObject::new(Compact), |o, (k, v)| match v {
                    FieldValue::U64(x) => o.u64(k, *x),
                    FieldValue::I64(x) => o.raw(k, x.to_string()),
                    FieldValue::F64(x) => o.f64(k, *x),
                    FieldValue::Str(s) => o.str(k, s),
                });
            JsonObject::new(Compact)
                .u64("seq", e.seq)
                .u64("t_ns", e.t_ns)
                .str("name", e.name)
                .raw("fields", fields.finish())
                .finish()
        });
        JsonObject::new(Compact)
            .str("schema", "egoist-obs-events/v1")
            .u64("dropped", dropped)
            .raw("events", array(Compact, items))
            .finish()
    }

    /// Prometheus text exposition format (metric names are the dotted
    /// registry names with `egoist_` prefixed and dots flattened).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.counters_sorted() {
            let m = promname(&name);
            out.push_str(&format!("# TYPE {m}_total counter\n{m}_total {v}\n"));
        }
        for (name, count, total_ns) in self.spans_sorted() {
            let m = promname(&name);
            out.push_str(&format!(
                "# TYPE {m}_spans_total counter\n{m}_spans_total {count}\n"
            ));
            out.push_str(&format!(
                "# TYPE {m}_ns_total counter\n{m}_ns_total {total_ns}\n"
            ));
        }
        for (name, s) in self.histograms_sorted() {
            let m = promname(&name);
            out.push_str(&format!("# TYPE {m} histogram\n"));
            let mut cum = 0u64;
            for &(idx, c) in &s.buckets {
                cum += c;
                let le = upper_edge(idx);
                if le.is_finite() {
                    out.push_str(&format!("{m}_bucket{{le=\"{le:?}\"}} {cum}\n"));
                }
            }
            out.push_str(&format!("{m}_bucket{{le=\"+Inf\"}} {}\n", s.count));
            out.push_str(&format!("{m}_sum {:?}\n", s.sum()));
            out.push_str(&format!("{m}_count {}\n", s.count));
        }
        out
    }
}

/// Flatten a dotted instrument name into a Prometheus metric name.
fn promname(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("egoist_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::registry;

    #[test]
    fn json_is_deterministic_and_sorted() {
        let _g = crate::testutil::serial();
        crate::enable();
        registry().counter("test.export.b").add(2);
        registry().counter("test.export.a").add(1);
        let j1 = registry().to_json();
        let j2 = registry().to_json();
        assert_eq!(j1, j2);
        let ia = j1.find("test.export.a").unwrap();
        let ib = j1.find("test.export.b").unwrap();
        assert!(ia < ib, "sorted name order");
        assert!(j1.starts_with("{\"schema\":\"egoist-obs/v1\""));
        crate::disable();
    }

    #[test]
    fn prometheus_has_counter_and_histogram_families() {
        let _g = crate::testutil::serial();
        crate::enable();
        registry().counter("test.prom.count").add(7);
        let h = registry().histogram("test.prom.lat");
        h.observe(1.0);
        h.observe(3.0);
        let text = registry().to_prometheus();
        assert!(text.contains("# TYPE egoist_test_prom_count_total counter"));
        assert!(text.contains("egoist_test_prom_count_total 7"));
        assert!(text.contains("# TYPE egoist_test_prom_lat histogram"));
        assert!(text.contains("egoist_test_prom_lat_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("egoist_test_prom_lat_count 2"));
        crate::disable();
    }

    #[test]
    fn events_json_reports_drops() {
        let _g = crate::testutil::serial();
        crate::enable();
        crate::enable_trace();
        registry().reset();
        registry().set_recorder_capacity(2);
        for i in 0..4u64 {
            crate::event_at(i, "test.ev", &[("i", FieldValue::U64(i))]);
        }
        let j = registry().events_to_json();
        assert!(j.contains("\"dropped\":2"), "{j}");
        assert!(j.contains("\"seq\":3"));
        registry().set_recorder_capacity(1024);
        crate::disable_trace();
        crate::disable();
    }
}
