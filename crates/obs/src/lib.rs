//! Deterministic observability for the EGOIST stack.
//!
//! Every layer of the reproduction — epoch engine, BR solver, APSP
//! repair, data-plane router, protocol nodes — reports through one
//! process-wide [`Registry`] of named instruments:
//!
//! * [`Counter`] — monotonic `u64`, atomic, deterministic across runs
//!   (counts derive only from simulation decisions, never from time);
//! * [`Histogram`] — log-linear buckets with a deterministic merge and
//!   bucket-edge-bounded quantiles (see `histogram` module docs);
//! * [`Timer`] — a named span accumulating `(count, total_ns)`;
//!   hierarchy is encoded in dotted names (`core.epoch.turn.solver` is
//!   a child of `core.epoch.turn`), so exports can be re-nested without
//!   the registry tracking parent pointers;
//! * the flight [`recorder`] — a bounded ring of recent structured
//!   events for postmortem on failed runs.
//!
//! # Determinism
//!
//! Counters and histograms observe *simulation quantities* (messages
//! sent, candidates scanned, flow latency in simulated ms), so two runs
//! with the same seed export bit-identical values. Wall-clock time
//! enters exactly one place: span durations (`total_ns`), which are
//! explicitly excluded from fingerprints and schema-checked exports'
//! deterministic subset. Flight-recorder timestamps are supplied by the
//! caller (virtual time in the tokio-paused protocol tests) or drawn
//! from a process-monotonic clock for interactive postmortems.
//!
//! # Zero cost when disabled
//!
//! All instruments are no-ops unless [`enable`] has been called: one
//! relaxed atomic load and a predictable branch, no `Instant::now()`
//! syscall, no allocation. The `perf_baseline --overhead-gate` CI step
//! pins the enabled-vs-disabled wall-time gap under 3%.

pub mod counter;
pub mod export;
pub mod histogram;
pub mod json;
pub mod recorder;
pub mod registry;
pub mod span;

pub use counter::Counter;
pub use histogram::{Histogram, HistogramSnapshot};
pub use recorder::{Event, FieldValue};
pub use registry::{registry, Registry};
pub use span::{SpanGuard, Timer};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACE: AtomicBool = AtomicBool::new(false);

/// Turn instrumentation on. Cheap, idempotent, thread-safe.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn instrumentation off. Existing values stay readable.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// The single fast-path check every instrument performs first.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the flight recorder on (implies nothing about metrics —
/// recording is gated on `is_enabled() && is_tracing()`).
pub fn enable_trace() {
    TRACE.store(true, Ordering::SeqCst);
}

/// Turn the flight recorder off.
pub fn disable_trace() {
    TRACE.store(false, Ordering::SeqCst);
}

/// Whether flight-recorder events should be captured.
#[inline(always)]
pub fn is_tracing() -> bool {
    TRACE.load(Ordering::Relaxed)
}

/// Convenience: fetch-or-register a counter from the global registry.
pub fn counter(name: &str) -> Counter {
    registry().counter(name)
}

/// Convenience: fetch-or-register a histogram from the global registry.
pub fn histogram(name: &str) -> Histogram {
    registry().histogram(name)
}

/// Convenience: fetch-or-register a span timer from the global registry.
pub fn timer(name: &str) -> Timer {
    registry().timer(name)
}

/// Convenience: record a flight-recorder event at a caller-supplied
/// timestamp (nanoseconds; virtual time in protocol tests).
pub fn event_at(t_ns: u64, name: &'static str, fields: &[(&'static str, FieldValue)]) {
    if is_enabled() && is_tracing() {
        registry().record_event(t_ns, name, fields);
    }
}

/// Convenience: record a flight-recorder event stamped with the
/// process-monotonic clock.
pub fn event(name: &'static str, fields: &[(&'static str, FieldValue)]) {
    if is_enabled() && is_tracing() {
        let t = registry().monotonic_ns();
        registry().record_event(t, name, fields);
    }
}

#[cfg(test)]
mod proptests;

/// The enable/trace flags are process-global, so tests that toggle them
/// must not interleave. Every such test takes this lock first.
#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard, OnceLock};

    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();

    pub(crate) fn serial() -> MutexGuard<'static, ()> {
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_instruments_are_noops() {
        let _g = testutil::serial();
        let c = Counter::detached();
        disable();
        c.add(5);
        assert_eq!(c.get(), 0);
        enable();
        c.add(5);
        assert_eq!(c.get(), 5);
        disable();
    }

    #[test]
    fn trace_flag_round_trips() {
        let _g = testutil::serial();
        enable_trace();
        assert!(is_tracing());
        disable_trace();
        assert!(!is_tracing());
    }
}
