//! `dacc-telemetry` — the runtime's telemetry plane.
//!
//! A [`Telemetry`] is a cheap, clonable handle onto shared metric state,
//! mirroring the sim [`Tracer`](dacc_sim::trace::Tracer) idiom: a disabled
//! handle records nothing and costs one branch per call site. It carries
//! four kinds of data:
//!
//! * **Counters** — named monotonic `u64`s ([`Telemetry::count`]).
//! * **Gauges** — named point-in-time levels, last write wins
//!   ([`Telemetry::gauge`]) — e.g. the ARM's queue depth and accelerator
//!   utilization, which the scheduler ablations read back from
//!   `*.metrics.json`.
//! * **Histograms** — log-bucketed, mergeable latency distributions with
//!   p50/p95/p99 estimates ([`Telemetry::observe`], [`Histogram`]).
//! * **Spans** — begin/end records with category, label, byte counts and
//!   op ids, kept in a bounded ring that evicts oldest-first. Span guards
//!   ([`Telemetry::span`]) read the *virtual* clock through a
//!   [`SimHandle`], so traces are deterministic under test and reproducible
//!   across runs.
//!
//! Spans export as Chrome trace-event JSON ([`Telemetry::chrome_trace`]),
//! loadable in Perfetto / `chrome://tracing`; the aggregate view exports as
//! a plain-text table ([`Telemetry::summary`]) and a metrics JSON document
//! ([`Telemetry::metrics_json`]).
//!
//! With `--no-default-features` the `enabled` feature is off: every
//! constructor returns a disabled handle and the recording paths stay
//! compiled but unreachable — the zero-cost configuration.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod hist;
pub mod span;

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use dacc_sim::executor::SimHandle;
use dacc_sim::time::{SimDuration, SimTime};

pub use hist::{Histogram, BUCKETS};
pub use span::{SpanEvent, SpanGuard, SpanStat};

struct State {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, Histogram>,
    ring: VecDeque<SpanEvent>,
    capacity: usize,
    dropped: u64,
    stats: BTreeMap<&'static str, SpanStat>,
}

struct Inner {
    state: Mutex<State>,
}

impl Inner {
    // Out of line: the disabled handle's `count` is a branch the callers
    // inline, on the hot path of every message.
    fn count(&self, name: &'static str, n: u64) {
        *self.state.lock().counters.entry(name).or_insert(0) += n;
    }
}

/// A cheap, clonable handle onto shared telemetry state (see module docs).
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

/// Default span-ring capacity for [`Telemetry::new`] callers that have no
/// particular bound in mind.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

impl Telemetry {
    /// An enabled handle keeping the most recent `span_capacity` spans.
    /// Counters and histograms are unbounded (they are small aggregates).
    #[cfg(feature = "enabled")]
    pub fn new(span_capacity: usize) -> Self {
        assert!(span_capacity > 0);
        Telemetry {
            inner: Some(Arc::new(Inner {
                state: Mutex::new(State {
                    counters: BTreeMap::new(),
                    gauges: BTreeMap::new(),
                    hists: BTreeMap::new(),
                    ring: VecDeque::with_capacity(span_capacity.min(4096)),
                    capacity: span_capacity,
                    dropped: 0,
                    stats: BTreeMap::new(),
                }),
            })),
        }
    }

    /// With the `enabled` feature off, `new` returns a disabled handle —
    /// the zero-cost build records nothing anywhere.
    #[cfg(not(feature = "enabled"))]
    pub fn new(span_capacity: usize) -> Self {
        let _ = span_capacity;
        Telemetry { inner: None }
    }

    /// A handle that records nothing.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// True if recording.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `n` to the counter `name`.
    #[inline]
    pub fn count(&self, name: &'static str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.count(name, n);
        }
    }

    /// Set the gauge `name` to `v` (last write wins — a gauge is a
    /// point-in-time level, e.g. a queue depth or a utilization fraction,
    /// where a counter would be a rate).
    pub fn gauge(&self, name: &'static str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.state.lock().gauges.insert(name, v);
        }
    }

    /// Current value of gauge `name`, if it has ever been set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.inner
            .as_ref()
            .and_then(|i| i.state.lock().gauges.get(name).copied())
    }

    /// Record a duration into the histogram `name`.
    pub fn observe(&self, name: &'static str, d: SimDuration) {
        if let Some(inner) = &self.inner {
            inner
                .state
                .lock()
                .hists
                .entry(name)
                .or_default()
                .observe_ns(d.as_nanos());
        }
    }

    /// Open a span at the handle's current virtual time; the returned guard
    /// records the completed span when dropped. The label closure is only
    /// evaluated when telemetry is enabled.
    pub fn span(
        &self,
        handle: &SimHandle,
        category: &'static str,
        label: impl FnOnce() -> String,
    ) -> SpanGuard {
        if self.inner.is_none() {
            return SpanGuard::noop();
        }
        SpanGuard {
            inner: Some(span::GuardInner {
                tele: self.clone(),
                handle: handle.clone(),
                category,
                label: label(),
                start: handle.now(),
                bytes: None,
                op: None,
            }),
        }
    }

    /// Record a point event at the handle's current virtual time.
    pub fn instant(
        &self,
        handle: &SimHandle,
        category: &'static str,
        label: impl FnOnce() -> String,
    ) {
        if self.inner.is_some() {
            let now = handle.now();
            self.record_span_parts(category, label(), now, now, None, None, true);
        }
    }

    /// Record a span with explicit begin/end times — for windows measured
    /// from stored timestamps (e.g. a stream batch's submit→ack window).
    /// The label closure is only evaluated when telemetry is enabled.
    #[allow(clippy::too_many_arguments)]
    pub fn span_at(
        &self,
        category: &'static str,
        label: impl FnOnce() -> String,
        start: SimTime,
        end: SimTime,
        bytes: Option<u64>,
        op: Option<u64>,
    ) {
        if self.inner.is_some() {
            self.record_span_parts(category, label(), start, end, bytes, op, false);
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_span_parts(
        &self,
        category: &'static str,
        label: String,
        start: SimTime,
        end: SimTime,
        bytes: Option<u64>,
        op: Option<u64>,
        instant: bool,
    ) {
        let Some(inner) = &self.inner else { return };
        let dur_ns = end.as_nanos().saturating_sub(start.as_nanos());
        let mut st = inner.state.lock();
        let stat = st.stats.entry(category).or_default();
        stat.count += 1;
        stat.busy_ns = stat.busy_ns.saturating_add(dur_ns);
        stat.bytes = stat.bytes.saturating_add(bytes.unwrap_or(0));
        if !instant {
            st.hists.entry(category).or_default().observe_ns(dur_ns);
        }
        if st.ring.len() == st.capacity {
            st.ring.pop_front();
            st.dropped += 1;
        }
        st.ring.push_back(SpanEvent {
            category,
            label,
            start,
            end,
            bytes,
            op,
            instant,
        });
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|i| i.state.lock().counters.get(name).copied())
            .unwrap_or(0)
    }

    /// Snapshot of histogram `name`, if it has recorded anything.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner
            .as_ref()
            .and_then(|i| i.state.lock().hists.get(name).cloned())
    }

    /// Snapshot of all retained spans in recording order.
    pub fn spans(&self) -> Vec<SpanEvent> {
        match &self.inner {
            Some(inner) => inner.state.lock().ring.iter().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// Retained spans of one category.
    pub fn spans_in(&self, category: &str) -> Vec<SpanEvent> {
        self.spans()
            .into_iter()
            .filter(|s| s.category == category)
            .collect()
    }

    /// Total spans ever recorded for `category` (survives ring eviction).
    pub fn span_count(&self, category: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|i| i.state.lock().stats.get(category).map(|s| s.count))
            .unwrap_or(0)
    }

    /// Spans evicted because the ring was full.
    pub fn dropped_spans(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.state.lock().dropped)
    }

    /// Drop all recorded data (keeps the eviction counter).
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            let mut st = inner.state.lock();
            st.counters.clear();
            st.gauges.clear();
            st.hists.clear();
            st.ring.clear();
            st.stats.clear();
        }
    }

    /// Export retained spans as Chrome trace-event JSON (Perfetto-loadable).
    pub fn chrome_trace(&self) -> String {
        export::chrome_trace(&self.spans())
    }

    /// Render counters, gauges, histograms, and span statistics as a text
    /// table.
    pub fn summary(&self) -> String {
        let (counters, gauges, hists, stats, retained, dropped) = self.snapshot();
        export::summary(&counters, &gauges, &hists, &stats, retained, dropped)
    }

    /// Render counters, gauges, histograms, and span statistics as a JSON
    /// document (the payload of `results/<name>.metrics.json`).
    pub fn metrics_json(&self) -> String {
        let (counters, gauges, hists, stats, _, dropped) = self.snapshot();
        export::metrics_json(&counters, &gauges, &hists, &stats, dropped)
    }

    #[allow(clippy::type_complexity)]
    fn snapshot(
        &self,
    ) -> (
        Vec<(&'static str, u64)>,
        Vec<(&'static str, f64)>,
        Vec<(&'static str, Histogram)>,
        Vec<(&'static str, SpanStat)>,
        usize,
        u64,
    ) {
        match &self.inner {
            None => (Vec::new(), Vec::new(), Vec::new(), Vec::new(), 0, 0),
            Some(inner) => {
                let st = inner.state.lock();
                (
                    st.counters.iter().map(|(k, v)| (*k, *v)).collect(),
                    st.gauges.iter().map(|(k, v)| (*k, *v)).collect(),
                    st.hists.iter().map(|(k, v)| (*k, v.clone())).collect(),
                    st.stats.iter().map(|(k, v)| (*k, *v)).collect(),
                    st.ring.len(),
                    st.dropped,
                )
            }
        }
    }
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use dacc_sim::executor::Sim;

    #[test]
    fn counters_accumulate_and_disabled_is_free() {
        let t = Telemetry::new(16);
        t.count("x", 2);
        t.count("x", 3);
        assert_eq!(t.counter("x"), 5);
        assert_eq!(t.counter("missing"), 0);

        let d = Telemetry::disabled();
        d.count("x", 1);
        assert!(!d.is_enabled());
        assert_eq!(d.counter("x"), 0);
        assert!(d.spans().is_empty());
        assert_eq!(d.metrics_json().matches("{}").count(), 4);
    }

    #[test]
    fn gauges_last_write_wins_and_export() {
        let t = Telemetry::new(16);
        t.gauge("depth", 3.0);
        t.gauge("depth", 7.5);
        assert_eq!(t.gauge_value("depth"), Some(7.5));
        assert_eq!(t.gauge_value("missing"), None);
        let m = t.metrics_json();
        assert!(m.contains("\"gauges\""));
        assert!(m.contains("\"depth\": 7.5"));
        assert!(t.summary().contains("depth"));
        t.clear();
        assert_eq!(t.gauge_value("depth"), None);
        // Disabled handles drop gauges like everything else.
        let d = Telemetry::disabled();
        d.gauge("depth", 1.0);
        assert_eq!(d.gauge_value("depth"), None);
    }

    #[test]
    fn span_guard_records_virtual_time() {
        let mut sim = Sim::new();
        let t = Telemetry::new(16);
        let h = sim.handle();
        let t2 = t.clone();
        sim.spawn("t", async move {
            let span = t2.span(&h, "work", || "unit".into()).bytes(128);
            h.delay(SimDuration::from_micros(7)).await;
            drop(span);
        });
        sim.run();
        let spans = t.spans_in("work");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].start.as_nanos(), 0);
        assert_eq!(spans[0].end.as_nanos(), 7_000);
        assert_eq!(spans[0].bytes, Some(128));
        // Span durations feed the category histogram.
        let h = t.histogram("work").expect("histogram");
        assert_eq!(h.count(), 1);
        assert_eq!(h.max_ns(), 7_000);
    }

    #[test]
    fn span_of_a_task_dropped_with_its_sim_records_nothing() {
        let mut sim = Sim::new();
        let t = Telemetry::new(16);
        let h = sim.handle();
        let t2 = t.clone();
        sim.spawn("t", async move {
            let _span = t2.span(&h, "work", || "unit".into());
            h.delay(SimDuration::from_secs(10)).await;
        });
        let out = sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(out.pending_tasks, 1);
        drop(sim);
        assert!(t.spans().is_empty(), "the operation never completed");
    }

    #[test]
    fn disabled_span_skips_label() {
        let mut sim = Sim::new();
        let t = Telemetry::disabled();
        let h = sim.handle();
        let t2 = t.clone();
        sim.spawn("t", async move {
            let _s = t2.span(&h, "x", || panic!("label must not be evaluated"));
            t2.instant(&h, "y", || panic!("label must not be evaluated"));
        });
        sim.run();
        assert!(t.spans().is_empty());
    }

    #[test]
    fn ring_overflow_keeps_newest() {
        let mut sim = Sim::new();
        let t = Telemetry::new(3);
        let h = sim.handle();
        let t2 = t.clone();
        sim.spawn("t", async move {
            for i in 0..10u32 {
                t2.instant(&h, "e", || format!("e{i}"));
            }
        });
        sim.run();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].label, "e7");
        assert_eq!(spans[2].label, "e9");
        assert_eq!(t.dropped_spans(), 7);
        // Aggregates survive eviction.
        assert_eq!(t.span_count("e"), 10);
    }

    #[test]
    fn chrome_trace_emits_lanes_and_slices() {
        let mut sim = Sim::new();
        let t = Telemetry::new(64);
        let h = sim.handle();
        let t2 = t.clone();
        sim.spawn("t", async move {
            let a = t2.span(&h, "net.recv", || "blk0".into()).bytes(4096);
            h.delay(SimDuration::from_micros(2)).await;
            let b = t2.span(&h, "dma", || "blk0".into());
            h.delay(SimDuration::from_micros(2)).await;
            drop(a);
            h.delay(SimDuration::from_micros(1)).await;
            drop(b);
            t2.instant(&h, "mark", || "done".into());
        });
        sim.run();
        let trace = t.chrome_trace();
        assert!(trace.starts_with("[\n"));
        assert!(trace.trim_end().ends_with(']'));
        assert!(trace.contains("\"thread_name\""));
        assert!(trace.contains("\"cat\": \"net.recv\""));
        assert!(trace.contains("\"ph\": \"X\""));
        assert!(trace.contains("\"ph\": \"i\""));
        assert!(trace.contains("\"bytes\": 4096"));
        // Lanes are distinct tids.
        let spans = t.spans();
        assert!(spans[0].end > spans[1].start, "spans overlap in time");

        let s = t.summary();
        assert!(s.contains("net.recv"));
        let m = t.metrics_json();
        assert!(m.contains("\"dma\""));
        assert!(m.contains("\"dropped_spans\": 0"));
    }

    #[test]
    fn span_at_records_explicit_window() {
        let t = Telemetry::new(8);
        t.span_at(
            "win",
            || "w".into(),
            SimTime::from_nanos(1000),
            SimTime::from_nanos(4000),
            Some(64),
            Some(9),
        );
        let spans = t.spans_in("win");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].op, Some(9));
        let h = t.histogram("win").unwrap();
        assert_eq!(h.max_ns(), 3000);
    }
}
