//! Span records and the RAII span guard.

use dacc_sim::executor::SimHandle;
use dacc_sim::time::SimTime;

use crate::Telemetry;

/// One completed (or instantaneous) span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span class, doubling as the export lane (e.g. `"daemon.dma"`).
    pub category: &'static str,
    /// Free-form detail.
    pub label: String,
    /// Virtual time the span began.
    pub start: SimTime,
    /// Virtual time the span ended (equals `start` for instants).
    pub end: SimTime,
    /// Payload bytes attributed to the span, if any.
    pub bytes: Option<u64>,
    /// Operation id, if the span belongs to a framed operation.
    pub op: Option<u64>,
    /// True for point events (exported as Chrome instants, not slices).
    pub instant: bool,
}

/// Aggregate statistics per span category, complete even when the bounded
/// span ring has evicted the underlying events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Spans recorded (including instants).
    pub count: u64,
    /// Total span duration in nanoseconds.
    pub busy_ns: u64,
    /// Total bytes attributed.
    pub bytes: u64,
}

/// RAII guard for an open span: records a complete [`SpanEvent`] from its
/// construction time to its drop time. Dropping on every exit path is what
/// keeps span begin/end balanced under retry and failover control flow.
/// A guard dropped because its whole `Sim` was dropped records nothing.
#[must_use = "a span guard records on drop; binding it to _ ends the span immediately"]
pub struct SpanGuard {
    pub(crate) inner: Option<GuardInner>,
}

pub(crate) struct GuardInner {
    pub(crate) tele: Telemetry,
    pub(crate) handle: SimHandle,
    pub(crate) category: &'static str,
    pub(crate) label: String,
    pub(crate) start: SimTime,
    pub(crate) bytes: Option<u64>,
    pub(crate) op: Option<u64>,
}

impl SpanGuard {
    /// A guard that records nothing (disabled telemetry).
    pub fn noop() -> Self {
        SpanGuard { inner: None }
    }

    /// Attribute `n` payload bytes to the span (builder form).
    pub fn bytes(mut self, n: u64) -> Self {
        self.set_bytes(n);
        self
    }

    /// Tag the span with a framed-operation id (builder form).
    pub fn op(mut self, id: u64) -> Self {
        if let Some(g) = &mut self.inner {
            g.op = Some(id);
        }
        self
    }

    /// Attribute `n` payload bytes to the span after construction (used
    /// when the size is only known once data arrives).
    pub fn set_bytes(&mut self, n: u64) {
        if let Some(g) = &mut self.inner {
            g.bytes = Some(n);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(g) = self.inner.take() {
            // A task destroyed with its `Sim` never finished the operation:
            // there is no completed span to record.
            if g.handle.is_torn_down() {
                return;
            }
            let end = g.handle.now();
            g.tele
                .record_span_parts(g.category, g.label, g.start, end, g.bytes, g.op, false);
        }
    }
}
