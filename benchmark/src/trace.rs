//! Harness-side host-clock spans.
//!
//! The harness wraps every call it makes into a layer (`build_cluster`,
//! each `ac*` await, `acquire_waiting` … `finish`, `dgeqrf_hybrid`,
//! `Sim::run`) in a span: name, start, end, parent, lane (client) and op
//! id. Nothing here runs inside the program; spans inside it are a later
//! issue. A disabled [`Trace`] costs one branch per call and reads no
//! clock, so the untraced run is the traced run minus this file.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::future::Future;
use std::rc::Rc;
use std::time::Instant;

/// Index of a span in the current round; [`SpanId::NONE`] for "no parent".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct SpanId(u32);

impl SpanId {
    /// The root's parent, and every id a disabled trace hands out.
    const NONE: SpanId = SpanId(u32::MAX);
}

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    lane: u32,
    op: u64,
}

struct Buf {
    origin: Instant,
    /// Spans of the most recent traced round (written out at exit).
    spans: Vec<Span>,
    /// Every traced round's span durations by name, in µs per `per` unit.
    durations: BTreeMap<&'static str, Vec<f64>>,
}

/// A cheaply clonable span recorder; `Trace::off()` records nothing.
#[derive(Clone)]
pub struct Trace(Option<Rc<RefCell<Buf>>>);

/// Where a client's spans go: under one parent span, on one lane.
#[derive(Clone)]
pub struct Scope {
    trace: Trace,
    parent: SpanId,
    lane: u32,
}

impl Scope {
    /// Open span `name` under this scope's parent; calls made through the
    /// returned scope are its children. [`Scope::close`] ends it.
    pub fn open(&self, name: &'static str, op: u64) -> Scope {
        Scope {
            trace: self.trace.clone(),
            parent: self.trace.begin(name, self.parent, self.lane, op),
            lane: self.lane,
        }
    }

    /// The same parent, seen from client `lane`.
    pub fn on_lane(&self, lane: u32) -> Scope {
        Scope {
            lane,
            ..self.clone()
        }
    }

    /// End the span [`Scope::open`] began.
    pub fn close(self) {
        self.trace.end(self.parent, 1.0);
    }

    /// Span `fut` from first poll to completion.
    pub async fn call<T>(&self, name: &'static str, op: u64, fut: impl Future<Output = T>) -> T {
        self.call_per(name, op, 1.0, fut).await
    }

    /// [`Scope::call`], filing the duration per `per` units (MiB moved).
    pub async fn call_per<T>(
        &self,
        name: &'static str,
        op: u64,
        per: f64,
        fut: impl Future<Output = T>,
    ) -> T {
        let id = self.trace.begin(name, self.parent, self.lane, op);
        let out = fut.await;
        self.trace.end(id, per);
        out
    }
}

impl Trace {
    /// The disabled recorder.
    pub fn off() -> Self {
        Trace(None)
    }

    /// A recording trace whose timestamps count from now.
    pub fn on() -> Self {
        Trace(Some(Rc::new(RefCell::new(Buf {
            origin: Instant::now(),
            spans: Vec::new(),
            durations: BTreeMap::new(),
        }))))
    }

    /// The scope of a new round: its root span, lane 0. The previous
    /// round's spans are forgotten (their durations are kept).
    pub fn round(&self, index: u64) -> Scope {
        if let Some(buf) = &self.0 {
            buf.borrow_mut().spans.clear();
        }
        Scope {
            trace: self.clone(),
            parent: self.begin("round", SpanId::NONE, 0, index),
            lane: 0,
        }
    }

    /// Open a span.
    fn begin(&self, name: &'static str, parent: SpanId, lane: u32, op: u64) -> SpanId {
        let Some(buf) = &self.0 else {
            return SpanId::NONE;
        };
        let mut buf = buf.borrow_mut();
        let start_ns = buf.origin.elapsed().as_nanos() as u64;
        buf.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            lane,
            op,
        });
        SpanId(buf.spans.len() as u32 - 1)
    }

    /// Close a span; its duration is filed under its name as µs ÷ `per`
    /// (`per` = MiB moved for copies, 1 otherwise).
    fn end(&self, id: SpanId, per: f64) {
        let Some(buf) = &self.0 else { return };
        let mut buf = buf.borrow_mut();
        let now = buf.origin.elapsed().as_nanos() as u64;
        let span = &mut buf.spans[id.0 as usize];
        span.end_ns = now;
        let (name, us) = (span.name, (now - span.start_ns) as f64 / 1e3);
        buf.durations.entry(name).or_default().push(us / per);
    }

    /// Every recorded duration of `name` (µs ÷ `per`), all traced rounds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.0
            .as_ref()
            .and_then(|b| b.borrow().durations.get(name).cloned())
            .unwrap_or_default()
    }

    /// The last traced round as Chrome trace-event JSON (Perfetto opens
    /// it): one complete (`"ph":"X"`) event per span, `tid` = lane, and
    /// the span's own index, parent index and op id under `args`.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        if let Some(buf) = &self.0 {
            let buf = buf.borrow();
            for (i, s) in buf.spans.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                let parent = match s.parent {
                    SpanId::NONE => -1,
                    SpanId(p) => i64::from(p),
                };
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                    s.name,
                    s.lane,
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    s.op,
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Spans held for the last traced round.
    pub fn span_count(&self) -> usize {
        self.0.as_ref().map_or(0, |b| b.borrow().spans.len())
    }
}
