//! Structured event tracing for simulation components.
//!
//! A [`Tracer`] is a cheap, clonable handle onto a bounded ring of
//! `(time, category, label)` records. Components record what they did
//! (requests served, transfers completed, allocations granted); tests and
//! debugging sessions query or dump the ring. A disabled tracer records
//! nothing and costs one branch.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::executor::SimHandle;
use crate::time::SimTime;

/// One recorded event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub time: SimTime,
    /// Component / event class (e.g. `"daemon.request"`).
    pub category: &'static str,
    /// Free-form detail.
    pub label: String,
}

struct TraceInner {
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

/// A bounded, shared event recorder.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Rc<RefCell<TraceInner>>>,
}

impl Tracer {
    /// An enabled tracer keeping the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Tracer {
            inner: Some(Rc::new(RefCell::new(TraceInner {
                ring: VecDeque::with_capacity(capacity.min(4096)),
                capacity,
                dropped: 0,
            }))),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// True if recording.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record an event at the handle's current time. The label closure is
    /// only evaluated when the tracer is enabled.
    pub fn record(
        &self,
        handle: &SimHandle,
        category: &'static str,
        label: impl FnOnce() -> String,
    ) {
        if let Some(inner) = &self.inner {
            // Built before borrowing: the label closure is caller code.
            let event = TraceEvent {
                time: handle.now(),
                category,
                label: label(),
            };
            let mut t = inner.borrow_mut();
            if t.ring.len() == t.capacity {
                t.ring.pop_front();
                t.dropped += 1;
            }
            t.ring.push_back(event);
        }
    }

    /// Snapshot of all retained events in time order.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(inner) => inner.borrow().ring.iter().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// Retained events of one category.
    pub fn events_in(&self, category: &str) -> Vec<TraceEvent> {
        self.events()
            .into_iter()
            .filter(|e| e.category == category)
            .collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.borrow().ring.len())
    }

    /// True if nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.borrow().dropped)
    }

    /// Clear the ring (keeps the drop counter).
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().ring.clear();
        }
    }

    /// Render as `time  category  label` lines (debugging aid).
    pub fn dump(&self) -> String {
        self.events()
            .iter()
            .map(|e| {
                format!(
                    "{:>14}  {:<20}  {}",
                    e.time.to_string(),
                    e.category,
                    e.label
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;

    #[test]
    fn records_in_time_order() {
        let mut sim = Sim::new();
        let tracer = Tracer::new(16);
        let h = sim.handle();
        let t2 = tracer.clone();
        sim.spawn("t", async move {
            t2.record(&h, "a", || "first".into());
            h.delay(SimDuration::from_micros(5)).await;
            t2.record(&h, "b", || "second".into());
        });
        sim.run();
        let ev = tracer.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].label, "first");
        assert_eq!(ev[1].category, "b");
        assert_eq!(ev[1].time.as_nanos(), 5_000);
        assert!(tracer.dump().contains("second"));
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut sim = Sim::new();
        let tracer = Tracer::new(3);
        let h = sim.handle();
        let t2 = tracer.clone();
        sim.spawn("t", async move {
            for i in 0..10 {
                t2.record(&h, "x", || format!("e{i}"));
            }
        });
        sim.run();
        let ev = tracer.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].label, "e7");
        assert_eq!(ev[2].label, "e9");
        assert_eq!(tracer.dropped(), 7);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_skips_label() {
        let mut sim = Sim::new();
        let tracer = Tracer::disabled();
        let h = sim.handle();
        let t2 = tracer.clone();
        sim.spawn("t", async move {
            t2.record(&h, "x", || panic!("label must not be evaluated"));
        });
        sim.run();
        assert!(!tracer.is_enabled());
        assert!(tracer.is_empty());
    }

    #[test]
    fn category_filter() {
        let mut sim = Sim::new();
        let tracer = Tracer::new(16);
        let h = sim.handle();
        let t2 = tracer.clone();
        sim.spawn("t", async move {
            t2.record(&h, "a", || "1".into());
            t2.record(&h, "b", || "2".into());
            t2.record(&h, "a", || "3".into());
        });
        sim.run();
        assert_eq!(tracer.events_in("a").len(), 2);
        assert_eq!(tracer.events_in("b").len(), 1);
        tracer.clear();
        assert!(tracer.is_empty());
    }
}
