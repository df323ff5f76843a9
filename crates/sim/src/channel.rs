//! Zero-latency message channels between simulation tasks.
//!
//! These model *synchronization*, not network transport: a send is visible to
//! the receiver at the same virtual time it was performed. Network delay is
//! modelled separately, by the wires of `dacc_fabric::topology` (FCFS
//! [`crate::resource::Resource`]s held for a serialization time) — keeping
//! the two concerns apart lets protocol code charge exactly the costs it
//! intends to.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Error returned by `recv` when the channel is empty and every sender has
/// been dropped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecvError;

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel closed: all senders dropped")
    }
}
impl std::error::Error for RecvError {}

/// Error returned by `send` when the receiver has been dropped.
#[derive(PartialEq, Eq, Debug)]
pub struct SendError<T>(pub T);

impl<T> std::fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel closed: receiver dropped")
    }
}
impl<T: std::fmt::Debug> std::error::Error for SendError<T> {}

struct ChanInner<T> {
    queue: VecDeque<T>,
    recv_wakers: VecDeque<Waker>,
    senders: usize,
    receiver_alive: bool,
}

impl<T> ChanInner<T> {
    fn wake_one(&mut self) {
        if let Some(w) = self.recv_wakers.pop_front() {
            w.wake();
        }
    }
    fn wake_all(&mut self) {
        for w in self.recv_wakers.drain(..) {
            w.wake();
        }
    }
}

/// Unbounded sending half; clonable.
pub struct Sender<T> {
    inner: Rc<RefCell<ChanInner<T>>>,
}

/// Receiving half. Single consumer.
pub struct Receiver<T> {
    inner: Rc<RefCell<ChanInner<T>>>,
}

/// Create an unbounded channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Rc::new(RefCell::new(ChanInner {
        queue: VecDeque::new(),
        recv_wakers: VecDeque::new(),
        senders: 1,
        receiver_alive: true,
    }));
    (
        Sender {
            inner: Rc::clone(&inner),
        },
        Receiver { inner },
    )
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.borrow_mut().senders += 1;
        Sender {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.inner.borrow_mut();
        inner.senders -= 1;
        if inner.senders == 0 {
            inner.wake_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.inner.borrow_mut().receiver_alive = false;
    }
}

impl<T> Sender<T> {
    /// Enqueue a message; never blocks (unbounded).
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut inner = self.inner.borrow_mut();
        if !inner.receiver_alive {
            return Err(SendError(value));
        }
        inner.queue.push_back(value);
        inner.wake_one();
        Ok(())
    }

    /// True if the receiving half has been dropped.
    pub fn is_closed(&self) -> bool {
        !self.inner.borrow().receiver_alive
    }
}

impl<T> Receiver<T> {
    /// Await the next message.
    pub fn recv(&self) -> RecvFuture<'_, T> {
        RecvFuture { receiver: self }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        self.inner.borrow_mut().queue.pop_front()
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// True if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().queue.is_empty()
    }
}

/// Future returned by [`Receiver::recv`].
pub struct RecvFuture<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Future for RecvFuture<'_, T> {
    type Output = Result<T, RecvError>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut inner = self.receiver.inner.borrow_mut();
        if let Some(v) = inner.queue.pop_front() {
            return Poll::Ready(Ok(v));
        }
        if inner.senders == 0 {
            return Poll::Ready(Err(RecvError));
        }
        inner.recv_wakers.push_back(cx.waker().clone());
        Poll::Pending
    }
}

/// One-shot channel: a single value, sent once.
pub mod oneshot {
    use super::*;

    struct OneInner<T> {
        value: Option<T>,
        waker: Option<Waker>,
        sender_alive: bool,
    }

    /// Sending half of a oneshot channel.
    pub struct OneSender<T> {
        inner: Rc<RefCell<OneInner<T>>>,
    }

    /// Receiving half of a oneshot channel; awaitable.
    pub struct OneReceiver<T> {
        inner: Rc<RefCell<OneInner<T>>>,
    }

    /// Create a oneshot channel.
    pub fn oneshot<T>() -> (OneSender<T>, OneReceiver<T>) {
        let inner = Rc::new(RefCell::new(OneInner {
            value: None,
            waker: None,
            sender_alive: true,
        }));
        (
            OneSender {
                inner: Rc::clone(&inner),
            },
            OneReceiver { inner },
        )
    }

    impl<T> OneSender<T> {
        /// Deliver the value, waking the receiver. Consumes the sender.
        pub fn send(self, value: T) {
            let mut inner = self.inner.borrow_mut();
            inner.value = Some(value);
            if let Some(w) = inner.waker.take() {
                w.wake();
            }
        }
    }

    impl<T> Drop for OneSender<T> {
        fn drop(&mut self) {
            let mut inner = self.inner.borrow_mut();
            inner.sender_alive = false;
            if let Some(w) = inner.waker.take() {
                w.wake();
            }
        }
    }

    impl<T> Future for OneReceiver<T> {
        type Output = Result<T, RecvError>;
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let mut inner = self.inner.borrow_mut();
            if let Some(v) = inner.value.take() {
                return Poll::Ready(Ok(v));
            }
            if !inner.sender_alive {
                return Poll::Ready(Err(RecvError));
            }
            inner.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn send_then_recv_same_time() {
        let mut sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        let got = Rc::new(RefCell::new(None));
        let got2 = Rc::clone(&got);
        let h = sim.handle();
        sim.spawn("recv", async move {
            let v = rx.recv().await.unwrap();
            *got2.borrow_mut() = Some((v, h.now()));
        });
        sim.spawn("send", async move {
            tx.send(7).unwrap();
        });
        sim.run();
        assert_eq!(*got.borrow(), Some((7, crate::time::SimTime::ZERO)));
    }

    #[test]
    fn recv_waits_for_delayed_send() {
        let mut sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        let h = sim.handle();
        let h2 = sim.handle();
        let got = Rc::new(RefCell::new(None));
        let got2 = Rc::clone(&got);
        sim.spawn("recv", async move {
            let v = rx.recv().await.unwrap();
            *got2.borrow_mut() = Some((v, h2.now()));
        });
        sim.spawn("send", async move {
            h.delay(SimDuration::from_micros(3)).await;
            tx.send(9).unwrap();
        });
        sim.run();
        let (v, t) = got.borrow().unwrap();
        assert_eq!(v, 9);
        assert_eq!(t.as_nanos(), 3_000);
    }

    #[test]
    fn messages_preserve_fifo_order() {
        let mut sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        let got = Rc::new(RefCell::new(Vec::new()));
        let got2 = Rc::clone(&got);
        sim.spawn("recv", async move {
            while let Ok(v) = rx.recv().await {
                got2.borrow_mut().push(v);
            }
        });
        sim.spawn("send", async move {
            for i in 0..10 {
                tx.send(i).unwrap();
            }
        });
        sim.run();
        assert_eq!(*got.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn recv_errors_when_all_senders_dropped() {
        let mut sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        let tx2 = tx.clone();
        let err = Rc::new(RefCell::new(false));
        let err2 = Rc::clone(&err);
        sim.spawn("recv", async move {
            if rx.recv().await == Err(RecvError) {
                *err2.borrow_mut() = true;
            }
        });
        sim.spawn("droppers", async move {
            drop(tx);
            drop(tx2);
        });
        let out = sim.run();
        assert!(*err.borrow());
        assert_eq!(out.pending_tasks, 0);
    }

    #[test]
    fn send_errors_when_receiver_dropped() {
        let (tx, rx) = channel::<u32>();
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError(1)));
        assert!(tx.is_closed());
    }

    #[test]
    fn oneshot_roundtrip() {
        let mut sim = Sim::new();
        let (tx, rx) = oneshot::oneshot::<&'static str>();
        let h = sim.handle();
        let got = Rc::new(RefCell::new(""));
        let got2 = Rc::clone(&got);
        sim.spawn("recv", async move {
            *got2.borrow_mut() = rx.await.unwrap();
        });
        sim.spawn("send", async move {
            h.delay(SimDuration::from_nanos(1)).await;
            tx.send("hello");
        });
        sim.run();
        assert_eq!(*got.borrow(), "hello");
    }

    #[test]
    fn oneshot_dropped_sender_errors() {
        let mut sim = Sim::new();
        let (tx, rx) = oneshot::oneshot::<u32>();
        let failed = Rc::new(RefCell::new(false));
        let failed2 = Rc::clone(&failed);
        sim.spawn("recv", async move {
            if rx.await.is_err() {
                *failed2.borrow_mut() = true;
            }
        });
        sim.spawn("drop", async move {
            drop(tx);
        });
        sim.run();
        assert!(*failed.borrow());
    }

    #[test]
    fn try_recv_and_len() {
        let (tx, rx) = channel::<u32>();
        assert!(rx.is_empty());
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(rx.try_recv(), Some(2));
        assert_eq!(rx.try_recv(), None);
    }
}
