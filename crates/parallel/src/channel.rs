//! Multi-producer channels for the shard links and the supervised
//! pipelines: one `Mutex` + two `Condvar`s around a `VecDeque`.
//!
//! Semantics the supervisors depend on: a bounded capacity that blocks
//! senders, `send_timeout` and `recv_timeout`, cloneable senders, the
//! queue length (the shard queue-depth gauge), and disconnection once
//! every handle on the other side is dropped (a receiver still drains
//! queued messages first, which is how a worker shuts down; dropping the
//! receiver drops whatever is still queued). std's `mpsc` lacks a
//! stable `send_timeout`, which is why this module exists.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
}

type Guard<'a, T> = MutexGuard<'a, State<T>>;

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signalled when a message arrives or the last sender leaves.
    not_empty: Condvar,
    /// Signalled when a slot frees or the receiver leaves.
    not_full: Condvar,
    /// `usize::MAX` for unbounded channels.
    cap: usize,
}

impl<T> Shared<T> {
    fn lock(&self) -> Guard<'_, T> {
        // Every critical section leaves the queue valid, so a poisoned lock
        // (a panicking peer thread) is safe to keep using.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// How long a send or receive may block.
#[derive(Clone, Copy)]
enum Wait {
    Never,
    Forever,
    Until(Instant),
}

/// Block on `cv` as `wait` allows; `None` once no more waiting is allowed.
fn block<'a, T>(cv: &Condvar, st: Guard<'a, T>, wait: Wait) -> Option<Guard<'a, T>> {
    match wait {
        Wait::Never => None,
        Wait::Forever => Some(cv.wait(st).unwrap_or_else(PoisonError::into_inner)),
        Wait::Until(d) => {
            let left = d.checked_duration_since(Instant::now())?;
            let (st, _) = cv
                .wait_timeout(st, left)
                .unwrap_or_else(PoisonError::into_inner);
            Some(st)
        }
    }
}

/// Sending half; cloneable.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Receiving half.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// A channel holding at most `cap` messages (a capacity of zero is treated
/// as one).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receiver_alive: true,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        cap: cap.max(1),
    });
    let tx = Sender {
        shared: Arc::clone(&shared),
    };
    (tx, Receiver { shared })
}

/// A channel with no capacity limit.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    bounded(usize::MAX)
}

impl<T> Sender<T> {
    /// Block until there is room, then enqueue.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        self.send_with(msg, Wait::Forever).map_err(|e| match e {
            SendTimeoutError::Timeout(m) | SendTimeoutError::Disconnected(m) => SendError(m),
        })
    }

    /// Enqueue only if there is room right now.
    pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        self.send_with(msg, Wait::Never).map_err(|e| match e {
            SendTimeoutError::Timeout(m) => TrySendError::Full(m),
            SendTimeoutError::Disconnected(m) => TrySendError::Disconnected(m),
        })
    }

    /// Block for at most `timeout` waiting for room.
    pub fn send_timeout(&self, msg: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
        self.send_with(msg, Wait::Until(Instant::now() + timeout))
    }

    /// Messages queued right now (at most the capacity).
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Whether nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn send_with(&self, msg: T, wait: Wait) -> Result<(), SendTimeoutError<T>> {
        let mut st = self.shared.lock();
        loop {
            if !st.receiver_alive {
                return Err(SendTimeoutError::Disconnected(msg));
            }
            if st.queue.len() < self.shared.cap {
                st.queue.push_back(msg);
                drop(st);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            match block(&self.shared.not_full, st, wait) {
                Some(next) => st = next,
                None => return Err(SendTimeoutError::Timeout(msg)),
            }
        }
    }
}

impl<T> Receiver<T> {
    /// Block until a message arrives or every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.recv_with(Wait::Forever).map_err(|_| RecvError)
    }

    /// Take a message if one is queued.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        self.recv_with(Wait::Never).map_err(|e| match e {
            RecvTimeoutError::Timeout => TryRecvError::Empty,
            RecvTimeoutError::Disconnected => TryRecvError::Disconnected,
        })
    }

    /// Block for at most `timeout` waiting for a message.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.recv_with(Wait::Until(Instant::now() + timeout))
    }

    fn recv_with(&self, wait: Wait) -> Result<T, RecvTimeoutError> {
        let mut st = self.shared.lock();
        loop {
            if let Some(m) = st.queue.pop_front() {
                drop(st);
                self.shared.not_full.notify_one();
                return Ok(m);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            match block(&self.shared.not_empty, st, wait) {
                Some(next) => st = next,
                None => return Err(RecvTimeoutError::Timeout),
            }
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        // Nobody can receive the queued messages any more, so drop them
        // now (outside the lock): a queued message that owns a reply
        // sender must disconnect its waiter instead of keeping it alive.
        let orphans = {
            let mut st = self.shared.lock();
            st.receiver_alive = false;
            std::mem::take(&mut st.queue)
        };
        self.shared.not_full.notify_all();
        drop(orphans);
    }
}

/// The receiver is gone; the message is returned.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Why `try_send` failed; the message is returned.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel is at capacity.
    Full(T),
    /// The receiver is gone.
    Disconnected(T),
}

/// Why `send_timeout` failed; the message is returned.
#[derive(Debug, PartialEq, Eq)]
pub enum SendTimeoutError<T> {
    /// No room opened before the timeout.
    Timeout(T),
    /// The receiver is gone.
    Disconnected(T),
}

/// Every sender is gone and the queue is empty.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

/// Why `try_recv` failed.
#[derive(Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// Nothing queued.
    Empty,
    /// Every sender is gone and the queue is empty.
    Disconnected,
}

/// Why `recv_timeout` failed.
#[derive(Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// Nothing arrived before the timeout.
    Timeout,
    /// Every sender is gone and the queue is empty.
    Disconnected,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_timeouts_and_disconnects() {
        let ms = Duration::from_millis(5);
        let (tx, rx) = bounded(1);
        let tx2 = tx.clone();
        assert!(tx.is_empty());
        tx.send(1).unwrap();
        assert_eq!(tx2.len(), 1);
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        assert_eq!(tx.send_timeout(2, ms), Err(SendTimeoutError::Timeout(2)));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(rx.recv_timeout(ms), Err(RecvTimeoutError::Timeout));
        tx2.send_timeout(2, ms).unwrap();
        drop((tx, tx2));
        // Queued messages drain before the disconnect shows.
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(3), Err(SendError(3)));
        assert_eq!(tx.try_send(4), Err(TrySendError::Disconnected(4)));
    }

    #[test]
    fn blocked_sender_wakes_when_room_frees() {
        let (tx, rx) = bounded(1);
        let producer = std::thread::spawn(move || (0..100u32).for_each(|i| tx.send(i).unwrap()));
        let got: Vec<u32> = (0..100).map(|_| rx.recv().unwrap()).collect();
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(rx.recv(), Err(RecvError));
    }

    /// Shard fail-over relies on this: a router blocked on a full channel
    /// learns that the worker died as soon as its receiver drops, not when
    /// the send timeout runs out.
    #[test]
    fn blocked_sender_sees_receiver_drop_promptly() {
        let (tx, rx) = bounded(1);
        tx.send(0u32).unwrap();
        // Nothing outside the channel can observe a blocked sender, so the
        // delay only makes the wake-from-wait path the usual one; a drop
        // that lands first must give the same answer.
        let consumer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop(rx);
        });
        let started = Instant::now();
        let sent = tx.send_timeout(1, Duration::from_secs(30));
        let waited = started.elapsed();
        consumer.join().unwrap();
        assert_eq!(sent, Err(SendTimeoutError::Disconnected(1)));
        assert!(waited < Duration::from_secs(5), "sender waited {waited:?}");
    }

    /// A barrier queued behind work a dead worker never reached must not
    /// leave its waiter hanging: dropping the receiver drops the queued
    /// reply sender, so the waiter sees `Disconnected` at once.
    #[test]
    fn receiver_drop_releases_queued_reply_senders() {
        let (tx, rx) = bounded::<Sender<u32>>(4);
        let (reply_tx, reply_rx) = bounded::<u32>(1);
        assert!(tx.send(reply_tx).is_ok());
        drop(rx);
        assert_eq!(
            reply_rx.recv_timeout(Duration::from_secs(30)),
            Err(RecvTimeoutError::Disconnected)
        );
    }
}
