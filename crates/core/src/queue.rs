//! The bounded, deadline-aware admission queue and the service lifecycle
//! state machine.
//!
//! PR 9's admission control was an instant hard shed: the moment
//! `max_in_flight` was reached, every new request failed with `Overloaded` —
//! even when its deadline could have tolerated a short wait.  The
//! [`AdmissionQueue`] replaces that with a condvar-backed FIFO wait:
//!
//! * requests past the in-flight limit **queue** (in strict arrival order —
//!   no barging past earlier waiters) up to their remaining deadline;
//! * a waiter whose deadline expires first leaves with a typed
//!   `QueueTimeout`, distinct from an *execution* deadline;
//! * the queue itself is bounded by `queue_depth`; behind the cap the old
//!   instant `Overloaded` still applies, so memory stays bounded under any
//!   overload;
//! * [`AdmissionQueue::drain`] flips the service into
//!   [`ServiceState::Draining`]: new arrivals are rejected with a typed
//!   shutdown error, queued waiters are woken and leave the same way, and
//!   the drain blocks until the last in-flight permit is released —
//!   raising the caller's cancel flag once the drain deadline passes so
//!   stuck runs abort through their cooperative watch.
//!
//! Admission is tracked by an RAII [`Permit`]: dropping it releases the
//! in-flight slot and wakes both the next waiter and any pending drain.
//!
//! Waking goes through a [`QuietCondvar`], which signals only when somebody
//! sleeps: an uncontended acquire / release pair makes no syscall at all.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The lifecycle state of a [`KernelService`](crate::KernelService).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceState {
    /// Accepting and executing requests.
    Running,
    /// A drain is in progress: new work is rejected, in-flight work is
    /// completing (or being deadline-cancelled).
    Draining,
    /// Drained: no requests in flight, new work is rejected until
    /// [`KernelService::resume`](crate::KernelService::resume).
    Stopped,
}

impl ServiceState {
    /// A short stable label (`running` / `draining` / `stopped`).
    pub fn label(self) -> &'static str {
        match self {
            ServiceState::Running => "running",
            ServiceState::Draining => "draining",
            ServiceState::Stopped => "stopped",
        }
    }
}

impl fmt::Display for ServiceState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why [`AdmissionQueue::acquire`] refused a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum AdmitError {
    /// The in-flight limit and the wait queue are both full (or the limit
    /// is zero).
    Overloaded { in_flight: usize, limit: usize, queued: usize },
    /// The request queued but its deadline expired before a slot freed.
    QueueTimeout { waited_ms: u64, depth: usize },
    /// The service is draining or stopped.
    ShuttingDown { state: ServiceState },
}

/// A condvar that knows whether anybody is asleep on it.
///
/// `Condvar::notify_all` is a `futex_wake` syscall on std's condvar whether
/// or not anybody sleeps.  Here every sleeper counts itself in the locked
/// state first (under the lock it is about to release), and a state change
/// signals only when that count is nonzero.  No wake-up is lost: a sleeper
/// that locks first is counted before the waker reads the count, and one
/// that locks second sees the changed state and does not sleep.
pub(crate) struct QuietCondvar(Condvar);

/// Locked state that counts the threads asleep on its [`QuietCondvar`].
pub(crate) trait Sleepers {
    fn sleepers(&mut self) -> &mut usize;
}

impl QuietCondvar {
    pub(crate) fn new() -> Self {
        QuietCondvar(Condvar::new())
    }

    /// Sleep until woken (or for at most `timeout`, when given).
    pub(crate) fn sleep<'a, T: Sleepers>(
        &self,
        mut guard: MutexGuard<'a, T>,
        timeout: Option<Duration>,
    ) -> MutexGuard<'a, T> {
        *guard.sleepers() += 1;
        let mut guard = match timeout {
            Some(timeout) => {
                self.0.wait_timeout(guard, timeout).unwrap_or_else(|e| e.into_inner()).0
            }
            None => self.0.wait(guard).unwrap_or_else(|e| e.into_inner()),
        };
        *guard.sleepers() -= 1;
        guard
    }

    /// Release the lock after a state change and wake the sleepers, if
    /// there are any.
    pub(crate) fn wake<T: Sleepers>(&self, mut guard: MutexGuard<'_, T>) {
        let sleepers = *guard.sleepers();
        drop(guard);
        if sleepers > 0 {
            self.0.notify_all();
        }
    }
}

struct QueueInner {
    state: ServiceState,
    in_flight: usize,
    /// Tickets of queued waiters, in arrival order (front is next to admit).
    waiting: VecDeque<u64>,
    next_ticket: u64,
    /// Threads asleep on the condvar right now: queued waiters and a
    /// pending drain.
    sleepers: usize,
}

impl Sleepers for QueueInner {
    fn sleepers(&mut self) -> &mut usize {
        &mut self.sleepers
    }
}

/// The admission gate: a bounded in-flight counter plus a bounded FIFO wait
/// queue, with drain/resume lifecycle transitions.
pub(crate) struct AdmissionQueue {
    max_in_flight: usize,
    queue_depth: usize,
    inner: Mutex<QueueInner>,
    cond: QuietCondvar,
}

/// An admitted request's RAII slot: dropping it releases the in-flight
/// counter and wakes the next waiter (and any pending drain).
pub(crate) struct Permit<'a> {
    queue: &'a AdmissionQueue,
    /// How long the request waited for admission.
    pub(crate) waited: Duration,
    /// Whether the request had to queue (false = fast-path admission).
    pub(crate) was_queued: bool,
}

impl fmt::Debug for Permit<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Permit")
            .field("waited", &self.waited)
            .field("was_queued", &self.was_queued)
            .finish()
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut inner = self.queue.lock();
        inner.in_flight = inner.in_flight.saturating_sub(1);
        self.queue.cond.wake(inner);
    }
}

impl AdmissionQueue {
    pub(crate) fn new(max_in_flight: usize, queue_depth: usize) -> Self {
        AdmissionQueue {
            max_in_flight,
            queue_depth,
            inner: Mutex::new(QueueInner {
                state: ServiceState::Running,
                in_flight: 0,
                waiting: VecDeque::new(),
                next_ticket: 0,
                sleepers: 0,
            }),
            cond: QuietCondvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admit a request, queueing up to `deadline` when the in-flight limit
    /// is saturated.  FIFO fair: a new arrival never barges past waiters.
    pub(crate) fn acquire(&self, deadline: Option<Instant>) -> Result<Permit<'_>, AdmitError> {
        let mut inner = self.lock();
        if inner.state != ServiceState::Running {
            return Err(AdmitError::ShuttingDown { state: inner.state });
        }
        if self.max_in_flight == 0 {
            // A zero limit admits nothing; queueing would never resolve.
            return Err(AdmitError::Overloaded {
                in_flight: inner.in_flight,
                limit: 0,
                queued: inner.waiting.len(),
            });
        }
        if inner.in_flight < self.max_in_flight && inner.waiting.is_empty() {
            // Admitted without waiting: the wait is zero by definition, so
            // the clock is not read.
            inner.in_flight += 1;
            return Ok(Permit { queue: self, waited: Duration::ZERO, was_queued: false });
        }
        if inner.waiting.len() >= self.queue_depth {
            return Err(AdmitError::Overloaded {
                in_flight: inner.in_flight,
                limit: self.max_in_flight,
                queued: inner.waiting.len(),
            });
        }
        let start = Instant::now();
        let ticket = inner.next_ticket;
        inner.next_ticket += 1;
        inner.waiting.push_back(ticket);
        loop {
            if inner.state != ServiceState::Running {
                let state = inner.state;
                Self::unqueue(&mut inner, ticket);
                self.cond.wake(inner);
                return Err(AdmitError::ShuttingDown { state });
            }
            if inner.waiting.front() == Some(&ticket) && inner.in_flight < self.max_in_flight {
                inner.waiting.pop_front();
                inner.in_flight += 1;
                // More than one slot may have freed at once: wake the next
                // waiter so admission cascades.
                self.cond.wake(inner);
                return Ok(Permit { queue: self, waited: start.elapsed(), was_queued: true });
            }
            match deadline {
                Some(dl) => {
                    let now = Instant::now();
                    if now >= dl {
                        Self::unqueue(&mut inner, ticket);
                        let depth = inner.waiting.len();
                        self.cond.wake(inner);
                        return Err(AdmitError::QueueTimeout {
                            waited_ms: start.elapsed().as_millis() as u64,
                            depth,
                        });
                    }
                    inner = self.cond.sleep(inner, Some(dl - now));
                }
                None => inner = self.cond.sleep(inner, None),
            }
        }
    }

    fn unqueue(inner: &mut QueueInner, ticket: u64) {
        if let Some(pos) = inner.waiting.iter().position(|&t| t == ticket) {
            inner.waiting.remove(pos);
        }
    }

    /// Drain: reject new work, wake queued waiters (they leave with
    /// `ShuttingDown`), and wait for every in-flight permit to be released.
    /// Once `deadline` passes, `cancel` is raised so in-flight runs abort
    /// through their cooperative watch; the drain still waits for them to
    /// resolve (they always do — the watch trips on every statement).
    /// Returns how long the drain took and whether it had to cancel.
    pub(crate) fn drain(&self, deadline: Duration, cancel: &AtomicBool) -> (Duration, bool) {
        let start = Instant::now();
        let mut inner = self.lock();
        inner.state = ServiceState::Draining;
        self.cond.wake(inner);

        let mut cancelled = false;
        let mut inner = self.lock();
        loop {
            if inner.in_flight == 0 && inner.waiting.is_empty() {
                inner.state = ServiceState::Stopped;
                break;
            }
            if !cancelled && start.elapsed() >= deadline {
                cancel.store(true, Ordering::SeqCst);
                cancelled = true;
            }
            // Tick instead of waiting the full remaining deadline so the
            // cancel flag is raised promptly even if no permit is released.
            let tick = if cancelled {
                Duration::from_millis(5)
            } else {
                deadline.saturating_sub(start.elapsed()).min(Duration::from_millis(5))
            };
            inner = self.cond.sleep(inner, Some(tick.max(Duration::from_millis(1))));
        }
        self.cond.wake(inner);
        (start.elapsed(), cancelled)
    }

    /// Leave `Draining`/`Stopped` and accept work again.
    pub(crate) fn resume(&self) {
        let mut inner = self.lock();
        inner.state = ServiceState::Running;
        self.cond.wake(inner);
    }

    /// `(state, queued waiters, in flight)` — one consistent snapshot.
    pub(crate) fn snapshot(&self) -> (ServiceState, usize, usize) {
        let inner = self.lock();
        (inner.state, inner.waiting.len(), inner.in_flight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    #[test]
    fn fast_path_admits_below_the_limit() {
        let q = AdmissionQueue::new(2, 4);
        let p1 = q.acquire(None).unwrap();
        let p2 = q.acquire(None).unwrap();
        assert!(!p1.was_queued && !p2.was_queued);
        assert_eq!(q.snapshot(), (ServiceState::Running, 0, 2));
        drop(p1);
        drop(p2);
        assert_eq!(q.snapshot(), (ServiceState::Running, 0, 0));
    }

    #[test]
    fn zero_limit_is_an_immediate_overload() {
        let q = AdmissionQueue::new(0, 16);
        let res = q.acquire(None);
        match res {
            Err(AdmitError::Overloaded { limit: 0, .. }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }

    #[test]
    fn a_full_queue_overloads_instantly() {
        // Depth 0: saturation falls straight back to the hard shed.
        let q = AdmissionQueue::new(1, 0);
        let _held = q.acquire(None).unwrap();
        let res = q.acquire(Some(Instant::now() + Duration::from_secs(5)));
        match res {
            Err(AdmitError::Overloaded { in_flight: 1, limit: 1, queued: 0 }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }

    #[test]
    fn an_expired_deadline_times_out_instead_of_waiting() {
        let q = AdmissionQueue::new(1, 4);
        let _held = q.acquire(None).unwrap();
        let res = q.acquire(Some(Instant::now() - Duration::from_millis(1)));
        match res {
            Err(AdmitError::QueueTimeout { depth: 0, .. }) => {}
            other => panic!("expected QueueTimeout, got {other:?}"),
        }
    }

    #[test]
    fn waiters_are_admitted_in_fifo_order() {
        let q = AdmissionQueue::new(1, 8);
        let order = StdMutex::new(Vec::new());
        let held = q.acquire(None).unwrap();
        std::thread::scope(|scope| {
            // Enqueue three waiters one at a time, confirming each is queued
            // before starting the next so arrival order is deterministic.
            for id in 0..3usize {
                let q = &q;
                let order = &order;
                scope.spawn(move || {
                    let permit = q.acquire(None).unwrap();
                    assert!(permit.was_queued);
                    order.lock().unwrap().push(id);
                });
                while q.snapshot().1 < id + 1 {
                    std::thread::yield_now();
                }
            }
            drop(held);
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn drain_rejects_new_work_until_resume() {
        let q = AdmissionQueue::new(4, 4);
        let cancel = AtomicBool::new(false);
        let (_, cancelled) = q.drain(Duration::from_secs(1), &cancel);
        assert!(!cancelled, "nothing in flight: drain must not cancel");
        assert!(!cancel.load(Ordering::SeqCst));
        assert_eq!(q.snapshot().0, ServiceState::Stopped);
        match q.acquire(None) {
            Err(AdmitError::ShuttingDown { state: ServiceState::Stopped }) => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
        q.resume();
        assert_eq!(q.snapshot().0, ServiceState::Running);
        assert!(q.acquire(None).is_ok());
    }

    #[test]
    fn drain_wakes_queued_waiters_and_waits_for_permits() {
        let q = AdmissionQueue::new(1, 4);
        let cancel = AtomicBool::new(false);
        let held = q.acquire(None).unwrap();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| q.acquire(None));
            while q.snapshot().1 < 1 {
                std::thread::yield_now();
            }
            let drainer = scope.spawn(|| q.drain(Duration::from_secs(5), &cancel));
            // The queued waiter must be woken out with a typed shutdown.
            match waiter.join().unwrap() {
                Err(AdmitError::ShuttingDown { .. }) => {}
                other => panic!("expected ShuttingDown, got {other:?}"),
            }
            // The drain blocks on the held permit; releasing it completes
            // the drain without cancellation.
            drop(held);
            let (_, cancelled) = drainer.join().unwrap();
            assert!(!cancelled);
        });
        assert_eq!(q.snapshot(), (ServiceState::Stopped, 0, 0));
    }

    #[test]
    fn an_overrun_drain_raises_the_cancel_flag() {
        let q = AdmissionQueue::new(1, 4);
        let cancel = AtomicBool::new(false);
        let held = q.acquire(None).unwrap();
        std::thread::scope(|scope| {
            let drainer = scope.spawn(|| q.drain(Duration::ZERO, &cancel));
            // The zero-deadline drain immediately raises the cancel flag ...
            while !cancel.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // ... but still waits for the permit to be released.
            drop(held);
            let (_, cancelled) = drainer.join().unwrap();
            assert!(cancelled);
        });
        assert_eq!(q.snapshot().0, ServiceState::Stopped);
    }

    #[test]
    fn states_have_stable_labels() {
        assert_eq!(ServiceState::Running.label(), "running");
        assert_eq!(ServiceState::Draining.to_string(), "draining");
        assert_eq!(ServiceState::Stopped.to_string(), "stopped");
    }
}
