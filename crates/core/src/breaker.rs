//! Per-structure circuit breakers.
//!
//! The oracle fallback makes a faulting kernel *correct* (both tiers are
//! bit-identical), but not *cheap*: a structure that faults on every request
//! pays the fast tier, the quarantine recompile, the retry and the oracle,
//! every single time.  The [`BreakerBoard`] tracks consecutive tier-faults
//! per cache key; once a structure crosses the configured threshold its
//! breaker **opens** and subsequent requests short-circuit straight to the
//! tree-walk oracle (still bit-identical, no wasted fast-tier attempts).
//! After a cooldown one **half-open probe** request is let through on the
//! fast tier; a clean probe closes the breaker, a faulting one re-opens it.
//!
//! Transitions are driven entirely by recorded fault counts, so a
//! deterministic fault plan drives deterministic breaker state — the unit
//! tests assert the whole open → half-open → close cycle without a single
//! sleep.  A threshold of zero disables the board entirely (the default).

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The state of one structure's breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests start on the fast tier.
    Closed,
    /// Too many consecutive faults: requests short-circuit to the oracle.
    Open,
    /// Cooldown elapsed: one probe request is trying the fast tier.
    HalfOpen,
}

impl BreakerState {
    /// A short stable label (`closed` / `open` / `half_open`).
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// What [`BreakerBoard::admit`] decided for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerDecision {
    /// Run normally; `probe == true` marks the single half-open probe whose
    /// outcome decides the breaker's fate.
    Allow { probe: bool },
    /// The breaker is open (or another probe is in flight).
    ShortCircuit,
}

struct Breaker {
    state: BreakerState,
    consecutive_faults: u32,
    opened_at: Instant,
    probing: bool,
}

impl Breaker {
    fn closed() -> Self {
        Breaker {
            state: BreakerState::Closed,
            consecutive_faults: 0,
            opened_at: Instant::now(),
            probing: false,
        }
    }
}

/// One breaker per cache key (kernel structure).  `threshold == 0` disables
/// the board: every request is allowed and nothing is recorded.
pub(crate) struct BreakerBoard {
    threshold: u32,
    cooldown: Duration,
    inner: Mutex<HashMap<(u64, u64), Breaker>>,
}

impl BreakerBoard {
    pub(crate) fn new(threshold: u32, cooldown: Duration) -> Self {
        BreakerBoard { threshold, cooldown, inner: Mutex::new(HashMap::new()) }
    }

    fn enabled(&self) -> bool {
        self.threshold > 0
    }

    /// Decide whether a request for `key` starts on the fast tier, runs as
    /// the half-open probe, or short-circuits.
    pub(crate) fn admit(&self, key: (u64, u64)) -> BreakerDecision {
        if !self.enabled() {
            return BreakerDecision::Allow { probe: false };
        }
        let mut map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let Some(b) = map.get_mut(&key) else {
            return BreakerDecision::Allow { probe: false };
        };
        match b.state {
            BreakerState::Closed => BreakerDecision::Allow { probe: false },
            BreakerState::Open if b.opened_at.elapsed() >= self.cooldown => {
                b.state = BreakerState::HalfOpen;
                b.probing = true;
                BreakerDecision::Allow { probe: true }
            }
            BreakerState::HalfOpen if !b.probing => {
                b.probing = true;
                BreakerDecision::Allow { probe: true }
            }
            BreakerState::Open | BreakerState::HalfOpen => BreakerDecision::ShortCircuit,
        }
    }

    /// Record a served (non-short-circuited) request's tier-fault count.
    /// Returns `true` when this record *opened* the breaker (closed → open,
    /// or a failed probe re-opening it).
    pub(crate) fn record(&self, key: (u64, u64), faults: u32, probe: bool) -> bool {
        if !self.enabled() {
            return false;
        }
        let mut map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let b = map.entry(key).or_insert_with(Breaker::closed);
        if probe {
            b.probing = false;
            if faults == 0 {
                *b = Breaker::closed();
                false
            } else {
                b.state = BreakerState::Open;
                b.opened_at = Instant::now();
                b.consecutive_faults += faults;
                true
            }
        } else {
            match b.state {
                BreakerState::Closed => {
                    if faults == 0 {
                        b.consecutive_faults = 0;
                        false
                    } else {
                        b.consecutive_faults += faults;
                        if b.consecutive_faults >= self.threshold {
                            b.state = BreakerState::Open;
                            b.opened_at = Instant::now();
                            true
                        } else {
                            false
                        }
                    }
                }
                // A request admitted before the breaker opened resolved
                // after it: only the probe may close an open breaker.
                BreakerState::Open | BreakerState::HalfOpen => {
                    b.consecutive_faults += faults;
                    false
                }
            }
        }
    }

    /// The probe's checkout failed before it could run: restore `Open` so
    /// the breaker is not wedged half-open with a phantom probe.
    pub(crate) fn abort_probe(&self, key: (u64, u64)) {
        if !self.enabled() {
            return;
        }
        let mut map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(b) = map.get_mut(&key) {
            if b.probing {
                b.probing = false;
                b.state = BreakerState::Open;
                b.opened_at = Instant::now();
            }
        }
    }

    /// `(closed, open, half_open)` breaker counts across all tracked keys.
    pub(crate) fn counts(&self) -> (usize, usize, usize) {
        let map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut counts = (0, 0, 0);
        for b in map.values() {
            match b.state {
                BreakerState::Closed => counts.0 += 1,
                BreakerState::Open => counts.1 += 1,
                BreakerState::HalfOpen => counts.2 += 1,
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: (u64, u64) = (1, 2);
    const HOUR: Duration = Duration::from_secs(3600);

    #[test]
    fn zero_threshold_disables_the_board() {
        let board = BreakerBoard::new(0, Duration::ZERO);
        assert_eq!(board.admit(KEY), BreakerDecision::Allow { probe: false });
        assert!(!board.record(KEY, 99, false));
        assert_eq!(board.admit(KEY), BreakerDecision::Allow { probe: false });
        assert_eq!(board.counts(), (0, 0, 0));
    }

    #[test]
    fn consecutive_faults_open_at_the_threshold() {
        let board = BreakerBoard::new(3, HOUR);
        assert!(!board.record(KEY, 1, false));
        assert!(!board.record(KEY, 1, false));
        assert_eq!(board.admit(KEY), BreakerDecision::Allow { probe: false });
        assert!(board.record(KEY, 1, false), "third fault crosses the threshold");
        assert_eq!(board.admit(KEY), BreakerDecision::ShortCircuit);
        assert_eq!(board.counts(), (0, 1, 0));
    }

    #[test]
    fn a_clean_request_resets_the_consecutive_count() {
        let board = BreakerBoard::new(2, HOUR);
        assert!(!board.record(KEY, 1, false));
        assert!(!board.record(KEY, 0, false)); // resets
        assert!(!board.record(KEY, 1, false)); // back to 1, below threshold
        assert_eq!(board.admit(KEY), BreakerDecision::Allow { probe: false });
    }

    #[test]
    fn a_burst_of_faults_in_one_request_opens_immediately() {
        let board = BreakerBoard::new(2, HOUR);
        assert!(board.record(KEY, 2, false), "one request with 2 tier-faults opens");
        assert_eq!(board.admit(KEY), BreakerDecision::ShortCircuit);
    }

    #[test]
    fn cooldown_admits_a_single_probe_and_a_clean_probe_closes() {
        // A zero cooldown makes open → half-open immediate and deterministic.
        let board = BreakerBoard::new(1, Duration::ZERO);
        assert!(board.record(KEY, 1, false));
        assert_eq!(board.admit(KEY), BreakerDecision::Allow { probe: true });
        // A second request while the probe is in flight still short-circuits.
        assert_eq!(board.admit(KEY), BreakerDecision::ShortCircuit);
        assert_eq!(board.counts(), (0, 0, 1));
        assert!(!board.record(KEY, 0, true), "clean probe closes without opening");
        assert_eq!(board.admit(KEY), BreakerDecision::Allow { probe: false });
        assert_eq!(board.counts(), (1, 0, 0));
    }

    #[test]
    fn a_faulting_probe_reopens() {
        let board = BreakerBoard::new(1, Duration::ZERO);
        assert!(board.record(KEY, 1, false));
        assert_eq!(board.admit(KEY), BreakerDecision::Allow { probe: true });
        assert!(board.record(KEY, 1, true), "a faulting probe counts as an open");
        // Zero cooldown: the next admit is immediately the next probe.
        assert_eq!(board.admit(KEY), BreakerDecision::Allow { probe: true });
    }

    #[test]
    fn within_cooldown_requests_short_circuit() {
        let board = BreakerBoard::new(1, HOUR);
        assert!(board.record(KEY, 1, false));
        for _ in 0..3 {
            assert_eq!(board.admit(KEY), BreakerDecision::ShortCircuit);
        }
    }

    #[test]
    fn abort_probe_restores_open() {
        let board = BreakerBoard::new(1, Duration::ZERO);
        assert!(board.record(KEY, 1, false));
        assert_eq!(board.admit(KEY), BreakerDecision::Allow { probe: true });
        board.abort_probe(KEY);
        assert_eq!(board.counts(), (0, 1, 0));
        // The board is not wedged: the next admit probes again.
        assert_eq!(board.admit(KEY), BreakerDecision::Allow { probe: true });
    }

    #[test]
    fn states_have_stable_labels() {
        assert_eq!(BreakerState::Closed.label(), "closed");
        assert_eq!(BreakerState::Open.label(), "open");
        assert_eq!(BreakerState::HalfOpen.label(), "half_open");
    }
}
