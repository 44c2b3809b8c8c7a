//! Jittered exponential backoff, shared by every reconnect/retry loop.
//!
//! Three different loops in this system wait for a peer that is
//! temporarily unable to serve them: a polite client retrying a
//! connection-capped server's `ERR busy`, a replica reconnecting to its
//! primary across link faults, and the supervisor pacing its restarts.
//! They all want the same shape — double the wait each attempt, cap it,
//! and (for the waiters that can herd) add jitter so they do not
//! re-arrive in lockstep. This module is that shape, factored out so the
//! bounds are tested once.

use std::time::Duration;

/// Exponential backoff state: `base × 2^(attempt−1)`, capped, with
/// clock-derived jitter in `[0, delay)` added on top.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
}

impl Backoff {
    /// A fresh backoff doubling from `base` up to `cap`.
    pub fn new(base: Duration, cap: Duration) -> Backoff {
        Backoff {
            base,
            cap,
            attempt: 0,
        }
    }

    /// Forgets the failure streak — call after a success so the next
    /// failure starts over from `base`.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// The raw (jitter-free) delay for the next attempt, advancing the
    /// attempt counter.
    fn next_delay(&mut self) -> Duration {
        self.attempt = self.attempt.saturating_add(1);
        delay_for(self.base, self.cap, self.attempt)
    }

    /// The next delay with jitter applied — what callers should sleep.
    pub fn next_sleep(&mut self) -> Duration {
        let delay = self.next_delay();
        delay + jitter(delay)
    }
}

/// The deterministic component: `base × 2^(attempt−1)`, saturating, and
/// never above `cap`. Attempt numbers are 1-based; attempt 0 is treated
/// as 1.
pub(crate) fn delay_for(base: Duration, cap: Duration, attempt: u32) -> Duration {
    let exp = attempt.saturating_sub(1).min(20); // 2^20 × any sane base saturates the cap
    base.saturating_mul(1u32 << exp).min(cap)
}

/// Jitter in `[0, delay)`, derived from the wall clock's nanoseconds.
/// Enough to de-herd concurrent waiters without an RNG dependency; a
/// zero `delay` yields zero jitter.
pub fn jitter(delay: Duration) -> Duration {
    use std::time::{SystemTime, UNIX_EPOCH};
    let micros = delay.as_micros().max(1) as u64;
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0) as u64;
    Duration::from_micros(nanos % micros)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles_from_base_until_the_cap() {
        let base = Duration::from_millis(2);
        let cap = Duration::from_millis(50);
        let mut b = Backoff::new(base, cap);
        assert_eq!(b.next_delay(), Duration::from_millis(2));
        assert_eq!(b.next_delay(), Duration::from_millis(4));
        assert_eq!(b.next_delay(), Duration::from_millis(8));
        assert_eq!(b.next_delay(), Duration::from_millis(16));
        assert_eq!(b.next_delay(), Duration::from_millis(32));
        // Capped from here on, forever.
        for _ in 0..40 {
            assert_eq!(b.next_delay(), cap);
        }
        assert_eq!(b.attempt, 45);
    }

    #[test]
    fn reset_restarts_the_streak() {
        let mut b = Backoff::new(Duration::from_millis(2), Duration::from_millis(50));
        b.next_delay();
        b.next_delay();
        b.reset();
        assert_eq!(b.attempt, 0);
        assert_eq!(b.next_delay(), Duration::from_millis(2));
    }

    #[test]
    fn delay_for_is_monotone_and_capped() {
        let base = Duration::from_millis(1);
        let cap = Duration::from_secs(1);
        let mut prev = Duration::ZERO;
        for attempt in 0..64 {
            let d = delay_for(base, cap, attempt);
            assert!(d >= prev, "monotone");
            assert!(d <= cap, "never exceeds the cap");
            assert!(d >= base, "never below the base");
            prev = d;
        }
        // Huge attempt counts saturate rather than overflow.
        assert_eq!(delay_for(base, cap, u32::MAX), cap);
    }

    #[test]
    fn jitter_is_bounded_by_the_delay() {
        let delay = Duration::from_millis(10);
        for _ in 0..100 {
            let j = jitter(delay);
            assert!(j < delay, "jitter {j:?} must stay below {delay:?}");
        }
        assert_eq!(jitter(Duration::ZERO), Duration::ZERO);
    }

    #[test]
    fn next_sleep_stays_within_twice_the_raw_delay() {
        let mut b = Backoff::new(Duration::from_millis(4), Duration::from_millis(50));
        for _ in 0..20 {
            let attempt_before = b.attempt;
            let sleep = b.next_sleep();
            let raw = delay_for(
                Duration::from_millis(4),
                Duration::from_millis(50),
                attempt_before + 1,
            );
            assert!(sleep >= raw);
            assert!(sleep < raw * 2, "delay + jitter < 2 × delay");
        }
    }
}
