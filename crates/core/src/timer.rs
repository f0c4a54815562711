//! Adaptive WRB delivery timeout (§6.1.1, "Dynamically Tuning the Timeout").
//!
//! WRB waits for the proposer's message for at most `timer` time units
//! (Algorithm 1, line 7). The timer must track the network's current delay:
//! too short and correct proposers get skipped (hurting throughput), too long
//! and a crashed proposer stalls the round. The paper adjusts the timer with
//! an exponential moving average (EMA) of recent message delays
//!
//! ```text
//! timer_r = 2/(N+1) · d_{r-1} + timer_{r-2} · (1 − 2/(N+1))
//! ```
//!
//! and additionally *increases* the timer on every unsuccessful delivery
//! (Algorithm 1, line 14) to guarantee liveness under ◇Synch.

use std::time::Duration;

/// The adaptive timeout of one FireLedger worker.
#[derive(Clone, Debug)]
pub struct EmaTimer {
    base: Duration,
    max: Duration,
    current: Duration,
    alpha: f64,
    /// Multiplicative safety margin applied on top of the smoothed delay so a
    /// correct proposer that is marginally slower than the average is not
    /// skipped.
    margin: f64,
}

impl EmaTimer {
    /// Creates a timer with the given base (initial) value, upper bound and
    /// EMA window `N`.
    pub fn new(base: Duration, max: Duration, window: usize) -> Self {
        let window = window.max(1) as f64;
        EmaTimer {
            base,
            max,
            current: base,
            alpha: 2.0 / (window + 1.0),
            margin: 4.0,
        }
    }

    /// The current timeout to arm for the next WRB delivery.
    pub fn current(&self) -> Duration {
        self.current
    }

    /// Records a successful delivery whose message delay was `delay`; the
    /// timeout is adjusted towards `margin × EMA(delay)` (Algorithm 1,
    /// line 19 "adjust timer").
    pub fn record_delivery(&mut self, delay: Duration) {
        let observed = delay.as_secs_f64() * self.margin;
        let current = self.current.as_secs_f64();
        let next = self.alpha * observed + (1.0 - self.alpha) * current;
        self.current = clamp_duration(Duration::from_secs_f64(next), self.base, self.max);
    }

    /// Records a missed delivery (the timer expired before the proposer's
    /// message arrived); the timeout doubles, up to the maximum (Algorithm 1,
    /// line 14 "increase timer").
    pub fn record_miss(&mut self) {
        let doubled = self.current.saturating_mul(2);
        self.current = clamp_duration(doubled, self.base, self.max);
    }

    /// Resets the timer to its base value (used when the suspected-node list
    /// is invalidated and after recovery completes).
    pub fn reset(&mut self) {
        self.current = self.base;
    }
}

fn clamp_duration(d: Duration, min: Duration, max: Duration) -> Duration {
    if d < min {
        min
    } else if d > max {
        max
    } else {
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer() -> EmaTimer {
        EmaTimer::new(Duration::from_millis(50), Duration::from_secs(5), 16)
    }

    #[test]
    fn starts_at_base() {
        assert_eq!(timer().current(), Duration::from_millis(50));
    }

    #[test]
    fn misses_double_up_to_max() {
        let mut t = timer();
        t.record_miss();
        assert_eq!(t.current(), Duration::from_millis(100));
        t.record_miss();
        assert_eq!(t.current(), Duration::from_millis(200));
        for _ in 0..20 {
            t.record_miss();
        }
        assert_eq!(t.current(), Duration::from_secs(5));
    }

    #[test]
    fn deliveries_pull_the_timeout_towards_the_observed_delay() {
        let mut t = timer();
        // Blow the timeout up first.
        for _ in 0..6 {
            t.record_miss();
        }
        let inflated = t.current();
        assert!(inflated >= Duration::from_secs(1));
        // A long run of fast deliveries shrinks it again.
        for _ in 0..200 {
            t.record_delivery(Duration::from_millis(2));
        }
        assert!(t.current() < Duration::from_millis(60));
        // ... but never below the base.
        assert!(t.current() >= Duration::from_millis(50));
    }

    #[test]
    fn slow_network_raises_the_timeout() {
        let mut t = timer();
        for _ in 0..200 {
            t.record_delivery(Duration::from_millis(100));
        }
        // 4x margin over a 100 ms delay.
        assert!(t.current() > Duration::from_millis(300));
        assert!(t.current() <= Duration::from_millis(450));
    }

    #[test]
    fn reset_returns_to_base() {
        let mut t = timer();
        t.record_miss();
        t.record_delivery(Duration::from_millis(500));
        t.reset();
        assert_eq!(t.current(), Duration::from_millis(50));
    }

    #[test]
    fn window_of_one_tracks_last_sample() {
        let mut t = EmaTimer::new(Duration::from_millis(1), Duration::from_secs(1), 1);
        t.record_delivery(Duration::from_millis(10));
        // alpha = 1 → current = margin * 10 ms.
        assert_eq!(t.current(), Duration::from_millis(40));
    }
}
