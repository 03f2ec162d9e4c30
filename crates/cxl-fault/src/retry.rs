//! Bounded exponential backoff for transient device errors.
//!
//! Backoff is *virtual* time: [`with_backoff`] only accumulates the
//! delay it would have slept in the returned [`RetryReport`]; callers
//! charge it to their node's `SimClock`, so retry costs show up in every
//! latency report instead of silently vanishing.

use cxl_mem::CxlError;
use simclock::SimDuration;

/// Attempts a [`with_backoff`] run makes at most, the first included.
pub const MAX_ATTEMPTS: u32 = 4;

/// Delay before the first retry; each later one is [`BACKOFF_MULTIPLIER`]
/// times the one before: 2, 8 and 32 µs, calibrated to the CXL
/// link-retry scale, not to wall-clock I/O.
pub const BACKOFF_BASE: SimDuration = SimDuration::from_micros(2);

/// Growth factor of the delay from one retry to the next.
pub const BACKOFF_MULTIPLIER: u64 = 4;

/// What a [`with_backoff`] run did, whether or not it succeeded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryReport {
    /// Attempts made (1 for a first-try success, 0 for no run).
    pub attempts: u32,
    /// Total virtual backoff delay to charge to the clock.
    pub backoff: SimDuration,
}

impl RetryReport {
    /// Retries performed: every attempt after the first.
    pub fn retries(&self) -> u32 {
        self.attempts.saturating_sub(1)
    }
}

/// Runs `op`, retrying transient errors (per [`CxlError::is_transient`])
/// up to [`MAX_ATTEMPTS`] attempts in all, with exponential backoff
/// from [`BACKOFF_BASE`].
///
/// Returns the final result — the last transient error if every attempt
/// failed, or the first non-transient error immediately — plus a
/// [`RetryReport`] of attempts made and virtual delay accrued. The
/// caller decides how to type the give-up error and *must* charge
/// `report.backoff` to its virtual clock.
pub fn with_backoff<T>(
    mut op: impl FnMut() -> Result<T, CxlError>,
) -> (Result<T, CxlError>, RetryReport) {
    let mut report = RetryReport::default();
    let mut delay = BACKOFF_BASE;
    loop {
        report.attempts += 1;
        match op() {
            Ok(v) => return (Ok(v), report),
            Err(e) if e.is_transient() && report.attempts < MAX_ATTEMPTS => {
                report.backoff = report.backoff.saturating_add(delay);
                delay = SimDuration::from_nanos(delay.as_nanos() * BACKOFF_MULTIPLIER);
            }
            Err(e) => return (Err(e), report),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_mem::CxlPageId;

    #[test]
    fn first_try_success_costs_nothing() {
        let (res, rep) = with_backoff(|| Ok::<_, CxlError>(42));
        assert_eq!(res.unwrap(), 42);
        assert_eq!(rep.attempts, 1);
        assert_eq!(rep.retries(), 0);
        assert_eq!(rep.backoff, SimDuration::ZERO);
    }

    #[test]
    fn transient_errors_are_retried_with_growing_backoff() {
        let mut fails = 2;
        let (res, rep) = with_backoff(|| {
            if fails > 0 {
                fails -= 1;
                Err(CxlError::Transient { op: "read" })
            } else {
                Ok(7)
            }
        });
        assert_eq!(res.unwrap(), 7);
        assert_eq!(rep.attempts, 3);
        assert_eq!(rep.retries(), 2);
        // 2 µs + 8 µs.
        assert_eq!(rep.backoff, SimDuration::from_micros(10));
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let mut calls = 0;
        let (res, rep) = with_backoff(|| {
            calls += 1;
            Err::<(), _>(CxlError::Transient { op: "write" })
        });
        assert!(res.unwrap_err().is_transient());
        assert_eq!(calls, 4);
        assert_eq!(rep.attempts, 4);
        // 2 + 8 + 32 µs charged; the final failure adds no sleep.
        assert_eq!(rep.backoff, SimDuration::from_micros(42));
    }

    #[test]
    fn permanent_errors_fail_fast() {
        let mut calls = 0;
        let (res, rep) = with_backoff(|| {
            calls += 1;
            Err::<(), _>(CxlError::Poisoned(CxlPageId(3)))
        });
        assert_eq!(res.unwrap_err(), CxlError::Poisoned(CxlPageId(3)));
        assert_eq!((calls, rep.attempts, rep.retries()), (1, 1, 0));
        assert_eq!(rep.backoff, SimDuration::ZERO);
    }
}
