//! The one deterministic token bucket of the serving stack.
//!
//! The bucket refills per *step* of its owner's loop, never per
//! wall-clock second, so every admit/refuse decision replays exactly in
//! tests and across kill/restore runs. Two owners share it: the daemon
//! keeps one per connection and refills it once per event-loop turn
//! (frame rate limiting), and the fleet keeps one above its shards and
//! refills it once per fleet tick (session admission). A refill of `r`
//! admits `r` takes per step sustained, with bursts up to the capacity.

/// Why a bucket shape fails the validity rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketFault {
    /// A zero capacity refuses every take, so every caller is condemned.
    ZeroCapacity,
    /// The refill is NaN, infinite or negative.
    BadRefill,
}

impl BucketFault {
    /// Human-readable reason, phrased for the offending config field.
    pub fn reason(self) -> &'static str {
        match self {
            BucketFault::ZeroCapacity => "must be non-zero",
            BucketFault::BadRefill => "must be finite and non-negative",
        }
    }
}

/// A deterministic token bucket.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    capacity: f64,
    tokens: f64,
    refill: f64,
}

impl TokenBucket {
    /// The validity rule every owner checks its config against:
    /// capacity ≥ 1, refill finite and ≥ 0.
    ///
    /// # Errors
    ///
    /// Returns the first [`BucketFault`] the shape breaks.
    pub fn validate(capacity: u32, refill: f64) -> Result<(), BucketFault> {
        if capacity == 0 {
            return Err(BucketFault::ZeroCapacity);
        }
        if !(refill.is_finite() && refill >= 0.0) {
            return Err(BucketFault::BadRefill);
        }
        Ok(())
    }

    /// A full bucket holding `capacity` tokens that regains `refill`
    /// tokens at every [`TokenBucket::refill`].
    pub fn new(capacity: u32, refill: f64) -> Self {
        let capacity = f64::from(capacity);
        TokenBucket {
            capacity,
            tokens: capacity,
            refill: refill.max(0.0),
        }
    }

    /// Adds one step's worth of tokens, saturating at capacity.
    pub fn refill(&mut self) {
        self.tokens = (self.tokens + self.refill).min(self.capacity);
    }

    /// Takes one token if available. `false` means the caller must refuse
    /// the request and count the refusal.
    pub fn try_take(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (checkpointed into the fleet manifest).
    pub fn tokens(&self) -> f64 {
        self.tokens
    }

    /// Restores the level from a checkpoint, clamped into `[0, capacity]`.
    pub fn set_tokens(&mut self, tokens: f64) {
        self.tokens = tokens.clamp(0.0, self.capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_starve_then_recover() {
        let mut bucket = TokenBucket::new(4, 0.5);
        for _ in 0..4 {
            assert!(bucket.try_take());
        }
        assert!(!bucket.try_take());
        bucket.refill();
        assert!(!bucket.try_take(), "half a token is not a token");
        bucket.refill();
        assert!(bucket.try_take());
        for _ in 0..100 {
            bucket.refill();
        }
        assert!((bucket.tokens() - 4.0).abs() < 1e-12, "caps at capacity");
    }

    #[test]
    fn zero_refill_never_recovers() {
        let mut bucket = TokenBucket::new(1, 0.0);
        assert!(bucket.try_take());
        for _ in 0..10 {
            bucket.refill();
        }
        assert!(!bucket.try_take());
    }

    #[test]
    fn restored_level_is_clamped() {
        let mut bucket = TokenBucket::new(4, 1.0);
        bucket.set_tokens(9.0);
        assert!((bucket.tokens() - 4.0).abs() < 1e-12);
        bucket.set_tokens(-1.0);
        assert!(bucket.tokens().abs() < 1e-12);
    }

    #[test]
    fn validity_rule_accepts_sane_shapes() {
        assert_eq!(TokenBucket::validate(1, 0.0), Ok(()));
        assert_eq!(TokenBucket::validate(64, 8.0), Ok(()));
        assert_eq!(TokenBucket::validate(u32::MAX, f64::MAX), Ok(()));
    }

    #[test]
    fn validity_rule_rejects_zero_capacity_first() {
        assert_eq!(
            TokenBucket::validate(0, 1.0),
            Err(BucketFault::ZeroCapacity)
        );
        assert_eq!(
            TokenBucket::validate(0, f64::NAN),
            Err(BucketFault::ZeroCapacity)
        );
    }

    #[test]
    fn validity_rule_rejects_bad_refill() {
        for refill in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5] {
            assert_eq!(
                TokenBucket::validate(4, refill),
                Err(BucketFault::BadRefill),
                "refill {refill}"
            );
        }
    }

    #[test]
    fn fault_reasons_name_the_rule() {
        assert_eq!(BucketFault::ZeroCapacity.reason(), "must be non-zero");
        assert_eq!(
            BucketFault::BadRefill.reason(),
            "must be finite and non-negative"
        );
    }
}
