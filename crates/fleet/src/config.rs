//! Fleet tuning: shard count, seed, per-shard serve config, admission
//! bucket and work-stealing bounds.

use crate::{FleetError, Result};
use lumen_serve::{BucketFault, ServeConfig, TokenBucket};
use serde::{Deserialize, Serialize};

/// Fleet-level token-bucket admission tuning: the shape of the shared
/// [`TokenBucket`] that guards session creation (the daemon keeps one per
/// connection for frames).
///
/// The bucket refills once per fleet tick, never from a wall clock, so
/// admission behaviour is exactly reproducible: `refill_per_tick`
/// sessions per tick sustained, with bursts up to `burst_sessions`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Bucket capacity: sessions admissible in one burst.
    pub burst_sessions: u32,
    /// Tokens regained per fleet tick.
    pub refill_per_tick: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            burst_sessions: 64,
            refill_per_tick: 1.0,
        }
    }
}

impl AdmissionConfig {
    /// Validates the tuning.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] when the shape fails the
    /// shared [`TokenBucket::validate`] rule: a zero burst or a
    /// negative/non-finite refill rate.
    pub fn validate(&self) -> Result<()> {
        TokenBucket::validate(self.burst_sessions, self.refill_per_tick).map_err(|fault| {
            let field = match fault {
                BucketFault::ZeroCapacity => "burst_sessions",
                BucketFault::BadRefill => "refill_per_tick",
            };
            FleetError::invalid_config(field, fault.reason())
        })
    }

    /// A full admission bucket of this shape.
    pub(crate) fn bucket(&self) -> TokenBucket {
        TokenBucket::new(self.burst_sessions, self.refill_per_tick)
    }
}

/// Tuning for a [`Fleet`](crate::Fleet).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of supervisor shards. The experiment harness sizes this to
    /// the core count; tests use small fixed values.
    pub shards: usize,
    /// Fleet seed: the partitioning key hash is derived from it through a
    /// registered substream, so two fleets with one seed place every
    /// session identically.
    pub seed: u64,
    /// Per-shard supervisor tuning (every shard gets its own clip budget
    /// of `shard.budget_clips` per `shard.budget_period_ticks`).
    pub shard: ServeConfig,
    /// Fleet-level session admission bucket.
    pub admission: AdmissionConfig,
    /// Upper bound on credit donations per fleet tick (0 disables work
    /// stealing).
    pub max_steals_per_tick: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 4,
            seed: 0,
            shard: ServeConfig::default(),
            admission: AdmissionConfig::default(),
            max_steals_per_tick: 8,
        }
    }
}

impl FleetConfig {
    /// Validates the tuning.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for a zero shard count and
    /// propagates shard/admission validation failures.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(FleetError::invalid_config("shards", "must be non-zero"));
        }
        self.shard.validate()?;
        self.admission.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(FleetConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_degenerate_shapes() {
        let c = FleetConfig {
            shards: 0,
            ..FleetConfig::default()
        };
        assert!(c.validate().is_err());

        let mut c = FleetConfig::default();
        c.admission.burst_sessions = 0;
        assert!(c.validate().is_err());

        let mut c = FleetConfig::default();
        c.admission.refill_per_tick = f64::NAN;
        assert!(c.validate().is_err());

        let mut c = FleetConfig::default();
        c.shard.budget_clips = 0;
        assert!(c.validate().is_err());
    }
}
