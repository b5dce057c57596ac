//! Fleet-wide weight rollouts and drain orchestration.
//!
//! A [`FleetCoordinator`] drives a new checkpoint across the fleet
//! **shard by shard**: serialize once, push to shard 0, wait for its
//! swap-ack (each shard's `WeightBus` applies the checkpoint
//! all-or-nothing and hands back the new epoch), then move to shard 1,
//! and so on. Sequencing bounds the mixed-epoch window to a single shard
//! at any instant — clients see at most two adjacent epochs during a
//! rollout, and each individual shard's epoch only ever moves forward
//! (the bus is monotonic).
//!
//! Rollouts are *best-effort per shard*: an unreachable shard is
//! recorded and skipped rather than wedging the rollout, because a shard
//! that rejoins is re-pushed by the next rollout (or an explicit
//! [`FleetCoordinator::push_to_shard`]).

use std::time::Duration;

use prionn_store::Checkpoint;
use prionn_telemetry::Gauge;

use crate::router::Router;

/// The outcome of one shard's step in a rollout.
#[derive(Debug, Clone)]
pub struct ShardRollout {
    /// Shard index.
    pub shard: usize,
    /// The epoch the shard acked, when the push succeeded.
    pub epoch: Option<u64>,
    /// Failure detail when it did not.
    pub error: Option<String>,
}

/// The outcome of a fleet-wide rollout.
#[derive(Debug, Clone)]
pub struct RolloutReport {
    /// Per-shard outcomes, in push order.
    pub shards: Vec<ShardRollout>,
}

impl RolloutReport {
    /// True when every shard acked the new weights.
    pub fn fully_applied(&self) -> bool {
        self.shards.iter().all(|s| s.epoch.is_some())
    }

    /// Shard indices that failed the push.
    pub fn failed_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .filter(|s| s.epoch.is_none())
            .map(|s| s.shard)
            .collect()
    }
}

/// Orchestrates epoch rollouts and drains over a [`Router`]'s admin
/// channel.
pub struct FleetCoordinator<'a> {
    router: &'a Router,
    swap_timeout: Duration,
    rollout_epoch: Gauge,
}

impl<'a> FleetCoordinator<'a> {
    /// A coordinator speaking through `router`. `swap_timeout` bounds how
    /// long one shard may take to verify + apply a checkpoint.
    pub fn new(router: &'a Router, swap_timeout: Duration) -> Self {
        let rollout_epoch = router.telemetry().gauge(
            "fleet_rollout_epoch",
            "Highest epoch acked by any shard in the latest rollout",
        );
        FleetCoordinator {
            router,
            swap_timeout,
            rollout_epoch,
        }
    }

    /// Roll `checkpoint` across every shard, one at a time, in index
    /// order. Returns per-shard epochs/errors; never panics on shard
    /// failure.
    pub fn rollout(&self, checkpoint: &Checkpoint) -> RolloutReport {
        let bytes = checkpoint.to_bytes();
        let mut shards = Vec::with_capacity(self.router.shard_count());
        for shard in 0..self.router.shard_count() {
            shards.push(self.push_bytes(shard, &bytes));
        }
        RolloutReport { shards }
    }

    /// Push `checkpoint` to one shard only (e.g. re-sync a shard that
    /// rejoined after missing a rollout).
    pub fn push_to_shard(&self, shard: usize, checkpoint: &Checkpoint) -> ShardRollout {
        self.push_bytes(shard, &checkpoint.to_bytes())
    }

    fn push_bytes(&self, shard: usize, bytes: &[u8]) -> ShardRollout {
        match self.router.swap_weights(shard, bytes, self.swap_timeout) {
            Ok(epoch) => {
                self.rollout_epoch.set(epoch as f64);
                self.router.telemetry().events().record(
                    "fleet_rollout_shard",
                    format!("shard={shard} epoch={epoch}"),
                    0,
                );
                ShardRollout {
                    shard,
                    epoch: Some(epoch),
                    error: None,
                }
            }
            Err(error) => {
                self.router.telemetry().events().record(
                    "fleet_rollout_shard_failed",
                    format!("shard={shard} error={error}"),
                    0,
                );
                ShardRollout {
                    shard,
                    epoch: None,
                    error: Some(error),
                }
            }
        }
    }

    /// Gracefully remove a shard: tell it to drain (typed Draining
    /// answers start immediately), giving callers' routers time to fail
    /// over before the process exits.
    pub fn drain_shard(&self, shard: usize) -> Result<(), String> {
        self.router.drain_shard(shard)
    }
}
