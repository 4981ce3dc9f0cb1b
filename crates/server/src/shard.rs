//! Routing: N [`Vss`] shards behind one name space.
//!
//! [`ShardedEngine`] is a `Vec<Vss>` plus the stable hash that assigns every
//! logical video to exactly one of them, the on-disk manifest that pins N
//! and the per-shard operation counters. Each `Vss` is a complete engine
//! with its own catalog slice, GOP cache/recency state and
//! deferred-compression queue behind its own reader-writer lock, so clients
//! of videos on different shards never contend, and the lock discipline
//! within a shard is `Vss`'s own (see the `vss_core` crate docs).
//!
//! # Locking rules
//!
//! 1. **Single-shard rule.** Every operation (create, delete, write,
//!    append, read, a caller's maintenance) touches exactly one logical
//!    video and therefore acquires exactly one shard lock. Holding a shard
//!    lock while calling back into the engine for a *different* video is
//!    forbidden, so no two shard locks are ever held at once.
//! 2. **Aggregation rule.** Whole-server operations (listing video names)
//!    visit shards one at a time and never hold more than one lock; they
//!    observe a point-in-time-per-shard view rather than a global snapshot.
//!    Statistics take no lock at all.
//!
//! On disk, each shard is a fully self-contained store rooted at
//! `<root>/shard-NN/` (its own `catalog.json` and GOP files), and the shard
//! count is pinned in `<root>/server.json` so reopening a store routes every
//! existing video to the shard that owns its files.

use crate::stats::{ShardStats, ShardStatsSnapshot};
use std::path::Path;
use vss_core::{Vss, VssConfig, VssError};

/// Default shard count when `0` is requested. Shards stripe locks rather
/// than CPUs, so the default is a fixed fan-out (not the core count): wide
/// enough that a handful of concurrent clients rarely collide, small enough
/// that whole-server sweeps stay cheap.
pub const DEFAULT_SHARD_COUNT: usize = 8;

const MANIFEST_FILE: &str = "server.json";

#[derive(serde::Serialize, serde::Deserialize)]
struct ServerManifest {
    shards: usize,
}

/// A stable, dependency-free hash for shard routing (FNV-1a, 64-bit). The
/// assignment of videos to shards is part of the on-disk layout, so this
/// must never change for existing stores.
fn route_hash(name: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// N [`Vss`] shards and the routing between them. All operations take
/// `&self`; the type is `Send + Sync` and shared across client threads.
pub(crate) struct ShardedEngine {
    shards: Vec<Vss>,
    stats: Vec<ShardStats>,
}

impl ShardedEngine {
    /// Opens (or creates) a sharded store rooted at the configuration's
    /// directory. `shards = 0` selects [`DEFAULT_SHARD_COUNT`]. Reopening an
    /// existing store always uses the shard count it was created with (the
    /// requested count is ignored), because video→shard routing determines
    /// where each video's files live.
    pub(crate) fn open(config: VssConfig, shards: usize) -> Result<Self, VssError> {
        let root = config.root.clone();
        std::fs::create_dir_all(&root).map_err(vss_catalog_io)?;
        let shard_count = match Self::load_manifest(&root)? {
            Some(existing) => existing,
            None => {
                let count = if shards == 0 { DEFAULT_SHARD_COUNT } else { shards };
                let manifest = ServerManifest { shards: count };
                let text = serde_json::to_string_pretty(&manifest)
                    .map_err(|e| VssError::Unsatisfiable(format!("manifest encode: {e}")))?;
                // The manifest pins the shard count for the store's lifetime
                // (routing depends on it), so its write must survive a crash:
                // temp-then-rename with file and directory fsyncs.
                vss_catalog::durable::write_atomic(&root.join(MANIFEST_FILE), text.as_bytes())
                    .map_err(vss_catalog_io)?;
                count
            }
        };
        let shards = (0..shard_count)
            .map(|index| {
                let mut shard_config = config.clone();
                shard_config.root = root.join(format!("shard-{index:02}"));
                Vss::open_shard(shard_config, index)
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { shards, stats: (0..shard_count).map(ShardStats::new).collect() })
    }

    fn load_manifest(root: &Path) -> Result<Option<usize>, VssError> {
        let path = root.join(MANIFEST_FILE);
        if !path.exists() {
            return Ok(None);
        }
        let text = std::fs::read_to_string(&path).map_err(vss_catalog_io)?;
        let manifest: ServerManifest = serde_json::from_str(&text)
            .map_err(|e| VssError::Unsatisfiable(format!("corrupt server manifest: {e}")))?;
        if manifest.shards == 0 {
            return Err(VssError::Unsatisfiable("server manifest declares zero shards".into()));
        }
        Ok(Some(manifest.shards))
    }

    /// The shards, in index order.
    pub(crate) fn shards(&self) -> &[Vss] {
        &self.shards
    }

    /// The shard that owns a logical video name.
    pub(crate) fn shard_of(&self, name: &str) -> usize {
        (route_hash(name) % self.shards.len() as u64) as usize
    }

    /// Shard `index` and its operation counters.
    pub(crate) fn shard(&self, index: usize) -> (&Vss, &ShardStats) {
        (&self.shards[index], &self.stats[index])
    }

    /// The shard that owns `name`, and its operation counters.
    pub(crate) fn route(&self, name: &str) -> (&Vss, &ShardStats) {
        self.shard(self.shard_of(name))
    }

    /// Point-in-time statistics for every shard. Takes no lock: every
    /// counter, lock waits included, is an atomic.
    pub(crate) fn shard_stats(&self) -> Vec<ShardStatsSnapshot> {
        self.shards
            .iter()
            .zip(&self.stats)
            .enumerate()
            .map(|(index, (vss, stats))| stats.snapshot(index, vss.lock_wait()))
            .collect()
    }
}

/// Wraps a manifest I/O error into the engine's error type.
fn vss_catalog_io(error: std::io::Error) -> VssError {
    VssError::Catalog(error.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_stable() {
        // The hash is part of the on-disk contract; pin a few values.
        assert_eq!(route_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(route_hash("a"), route_hash("a"));
        assert_ne!(route_hash("a"), route_hash("b"));
    }

    #[test]
    fn shard_assignment_spreads_names() {
        let names: Vec<String> = (0..64).map(|i| format!("camera-{i}")).collect();
        let shards = 8u64;
        let mut seen = std::collections::BTreeSet::new();
        for name in &names {
            seen.insert(route_hash(name) % shards);
        }
        assert!(seen.len() >= 4, "64 names should land on several of 8 shards, got {seen:?}");
    }
}
