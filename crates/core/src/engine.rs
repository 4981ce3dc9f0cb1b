//! The storage-manager engine: shared state and common helpers.
//!
//! [`Engine`] owns the catalog and the configuration. The public
//! [`Vss`](crate::Vss) handle is one shard: an `Engine` behind a
//! reader-writer lock, shared to plan and exclusive per commit.

use crate::config::VssConfig;
use crate::params::StorageBudget;
use crate::publish::GopPublisher;
use crate::VssError;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use vss_catalog::{Catalog, PhysicalVideoId, Pin};
use vss_solver::ReadPlan;

/// Statistics describing how a read was executed.
#[derive(Debug, Clone)]
pub struct ReadStats {
    /// The plan chosen by the fragment selector.
    pub plan: ReadPlan,
    /// Number of candidate fragments that were available to the planner.
    pub fragments_available: usize,
    /// Number of GOP files read from disk.
    pub gops_read: usize,
    /// Number of frames decoded (including look-back frames).
    pub frames_decoded: usize,
    /// Bytes read from disk.
    pub bytes_read: u64,
    /// Number of plan segments served from cached (non-original) fragments —
    /// the per-read signal behind the server's cache hit-rate statistic.
    pub cached_fragments_used: usize,
    /// Whether the result was admitted to the cache as a new physical video.
    pub cache_admitted: bool,
    /// Time spent planning the read.
    pub planning: Duration,
    /// Time spent reading and decoding source fragments.
    pub decoding: Duration,
    /// Time spent converting and (re)encoding the output.
    pub encoding: Duration,
    /// High-water mark of frames buffered while producing the result. For a
    /// materialized read this is O(clip); consuming a
    /// [`ReadStream`](crate::ReadStream) chunk-by-chunk keeps it O(GOP).
    pub peak_buffered_frames: usize,
    /// High-water mark of pixel/GOP bytes buffered while producing the result.
    pub peak_buffered_bytes: u64,
}

/// Statistics describing how a write was executed.
#[derive(Debug, Clone)]
pub struct WriteReport {
    /// Identifier of the physical video the data was written to.
    pub physical_id: PhysicalVideoId,
    /// Number of GOPs written.
    pub gops_written: usize,
    /// Number of frames written.
    pub frames_written: usize,
    /// Bytes written to disk (after any deferred compression).
    pub bytes_written: u64,
    /// Deferred-compression levels applied to each written GOP
    /// (`0` = not compressed), in write order.
    pub deferred_levels: Vec<u8>,
    /// Wall-clock time spent encoding and writing.
    pub elapsed: Duration,
}

/// One persisted original-timeline GOP's position and page, as snapshotted
/// for live-subscription catch-up (see [`Engine::original_gop_spans`]).
#[derive(Debug, Clone, PartialEq)]
pub struct OriginalGopSpan {
    /// Catalog GOP index — the live-subscription sequence number.
    pub seq: u64,
    /// Start time within the logical video, in seconds.
    pub start_time: f64,
    /// End time within the logical video, in seconds.
    pub end_time: f64,
    /// Number of frames in the GOP.
    pub frame_count: usize,
    /// The GOP's file, to read with [`vss_codec::read_page`].
    pub path: PathBuf,
}

/// A point-in-time snapshot of a video's persisted original timeline, used
/// by live-subscription catch-up readers to serve the stored pages (see
/// [`Engine::original_gop_spans`]).
#[derive(Debug)]
pub struct OriginalGopManifest {
    /// Frame rate of the original timeline, in frames per second.
    pub frame_rate: f64,
    /// Spans with sequence number `>= from_seq`, in temporal order.
    pub spans: Vec<OriginalGopSpan>,
    /// Keeps every span's page on disk until the manifest drops, whatever
    /// maintenance commits meanwhile.
    pub pin: Pin,
}

/// The engine behind a [`Vss`](crate::Vss) instance.
pub struct Engine {
    /// The storage manager's configuration. Exposed mutably (through
    /// [`Vss::with_engine`](crate::Vss::with_engine)) so experiments can
    /// toggle optimizations (eviction policy, deferred compression, ...)
    /// between operations.
    pub config: VssConfig,
    pub(crate) catalog: Catalog,
    /// Live-fanout hook, fired after each original-timeline GOP persists
    /// (see [`crate::publish`]). `None` (the default) keeps the write path
    /// publication-free.
    pub(crate) publisher: Option<Arc<dyn GopPublisher>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("catalog", &self.catalog)
            .field("publisher_installed", &self.publisher.is_some())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Opens an engine rooted at the configuration's directory. What crash
    /// recovery found (journal records replayed, torn bytes truncated,
    /// orphans removed, …) is published as `engine.recovery.*` startup
    /// metrics and, when anything had to be repaired or replayed, as one
    /// structured `recovery` log line.
    pub fn open(config: VssConfig) -> Result<Self, VssError> {
        let catalog = Catalog::open(&config.root)?;
        let report = catalog.recovery_report();
        vss_telemetry::counter("engine.recovery.opens").incr();
        vss_telemetry::counter("engine.recovery.wal_records_replayed")
            .add(report.wal_records_replayed as u64);
        vss_telemetry::counter("engine.recovery.wal_records_stale")
            .add(report.wal_records_stale as u64);
        vss_telemetry::counter("engine.recovery.torn_bytes_truncated")
            .add(report.torn_bytes_truncated);
        vss_telemetry::counter("engine.recovery.orphan_files_removed")
            .add(report.orphan_files_removed as u64);
        vss_telemetry::counter("engine.recovery.orphan_dirs_removed")
            .add(report.orphan_dirs_removed as u64);
        vss_telemetry::counter("engine.recovery.gop_records_dropped")
            .add(report.gop_records_dropped as u64);
        vss_telemetry::counter("engine.recovery.gop_records_healed")
            .add(report.gop_records_healed as u64);
        if report.repaired_anything() || report.wal_records_replayed > 0 {
            vss_telemetry::log_event(
                "recovery",
                &[
                    ("root", config.root.display().to_string()),
                    ("checkpoint_loaded", report.checkpoint_loaded.to_string()),
                    ("wal_replayed", report.wal_records_replayed.to_string()),
                    ("wal_stale", report.wal_records_stale.to_string()),
                    ("torn_bytes", report.torn_bytes_truncated.to_string()),
                    ("orphan_files", report.orphan_files_removed.to_string()),
                    ("orphan_dirs", report.orphan_dirs_removed.to_string()),
                    ("gops_dropped", report.gop_records_dropped.to_string()),
                    ("gops_healed", report.gop_records_healed.to_string()),
                ],
            );
        }
        Ok(Self { config, catalog, publisher: None })
    }

    /// Runs `scope` as one journal commit: every catalog mutation it makes
    /// is staged and then journaled as one record with one `fsync`, and the
    /// files it removes are unlinked after that. If `scope` or the commit
    /// fails, the catalog is reloaded from disk, so it holds exactly what a
    /// reopen would, and the error is returned. A cache admission and a
    /// compaction merge are the two scopes (see the crate's *Durability
    /// contract*).
    pub(crate) fn in_batch<R>(
        &mut self,
        scope: impl FnOnce(&mut Self) -> Result<R, VssError>,
    ) -> Result<R, VssError> {
        self.catalog.begin_batch();
        match scope(self) {
            Ok(value) => {
                self.catalog.commit_batch()?;
                Ok(value)
            }
            Err(error) => {
                self.catalog.abort_batch()?;
                Err(error)
            }
        }
    }

    /// Installs (or clears) the live-fanout hook fired after every durably
    /// persisted original-timeline GOP — see [`crate::publish`] for the
    /// delivery and non-blocking contract. The sharded server installs one
    /// hub across all shards at open.
    pub fn set_publisher(&mut self, publisher: Option<Arc<dyn GopPublisher>>) {
        self.publisher = publisher;
    }

    /// Creates a logical video with an optional explicit storage budget.
    pub fn create_video(&mut self, name: &str, budget: Option<StorageBudget>) -> Result<(), VssError> {
        if self.catalog.contains_video(name) {
            return Err(VssError::VideoExists(name.to_string()));
        }
        // A multiple of the original is journaled with the video and resolved
        // once the original has been written and its size is known.
        let multiple = match budget {
            Some(StorageBudget::MultipleOfOriginal(multiple)) => Some(multiple),
            _ => None,
        };
        self.catalog.create_video_with_multiple(name, multiple)?;
        if let Some(StorageBudget::Bytes(bytes)) = budget {
            self.catalog.set_storage_budget(name, Some(bytes))?;
        } else if let Some(StorageBudget::Unlimited) = budget {
            self.catalog.set_storage_budget(name, Some(u64::MAX))?;
        }
        self.catalog.persist()?;
        Ok(())
    }

    /// Deletes a logical video and all of its physical data. Live
    /// subscriptions to the video are notified (they terminate with an
    /// end-of-stream event).
    pub fn delete_video(&mut self, name: &str) -> Result<(), VssError> {
        self.catalog.delete_video(name)?;
        self.catalog.persist()?;
        if let Some(publisher) = &self.publisher {
            publisher.video_deleted(name);
        }
        Ok(())
    }

    /// Names of all logical videos.
    pub fn video_names(&self) -> Vec<String> {
        self.catalog.video_names()
    }

    /// Bytes used by a logical video across all physical representations.
    pub fn bytes_used(&self, name: &str) -> Result<u64, VssError> {
        Ok(self.catalog.bytes_used(name)?)
    }

    /// The storage budget of a logical video in bytes, if established.
    pub fn budget_bytes(&self, name: &str) -> Result<Option<u64>, VssError> {
        let video = self.catalog.video(name)?;
        if let Some(explicit) = video.storage_budget_bytes {
            return Ok(if explicit == u64::MAX { None } else { Some(explicit) });
        }
        // Not established yet: resolve the multiple the video was created
        // with (else the configured default) against the original.
        let original_bytes = video.original().map(|o| o.byte_len()).unwrap_or(0);
        if original_bytes == 0 {
            return Ok(None);
        }
        let rule = video
            .budget_multiple
            .map_or(self.config.default_budget, StorageBudget::MultipleOfOriginal);
        Ok(rule.resolve(original_bytes))
    }

    /// Fraction of the budget currently consumed (`None` when unlimited).
    pub fn budget_fraction(&self, name: &str) -> Result<Option<f64>, VssError> {
        let Some(budget) = self.budget_bytes(name)? else { return Ok(None) };
        if budget == 0 {
            return Ok(Some(1.0));
        }
        Ok(Some(self.bytes_used(name)? as f64 / budget as f64))
    }

    /// Overrides a logical video's resolved storage budget in bytes
    /// (`None` reverts to "unset", re-deriving from the multiple the video
    /// was created with, else the configured default).
    /// Experiment/ablation hook used to tighten budgets mid-run.
    pub fn set_storage_budget_bytes(
        &mut self,
        name: &str,
        bytes: Option<u64>,
    ) -> Result<(), VssError> {
        self.catalog.set_storage_budget(name, bytes)?;
        Ok(())
    }

    /// What crash recovery replayed and repaired when this engine's catalog
    /// was opened (journal records, torn-tail truncation, orphan cleanup).
    pub fn recovery_report(&self) -> &vss_catalog::RecoveryReport {
        self.catalog.recovery_report()
    }

    /// Time range `[start, end)` in seconds covered by a logical video's
    /// original physical video (errors if nothing has been written yet).
    pub fn video_time_range(&self, name: &str) -> Result<(f64, f64), VssError> {
        let video = self.catalog.video(name)?;
        let original = video
            .original()
            .ok_or_else(|| VssError::Unsatisfiable("video has no written data".into()))?;
        Ok((original.start_time(), original.end_time()))
    }

    /// Snapshots the persisted original-timeline GOPs from the first
    /// sequence number (catalog GOP index) `>= from_seq`, up to `max_gops`
    /// of them, with their page paths and a [`Pin`] on the pages — what a
    /// live subscription's catch-up reader serves after releasing the lock.
    /// The spans are one run of consecutive indexes: a hole that eviction
    /// left in the original ends the run, and shows up on the next call as
    /// `spans[0].seq > from_seq`. An empty `spans` means nothing is
    /// persisted at or after `from_seq` yet. Returns `None` when the video
    /// does not exist (yet) or has no written data — a subscription treats
    /// both as "nothing to catch up on" and keeps waiting.
    pub fn original_gop_spans(
        &self,
        name: &str,
        from_seq: u64,
        max_gops: usize,
    ) -> Option<OriginalGopManifest> {
        let original = self.catalog.video(name).ok()?.original()?;
        // GOP indices are assigned monotonically and removals keep order, so
        // the record list is sorted by index.
        let start = original.gops.partition_point(|g| g.index < from_seq);
        let first = original.gops.get(start).map_or(0, |g| g.index);
        let spans = original.gops[start..]
            .iter()
            .take(max_gops)
            .zip(first..)
            .take_while(|(g, seq)| g.index == *seq)
            .map(|(g, _)| OriginalGopSpan {
                seq: g.index,
                start_time: g.start_time,
                end_time: g.end_time,
                frame_count: g.frame_count,
                path: self.catalog.gop_path(name, original, g.index),
            })
            .collect();
        Some(OriginalGopManifest { frame_rate: original.frame_rate, spans, pin: self.catalog.pin() })
    }

    /// Number of cached (non-original) GOP fragments currently materialized
    /// for a logical video — the x-axis of the paper's Figures 10 and 12.
    pub fn materialized_fragment_count(&self, name: &str) -> Result<usize, VssError> {
        let video = self.catalog.video(name)?;
        Ok(video.physical.iter().filter(|p| !p.is_original).map(|p| p.gops.len()).sum())
    }

    /// Number of contiguous cached fragment runs for a logical video (a
    /// measure of cache fragmentation: evicting pages from the middle of a
    /// physical video splits it into more runs).
    pub fn fragment_run_count(&self, name: &str) -> Result<usize, VssError> {
        let video = self.catalog.video(name)?;
        Ok(video
            .physical
            .iter()
            .filter(|p| !p.is_original)
            .map(|p| crate::fragments::contiguous_runs(p).len())
            .sum())
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use std::path::PathBuf;

    /// A fresh, empty temporary directory for a test store.
    fn temp_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!(
            "vss-core-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    /// Creates an engine rooted in a fresh temporary directory.
    pub(crate) fn temp_engine(tag: &str) -> (Engine, PathBuf) {
        let root = temp_root(tag);
        (Engine::open(VssConfig::new(&root)).unwrap(), root)
    }

    /// Opens a [`Vss`](crate::Vss) rooted in a fresh temporary directory.
    pub(crate) fn temp_vss(tag: &str) -> (crate::Vss, PathBuf) {
        let root = temp_root(tag);
        (crate::Vss::open_at(&root).unwrap(), root)
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::temp_engine;
    use super::*;

    #[test]
    fn create_and_delete_videos() {
        let (mut engine, root) = temp_engine("create");
        engine.create_video("a", None).unwrap();
        assert!(matches!(engine.create_video("a", None), Err(VssError::VideoExists(_))));
        engine.create_video("b", Some(StorageBudget::Bytes(1234))).unwrap();
        assert_eq!(engine.budget_bytes("b").unwrap(), Some(1234));
        assert_eq!(engine.video_names(), vec!["a".to_string(), "b".to_string()]);
        engine.delete_video("a").unwrap();
        assert_eq!(engine.video_names(), vec!["b".to_string()]);
        assert!(engine.delete_video("a").is_err());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn unlimited_budget_reports_none() {
        let (mut engine, root) = temp_engine("budget");
        engine.create_video("v", Some(StorageBudget::Unlimited)).unwrap();
        assert_eq!(engine.budget_bytes("v").unwrap(), None);
        assert_eq!(engine.budget_fraction("v").unwrap(), None);
        // Without an original, a multiple-of-original budget is unknown.
        engine.create_video("w", None).unwrap();
        assert_eq!(engine.budget_bytes("w").unwrap(), None);
        assert_eq!(engine.bytes_used("w").unwrap(), 0);
        let _ = std::fs::remove_dir_all(root);
    }
}
