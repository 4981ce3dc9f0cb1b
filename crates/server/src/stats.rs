//! Per-shard operation statistics.
//!
//! Every shard keeps a set of monotone atomic counters that sessions bump as
//! requests flow through. Lock waits are recorded by the shard's
//! [`Vss`](vss_core::Vss) itself, as a full [`vss_telemetry::Histogram`]
//! (not just a running total), so a snapshot exposes the wait
//! *distribution* — p50/p90/p99 — alongside the summed total the scaling
//! experiments diff. Everything is an atomic, so a snapshot takes no lock
//! and observers never show up in the contention metrics they report.
//!
//! Every recording is double-written into the process-global labeled series
//! `server.shard.*{shard=N}`, so `vss_telemetry::snapshot()` can answer
//! *which shard* without holding any server handle. Those mirrors are the
//! only per-shard view a remote client (and `vss-top`) gets: they reach it
//! through the paged registry fetch. The owned counters stay exact per
//! server; the labeled mirrors merge all servers in the process (one server
//! per process in production).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use vss_core::{ReadStats, WriteReport};
use vss_telemetry::{Counter, HistogramSummary};

/// Process-global labeled mirrors of one shard's counters: the
/// `server.shard.*{shard=N}` series that `snapshot()` and, over the wire,
/// `vss-top` read. The owned atomics below remain the source of truth for
/// [`ShardStatsSnapshot`] (they are exact per *server*, while the global
/// series merge every server in the process), so both views coexist. The
/// `server.shard.lock_wait_ns{shard=N}` mirror is the shard's `Vss`'s.
#[derive(Debug)]
struct LabeledShard {
    read_ops: &'static Counter,
    cache_hit_reads: &'static Counter,
    write_ops: &'static Counter,
    bytes_read: &'static Counter,
    bytes_written: &'static Counter,
}

impl LabeledShard {
    fn new(shard: usize) -> Self {
        let index = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", index.as_str())];
        Self {
            read_ops: vss_telemetry::counter_with("server.shard.read_ops", labels),
            cache_hit_reads: vss_telemetry::counter_with("server.shard.cache_hit_reads", labels),
            write_ops: vss_telemetry::counter_with("server.shard.write_ops", labels),
            bytes_read: vss_telemetry::counter_with("server.shard.bytes_read", labels),
            bytes_written: vss_telemetry::counter_with("server.shard.bytes_written", labels),
        }
    }
}

/// Monotone counters for one shard. All methods take `&self`.
#[derive(Debug)]
pub(crate) struct ShardStats {
    /// Completed read operations.
    read_ops: AtomicU64,
    /// Reads whose plan used at least one cached (non-original) fragment.
    cache_hit_reads: AtomicU64,
    /// Completed write/append operations.
    write_ops: AtomicU64,
    /// Bytes read from disk by reads.
    bytes_read: AtomicU64,
    /// Bytes written to disk by writes/appends.
    bytes_written: AtomicU64,
    /// `server.shard.*{shard=N}` global mirrors (see [`LabeledShard`]).
    labeled: LabeledShard,
}

impl ShardStats {
    pub(crate) fn new(shard: usize) -> Self {
        Self {
            read_ops: AtomicU64::new(0),
            cache_hit_reads: AtomicU64::new(0),
            write_ops: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            labeled: LabeledShard::new(shard),
        }
    }

    pub(crate) fn record_read(&self, stats: &ReadStats) {
        self.read_ops.fetch_add(1, Ordering::Relaxed);
        self.labeled.read_ops.incr();
        self.bytes_read.fetch_add(stats.bytes_read, Ordering::Relaxed);
        self.labeled.bytes_read.add(stats.bytes_read);
        if stats.cached_fragments_used > 0 {
            self.cache_hit_reads.fetch_add(1, Ordering::Relaxed);
            self.labeled.cache_hit_reads.incr();
        }
    }

    /// Accounts a streaming read at open time. The plan (and therefore the
    /// cache-hit signal) is known when the snapshot is taken; the bytes flow
    /// lock-free afterwards and are not attributed back to the shard.
    pub(crate) fn record_stream_open(&self, stats: &ReadStats) {
        self.read_ops.fetch_add(1, Ordering::Relaxed);
        self.labeled.read_ops.incr();
        if stats.cached_fragments_used > 0 {
            self.cache_hit_reads.fetch_add(1, Ordering::Relaxed);
            self.labeled.cache_hit_reads.incr();
        }
    }

    pub(crate) fn record_write(&self, report: &WriteReport) {
        self.write_ops.fetch_add(1, Ordering::Relaxed);
        self.labeled.write_ops.incr();
        self.bytes_written.fetch_add(report.bytes_written, Ordering::Relaxed);
        self.labeled.bytes_written.add(report.bytes_written);
    }

    /// Copies the counters, beside `lock_wait`, the shard lock's wait
    /// distribution.
    pub(crate) fn snapshot(&self, shard: usize, lock_wait: HistogramSummary) -> ShardStatsSnapshot {
        ShardStatsSnapshot {
            shard,
            // The histogram's exact sum preserves the historical total-wait
            // metric (windowed diffs in the scaling experiments rely on it).
            lock_wait: Duration::from_nanos(lock_wait.sum),
            lock_wait_histogram: lock_wait,
            read_ops: self.read_ops.load(Ordering::Relaxed),
            cache_hit_reads: self.cache_hit_reads.load(Ordering::Relaxed),
            write_ops: self.write_ops.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one shard's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStatsSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Total time clients spent waiting for this shard's lock.
    pub lock_wait: Duration,
    /// Per-acquisition lock-wait distribution in nanoseconds: count, exact
    /// sum/max, and p50/p90/p99 upper-bound estimates.
    pub lock_wait_histogram: HistogramSummary,
    /// Completed read operations.
    pub read_ops: u64,
    /// Reads whose plan used at least one cached (non-original) fragment.
    pub cache_hit_reads: u64,
    /// Completed write/append operations.
    pub write_ops: u64,
    /// Bytes read from disk.
    pub bytes_read: u64,
    /// Bytes written to disk.
    pub bytes_written: u64,
}

impl ShardStatsSnapshot {
    /// Fraction of reads served (at least partly) from cached fragments.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.read_ops == 0 {
            0.0
        } else {
            self.cache_hit_reads as f64 / self.read_ops as f64
        }
    }
}

/// Statistics for every shard of a server, plus whole-server aggregates.
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// One snapshot per shard, in shard order.
    pub shards: Vec<ShardStatsSnapshot>,
}

impl ServerStats {
    /// Total reads across all shards.
    pub fn total_read_ops(&self) -> u64 {
        self.shards.iter().map(|s| s.read_ops).sum()
    }

    /// Total writes/appends across all shards.
    pub fn total_write_ops(&self) -> u64 {
        self.shards.iter().map(|s| s.write_ops).sum()
    }

    /// Total bytes read across all shards.
    pub fn total_bytes_read(&self) -> u64 {
        self.shards.iter().map(|s| s.bytes_read).sum()
    }

    /// Total bytes written across all shards.
    pub fn total_bytes_written(&self) -> u64 {
        self.shards.iter().map(|s| s.bytes_written).sum()
    }

    /// Summed lock-wait time across all shards.
    pub fn total_lock_wait(&self) -> Duration {
        self.shards.iter().map(|s| s.lock_wait).sum()
    }

    /// Worst per-shard p99 per-acquisition lock wait (upper-bound estimate).
    pub fn lock_wait_p99(&self) -> Duration {
        Duration::from_nanos(
            self.shards.iter().map(|s| s.lock_wait_histogram.p99).max().unwrap_or(0),
        )
    }

    /// Whole-server cache hit rate.
    pub fn cache_hit_rate(&self) -> f64 {
        let reads = self.total_read_ops();
        if reads == 0 {
            0.0
        } else {
            self.shards.iter().map(|s| s.cache_hit_reads).sum::<u64>() as f64 / reads as f64
        }
    }
}
