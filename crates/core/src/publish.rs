//! The live-publication hook: how freshly persisted GOPs reach subscribers.
//!
//! A [`GopPublisher`] installed on an [`Engine`](crate::Engine) (via
//! [`Engine::set_publisher`](crate::Engine::set_publisher)) is notified of
//! every GOP appended to a logical video's **original** timeline, immediately
//! after the GOP is durably persisted — the catalog record is journaled and
//! fsynced and the GOP file has landed via temp+rename+fsync before the hook
//! fires, so a subscriber can never observe bytes a crash could lose.
//!
//! The hook receives the *pre-deferral* [`EncodedGop`]: the exact encoded
//! container the writer produced, before any write-time lossless wrapping,
//! whose bytes every subscriber then shares. Deferred compression is
//! lossless, so catch-up serves the stored bytes: a stored page reads back
//! ([`vss_codec::read_page`]) to the very bytes published live, and fanning
//! the in-memory GOP out costs zero re-encodes.
//!
//! Cached (non-original) fragments materialized by the read path never
//! publish: subscribers tail the original timeline only.
//!
//! The hook runs on the writer's thread while the engine is exclusively
//! borrowed (under a [`Vss`](crate::Vss)'s exclusive lock), so
//! implementations **must not block** and must never call back into the
//! engine. The `vss-live` hub satisfies this with bounded per-subscriber
//! queues: a full queue marks the subscriber lagged (it transparently
//! catches up from the persisted store) instead of stalling ingest.

use vss_codec::EncodedGop;

/// One durably persisted GOP of a logical video's original timeline, as seen
/// by a [`GopPublisher`]. Borrowed from the write path; publishers clone what
/// they need to retain.
#[derive(Debug, Clone, Copy)]
pub struct GopPublication<'a> {
    /// The logical video the GOP belongs to.
    pub name: &'a str,
    /// The GOP's catalog index within the original physical video — a dense,
    /// monotonically increasing sequence number (0-based) that continues
    /// across appends and sink restarts. Subscription cursors are expressed
    /// in this sequence.
    pub seq: u64,
    /// Start time of the GOP within the logical video, in seconds.
    pub start_time: f64,
    /// End time of the GOP within the logical video, in seconds.
    pub end_time: f64,
    /// Number of frames in the GOP.
    pub frame_count: usize,
    /// Frame rate of the original timeline, in frames per second.
    pub frame_rate: f64,
    /// The encoded GOP exactly as the writer produced it (pre-deferral).
    pub gop: &'a EncodedGop,
}

/// Receives engine lifecycle events for live fanout. See the
/// [module docs](self) for the delivery and non-blocking contract.
pub trait GopPublisher: Send + Sync {
    /// Called after one GOP of a video's original timeline was durably
    /// persisted (journaled, fsynced, file renamed into place).
    fn gop_persisted(&self, publication: &GopPublication<'_>);

    /// Called after a logical video was deleted; live subscriptions to it
    /// should terminate with an end-of-stream event.
    fn video_deleted(&self, name: &str);
}
