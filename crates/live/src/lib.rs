//! # vss-live
//!
//! Live ingest fanout for VSS: a per-video broadcast hub that delivers
//! freshly persisted, already-encoded GOPs to N tailing subscribers with
//! zero re-encodes, over the [`vss_core::GopPublisher`] hook.
//!
//! # Architecture
//!
//! * **Publication.** [`LiveHub`] implements [`vss_core::GopPublisher`];
//!   installed on an engine (every shard of a `vss-server`), it observes
//!   each original-timeline GOP *after* it is durably persisted. The hook
//!   runs under the engine/shard write lock, so the hub never blocks there:
//!   it pushes a clone of the GOP — a reference count on the writer's
//!   buffer — onto each subscriber's **bounded** queue.
//! * **Lag policy.** A full queue marks its subscriber *lagged* and drops
//!   the buffered entries — ingest never stalls for a slow reader. Nothing
//!   is lost: every published GOP was persisted first, so the lagged
//!   subscriber transparently falls back to cursor-based **catch-up** from
//!   the store (through its [`CatchupSource`], which `vss-server`
//!   implements by serving the stored pages) and then *re-seams* onto the
//!   live feed. The seam is exact — the catch-up cursor and the
//!   queue's sequence numbers are the same catalog GOP indexes, so no GOP
//!   is duplicated or skipped.
//! * **Subscription modes.** [`SubscribeFrom::Start`] replays from the
//!   oldest stored GOP (late joiners catch up, then go live),
//!   [`SubscribeFrom::Seq`] from an explicit cursor, and
//!   [`SubscribeFrom::Live`] delivers only GOPs persisted after the
//!   subscribe call.
//! * **Gaps.** The store's budget may evict a page of the original, and
//!   its sequence number is never reused. When a catch-up cursor reaches
//!   such a hole, the subscriber receives one [`SubEvent::Gap`] naming the
//!   missing sequence range, then continues from the next stored GOP —
//!   holes are reported, never silently skipped.
//! * **Lifecycle.** Hub channels exist only while subscribers do: the last
//!   [`Subscription`] drop removes the per-video entry (no leaked state for
//!   videos nobody is tailing), and deleting a video terminates its
//!   subscriptions with [`SubEvent::End`].
//! * **Remote delivery.** Over `vss-net`, each remote feed is one
//!   multiplexed stream on the client's single connection: the
//!   server-side relay worker pulls from its [`Subscription`]
//!   credit-paced, so a stalled remote consumer parks the relay — the hub's
//!   bounded queue and lag policy absorb the overflow — without slowing
//!   sibling streams, and dropping the client feed resets just that stream.
//!
//! Telemetry: `live.hub.subscribers` (gauge), `live.hub.published_gops`,
//! `live.hub.lag_events`, `live.hub.catchup_reads` (counters) and
//! `live.sub.delivery_lag_ns{sub=N}` (one publish→delivery latency
//! histogram per subscriber, labeled with a process-unique subscriber
//! number — slow tails show up as *their own* series instead of hiding in
//! a merged distribution). Subscriber series persist in the registry after
//! the subscription drops, like all labeled series; label cardinality is
//! one per subscription ever opened by the process.

#![warn(missing_docs)]

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use vss_codec::EncodedGop;
use vss_core::{GopPublication, GopPublisher, VssError};

/// Default bound on a subscriber's live queue, in GOPs. At the default
/// 30-frame GOP size this is roughly a minute of 30 fps video buffered
/// before a subscriber is marked lagged.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// GOPs fetched per catch-up read round.
const CATCHUP_BATCH: usize = 8;

/// Process-wide hub telemetry, cached so the publish hot path (which runs
/// under the engine write lock) never takes the registry lock.
mod metrics {
    use std::sync::OnceLock;

    /// Currently registered subscribers across all hubs.
    pub(super) fn subscribers() -> &'static vss_telemetry::Gauge {
        static G: OnceLock<&'static vss_telemetry::Gauge> = OnceLock::new();
        G.get_or_init(|| vss_telemetry::gauge("live.hub.subscribers"))
    }

    /// GOP publications observed by hubs (whether or not anyone subscribed).
    pub(super) fn published_gops() -> &'static vss_telemetry::Counter {
        static C: OnceLock<&'static vss_telemetry::Counter> = OnceLock::new();
        C.get_or_init(|| vss_telemetry::counter("live.hub.published_gops"))
    }

    /// Times a subscriber's bounded queue overflowed and it was switched to
    /// catch-up mode.
    pub(super) fn lag_events() -> &'static vss_telemetry::Counter {
        static C: OnceLock<&'static vss_telemetry::Counter> = OnceLock::new();
        C.get_or_init(|| vss_telemetry::counter("live.hub.lag_events"))
    }

    /// Catch-up read rounds issued against the persisted store.
    pub(super) fn catchup_reads() -> &'static vss_telemetry::Counter {
        static C: OnceLock<&'static vss_telemetry::Counter> = OnceLock::new();
        C.get_or_init(|| vss_telemetry::counter("live.hub.catchup_reads"))
    }

    /// Publish→delivery latency for GOPs handed out of the live queue:
    /// one `live.sub.delivery_lag_ns{sub=N}` series per subscriber, keyed
    /// by a process-unique subscriber number (channel-local ids restart at
    /// zero per video, so they cannot label a global series).
    pub(super) fn delivery_lag(sub: u64) -> &'static vss_telemetry::Histogram {
        vss_telemetry::histogram_with("live.sub.delivery_lag_ns", &[("sub", &sub.to_string())])
    }

    /// Allocates the next process-unique subscriber label.
    pub(super) fn next_sub_label() -> u64 {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    }
}

/// Locks a mutex, shrugging off poisoning: hub state stays usable even if a
/// subscriber thread panicked mid-operation (the state it protects is
/// queues and registries whose invariants hold between every push/pop).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where a subscription starts in the video's GOP sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubscribeFrom {
    /// From the oldest stored GOP (sequence 0 unless the store lost it).
    Start,
    /// From an explicit sequence number (catalog GOP index).
    Seq(u64),
    /// Only GOPs persisted after the subscribe call.
    Live,
}

/// One GOP delivered to a subscriber: the encoded container (shared, never
/// re-encoded) plus its position on the original timeline.
#[derive(Debug, Clone)]
pub struct LiveGop {
    /// Sequence number: the GOP's catalog index in the original timeline.
    pub seq: u64,
    /// Start time within the logical video, in seconds.
    pub start_time: f64,
    /// End time within the logical video, in seconds.
    pub end_time: f64,
    /// Number of frames in the GOP.
    pub frame_count: usize,
    /// Frame rate of the original timeline, in frames per second.
    pub frame_rate: f64,
    /// The encoded GOP, exactly as the writer produced it; clones share
    /// its bytes.
    pub gop: EncodedGop,
}

/// One event on a subscription.
#[derive(Debug, Clone)]
pub enum SubEvent {
    /// The next GOP in sequence.
    Gop(LiveGop),
    /// Sequences `from_seq..to_seq` were no longer stored when this
    /// subscriber caught up to them (an evicted original page); delivery
    /// continues at `to_seq`.
    Gap {
        /// First missing sequence number.
        from_seq: u64,
        /// First sequence number delivered after the hole.
        to_seq: u64,
    },
    /// The subscription is over (video deleted, or the server closed it).
    End,
}

/// Reads persisted GOPs for catch-up. Implemented by `vss-server` sessions,
/// which serve the stored pages that [`vss_core::Engine::original_gop_spans`]
/// names; tests may implement it over an in-memory store.
pub trait CatchupSource: Send {
    /// Returns up to `max_gops` persisted original-timeline GOPs of `name`
    /// with consecutive sequence numbers, starting at the first persisted
    /// sequence `>= from_seq`. A hole in the stored sequence ends the batch
    /// and shows up on the next call as `gops[0].seq > from_seq`, which the
    /// subscription reports as a gap. An empty vec means nothing is
    /// persisted at or after `from_seq` yet.
    fn read_from(
        &mut self,
        name: &str,
        from_seq: u64,
        max_gops: usize,
    ) -> Result<Vec<LiveGop>, VssError>;
}

/// A queued publication: the GOP plus its publish instant (for the
/// delivery-lag histogram).
struct Queued {
    gop: LiveGop,
    published: Instant,
}

/// A subscriber's bounded live queue.
struct SubQueue {
    queue: VecDeque<Queued>,
    capacity: usize,
    /// Set by the publisher on overflow; the subscriber clears it when it
    /// switches to catch-up.
    lagged: bool,
}

impl SubQueue {
    fn new(capacity: usize) -> Self {
        Self { queue: VecDeque::new(), capacity: capacity.max(1), lagged: false }
    }
}

/// Shared state of one video's broadcast channel.
#[derive(Default)]
struct ChannelState {
    subscribers: HashMap<u64, SubQueue>,
    next_subscriber_id: u64,
    /// Set when the video was deleted; subscriptions terminate with
    /// [`SubEvent::End`] once their queues drain.
    ended: bool,
}

/// One video's broadcast channel: publisher pushes under the state lock,
/// subscribers block on the condvar.
struct Channel {
    state: Mutex<ChannelState>,
    wake: Condvar,
}

impl Channel {
    fn new() -> Self {
        Self { state: Mutex::new(ChannelState::default()), wake: Condvar::new() }
    }
}

/// The per-video broadcast hub. Install one on every engine (shard) via
/// [`vss_core::Engine::set_publisher`]; subscribe via
/// [`LiveHub::subscribe`]. See the [crate docs](self) for the fanout, lag
/// and seam contracts.
pub struct LiveHub {
    channels: Mutex<HashMap<String, Arc<Channel>>>,
    queue_capacity: usize,
}

impl std::fmt::Debug for LiveHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveHub")
            .field("channels", &lock(&self.channels).len())
            .field("queue_capacity", &self.queue_capacity)
            .finish()
    }
}

impl LiveHub {
    /// Creates a hub whose subscribers buffer up to `queue_capacity` GOPs
    /// before the lag policy kicks in
    /// ([`DEFAULT_QUEUE_CAPACITY`] is the production default; tests force
    /// lag with tiny capacities).
    pub fn new(queue_capacity: usize) -> Arc<Self> {
        Arc::new(Self { channels: Mutex::new(HashMap::new()), queue_capacity: queue_capacity.max(1) })
    }

    /// Number of per-video channels currently held (0 when nobody is
    /// subscribed to anything — dropped subscriptions leak no entries).
    pub fn channel_count(&self) -> usize {
        lock(&self.channels).len()
    }

    /// Number of registered subscribers across all channels.
    pub fn subscriber_count(&self) -> usize {
        let channels: Vec<Arc<Channel>> = lock(&self.channels).values().cloned().collect();
        channels.iter().map(|c| lock(&c.state).subscribers.len()).sum()
    }

    /// Opens a subscription on `name` starting at `from`, catching up on
    /// already-persisted GOPs through `source`. The video does not need to
    /// exist yet — a subscription from [`SubscribeFrom::Start`] on a video
    /// whose first GOP has not landed simply waits for it.
    pub fn subscribe(
        self: &Arc<Self>,
        name: &str,
        from: SubscribeFrom,
        source: Box<dyn CatchupSource>,
    ) -> Subscription {
        let channel = {
            let mut channels = lock(&self.channels);
            Arc::clone(channels.entry(name.to_string()).or_insert_with(|| Arc::new(Channel::new())))
        };
        let id = {
            let mut state = lock(&channel.state);
            let id = state.next_subscriber_id;
            state.next_subscriber_id += 1;
            state.subscribers.insert(id, SubQueue::new(self.queue_capacity));
            id
        };
        metrics::subscribers().add(1);
        let (cursor, live) = match from {
            SubscribeFrom::Start => (Some(0), false),
            SubscribeFrom::Seq(n) => (Some(n), false),
            SubscribeFrom::Live => (None, true),
        };
        Subscription {
            hub: Arc::clone(self),
            channel,
            name: name.to_string(),
            id,
            cursor,
            live,
            source,
            pending: VecDeque::new(),
            terminal: false,
            catchup_rounds: 0,
            lag_transitions: 0,
            delivery_lag: metrics::delivery_lag(metrics::next_sub_label()),
        }
    }
}

impl GopPublisher for LiveHub {
    fn gop_persisted(&self, publication: &GopPublication<'_>) {
        metrics::published_gops().incr();
        // Clone the channel Arc out of the registry so the (brief) per-queue
        // work below never holds the registry lock.
        let channel = lock(&self.channels).get(publication.name).cloned();
        let Some(channel) = channel else { return };
        // Every subscriber's entry shares the writer's buffer: a clone is a
        // reference count.
        let live = LiveGop {
            seq: publication.seq,
            start_time: publication.start_time,
            end_time: publication.end_time,
            frame_count: publication.frame_count,
            frame_rate: publication.frame_rate,
            gop: publication.gop.clone(),
        };
        let published = Instant::now();
        let mut state = lock(&channel.state);
        for queue in state.subscribers.values_mut() {
            if queue.lagged {
                continue; // already catching up from the store
            }
            if queue.queue.len() >= queue.capacity {
                // Lag policy: never block the writer. Drop the buffer and
                // flag the subscriber; it re-reads everything from the
                // persisted store and re-seams.
                queue.queue.clear();
                queue.lagged = true;
                metrics::lag_events().incr();
            } else {
                queue.queue.push_back(Queued { gop: live.clone(), published });
            }
        }
        drop(state);
        channel.wake.notify_all();
    }

    fn video_deleted(&self, name: &str) {
        let channel = lock(&self.channels).get(name).cloned();
        if let Some(channel) = channel {
            lock(&channel.state).ended = true;
            channel.wake.notify_all();
        }
    }
}

/// A tailing subscription handle. Pull events with
/// [`next`](Subscription::next) /
/// [`next_timeout`](Subscription::next_timeout); drop to unsubscribe (the
/// hub entry is cleaned up immediately — a dropped subscriber never stalls
/// or aborts the writer).
pub struct Subscription {
    hub: Arc<LiveHub>,
    channel: Arc<Channel>,
    name: String,
    id: u64,
    /// Next sequence to deliver; `None` until a pure-live subscription is
    /// anchored by its first queued GOP.
    cursor: Option<u64>,
    /// Attached to the live queue (vs. catching up from the store).
    live: bool,
    source: Box<dyn CatchupSource>,
    /// Catch-up events staged for delivery.
    pending: VecDeque<SubEvent>,
    terminal: bool,
    catchup_rounds: u64,
    lag_transitions: u64,
    /// This subscriber's `live.sub.delivery_lag_ns{sub=N}` series.
    delivery_lag: &'static vss_telemetry::Histogram,
}

impl std::fmt::Debug for Subscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription")
            .field("name", &self.name)
            .field("cursor", &self.cursor)
            .field("live", &self.live)
            .finish_non_exhaustive()
    }
}

impl Subscription {
    /// The subscribed video.
    pub fn video(&self) -> &str {
        &self.name
    }

    /// The next sequence number this subscription will deliver (`None`
    /// until a [`SubscribeFrom::Live`] subscription sees its first GOP).
    pub fn cursor(&self) -> Option<u64> {
        self.cursor
    }

    /// Catch-up read rounds this subscription has issued (>= 1 for any
    /// non-live start; grows when the lag policy forced a re-seam).
    pub fn catchup_rounds(&self) -> u64 {
        self.catchup_rounds
    }

    /// Times this subscription fell off the live feed (queue overflow) and
    /// had to catch up from the store.
    pub fn lag_transitions(&self) -> u64 {
        self.lag_transitions
    }

    /// Blocks until the next event. After [`SubEvent::End`] every further
    /// call returns `End` immediately.
    ///
    /// Not an [`Iterator`]: a subscription never yields `None` (an ended
    /// feed keeps returning [`SubEvent::End`]) and errors are recoverable,
    /// so the fallible blocking signature is the honest one.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<SubEvent, VssError> {
        loop {
            if let Some(event) = self.next_timeout(Duration::from_secs(1))? {
                return Ok(event);
            }
        }
    }

    /// Waits up to `timeout` for the next event; `Ok(None)` on timeout.
    /// Ideal for serve loops that interleave liveness checks.
    pub fn next_timeout(&mut self, timeout: Duration) -> Result<Option<SubEvent>, VssError> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.terminal {
                return Ok(Some(SubEvent::End));
            }
            if let Some(event) = self.pending.pop_front() {
                return Ok(Some(self.deliver(event)));
            }
            if self.live {
                if let Some(event) = self.poll_live(deadline) {
                    return Ok(Some(self.deliver(event)));
                }
                if !self.live {
                    continue; // fell off the feed: switch to catch-up
                }
            } else {
                self.catchup_round()?;
                if !self.pending.is_empty() || self.terminal {
                    continue;
                }
            }
            if Instant::now() >= deadline {
                return Ok(None);
            }
        }
    }

    /// Stamps delivery bookkeeping on an event about to be handed out.
    fn deliver(&mut self, event: SubEvent) -> SubEvent {
        match &event {
            SubEvent::Gop(gop) => self.cursor = Some(gop.seq + 1),
            SubEvent::Gap { to_seq, .. } => self.cursor = Some(*to_seq),
            SubEvent::End => self.terminal = true,
        }
        event
    }

    /// Live mode: pops the next queued GOP, waiting on the channel condvar
    /// up to `deadline`. Returns `None` on timeout *or* after switching
    /// itself to catch-up mode (`self.live` distinguishes the two).
    fn poll_live(&mut self, deadline: Instant) -> Option<SubEvent> {
        let mut state = lock(&self.channel.state);
        loop {
            let ended = state.ended;
            let queue = state.subscribers.get_mut(&self.id).expect("subscription is registered");
            if queue.lagged {
                // The publisher dropped our buffer; re-read from the store.
                queue.lagged = false;
                queue.queue.clear();
                self.live = false;
                self.lag_transitions += 1;
                return None;
            }
            while let Some(front) = queue.queue.front() {
                match self.cursor {
                    Some(cursor) if front.gop.seq < cursor => {
                        // Duplicate of a GOP catch-up already delivered.
                        queue.queue.pop_front();
                    }
                    Some(cursor) if front.gop.seq > cursor => {
                        // A hole in the live queue (defensive; publication
                        // is in-order, so this means missed entries): treat
                        // as lag and re-read the missing range.
                        queue.queue.clear();
                        self.live = false;
                        self.lag_transitions += 1;
                        return None;
                    }
                    _ => {
                        let entry = queue.queue.pop_front().expect("front checked above");
                        self.delivery_lag.record_duration(entry.published.elapsed());
                        return Some(SubEvent::Gop(entry.gop));
                    }
                }
            }
            if ended {
                return Some(SubEvent::End);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next_state, _timed_out) = self
                .channel
                .wake
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = next_state;
        }
    }

    /// One catch-up round: read the next batch of persisted GOPs at the
    /// cursor, or — when the store has nothing newer — seam back onto the
    /// live queue (exact: the first queued GOP is the cursor itself).
    fn catchup_round(&mut self) -> Result<(), VssError> {
        let cursor = self.cursor.unwrap_or(0);
        metrics::catchup_reads().incr();
        self.catchup_rounds += 1;
        let batch = match self.source.read_from(&self.name, cursor, CATCHUP_BATCH) {
            Ok(batch) => batch,
            Err(error) => {
                if lock(&self.channel.state).ended {
                    // Deleted under us: terminate instead of erroring.
                    self.pending.push_back(SubEvent::End);
                    return Ok(());
                }
                return Err(error);
            }
        };
        if let Some(first) = batch.first() {
            if first.seq > cursor {
                // The store no longer holds the range we wanted: report the
                // hole.
                self.pending.push_back(SubEvent::Gap { from_seq: cursor, to_seq: first.seq });
            }
            self.pending.extend(batch.into_iter().map(SubEvent::Gop));
            return Ok(());
        }
        // Nothing persisted at or past the cursor: try to re-seam. The queue
        // was registered before any catch-up read, so every GOP published
        // since is either queued (first entry == cursor after dropping
        // duplicates) or flagged as lag — there is no window to miss one.
        let mut state = lock(&self.channel.state);
        let ended = state.ended;
        let queue = state.subscribers.get_mut(&self.id).expect("subscription is registered");
        if queue.lagged {
            queue.lagged = false;
            queue.queue.clear();
            return Ok(()); // more was published while we read; go again
        }
        while queue.queue.front().is_some_and(|entry| entry.gop.seq < cursor) {
            queue.queue.pop_front();
        }
        match queue.queue.front() {
            Some(front) if front.gop.seq == cursor => self.live = true,
            Some(_) => queue.queue.clear(), // defensive: unexpected hole, re-read it
            None if ended => self.pending.push_back(SubEvent::End),
            None => self.live = true,
        }
        Ok(())
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        let now_empty = {
            let mut state = lock(&self.channel.state);
            state.subscribers.remove(&self.id);
            state.subscribers.is_empty()
        };
        metrics::subscribers().sub(1);
        if now_empty {
            // Last subscriber gone: drop the per-video channel (it is
            // recreated on the next subscribe; publication to a video with
            // no channel is a no-op). Re-check emptiness under the registry
            // lock — a concurrent subscribe may have re-registered.
            let mut channels = lock(&self.hub.channels);
            if let Some(channel) = channels.get(&self.name) {
                if Arc::ptr_eq(channel, &self.channel) && lock(&channel.state).subscribers.is_empty()
                {
                    channels.remove(&self.name);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory store of persisted GOPs standing in for the engine.
    #[derive(Clone, Default)]
    struct FakeStore {
        gops: Arc<Mutex<Vec<LiveGop>>>,
    }

    fn fake_gop(seq: u64) -> LiveGop {
        let frame = vss_frame::pattern::gradient(16, 16, vss_frame::PixelFormat::Yuv420, seq);
        let gop = vss_codec::codec_instance(vss_codec::Codec::H264)
            .encode_slice(
                &[frame],
                30.0,
                &vss_codec::EncoderConfig { quality: 80, gop_size: 1 },
                1,
            )
            .unwrap();
        LiveGop {
            seq,
            start_time: seq as f64 / 30.0,
            end_time: (seq + 1) as f64 / 30.0,
            frame_count: 1,
            frame_rate: 30.0,
            gop,
        }
    }

    impl FakeStore {
        /// Persists the next GOP and publishes it to the hub, mirroring the
        /// engine's persist-then-publish order.
        fn persist_and_publish(&self, hub: &LiveHub, name: &str) -> u64 {
            let mut gops = lock(&self.gops);
            let seq = gops.last().map_or(0, |g| g.seq + 1);
            let gop = fake_gop(seq);
            gops.push(gop.clone());
            drop(gops);
            hub.gop_persisted(&GopPublication {
                name,
                seq: gop.seq,
                start_time: gop.start_time,
                end_time: gop.end_time,
                frame_count: gop.frame_count,
                frame_rate: gop.frame_rate,
                gop: &gop.gop,
            });
            seq
        }

        /// Drops every GOP with `seq < before`, as if the store had lost
        /// them.
        fn drop_before(&self, before: u64) {
            lock(&self.gops).retain(|g| g.seq >= before);
        }
    }

    impl CatchupSource for FakeStore {
        fn read_from(
            &mut self,
            _name: &str,
            from_seq: u64,
            max_gops: usize,
        ) -> Result<Vec<LiveGop>, VssError> {
            Ok(lock(&self.gops)
                .iter()
                .filter(|g| g.seq >= from_seq)
                .take(max_gops)
                .cloned()
                .collect())
        }
    }

    fn drain_n(sub: &mut Subscription, n: usize) -> Vec<u64> {
        let mut seqs = Vec::new();
        while seqs.len() < n {
            match sub.next().unwrap() {
                SubEvent::Gop(g) => seqs.push(g.seq),
                SubEvent::Gap { .. } => panic!("unexpected gap"),
                SubEvent::End => panic!("unexpected end"),
            }
        }
        seqs
    }

    #[test]
    fn start_subscription_catches_up_then_tails_live() {
        let hub = LiveHub::new(8);
        let store = FakeStore::default();
        for _ in 0..5 {
            store.persist_and_publish(&hub, "v"); // pre-subscribe history
        }
        let mut sub = hub.subscribe("v", SubscribeFrom::Start, Box::new(store.clone()));
        assert_eq!(drain_n(&mut sub, 5), vec![0, 1, 2, 3, 4]);
        assert!(sub.catchup_rounds() >= 1);
        // An idle wait at the head seams the subscription onto the live
        // queue; from then on delivery needs no further catch-up reads.
        assert!(sub.next_timeout(Duration::from_millis(20)).unwrap().is_none());
        let rounds = sub.catchup_rounds();
        for _ in 0..3 {
            store.persist_and_publish(&hub, "v");
        }
        assert_eq!(drain_n(&mut sub, 3), vec![5, 6, 7]);
        assert_eq!(sub.catchup_rounds(), rounds, "live delivery needs no catch-up reads");
    }

    #[test]
    fn live_subscription_sees_only_new_gops() {
        let hub = LiveHub::new(8);
        let store = FakeStore::default();
        for _ in 0..4 {
            store.persist_and_publish(&hub, "v");
        }
        let mut sub = hub.subscribe("v", SubscribeFrom::Live, Box::new(store.clone()));
        assert!(sub.next_timeout(Duration::from_millis(20)).unwrap().is_none());
        store.persist_and_publish(&hub, "v");
        assert_eq!(drain_n(&mut sub, 1), vec![4]);
    }

    #[test]
    fn overflow_forces_catchup_and_reseams_exactly() {
        let hub = LiveHub::new(2); // tiny queue forces the lag policy
        let store = FakeStore::default();
        store.persist_and_publish(&hub, "v");
        let mut sub = hub.subscribe("v", SubscribeFrom::Start, Box::new(store.clone()));
        assert_eq!(drain_n(&mut sub, 1), vec![0]);
        // Seam onto the live queue, then publish far past its capacity
        // while the subscriber sleeps.
        assert!(sub.next_timeout(Duration::from_millis(20)).unwrap().is_none());
        for _ in 0..10 {
            store.persist_and_publish(&hub, "v");
        }
        let seqs = drain_n(&mut sub, 10);
        assert_eq!(seqs, (1..=10).collect::<Vec<u64>>(), "no GOP duplicated or skipped");
        assert!(sub.lag_transitions() >= 1, "the overflow must have forced a lag transition");
        assert!(sub.catchup_rounds() >= 2);
    }

    #[test]
    fn trimmed_catchup_reports_a_gap() {
        let hub = LiveHub::new(8);
        let store = FakeStore::default();
        for _ in 0..6 {
            store.persist_and_publish(&hub, "v");
        }
        store.drop_before(4); // the store no longer holds seqs 0..4
        let mut sub = hub.subscribe("v", SubscribeFrom::Start, Box::new(store.clone()));
        match sub.next().unwrap() {
            SubEvent::Gap { from_seq, to_seq } => {
                assert_eq!((from_seq, to_seq), (0, 4));
            }
            other => panic!("expected a gap, got {other:?}"),
        }
        assert_eq!(drain_n(&mut sub, 2), vec![4, 5]);
    }

    #[test]
    fn delete_terminates_subscriptions() {
        let hub = LiveHub::new(8);
        let store = FakeStore::default();
        store.persist_and_publish(&hub, "v");
        let mut sub = hub.subscribe("v", SubscribeFrom::Start, Box::new(store.clone()));
        assert_eq!(drain_n(&mut sub, 1), vec![0]);
        hub.video_deleted("v");
        assert!(matches!(sub.next().unwrap(), SubEvent::End));
        // Terminal is sticky.
        assert!(matches!(sub.next().unwrap(), SubEvent::End));
    }

    #[test]
    fn dropping_subscriptions_leaks_no_hub_entries() {
        let hub = LiveHub::new(8);
        let store = FakeStore::default();
        let a = hub.subscribe("v", SubscribeFrom::Live, Box::new(store.clone()));
        let b = hub.subscribe("v", SubscribeFrom::Live, Box::new(store.clone()));
        let c = hub.subscribe("w", SubscribeFrom::Live, Box::new(store.clone()));
        assert_eq!(hub.channel_count(), 2);
        assert_eq!(hub.subscriber_count(), 3);
        drop(a);
        assert_eq!(hub.channel_count(), 2, "v still has a subscriber");
        drop(b);
        drop(c);
        assert_eq!(hub.channel_count(), 0, "no channels once the last subscriber drops");
        assert_eq!(hub.subscriber_count(), 0);
        // Publishing to a video nobody watches is a cheap no-op.
        store.persist_and_publish(&hub, "v");
        assert_eq!(hub.channel_count(), 0);
    }

    #[test]
    fn slow_subscriber_never_blocks_the_publisher() {
        let hub = LiveHub::new(1);
        let store = FakeStore::default();
        let _sub = hub.subscribe("v", SubscribeFrom::Live, Box::new(store.clone()));
        // With a capacity-1 queue and a subscriber that never drains, every
        // publish must return promptly (lag policy, not backpressure).
        let started = Instant::now();
        for _ in 0..100 {
            store.persist_and_publish(&hub, "v");
        }
        assert!(started.elapsed() < Duration::from_secs(5), "publishes must not block");
    }
}
