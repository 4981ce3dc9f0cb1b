//! Lock-free metrics and op-scoped spans for the VSS service.
//!
//! This crate sits at the bottom of the workspace dependency graph (it
//! depends on nothing but `std`) so every layer — catalog, engine, server,
//! network — can report into one process-global registry without plumbing
//! handles through constructors.
//!
//! # Metric naming convention
//!
//! Every metric name has the shape **`layer.object.metric`**, lowercase,
//! dot-separated, with an optional unit suffix:
//!
//! * `layer` — the crate/subsystem that owns the number: `engine`, `stream`,
//!   `sink`, `wal`, `server`, `net`, `client`.
//! * `object` — the thing being measured: `read`, `write`, `compact`,
//!   `fsync`, `admission`, `conn`.
//! * `metric` — what is counted, with the unit spelled out when it is not a
//!   plain count: `ops`, `bytes`, `latency_ns`, `stall_ns`, `depth`,
//!   `shed_total`.
//!
//! Examples: `engine.read.latency_ns` (histogram), `wal.fsync.latency_ns`
//! (histogram), `server.admission.active` (gauge),
//! `net.conn.bytes_sent` (counter).
//!
//! ## Label convention
//!
//! A metric may additionally carry a **label set** — sorted `key=value`
//! pairs appended to the name in braces: `server.shard.read_ops{shard=3}`,
//! `net.mux.streams_opened{kind=read}`. Labels split one logical metric into
//! per-dimension series; the *name* stays `layer.object.metric` and answers
//! "what is measured", the *labels* answer "which one". Rules:
//!
//! * Label keys are short lowercase identifiers (`shard`, `kind`, `code`,
//!   `sub`); values are lowercase tokens or small integers. Neither may
//!   contain `{`, `}`, `,`, `=` or whitespace — the rendered series key
//!   must stay parseable.
//! * Label sets are canonicalised by sorting on key, so
//!   `{kind=read,shard=0}` and `{shard=0,kind=read}` are the **same
//!   series** — [`counter_with`] returns the identical `&'static` handle
//!   for both spellings.
//! * Keep cardinality bounded: label by shard index, stream kind or error
//!   code — never by video name, offset or timestamp. Every distinct label
//!   set is a leaked registry entry that lives for the process.
//! * The unlabeled name (`counter(name)`) and a labeled series of the same
//!   name are distinct series; an aggregate, if wanted, is recorded
//!   explicitly, not inferred.
//!
//! Handles from [`counter_with`]/[`gauge_with`]/[`histogram_with`] are
//! `&'static` like their unlabeled peers: look one up per (name, label set)
//! and cache it — after the first lookup the hot path is the same relaxed
//! atomics, no lock and no allocation.
//!
//! # Metric kinds
//!
//! * [`Counter`] — monotone `u64`; never decremented, so two snapshots can
//!   always be diffed into a rate.
//! * [`Gauge`] — signed instantaneous level (queue depth, pool occupancy).
//! * [`Histogram`] — fixed-log-bucket latency/size distribution. Buckets are
//!   log-linear with [`SUB_COUNT`] sub-buckets per power of two, so any
//!   recorded value lands in a bucket whose width is at most `value / 4`:
//!   every quantile estimate returned by [`Histogram::quantile`] is an upper
//!   bound that overshoots the true sample by **at most 25 %** (values below
//!   `2 * SUB_COUNT` are bucketed exactly). All three kinds are `&self`
//!   atomics — recording never blocks and never takes a lock.
//!
//! Handles returned by [`counter`], [`gauge`] and [`histogram`] are
//! `&'static`: the registry leaks one allocation per distinct name and hands
//! the same reference back forever, so hot paths should look a handle up
//! once (e.g. in a `OnceLock`) and then record through plain atomics.
//!
//! # Span semantics
//!
//! A [`Span`] measures one logical operation in one layer. Creating it
//! stamps the clock; dropping it:
//!
//! 1. records the elapsed time into the `layer.op.latency_ns` histogram and
//!    bumps the `layer.op.ops` counter,
//! 2. appends a [`SpanRecord`] (layer, op, target, request id, span id,
//!    parent span id, start offset, duration) to a bounded in-memory ring
//!    readable via [`recent_spans`].
//!
//! Spans are request-correlated through a thread-local request id: a server
//! handler calls [`set_request_id`] when it decodes a tagged request, and
//! every span opened on that thread until the id is cleared carries it. One
//! id minted by a client therefore shows up in client, server and engine
//! span records, which is how a single slow read is traced across layers.
//! The thread-local design matches the service's synchronous
//! one-thread-per-connection request path; work handed to helper threads
//! (a GOP's scoped `par_map` and encode-crew helpers) reports metrics but
//! not request-scoped spans.
//!
//! ## Span trees
//!
//! Every span is additionally assigned a process-unique **span id**, and
//! captures the thread's current innermost open span as its **parent** —
//! so nested guards (`net` dispatch → `engine` decode → `wal` fsync) form
//! a tree, not a flat list. The parent link crosses the wire: a client
//! sends its open span's id with the request (see `vss-net`'s traced
//! envelope), the server installs it via [`trace_scope`], and the server's
//! spans chain under the client's. [`span_tree`] reassembles the tree for
//! one request id from the ring, and [`SpanTree::render`] prints it as an
//! indented trace — the same rendering `vss-net`'s `spans` admin topic
//! returns.
//!
//! # Process-global state and tests
//!
//! The registry, span ring and request id are process-global, and the test
//! harness runs many tests in one process. Tests must therefore assert
//! *deltas* (or monotonicity) on shared metrics, never absolute values —
//! or use owned [`Histogram`]/[`Counter`] values, which work standalone.

#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Sub-bucket resolution bits of the log-linear histogram: each power of two
/// is split into `2^SUB_BITS` equal sub-buckets.
pub const SUB_BITS: u32 = 2;

/// Sub-buckets per power of two (`2^SUB_BITS`).
pub const SUB_COUNT: usize = 1 << SUB_BITS;

/// Total bucket count covering the full `u64` range: values `0..2*SUB_COUNT`
/// get one exact bucket each, and every remaining power of two contributes
/// `SUB_COUNT` buckets.
pub const BUCKETS: usize = (64 - SUB_BITS as usize) * SUB_COUNT + SUB_COUNT;

/// A monotone event counter. All methods take `&self`; recording is a single
/// relaxed atomic add.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous level (queue depth, pool occupancy, bytes in
/// flight). All methods take `&self`.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Overwrites the level.
    pub fn set(&self, n: i64) {
        self.value.store(n, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Maps a value to its log-linear bucket index. Total for all `u64` values.
fn bucket_index(value: u64) -> usize {
    // Values below two full octaves of sub-buckets are bucketed exactly
    // (bucket width 1): 0..=7 for SUB_BITS = 2.
    if value < (2 * SUB_COUNT) as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros(); // >= SUB_BITS + 1 here
    let shift = msb - SUB_BITS;
    let sub = ((value >> shift) as usize) & (SUB_COUNT - 1);
    (msb - SUB_BITS) as usize * SUB_COUNT + sub + SUB_COUNT
}

/// The largest value that lands in `bucket` — the upper bound [`quantile`]
/// reports for samples in that bucket.
///
/// [`quantile`]: Histogram::quantile
fn bucket_upper_bound(bucket: usize) -> u64 {
    if bucket < 2 * SUB_COUNT {
        return bucket as u64; // exact buckets
    }
    let msb = SUB_BITS + ((bucket - SUB_COUNT) / SUB_COUNT) as u32;
    let sub = ((bucket - SUB_COUNT) % SUB_COUNT) as u64;
    // Lower bound is (SUB_COUNT + sub) << (msb - SUB_BITS); the upper bound
    // is one below the next bucket's lower bound. Computed in u128 because
    // the top bucket's exclusive end is 2^64.
    let end: u128 = ((SUB_COUNT as u128) + (sub as u128) + 1) << (msb - SUB_BITS);
    (end - 1).min(u64::MAX as u128) as u64
}

/// A fixed-log-bucket histogram of `u64` samples (latencies in nanoseconds
/// by convention). Recording is three relaxed atomic ops plus one bounded
/// compare-exchange loop for the running max; there is no lock anywhere.
///
/// Quantile estimates are upper bounds within 25 % of the true sample (see
/// the [crate docs](self)). The histogram also tracks exact `count`, `sum`
/// and `max`, so averages and totals are not subject to bucket error.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        let mut seen = self.max.load(Ordering::Relaxed);
        while value > seen {
            match self.max.compare_exchange_weak(
                seen,
                value,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => seen = now,
            }
        }
    }

    /// Records a duration as nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, duration: Duration) {
        self.record(u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (exact, not bucketed).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (exact), or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0..=1.0`): the bucket
    /// upper bound at the target rank, clamped to the exact max. Guaranteed
    /// `>=` the true sample at that rank and within 25 % above it. Returns 0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper_bound(index).min(self.max());
            }
        }
        // Racing recorders can leave `count` ahead of the bucket totals for
        // an instant; fall back to the exact max.
        self.max()
    }

    /// Snapshots count/sum/max and the p50/p90/p99 upper-bound estimates.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Point-in-time summary of one [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Exact sum of samples.
    pub sum: u64,
    /// Exact largest sample.
    pub max: u64,
    /// Median upper-bound estimate.
    pub p50: u64,
    /// 90th-percentile upper-bound estimate.
    pub p90: u64,
    /// 99th-percentile upper-bound estimate.
    pub p99: u64,
}

impl HistogramSummary {
    /// Mean sample value (exact, from sum/count), or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

// --- global registry --------------------------------------------------------

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

fn intern<T: Default>(map: &Mutex<BTreeMap<String, &'static T>>, name: &str) -> &'static T {
    let mut map = map.lock().expect("telemetry registry lock");
    if let Some(existing) = map.get(name) {
        return existing;
    }
    let leaked: &'static T = Box::leak(Box::new(T::default()));
    map.insert(name.to_string(), leaked);
    leaked
}

/// Returns the process-wide counter registered under `name` (created at
/// zero on first use). The handle is `&'static`: cache it in hot paths.
pub fn counter(name: &str) -> &'static Counter {
    intern(&registry().counters, name)
}

/// Returns the process-wide gauge registered under `name`.
pub fn gauge(name: &str) -> &'static Gauge {
    intern(&registry().gauges, name)
}

/// Returns the process-wide histogram registered under `name`.
pub fn histogram(name: &str) -> &'static Histogram {
    intern(&registry().histograms, name)
}

/// Renders the canonical series key for `name` plus a label set:
/// `name{key=value,...}` with labels **sorted by key**, or `name` alone for
/// an empty set. Two label orderings of the same pairs render identically,
/// which is what makes interning canonical. Label keys and values are used
/// verbatim — callers follow the crate-level label convention (no braces,
/// commas, `=` or whitespace).
pub fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort();
    let mut key = String::with_capacity(name.len() + 16);
    key.push_str(name);
    key.push('{');
    for (index, (label, value)) in sorted.iter().enumerate() {
        if index > 0 {
            key.push(',');
        }
        key.push_str(label);
        key.push('=');
        key.push_str(value);
    }
    key.push('}');
    key
}

/// Splits a series key back into `(name, label-suffix)`: the suffix is the
/// `{...}` rendering (empty for unlabeled series). Used by exposition
/// renderers; the inverse of [`series_key`].
pub fn split_series_key(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(index) => key.split_at(index),
        None => (key, ""),
    }
}

/// Returns the process-wide counter for `(name, labels)`. The label set is
/// canonicalised (sorted by key) before interning, so every ordering of the
/// same pairs yields the same `&'static` handle. Cache the handle: after
/// the first lookup, recording is lock-free.
pub fn counter_with(name: &str, labels: &[(&str, &str)]) -> &'static Counter {
    intern(&registry().counters, &series_key(name, labels))
}

/// Returns the process-wide gauge for `(name, labels)`; see [`counter_with`].
pub fn gauge_with(name: &str, labels: &[(&str, &str)]) -> &'static Gauge {
    intern(&registry().gauges, &series_key(name, labels))
}

/// Returns the process-wide histogram for `(name, labels)`; see
/// [`counter_with`].
pub fn histogram_with(name: &str, labels: &[(&str, &str)]) -> &'static Histogram {
    intern(&registry().histograms, &series_key(name, labels))
}

/// A point-in-time copy of every registered metric, in name order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// `(name, total)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, summary)` for every histogram.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl TelemetrySnapshot {
    /// Looks up a counter total by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a gauge level by exact name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram summary by exact name.
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a labeled counter: `counter_labeled("x", &[("shard", "0")])`
    /// finds the series interned by [`counter_with`] with the same pairs in
    /// any order.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counter(&series_key(name, labels))
    }

    /// Every series of `name` regardless of labels, as
    /// `(label-suffix, series-key)` pairs in key order — `("{shard=0}",
    /// "server.shard.read_ops{shard=0}")`. Works across all three kinds.
    pub fn series_of(&self, name: &str) -> Vec<(String, String)> {
        let mut out = Vec::new();
        let keys = self
            .counters
            .iter()
            .map(|(k, _)| k)
            .chain(self.gauges.iter().map(|(k, _)| k))
            .chain(self.histograms.iter().map(|(k, _)| k));
        for key in keys {
            let (base, suffix) = split_series_key(key);
            if base == name {
                out.push((suffix.to_string(), key.clone()));
            }
        }
        out.sort();
        out
    }

    /// Renders the snapshot as a human-readable multi-line dump, one metric
    /// per line, in name order within each kind.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "counter   {name} = {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "gauge     {name} = {value}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {name} count={} mean={:.0} p50={} p90={} p99={} max={}",
                h.count,
                h.mean(),
                h.p50,
                h.p90,
                h.p99,
                h.max
            );
        }
        out
    }

    /// Renders the snapshot as Prometheus-style text exposition, in sorted
    /// series order (byte-stable for identical snapshots). Dots in metric
    /// names become underscores and every name gains a `vss_` prefix; label
    /// suffixes render with quoted values (`vss_net_mux_resets{kind="read"}
    /// 3`). Histograms expand to `_count`/`_sum`/`_max` plus
    /// `{quantile="..."}` sample lines.
    pub fn text_exposition(&self) -> String {
        use std::fmt::Write as _;
        fn prom_series(key: &str) -> String {
            let (name, suffix) = split_series_key(key);
            let mut out = format!("vss_{}", name.replace('.', "_"));
            if !suffix.is_empty() {
                out.push('{');
                let inner = &suffix[1..suffix.len() - 1];
                for (index, pair) in inner.split(',').enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    match pair.split_once('=') {
                        Some((label, value)) => {
                            let _ = write!(out, "{label}={value:?}");
                        }
                        None => out.push_str(pair),
                    }
                }
                out.push('}');
            }
            out
        }
        // A labeled histogram key needs its suffix (`_count`) *inside* the
        // base name, before the label braces.
        fn prom_suffixed(key: &str, suffix: &str) -> String {
            let (name, labels) = split_series_key(key);
            prom_series(&format!("{name}.{suffix}{labels}"))
        }
        fn prom_quantile(key: &str, q: &str) -> String {
            let (name, labels) = split_series_key(key);
            let inner = if labels.is_empty() {
                format!("quantile={q}")
            } else {
                format!("{},quantile={q}", &labels[1..labels.len() - 1])
            };
            prom_series(&format!("{name}{{{inner}}}"))
        }
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "{} {value}", prom_series(name));
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "{} {value}", prom_series(name));
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "{} {}", prom_suffixed(name, "count"), h.count);
            let _ = writeln!(out, "{} {}", prom_suffixed(name, "sum"), h.sum);
            let _ = writeln!(out, "{} {}", prom_suffixed(name, "max"), h.max);
            for (q, value) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
                let _ = writeln!(out, "{} {value}", prom_quantile(name, q));
            }
        }
        out
    }
}

/// Snapshots every registered metric. Reads are relaxed atomic loads — the
/// snapshot never blocks recorders (the registry maps are locked only long
/// enough to clone the handle lists).
pub fn snapshot() -> TelemetrySnapshot {
    let registry = registry();
    let counters: Vec<(String, &'static Counter)> = registry
        .counters
        .lock()
        .expect("telemetry registry lock")
        .iter()
        .map(|(name, counter)| (name.clone(), *counter))
        .collect();
    let gauges: Vec<(String, &'static Gauge)> = registry
        .gauges
        .lock()
        .expect("telemetry registry lock")
        .iter()
        .map(|(name, gauge)| (name.clone(), *gauge))
        .collect();
    let histograms: Vec<(String, &'static Histogram)> = registry
        .histograms
        .lock()
        .expect("telemetry registry lock")
        .iter()
        .map(|(name, histogram)| (name.clone(), *histogram))
        .collect();
    TelemetrySnapshot {
        counters: counters.into_iter().map(|(n, c)| (n, c.get())).collect(),
        gauges: gauges.into_iter().map(|(n, g)| (n, g.get())).collect(),
        histograms: histograms.into_iter().map(|(n, h)| (n, h.summary())).collect(),
    }
}

/// Renders [`snapshot`] as a human-readable dump.
pub fn dump() -> String {
    snapshot().dump()
}

// --- structured logging -----------------------------------------------------

/// Emits a one-line structured log on stderr: `vss event=<event> k=v ...`.
/// Values containing spaces are quoted. Used for rare, significant moments
/// (startup recovery) — never per-request.
pub fn log_event(event: &str, fields: &[(&str, String)]) {
    use std::fmt::Write as _;
    let mut line = format!("vss event={event}");
    for (key, value) in fields {
        if value.contains(' ') {
            let _ = write!(line, " {key}={value:?}");
        } else {
            let _ = write!(line, " {key}={value}");
        }
    }
    eprintln!("{line}");
}

// --- request ids and spans --------------------------------------------------

thread_local! {
    static CURRENT_REQUEST: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
    static CURRENT_PARENT_SPAN: std::cell::Cell<Option<u64>> =
        const { std::cell::Cell::new(None) };
}

/// Process-unique span ids, starting at 1 (0 is never a valid id).
fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Nanoseconds since an arbitrary process-wide epoch (the first call).
/// Monotonic, so span start offsets are comparable within the process.
fn monotonic_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Sets (or clears, with `None`) the request id carried by every span opened
/// on this thread until the next call. Server handlers call this when they
/// decode a tagged request envelope; prefer [`request_scope`] where a guard
/// fits the control flow.
pub fn set_request_id(id: Option<u64>) {
    CURRENT_REQUEST.with(|current| current.set(id));
}

/// The request id currently attached to this thread, if any.
pub fn current_request_id() -> Option<u64> {
    CURRENT_REQUEST.with(|current| current.get())
}

/// Attaches `id` to this thread for the guard's lifetime, restoring the
/// previous id (usually `None`) on drop.
pub fn request_scope(id: u64) -> RequestScope {
    let previous = current_request_id();
    set_request_id(Some(id));
    RequestScope { previous }
}

/// Guard returned by [`request_scope`].
pub struct RequestScope {
    previous: Option<u64>,
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        set_request_id(self.previous);
    }
}

/// Sets (or clears) the span id the **next** span opened on this thread
/// will record as its parent. Server handlers call this (via
/// [`trace_scope`]) with the parent span id a traced request envelope
/// carried, chaining server-side spans under the client's op span.
pub fn set_parent_span(id: Option<u64>) {
    CURRENT_PARENT_SPAN.with(|current| current.set(id));
}

/// The span id a span opened right now on this thread would chain under:
/// the innermost open [`Span`], or whatever [`set_parent_span`] installed.
/// Clients read this when encoding a traced request envelope.
pub fn current_parent_span() -> Option<u64> {
    CURRENT_PARENT_SPAN.with(|current| current.get())
}

/// Attaches a request id **and** a remote parent span id to this thread for
/// the guard's lifetime, restoring both on drop. The wire-propagation
/// helper: a server handler that decoded a traced envelope installs the
/// client's `(request_id, parent_span_id)` pair so every span it opens
/// joins the client's tree.
pub fn trace_scope(request_id: u64, parent_span: Option<u64>) -> TraceScope {
    let scope = TraceScope {
        previous_request: current_request_id(),
        previous_parent: current_parent_span(),
    };
    set_request_id(Some(request_id));
    set_parent_span(parent_span);
    scope
}

/// Guard returned by [`trace_scope`].
pub struct TraceScope {
    previous_request: Option<u64>,
    previous_parent: Option<u64>,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        set_request_id(self.previous_request);
        set_parent_span(self.previous_parent);
    }
}

/// One completed span, as kept in the in-memory ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Layer that opened the span (`client`, `net`, `engine`, ...).
    pub layer: &'static str,
    /// Operation name (`read`, `write`, `compact`, ...).
    pub op: &'static str,
    /// Operation target (typically a video name; may be empty).
    pub target: String,
    /// Request id the span ran under, if the thread had one.
    pub request_id: Option<u64>,
    /// Process-unique id of this span (never 0).
    pub span_id: u64,
    /// Span this one nested under — the innermost open span on the opening
    /// thread, or a remote parent installed by [`trace_scope`]. `None` for
    /// tree roots.
    pub parent_span_id: Option<u64>,
    /// Open time as nanoseconds since the process-wide span epoch; parents
    /// always start at or before their children.
    pub start_ns: u64,
    /// Wall-clock duration.
    pub duration: Duration,
}

/// Spans kept in the ring before the oldest is dropped.
pub const SPAN_RING_CAPACITY: usize = 1024;

fn span_ring() -> &'static Mutex<VecDeque<SpanRecord>> {
    static RING: OnceLock<Mutex<VecDeque<SpanRecord>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(SPAN_RING_CAPACITY)))
}

/// The most recent completed spans, oldest first (bounded by
/// [`SPAN_RING_CAPACITY`]).
pub fn recent_spans() -> Vec<SpanRecord> {
    span_ring().lock().expect("span ring lock").iter().cloned().collect()
}

/// The most recent completed spans carrying `request_id`, oldest first.
pub fn spans_for_request(request_id: u64) -> Vec<SpanRecord> {
    span_ring()
        .lock()
        .expect("span ring lock")
        .iter()
        .filter(|span| span.request_id == Some(request_id))
        .cloned()
        .collect()
}

/// Opens a span for one operation; see the [crate docs](self) for drop-time
/// semantics. The thread's current request id and parent span are captured
/// at open, and the new span becomes the thread's parent-of-record until it
/// drops.
pub fn span(layer: &'static str, op: &'static str, target: impl Into<String>) -> Span {
    let span_id = next_span_id();
    let parent_span_id = current_parent_span();
    set_parent_span(Some(span_id));
    Span {
        layer,
        op,
        target: target.into(),
        request_id: current_request_id(),
        span_id,
        parent_span_id,
        start_ns: monotonic_ns(),
        start: Instant::now(),
    }
}

/// An in-flight operation measurement; records on drop. Returned by [`span`].
#[must_use = "a span measures until dropped — bind it to a named guard"]
pub struct Span {
    layer: &'static str,
    op: &'static str,
    target: String,
    request_id: Option<u64>,
    span_id: u64,
    parent_span_id: Option<u64>,
    start_ns: u64,
    start: Instant,
}

impl Span {
    /// This span's process-unique id — what a client puts on the wire so
    /// remote spans can chain under it.
    pub fn id(&self) -> u64 {
        self.span_id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let duration = self.start.elapsed();
        let layer = self.layer;
        let op = self.op;
        histogram(&format!("{layer}.{op}.latency_ns")).record_duration(duration);
        counter(&format!("{layer}.{op}.ops")).incr();
        // Pop this span off the thread's parent chain — but only if it is
        // still the innermost one (a span moved to and dropped on another
        // thread must not clobber that thread's chain).
        CURRENT_PARENT_SPAN.with(|current| {
            if current.get() == Some(self.span_id) {
                current.set(self.parent_span_id);
            }
        });
        let record = SpanRecord {
            layer,
            op,
            target: std::mem::take(&mut self.target),
            request_id: self.request_id,
            span_id: self.span_id,
            parent_span_id: self.parent_span_id,
            start_ns: self.start_ns,
            duration,
        };
        let mut ring = span_ring().lock().expect("span ring lock");
        if ring.len() == SPAN_RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(record);
    }
}

// --- span trees -------------------------------------------------------------

/// The spans of one request id, reassembled into parent/child order.
/// Returned by [`span_tree`]; spans are sorted by start offset, so parents
/// precede children.
#[derive(Debug, Clone, Default)]
pub struct SpanTree {
    /// The request id the tree was queried for.
    pub request_id: u64,
    /// All completed spans of the request currently in the ring, sorted by
    /// [`SpanRecord::start_ns`] (ties broken by span id).
    pub spans: Vec<SpanRecord>,
}

impl SpanTree {
    /// Spans with no parent in the tree: true roots (`parent_span_id:
    /// None`) plus orphans whose parent has aged out of the ring or has not
    /// completed yet.
    pub fn roots(&self) -> Vec<&SpanRecord> {
        self.spans
            .iter()
            .filter(|span| {
                span.parent_span_id
                    .is_none_or(|parent| !self.spans.iter().any(|s| s.span_id == parent))
            })
            .collect()
    }

    /// Direct children of `span_id`, in start order.
    pub fn children(&self, span_id: u64) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|span| span.parent_span_id == Some(span_id)).collect()
    }

    /// True when the tree is non-empty and every span is reachable from one
    /// single root — the shape one fully-traced request produces.
    pub fn is_connected(&self) -> bool {
        self.roots().len() == 1 && !self.spans.is_empty()
    }

    /// Renders the tree as an indented multi-line trace, one span per line,
    /// children nested two spaces under their parent:
    ///
    /// ```text
    /// client.read_stream target=cam span=12 34.125ms
    ///   net.read_stream target=cam span=13 33.871ms
    ///     engine.read target=cam span=14 31.002ms
    /// ```
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        fn visit(tree: &SpanTree, span: &SpanRecord, depth: usize, out: &mut String) {
            let _ = writeln!(
                out,
                "{:indent$}{}.{} target={} span={} {:.3}ms",
                "",
                span.layer,
                span.op,
                if span.target.is_empty() { "-" } else { &span.target },
                span.span_id,
                span.duration.as_secs_f64() * 1e3,
                indent = depth * 2
            );
            for child in tree.children(span.span_id) {
                visit(tree, child, depth + 1, out);
            }
        }
        for root in self.roots() {
            visit(self, root, 0, &mut out);
        }
        out
    }
}

/// Reassembles the span tree of `request_id` from the ring: every completed
/// span carrying the id, sorted by start offset. Query it after the root op
/// finishes — spans still open (or evicted by ring wraparound) appear as
/// missing parents, making their children extra roots.
pub fn span_tree(request_id: u64) -> SpanTree {
    let mut spans = spans_for_request(request_id);
    spans.sort_by_key(|span| (span.start_ns, span.span_id));
    SpanTree { request_id, spans }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_buckets_below_eight() {
        for value in 0..(2 * SUB_COUNT as u64) {
            assert_eq!(bucket_index(value), value as usize);
            assert_eq!(bucket_upper_bound(value as usize), value);
        }
    }

    #[test]
    fn bucket_bounds_are_consistent_and_tight() {
        let mut previous_end = None;
        for bucket in 0..BUCKETS {
            let upper = bucket_upper_bound(bucket);
            assert_eq!(bucket_index(upper), bucket, "upper bound of {bucket}");
            if let Some(previous) = previous_end {
                let lower: u64 = previous + 1;
                assert_eq!(bucket_index(lower), bucket, "lower bound of {bucket}");
                // Bucket width <= max(1, lower/4): the 25 % relative error
                // guarantee.
                assert!(upper - lower < (lower / 4).max(1), "width of {bucket}");
            }
            previous_end = Some(upper);
        }
        assert_eq!(previous_end, Some(u64::MAX));
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_bound_true_samples() {
        let histogram = Histogram::new();
        let samples: Vec<u64> = (0..1000u64).map(|i| i * i + 17).collect();
        for &sample in &samples {
            histogram.record(sample);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for (q, label) in [(0.50, "p50"), (0.90, "p90"), (0.99, "p99")] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            let estimate = histogram.quantile(q);
            assert!(estimate >= truth, "{label}: {estimate} < {truth}");
            assert!(
                estimate as f64 <= truth as f64 * 1.25,
                "{label}: {estimate} > 1.25 * {truth}"
            );
        }
        assert_eq!(histogram.count(), 1000);
        assert_eq!(histogram.max(), *sorted.last().unwrap());
        assert_eq!(histogram.sum(), samples.iter().sum::<u64>());
    }

    #[test]
    fn quantile_clamps_to_exact_max() {
        let histogram = Histogram::new();
        histogram.record(1_000_000);
        assert_eq!(histogram.quantile(0.99), 1_000_000);
    }

    #[test]
    fn registry_interns_per_name() {
        let a = counter("test.registry.interned");
        let b = counter("test.registry.interned");
        assert!(std::ptr::eq(a, b));
        let before = a.get();
        b.incr();
        assert_eq!(a.get(), before + 1);
    }

    #[test]
    fn snapshot_lookup_and_dump() {
        counter("test.snapshot.counter").add(3);
        gauge("test.snapshot.gauge").set(-2);
        histogram("test.snapshot.histogram").record(5);
        let snapshot = snapshot();
        assert!(snapshot.counter("test.snapshot.counter").unwrap() >= 3);
        assert_eq!(snapshot.gauge("test.snapshot.gauge"), Some(-2));
        assert!(snapshot.histogram("test.snapshot.histogram").unwrap().count >= 1);
        let dump = snapshot.dump();
        assert!(dump.contains("counter   test.snapshot.counter"));
        assert!(dump.contains("gauge     test.snapshot.gauge"));
        assert!(dump.contains("histogram test.snapshot.histogram"));
    }

    #[test]
    fn span_records_ring_metrics_and_request_id() {
        let ops_before = counter("testlayer.testop.ops").get();
        {
            let _scope = request_scope(4242);
            let _span = span("testlayer", "testop", "clip-1");
        }
        assert_eq!(current_request_id(), None);
        assert_eq!(counter("testlayer.testop.ops").get(), ops_before + 1);
        let spans = spans_for_request(4242);
        let span = spans.last().expect("span recorded");
        assert_eq!(span.layer, "testlayer");
        assert_eq!(span.op, "testop");
        assert_eq!(span.target, "clip-1");
        assert_eq!(span.request_id, Some(4242));
    }

    #[test]
    fn labeled_series_are_canonical_and_distinct() {
        let a = counter_with("test.labels.ops", &[("shard", "0"), ("kind", "read")]);
        let b = counter_with("test.labels.ops", &[("kind", "read"), ("shard", "0")]);
        assert!(std::ptr::eq(a, b), "label order must not split a series");
        let c = counter_with("test.labels.ops", &[("kind", "write"), ("shard", "0")]);
        assert!(!std::ptr::eq(a, c), "distinct label values are distinct series");
        let plain = counter("test.labels.ops");
        assert!(!std::ptr::eq(a, plain), "unlabeled series is its own series");
        a.add(2);
        c.incr();
        let snapshot = snapshot();
        assert_eq!(
            snapshot.counter_labeled("test.labels.ops", &[("shard", "0"), ("kind", "read")]),
            Some(a.get())
        );
        assert_eq!(
            snapshot.counter("test.labels.ops{kind=read,shard=0}"),
            Some(a.get()),
            "snapshot keys are the canonical rendering"
        );
    }

    #[test]
    fn series_key_renders_sorted() {
        assert_eq!(series_key("a.b.c", &[]), "a.b.c");
        assert_eq!(series_key("a.b.c", &[("z", "1"), ("a", "2")]), "a.b.c{a=2,z=1}");
        assert_eq!(split_series_key("a.b.c{a=2,z=1}"), ("a.b.c", "{a=2,z=1}"));
        assert_eq!(split_series_key("a.b.c"), ("a.b.c", ""));
    }

    #[test]
    fn series_of_lists_every_label_set() {
        counter_with("test.serof.ops", &[("shard", "0")]).incr();
        counter_with("test.serof.ops", &[("shard", "1")]).incr();
        gauge_with("test.serof.ops", &[("shard", "2")]).set(1);
        let series = snapshot().series_of("test.serof.ops");
        let suffixes: Vec<&str> = series.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(suffixes, ["{shard=0}", "{shard=1}", "{shard=2}"]);
    }

    #[test]
    fn text_exposition_is_sorted_and_labeled() {
        counter_with("test.expo.total", &[("kind", "read")]).add(4);
        gauge("test.expo.level").set(-3);
        histogram_with("test.expo.lat_ns", &[("shard", "1")]).record(100);
        let text = snapshot().text_exposition();
        assert!(text.contains("vss_test_expo_total{kind=\"read\"} 4"), "{text}");
        assert!(text.contains("vss_test_expo_level -3"), "{text}");
        assert!(text.contains("vss_test_expo_lat_ns_count{shard=\"1\"} 1"), "{text}");
        assert!(text.contains("vss_test_expo_lat_ns{shard=\"1\",quantile=\"0.5\"}"), "{text}");
        // Byte-stable: two expositions of the same snapshot are identical,
        // and lines within each kind are sorted.
        let snapshot = snapshot();
        assert_eq!(snapshot.text_exposition(), snapshot.text_exposition());
        let dump = snapshot.dump();
        let counter_lines: Vec<&str> =
            dump.lines().filter(|l| l.starts_with("counter")).collect();
        let mut sorted = counter_lines.clone();
        sorted.sort();
        assert_eq!(counter_lines, sorted, "dump counters in sorted order");
    }

    #[test]
    fn nested_spans_chain_into_a_tree() {
        let _scope = request_scope(777_001);
        let root_id;
        {
            let root = span("testtree", "root", "clip");
            root_id = root.id();
            assert_eq!(current_parent_span(), Some(root_id));
            {
                let child = span("testtree", "child", "clip");
                assert_eq!(current_parent_span(), Some(child.id()));
                let _grandchild = span("testtree", "grandchild", "clip");
            }
            assert_eq!(current_parent_span(), Some(root_id));
        }
        let tree = span_tree(777_001);
        assert_eq!(tree.spans.len(), 3);
        assert!(tree.is_connected(), "one root: {:?}", tree.roots());
        assert_eq!(tree.roots()[0].span_id, root_id);
        assert_eq!(tree.roots()[0].op, "root");
        // Parent ordering invariant: parents start at or before children.
        for span in &tree.spans {
            if let Some(parent) = span.parent_span_id {
                let parent = tree.spans.iter().find(|s| s.span_id == parent).unwrap();
                assert!(parent.start_ns <= span.start_ns);
            }
        }
        let rendered = tree.render();
        assert!(rendered.contains("testtree.root"), "{rendered}");
        assert!(rendered.contains("\n  testtree.child"), "{rendered}");
        assert!(rendered.contains("\n    testtree.grandchild"), "{rendered}");
    }

    #[test]
    fn trace_scope_chains_remote_parent_and_restores() {
        let remote_parent = 990_001;
        {
            let _scope = trace_scope(777_002, Some(remote_parent));
            assert_eq!(current_request_id(), Some(777_002));
            assert_eq!(current_parent_span(), Some(remote_parent));
            let _span = span("testremote", "serve", "clip");
        }
        assert_eq!(current_request_id(), None);
        assert_eq!(current_parent_span(), None);
        let tree = span_tree(777_002);
        assert_eq!(tree.spans.len(), 1);
        assert_eq!(tree.spans[0].parent_span_id, Some(remote_parent));
        // The remote parent is not in the ring, so the span is an orphan
        // root — the tree still renders rather than dropping it.
        assert_eq!(tree.roots().len(), 1);
    }

    #[test]
    fn request_scope_restores_previous() {
        let outer = request_scope(1);
        {
            let _inner = request_scope(2);
            assert_eq!(current_request_id(), Some(2));
        }
        assert_eq!(current_request_id(), Some(1));
        drop(outer);
        assert_eq!(current_request_id(), None);
    }
}
