//! The four workloads and what they share: the pass result, the read-side
//! accounting, telemetry deltas and the ingest helper.

pub mod cached_clips;
pub mod ingest_dedup;
pub mod service_mixed;
pub mod transcode_scan;

use crate::gen::Digest;
use crate::stats::ratio;
use crate::trace::{Span, Tracer};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use vss_codec::Codec;
use vss_core::{ReadResult, ReadStats, VideoStorage, Vss, VssConfig, VssError, WriteRequest};
use vss_frame::Frame;
use vss_telemetry::TelemetrySnapshot;

/// What one invocation asked for.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    pub seed: u64,
    /// The run's time budget; every op count is a frozen per-second constant
    /// times this, so a run takes about this long on the commit that froze
    /// them and exactly repeats its counts everywhere.
    pub seconds: f64,
    /// Tiny frames and a one-second budget, for tests.
    pub smoke: bool,
    pub scratch: &'a Path,
}

/// How one pass over a workload runs.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Op counts are divided by this (1 for the measured pass, 3 for the two
    /// passes of a traced run).
    pub divisor: usize,
    /// Record spans and run the parts that only feed per-layer metrics.
    pub traced: bool,
    /// How many times set-up is repeated (its median is `setup_s`).
    pub setup_reps: usize,
}

impl Mode {
    /// Ops for `per_second` of budget. The measured pass never runs fewer
    /// than `at_least`, so even a one-second smoke run supports a p90.
    pub fn count(&self, ctx: &Ctx, per_second: f64, at_least: usize) -> usize {
        let count = (per_second * ctx.seconds / self.divisor as f64).round() as usize;
        if self.divisor == 1 {
            count.max(at_least)
        } else {
            count.max(1)
        }
    }
}

impl Mode {
    /// The recorder for one generator thread (`lane` keeps span ids of
    /// concurrent threads apart; they share `origin`).
    pub fn tracer(&self, origin: Instant, lane: u64) -> Tracer {
        if self.traced {
            Tracer::on(origin, lane)
        } else {
            Tracer::off()
        }
    }
}

impl Ctx<'_> {
    /// An empty directory under the scratch root (both passes of a traced
    /// run use the same names, so anything left there is removed first).
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let path = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&path);
        path
    }
}

/// The result of one pass.
#[derive(Debug, Default)]
pub struct Pass {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: Vec<f64>,
    /// Ops, frames and wall seconds of the part `ops_s`/`frames_s` describe.
    pub ops: u64,
    pub frames: u64,
    pub wall_s: f64,
    /// Latency samples behind `op_p50_ms`/`op_p90_ms`.
    pub latencies_ms: Vec<f64>,
    /// Process CPU seconds over every timed part, and the frames they moved.
    pub cpu_s: f64,
    pub cpu_frames: u64,
    pub stored_bytes: u64,
    pub raw_bytes: u64,
    /// Hash of the op sequence and the source frames.
    pub inputs_digest: u64,
    pub layer: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

impl Pass {
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one failed correctness check (or failed op) and says why.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {why}"));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }
}

pub fn run(name: &str, ctx: &Ctx, mode: Mode) -> Result<Pass, String> {
    match name {
        "transcode_scan" => transcode_scan::run(ctx, mode),
        "cached_clips" => cached_clips::run(ctx, mode),
        "ingest_dedup" => ingest_dedup::run(ctx, mode),
        "service_mixed" => service_mixed::run(ctx, mode),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// Runs set-up `mode.setup_reps` times, each in an empty directory and each
/// timed (`setup_s` is their median); the workload uses the last store.
pub fn timed_setup<T>(
    ctx: &Ctx,
    mode: Mode,
    pass: &mut Pass,
    mut open: impl FnMut(&Path) -> Result<T, String>,
) -> Result<(T, PathBuf), String> {
    let mut store = None;
    for _ in 0..mode.setup_reps {
        // Close the previous store before its directory is removed.
        drop(store.take());
        let root = ctx.fresh_dir("store");
        let started = Instant::now();
        let opened = open(&root)?;
        pass.setup_s.push(started.elapsed().as_secs_f64());
        store = Some((opened, root));
    }
    store.ok_or_else(|| "setup_reps must be at least 1".to_string())
}

pub fn err(e: VssError) -> String {
    format!("{e:?}")
}

/// Wall-clock stop for a closed loop: ops not started by then count as
/// failed instead of hanging the run.
pub fn cutoff(ctx: &Ctx) -> Instant {
    Instant::now() + Duration::from_secs_f64((ctx.seconds * 8.0).clamp(20.0, 150.0))
}

/// Streams `frames` frames of a cycled ring into `name` through the store's
/// sink, GOP at a time, so the generator never holds a whole clip and peak
/// RSS stays the program's own. Returns the raw bytes written.
pub fn ingest_ring(
    store: &mut dyn VideoStorage,
    name: &str,
    codec: Codec,
    ring: &[Frame],
    frames: usize,
) -> Result<u64, String> {
    let mut sink = store
        .write_sink(&WriteRequest::new(name, codec), 30.0)
        .map_err(err)?;
    let mut raw = 0u64;
    for i in 0..frames {
        let frame = ring[i % ring.len()].clone();
        raw += frame.byte_len() as u64;
        sink.push_frame(frame).map_err(err)?;
    }
    sink.finish().map_err(err)?;
    Ok(raw)
}

/// Opens an in-process store and ingests one H.264 video per ring, named by
/// `name`. Returns the raw bytes written.
pub fn open_and_ingest(
    config: VssConfig,
    name: fn(usize) -> String,
    rings: &[Vec<Frame>],
    frames: usize,
) -> Result<(Vss, u64), String> {
    let mut vss = Vss::open(config).map_err(err)?;
    let mut raw = 0;
    for (index, ring) in rings.iter().enumerate() {
        raw += ingest_ring(&mut vss, &name(index), Codec::H264, ring, frames)?;
    }
    Ok((vss, raw))
}

/// The layer spans a read's `ReadStats` stand for, in the order they are
/// laid under the span around the call into `vss-core`.
pub fn read_children(stats: &ReadStats) -> [(&'static str, Duration); 3] {
    [
        ("solver.plan_read", stats.planning),
        ("codec.decode", stats.decoding),
        ("codec.encode", stats.encoding),
    ]
}

/// Digest of a materialized read's output: every frame's bytes and every
/// encoded GOP's bytes, which is what "byte-for-byte" compares.
pub fn result_digest(result: &ReadResult) -> u64 {
    let mut digest = Digest::new();
    digest.frames(result.frames.frames());
    for gop in result.encoded.iter().flatten() {
        digest.bytes(&gop.to_bytes());
    }
    digest.value()
}

/// Read-side accounting shared by the in-process read workloads: what the
/// returned `ReadStats` say, summed at the op boundary.
#[derive(Debug, Default)]
pub struct ReadAgg {
    pub reads: u64,
    pub frames_out: u64,
    pub wall: Duration,
    pub planning: Duration,
    pub decoding: Duration,
    pub encoding: Duration,
    pub candidates: u64,
    pub segments: u64,
    pub hits: u64,
    pub admitted: u64,
    pub bytes_read: u64,
    pub frames_decoded: u64,
    pub peak_stream_bytes: u64,
}

impl ReadAgg {
    /// Accounts one finished read.
    pub fn record(&mut self, wall: Duration, frames_out: usize, stats: &ReadStats) {
        self.reads += 1;
        self.frames_out += frames_out as u64;
        self.wall += wall;
        self.planning += stats.planning;
        self.decoding += stats.decoding;
        self.encoding += stats.encoding;
        self.candidates += stats.fragments_available as u64;
        self.segments += stats.plan.segments.len() as u64;
        self.hits += u64::from(stats.cached_fragments_used > 0);
        self.admitted += u64::from(stats.cache_admitted);
        self.bytes_read += stats.bytes_read;
        self.frames_decoded += stats.frames_decoded as u64;
    }

    pub fn publish(&self, pass: &mut Pass) {
        let wall = self.wall.as_secs_f64();
        let reads = self.reads as f64;
        pass.set(
            "codec.encode.busy_share",
            ratio(self.encoding.as_secs_f64(), wall),
        );
        pass.set(
            "codec.decode.busy_share",
            ratio(self.decoding.as_secs_f64(), wall),
        );
        pass.set(
            "solver.plan.us_per_read",
            ratio(self.planning.as_secs_f64() * 1e6, reads),
        );
        pass.set(
            "solver.plan.candidates_per_read",
            ratio(self.candidates as f64, reads),
        );
        pass.set(
            "solver.plan.segments_per_read",
            ratio(self.segments as f64, reads),
        );
        pass.set("core.cache.hit_frac", ratio(self.hits as f64, reads));
        pass.set("core.cache.admit_frac", ratio(self.admitted as f64, reads));
        pass.set(
            "core.read.bytes_read_per_frame",
            ratio(self.bytes_read as f64, self.frames_out as f64),
        );
        pass.set(
            "core.read.decoded_per_frame_out",
            ratio(self.frames_out as f64, self.frames_decoded as f64),
        );
        pass.set(
            "core.stream.peak_buffered_mb",
            self.peak_stream_bytes as f64 / 1e6,
        );
    }
}

/// `core.read.self_share`, from the span tree: the self time of the spans
/// around the calls into `vss-core` (their wall not covered by the
/// plan/decode/encode children) over the wall of the ops' root spans.
pub fn publish_read_self_share(pass: &mut Pass, core_spans: &[&str], root_spans: &[&str]) {
    let totals = crate::trace::totals_by_name(&pass.spans);
    let sum = |names: &[&str], pick: fn(&crate::trace::NameTotals) -> u64| -> u64 {
        names
            .iter()
            .filter_map(|name| totals.get(name))
            .map(pick)
            .sum()
    };
    let own = sum(core_spans, |t| t.self_ns);
    let total = sum(root_spans, |t| t.total_ns);
    pass.set("core.read.self_share", ratio(own as f64, total as f64));
}

/// Differences of the process-wide `vss-telemetry` registry across a timed
/// part. Labeled series of one name are summed.
pub struct TelemetryDelta {
    before: TelemetrySnapshot,
}

impl TelemetryDelta {
    pub fn start() -> Self {
        Self {
            before: vss_telemetry::snapshot(),
        }
    }

    pub fn finish(self) -> TelemetryChange {
        TelemetryChange {
            before: self.before,
            after: vss_telemetry::snapshot(),
        }
    }
}

pub struct TelemetryChange {
    before: TelemetrySnapshot,
    after: TelemetrySnapshot,
}

impl TelemetryChange {
    fn sum(
        snapshot: &TelemetrySnapshot,
        name: &str,
        pick: impl Fn(&TelemetrySnapshot, &str) -> u64,
    ) -> u64 {
        snapshot
            .series_of(name)
            .iter()
            .map(|(_, key)| pick(snapshot, key))
            .sum()
    }

    pub fn counter(&self, name: &str) -> u64 {
        let pick = |s: &TelemetrySnapshot, key: &str| s.counter(key).unwrap_or(0);
        Self::sum(&self.after, name, pick).saturating_sub(Self::sum(&self.before, name, pick))
    }

    pub fn histogram_count(&self, name: &str) -> u64 {
        let pick = |s: &TelemetrySnapshot, key: &str| s.histogram(key).map_or(0, |h| h.count);
        Self::sum(&self.after, name, pick).saturating_sub(Self::sum(&self.before, name, pick))
    }

    /// Sum of the samples recorded in the window (ns for `*_ns` series).
    pub fn histogram_sum(&self, name: &str) -> u64 {
        let pick = |s: &TelemetrySnapshot, key: &str| s.histogram(key).map_or(0, |h| h.sum);
        Self::sum(&self.after, name, pick).saturating_sub(Self::sum(&self.before, name, pick))
    }

    /// Process-cumulative p50 of an unlabeled histogram (quantiles cannot be
    /// differenced; set-up samples of the same operation are included).
    pub fn histogram_p50(&self, name: &str) -> u64 {
        self.after.histogram(name).map_or(0, |h| h.p50)
    }

    /// The write-ahead-journal series every workload reports.
    pub fn publish_wal(&self, pass: &mut Pass, gops_written: u64) {
        pass.set(
            "catalog.wal.fsyncs_per_gop",
            ratio(
                self.histogram_count("wal.journal.fsync_ns") as f64,
                gops_written as f64,
            ),
        );
        pass.set(
            "catalog.wal.fsync_p50_us",
            self.histogram_p50("wal.journal.fsync_ns") as f64 / 1e3,
        );
        pass.set(
            "catalog.wal.append_p50_us",
            self.histogram_p50("wal.journal.append_ns") as f64 / 1e3,
        );
        pass.set(
            "catalog.wal.checkpoints",
            self.counter("wal.journal.checkpoints") as f64,
        );
    }

    /// Shares of `wall_s` the streaming pipelines spent stalled or persisting.
    pub fn publish_pipelines(&self, pass: &mut Pass, wall_s: f64) {
        let share = |name: &str| ratio(self.histogram_sum(name) as f64 / 1e9, wall_s);
        pass.set(
            "core.stream.readahead_stall_share",
            share("stream.readahead.stall_ns"),
        );
        pass.set("core.sink.persist_share", share("sink.pipeline.persist_ns"));
        pass.set(
            "core.sink.encode_wait_share",
            share("sink.pipeline.encode_wait_ns"),
        );
    }
}
