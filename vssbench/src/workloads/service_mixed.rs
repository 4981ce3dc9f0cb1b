//! `service_mixed`: the service tier, the data-fits-in-cache case. A
//! four-shard `VssServer` behind `NetServer` on loopback, two `RemoteStore`
//! connections (protocol v3 multiplexing), a 70/15/15 mix of one-second clip
//! streams, two-second transcodes and one-GOP appends on the same shards.
//! Part A is a closed loop of two clients and gives every end-to-end metric.
//! The traced run adds part B, an open loop on a Poisson schedule at three
//! fixed rates with latency timed from each op's due time, and part C, a live
//! tail over a subscription. Due-time latencies are reported, not gated: with
//! a few hundred samples per rate their percentiles sit on the edge between
//! "found a worker free" and "queued behind a transcode or an append" and
//! swung by 30-60 % between runs of the same code.

use super::{
    err, ingest_ring, open_and_ingest, result_digest, timed_setup, Ctx, Mode, Pass, TelemetryDelta,
};
use crate::gen::{poisson_schedule, render_ring, Deck, Digest, Rng};
use crate::stats::{median, percentile, ratio};
use crate::sys::dir_bytes;
use crate::trace::{Span, Tracer};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use vss_codec::Codec;
use vss_core::{ReadRequest, VideoStorage, VssConfig, VssError, WriteRequest};
use vss_frame::{Frame, FrameSequence, PixelFormat, Resolution};
use vss_live::{SubEvent, SubscribeFrom};
use vss_net::{NetServer, RemoteStore};
use vss_server::VssServer;

/// Frozen on the seed commit (2 cores). Part A runs this many ops per second
/// of budget; the open-loop rates are absolute ops/s, about 18/33/67 % of the
/// closed-loop throughput (190-260 ops/s) measured when they were frozen.
const PART_A_OPS_PER_SECOND: f64 = 250.0;
const RATES: [f64; 3] = [40.0, 75.0, 150.0];
/// `[p50, p90, backlog at the end]` of each rate's phase.
const RATE_METRICS: [[&str; 3]; 3] = [
    [
        "bench.svc.p50_ms_r1",
        "bench.svc.p90_ms_r1",
        "bench.svc.backlog_end_r1",
    ],
    [
        "bench.svc.p50_ms_r2",
        "bench.svc.p90_ms_r2",
        "bench.svc.backlog_end_r2",
    ],
    [
        "bench.svc.p50_ms_r3",
        "bench.svc.p90_ms_r3",
        "bench.svc.backlog_end_r3",
    ],
];
/// Each open-loop phase is scheduled over this share of the budget.
const PHASE_SHARE: f64 = 0.3;
/// The latency limit behind `bench.svc.max_rate_ok_ops_s`.
const LATENCY_LIMIT_P90_MS: f64 = 250.0;
const LIVE_INTERVAL: Duration = Duration::from_millis(50);
const SHARDS: usize = 4;
const CLIENTS: usize = 2;
const GOP: usize = 30;

struct Shape {
    resolution: Resolution,
    videos: usize,
    video_frames: usize,
}

fn shape(ctx: &Ctx) -> Shape {
    if ctx.smoke {
        Shape {
            resolution: Resolution::new(64, 36),
            videos: 4,
            video_frames: 90,
        }
    } else {
        Shape {
            resolution: Resolution::new(240, 136),
            videos: 8,
            video_frames: 300,
        }
    }
}

fn video_name(index: usize) -> String {
    format!("feed{index}")
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// One-second clip in the stored format, drained from `read_stream`.
    Clip,
    /// Two seconds transcoded to half-resolution H.264 through `read`.
    Transcode,
    /// One GOP appended to the video's tail.
    Append,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    kind: Kind,
    video: usize,
    second: usize,
}

/// The 70/15/15 mix over every video, dealt from a deck: exact for every
/// seed, in an order the seed decides.
struct Mix {
    deck: Deck<(Kind, usize)>,
    seconds: usize,
}

impl Mix {
    fn new(shape: &Shape) -> Self {
        let kinds = [(Kind::Clip, 14), (Kind::Transcode, 3), (Kind::Append, 3)];
        let cards = (0..shape.videos)
            .flat_map(|video| {
                kinds
                    .iter()
                    .flat_map(move |&(kind, n)| (0..n).map(move |_| (kind, video)))
            })
            .collect();
        Self {
            deck: Deck::new(cards),
            seconds: shape.video_frames / GOP,
        }
    }

    fn draw(&mut self, rng: &mut Rng) -> Op {
        let (kind, video) = self.deck.deal(rng);
        let span = if kind == Kind::Transcode { 2 } else { 1 };
        Op {
            kind,
            video,
            second: rng.below((self.seconds - span + 1) as u64) as usize,
        }
    }
}

/// Reads stay inside the pre-ingested range, which appends never change, so
/// any read can be checked against the reference engine afterwards.
fn read_request(op: &Op, full: Resolution) -> ReadRequest {
    let start = op.second as f64;
    match op.kind {
        Kind::Transcode => ReadRequest::new(video_name(op.video), start, start + 2.0, Codec::H264)
            .resolution(Resolution::new(full.width / 2, full.height / 2))
            .uncacheable(),
        _ => ReadRequest::new(video_name(op.video), start, start + 1.0, Codec::H264).uncacheable(),
    }
}

struct Service {
    server: VssServer,
    net: NetServer,
    clients: Vec<RemoteStore>,
}

impl Service {
    /// Set-up: open the sharded server, bind loopback, dial both connections
    /// and ingest every video over the wire (one client thread per half).
    fn open(root: &Path, rings: &[Vec<Frame>], frames: usize) -> Result<(Self, u64), String> {
        let server = VssServer::open_sharded(VssConfig::new(root), SHARDS).map_err(err)?;
        let net = NetServer::bind(server.clone(), "127.0.0.1:0").map_err(err)?;
        let mut clients = (0..CLIENTS)
            .map(|_| RemoteStore::connect(net.local_addr()).map_err(err))
            .collect::<Result<Vec<_>, _>>()?;
        let raw = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        let mut raw = 0;
                        for (v, ring) in rings.iter().enumerate().filter(|(v, _)| v % CLIENTS == c)
                        {
                            raw += ingest_ring(client, &video_name(v), Codec::H264, ring, frames)?;
                        }
                        Ok::<u64, String>(raw)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("ingest thread"))
                .sum::<Result<u64, String>>()
        })?;
        Ok((
            Self {
                server,
                net,
                clients,
            },
            raw,
        ))
    }
}

/// Teardown in the order a deployment would: clients hang up, the listener
/// stops, the server drains.
impl Drop for Service {
    fn drop(&mut self) {
        self.clients.clear();
        self.net.shutdown();
        self.server.shutdown(Duration::from_secs(10));
    }
}

/// One generator thread: a connection and everything it measured.
struct Client<'a> {
    store: RemoteStore,
    shape: &'a Shape,
    rings: &'a [Vec<Frame>],
    tracer: Tracer,
    lane: u64,
    next_op: u64,
    appends: usize,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    frames: u64,
    raw_appended: u64,
    /// Frame and GOP bytes moved in either direction.
    payload: u64,
    op_wall: Duration,
    /// Latency of every op that succeeded, in ms.
    latencies_ms: Vec<f64>,
    /// `(op, digest)` of every tenth read, checked against the reference.
    sampled: Vec<(Op, u64)>,
}

impl Client<'_> {
    /// Runs one op; returns its frames on success. `sample` keeps a digest.
    fn execute(&mut self, op: &Op, sample: bool) -> Option<u64> {
        self.attempted += 1;
        self.next_op += 1;
        let id = (self.lane << 32) + self.next_op;
        let started = Instant::now();
        let outcome: Result<(u64, u64, Option<u64>), VssError> = match op.kind {
            Kind::Append => {
                let ring = &self.rings[op.video];
                let frames: Vec<Frame> = (0..GOP)
                    .map(|f| ring[(self.appends * GOP + f) % ring.len()].clone())
                    .collect();
                self.appends += 1;
                let bytes: u64 = frames.iter().map(|f| f.byte_len() as u64).sum();
                let sequence = FrameSequence::new(frames, 30.0).expect("uniform ring frames");
                let root = self.tracer.begin(id, None, "op.append");
                let call = self.tracer.begin(id, Some(root), "net.append");
                let report = self.store.append(&video_name(op.video), &sequence);
                self.tracer.end(call);
                self.tracer.end(root);
                report.map(|_| {
                    self.raw_appended += bytes;
                    (GOP as u64, bytes, None)
                })
            }
            Kind::Clip => {
                let request = read_request(op, self.shape.resolution);
                let root = self.tracer.begin(id, None, "op.clip");
                let open = self.tracer.begin(id, Some(root), "net.read_stream.open");
                let opened = self.store.read_stream(&request);
                self.tracer.end(open);
                let drained = opened.and_then(|stream| {
                    let drain = self.tracer.begin(id, Some(root), "net.read_stream.drain");
                    let mut digest = Digest::new();
                    let mut gops = Vec::new();
                    let (mut frames, mut bytes) = (0u64, 0u64);
                    for chunk in stream {
                        let chunk = chunk?;
                        frames += chunk.frames.len() as u64;
                        bytes += chunk.frames.byte_len() as u64;
                        if sample {
                            digest.frames(chunk.frames.frames());
                        }
                        if let Some(gop) = chunk.encoded_gop {
                            bytes += gop.byte_len() as u64;
                            if sample {
                                gops.push(gop);
                            }
                        }
                    }
                    self.tracer.end(drain);
                    gops.iter().for_each(|gop| digest.bytes(&gop.to_bytes()));
                    Ok((frames, bytes, sample.then(|| digest.value())))
                });
                self.tracer.end(root);
                drained
            }
            Kind::Transcode => {
                let request = read_request(op, self.shape.resolution);
                let root = self.tracer.begin(id, None, "op.transcode");
                let call = self.tracer.begin(id, Some(root), "net.read");
                let result = self.store.read(&request);
                self.tracer.end(call);
                self.tracer.end(root);
                result.map(|result| {
                    let gops: u64 = result
                        .encoded
                        .iter()
                        .flatten()
                        .map(|g| g.byte_len() as u64)
                        .sum();
                    (
                        result.frames.len() as u64,
                        result.frames.byte_len() as u64 + gops,
                        sample.then(|| result_digest(&result)),
                    )
                })
            }
        };
        let wall = started.elapsed();
        self.op_wall += wall;
        match outcome {
            Ok((frames, bytes, digest)) => {
                self.latencies_ms.push(wall.as_secs_f64() * 1e3);
                self.frames += frames;
                self.payload += bytes;
                if let Some(digest) = digest {
                    self.sampled.push((*op, digest));
                }
                Some(frames)
            }
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("{op:?}: {e:?}"));
                None
            }
        }
    }
}

/// What one open-loop phase measured.
#[derive(Default)]
struct Phase {
    latencies_ms: Vec<f64>,
    /// How late the generator started ops it was waiting for (ms).
    late_ms: Vec<f64>,
    backlog_mid: usize,
    backlog_end: usize,
    failed: u64,
    /// Median latency and sample count per op kind (clip, transcode, append).
    by_kind: [(Option<f64>, usize); 3],
}

impl Phase {
    fn sustained(&self) -> bool {
        let p90_ok =
            percentile(&self.latencies_ms, 0.9).is_some_and(|p90| p90 <= LATENCY_LIMIT_P90_MS);
        // A queue that is no deeper at the end than halfway (give or take the
        // ops the workers hold) is not growing.
        p90_ok && self.failed == 0 && self.backlog_end <= self.backlog_mid + CLIENTS
    }
}

/// One op of an open-loop phase: offsets in ns from the phase's start.
struct Record {
    kind: Kind,
    due: u64,
    begun: u64,
    /// `None` when the op failed.
    done: Option<u64>,
    /// How late the op started, when the worker was waiting for its due time.
    late: Option<u64>,
}

/// Open loop: ops are due on a Poisson schedule whatever the service does;
/// the two workers claim them in order, so an op that finds both busy waits
/// and that wait counts, because latency runs from the due time.
fn open_loop(clients: &mut [Client], schedule: &[(u64, Op)]) -> Phase {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let records: Vec<Record> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut records = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&(due, op)) = schedule.get(index) else {
                            break;
                        };
                        let due_at = started + Duration::from_nanos(due);
                        let mut late = None;
                        let now = Instant::now();
                        if now < due_at {
                            std::thread::sleep(due_at - now);
                            late =
                                Some(Instant::now().saturating_duration_since(due_at).as_nanos()
                                    as u64);
                        }
                        let begun = started.elapsed().as_nanos() as u64;
                        let done = client
                            .execute(&op, false)
                            .map(|_| started.elapsed().as_nanos() as u64);
                        records.push(Record {
                            kind: op.kind,
                            due,
                            begun,
                            done,
                            late,
                        });
                    }
                    records
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("open-loop worker"))
            .collect()
    });
    let last_due = schedule.last().map_or(0, |&(due, _)| due);
    let backlog_at = |t: u64| records.iter().filter(|r| r.due <= t && r.begun > t).count();
    let latencies = |kind: Option<Kind>| -> Vec<f64> {
        records
            .iter()
            .filter(|r| kind.is_none_or(|k| k == r.kind))
            .filter_map(|r| r.done.map(|done| done.saturating_sub(r.due) as f64 / 1e6))
            .collect()
    };
    Phase {
        latencies_ms: latencies(None),
        late_ms: records
            .iter()
            .filter_map(|r| r.late.map(|l| l as f64 / 1e6))
            .collect(),
        backlog_mid: backlog_at(last_due / 2),
        backlog_end: backlog_at(last_due),
        failed: records.iter().filter(|r| r.done.is_none()).count() as u64,
        by_kind: [Kind::Clip, Kind::Transcode, Kind::Append].map(|kind| {
            let samples = latencies(Some(kind));
            (percentile(&samples, 0.5), samples.len())
        }),
    }
}

pub fn run(ctx: &Ctx, mode: Mode) -> Result<Pass, String> {
    let shape = shape(ctx);
    let mut pass = Pass::default();
    let mut inputs = Digest::new();

    // --- inputs -------------------------------------------------------------
    let rings: Vec<Vec<Frame>> = (0..shape.videos)
        .map(|v| render_ring(v as u64, 0, shape.resolution, PixelFormat::Yuv420, 0.3, 60))
        .collect();
    rings.iter().for_each(|ring| inputs.frames(ring));
    let per_client = mode.count(ctx, PART_A_OPS_PER_SECOND / CLIENTS as f64, 60);
    let closed: Vec<Vec<Op>> = (0..CLIENTS)
        .map(|c| {
            let mut rng = Rng::fork(ctx.seed, &format!("service_mixed.closed.{c}"));
            let mut mix = Mix::new(&shape);
            (0..per_client).map(|_| mix.draw(&mut rng)).collect()
        })
        .collect();
    // One schedule of `(due ns, op)` per rate.
    let schedules: Vec<Vec<(u64, Op)>> = RATES
        .iter()
        .enumerate()
        .map(|(r, &rate)| {
            let mut rng = Rng::fork(ctx.seed, &format!("service_mixed.open.{r}"));
            let count = ((rate * PHASE_SHARE * ctx.seconds) as usize).max(1);
            let due = poisson_schedule(&mut rng, rate, count);
            let mut mix = Mix::new(&shape);
            due.into_iter().map(|d| (d, mix.draw(&mut rng))).collect()
        })
        .collect();
    let scheduled = schedules.iter().flatten();
    for op in closed
        .iter()
        .flatten()
        .chain(scheduled.clone().map(|(_, op)| op))
    {
        inputs.word((op.kind as u64) << 32 | (op.video as u64) << 16 | op.second as u64);
    }
    scheduled.for_each(|&(due, _)| inputs.word(due));
    pass.inputs_digest = inputs.value();

    // --- set-up ---------------------------------------------------------------
    let ((mut service, raw_bytes), root) = timed_setup(ctx, mode, &mut pass, |root| {
        Service::open(root, &rings, shape.video_frames)
    })?;
    pass.raw_bytes = raw_bytes;
    let origin = Instant::now();
    let mut clients: Vec<Client> = std::mem::take(&mut service.clients)
        .into_iter()
        .enumerate()
        .map(|(c, store)| Client {
            store,
            shape: &shape,
            rings: &rings,
            tracer: mode.tracer(origin, c as u64 + 1),
            lane: c as u64 + 1,
            next_op: 0,
            appends: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            frames: 0,
            raw_appended: 0,
            payload: 0,
            op_wall: Duration::ZERO,
            latencies_ms: Vec::new(),
            sampled: Vec::new(),
        })
        .collect();

    // --- part A: closed loop, two clients ------------------------------------------
    let telemetry = TelemetryDelta::start();
    let cpu_before = crate::sys::cpu_seconds()?;
    let part_a_started = Instant::now();
    std::thread::scope(|scope| {
        for (client, ops) in clients.iter_mut().zip(&closed) {
            scope.spawn(move || {
                for (i, op) in ops.iter().enumerate() {
                    client.execute(op, i % 10 == 0 && op.kind != Kind::Append);
                }
            });
        }
    });
    pass.wall_s = part_a_started.elapsed().as_secs_f64();
    pass.latencies_ms = clients
        .iter()
        .flat_map(|c| c.latencies_ms.iter().copied())
        .collect();
    pass.ops = clients.iter().map(|c| c.attempted - c.failed).sum();
    pass.frames = clients.iter().map(|c| c.frames).sum();

    // --- part B (traced run only): open loop at fixed rates ---------------------------
    let mut phases: Vec<Phase> = Vec::new();
    if mode.traced {
        for schedule in &schedules {
            phases.push(open_loop(&mut clients, schedule));
        }
    }
    pass.cpu_s = crate::sys::cpu_seconds()? - cpu_before;
    pass.cpu_frames = clients.iter().map(|c| c.frames).sum();
    let telemetry = telemetry.finish();
    let op_wall: f64 = clients.iter().map(|c| c.op_wall.as_secs_f64()).sum();
    for (r, phase) in phases.iter().enumerate() {
        pass.note(format!(
            "open loop r{} = {} ops/s: {} ops, p50 {:?} ms, p90 {:?} ms, backlog mid {} end {}, generator late p90 {:?} ms; \
             (p50 ms, samples) of clips {:?}, transcodes {:?}, appends {:?}",
            r + 1,
            RATES[r],
            phase.latencies_ms.len(),
            percentile(&phase.latencies_ms, 0.5),
            percentile(&phase.latencies_ms, 0.9),
            phase.backlog_mid,
            phase.backlog_end,
            percentile(&phase.late_ms, 0.9),
            phase.by_kind[0],
            phase.by_kind[1],
            phase.by_kind[2],
        ));
    }

    // --- per-layer: server, net, live (traced run only) ---------------------------------
    if mode.traced {
        let stats = service.server.stats();
        let shard_ops: Vec<f64> = stats
            .shards
            .iter()
            .map(|s| (s.read_ops + s.write_ops) as f64)
            .collect();
        let mean_ops = shard_ops.iter().sum::<f64>() / shard_ops.len() as f64;
        pass.set(
            "server.shard.lock_wait_share",
            ratio(stats.total_lock_wait().as_secs_f64(), op_wall),
        );
        pass.set(
            "server.shard.lock_wait_p99_us",
            stats.lock_wait_p99().as_secs_f64() * 1e6,
        );
        pass.set(
            "server.shard.op_skew",
            ratio(shard_ops.iter().cloned().fold(0.0, f64::max), mean_ops),
        );
        pass.set("server.cache.hit_frac", stats.cache_hit_rate());
        let rejected = service.server.rejected_sessions() as f64;
        pass.set(
            "server.admission.shed_frac",
            ratio(rejected, rejected + CLIENTS as f64),
        );
        let payload: u64 = clients.iter().map(|c| c.payload).sum();
        let wire =
            telemetry.counter("net.conn.bytes_sent") + telemetry.counter("net.conn.bytes_received");
        pass.set(
            "net.wire.bytes_per_payload_byte",
            ratio(wire as f64, payload as f64),
        );
        pass.set(
            "net.mux.credit_stall_share",
            ratio(
                telemetry.histogram_sum("net.mux.credit_stall_ns") as f64 / 1e9,
                op_wall,
            ),
        );
        pass.set(
            "net.mux.streams_opened",
            telemetry.counter("net.mux.streams_opened") as f64,
        );
        pass.set("net.mux.resets", telemetry.counter("net.mux.resets") as f64);
        let appended_gops: u64 = clients.iter().map(|c| c.appends as u64).sum();
        telemetry.publish_wal(&mut pass, appended_gops);
        telemetry.publish_pipelines(&mut pass, op_wall);
        for (phase, [p50, p90, backlog]) in phases.iter().zip(RATE_METRICS) {
            pass.set(p50, percentile(&phase.latencies_ms, 0.5).unwrap_or(0.0));
            pass.set(p90, percentile(&phase.latencies_ms, 0.9).unwrap_or(0.0));
            pass.set(backlog, phase.backlog_end as f64);
        }
        let late: Vec<f64> = phases
            .iter()
            .flat_map(|p| p.late_ms.iter().copied())
            .collect();
        pass.set(
            "bench.gen.late_p90_ms",
            percentile(&late, 0.9).unwrap_or(0.0),
        );
        let best = phases
            .iter()
            .zip(RATES)
            .filter(|(phase, _)| phase.sustained())
            .map(|(_, rate)| rate)
            .fold(0.0, f64::max);
        pass.set("bench.svc.max_rate_ok_ops_s", best);
        rpc_overhead(&service.server, &mut clients[0], &closed[0], &mut pass);
        live_tail(ctx, &service, &mut clients[0], &mut pass)?;
    }

    // --- gates and teardown ----------------------------------------------------------------
    for client in &mut clients {
        pass.attempted += client.attempted;
        pass.failed += client.failed;
        pass.notes.extend(
            client
                .failures
                .drain(..)
                .take(5)
                .map(|f| format!("FAILED: {f}")),
        );
    }
    let sampled: Vec<(Op, u64)> = clients
        .iter_mut()
        .flat_map(|c| c.sampled.drain(..))
        .collect();
    pass.raw_bytes += clients.iter().map(|c| c.raw_appended).sum::<u64>();
    let mut spans: Vec<Span> = Vec::new();
    for client in clients {
        spans.extend(client.tracer.into_spans());
        service.clients.push(client.store);
    }
    spans.sort_by_key(|s| s.start_ns);
    pass.spans = spans;
    drop(service);
    pass.stored_bytes = dir_bytes(&root);
    pass.note(format!(
        "{} videos x {} frames @ {}x{} on {SHARDS} shards, {CLIENTS} connections: {} raw bytes in, {} stored",
        shape.videos, shape.video_frames, shape.resolution.width, shape.resolution.height, pass.raw_bytes, pass.stored_bytes
    ));
    let (reference, _) = open_and_ingest(
        VssConfig::new(ctx.fresh_dir("reference")).with_parallelism(1),
        video_name,
        &rings,
        shape.video_frames,
    )?;
    for (op, digest) in &sampled {
        pass.attempted += 1;
        match reference.read(&read_request(op, shape.resolution)) {
            Ok(result) if result_digest(&result) == *digest => {}
            Ok(_) => pass.fail(format!(
                "{op:?} over the wire differs from the parallelism(1) reference"
            )),
            Err(e) => pass.fail(format!("reference read of {op:?}: {e:?}")),
        }
    }
    pass.note(format!(
        "{} remote reads compared byte-for-byte with the parallelism(1) reference",
        sampled.len()
    ));
    Ok(pass)
}

/// The same sampled clip reads through an in-process `Session` and over the
/// wire; the difference is what the RPC layer adds.
fn rpc_overhead(server: &VssServer, client: &mut Client, ops: &[Op], pass: &mut Pass) {
    let mut session = server.session();
    let resolution = client.shape.resolution;
    let clips: Vec<&Op> = ops
        .iter()
        .filter(|op| op.kind == Kind::Clip)
        .take(40)
        .collect();
    let time = |read: &mut dyn FnMut(&ReadRequest) -> Result<usize, VssError>| -> f64 {
        let samples: Vec<f64> = clips
            .iter()
            .filter_map(|op| {
                let started = Instant::now();
                read(&read_request(op, resolution)).ok()?;
                Some(started.elapsed().as_secs_f64() * 1e3)
            })
            .collect();
        median(&samples)
    };
    let drain = |store: &mut dyn VideoStorage, request: &ReadRequest| -> Result<usize, VssError> {
        store
            .read_stream(request)?
            .map(|chunk| chunk.map(|c| c.frames.len()))
            .sum()
    };
    let inproc = time(&mut |request| drain(&mut session, request));
    let remote = time(&mut |request| drain(&mut client.store, request));
    pass.set("server.session.inproc_read_ms", inproc);
    pass.set("net.rpc.overhead_ms", remote - inproc);
}

/// Part C: thread 1 appends one GOP every 50 ms on a schedule, thread 2 tails
/// it through a subscription; lag runs from the append call to the receipt
/// of that GOP. Once over the wire (a mux stream on the appender's own
/// connection), once through an in-process session.
fn live_tail(
    ctx: &Ctx,
    service: &Service,
    client: &mut Client,
    pass: &mut Pass,
) -> Result<(), String> {
    // Half an open-loop phase each, and never too short for a median.
    let gops = ((PHASE_SHARE * ctx.seconds / 2.0 / LIVE_INTERVAL.as_secs_f64()) as usize).max(20);
    let rings = client.rings;
    let ring = &rings[0];
    let gop = |k: usize| -> FrameSequence {
        FrameSequence::new(
            (0..GOP)
                .map(|f| ring[(k * GOP + f) % ring.len()].clone())
                .collect(),
            30.0,
        )
        .expect("uniform ring frames")
    };
    let telemetry = TelemetryDelta::start();
    let mut gaps = 0u64;

    // One tail: `append(k)` persists GOP k, `next()` blocks for the next event.
    let mut tail = |name: &str,
                    append: &mut dyn FnMut(&FrameSequence) -> Result<(), VssError>,
                    next: Box<dyn FnMut() -> Option<Result<SubEvent, VssError>> + Send>,
                    abort: &dyn Fn()|
     -> Result<Vec<f64>, String> {
        let origin = Instant::now();
        let (tx, rx) = mpsc::channel();
        let mut next = next;
        let subscriber = std::thread::spawn(move || {
            let mut received: Vec<(u64, u64)> = Vec::new();
            let mut gaps = 0u64;
            while received.len() < gops {
                match next() {
                    Some(Ok(SubEvent::Gop(live))) => {
                        received.push((live.seq, origin.elapsed().as_nanos() as u64))
                    }
                    Some(Ok(SubEvent::Gap { .. })) => gaps += 1,
                    Some(Ok(SubEvent::End)) | Some(Err(_)) | None => break,
                }
            }
            let _ = tx.send(());
            (received, gaps)
        });
        let mut sent_at = Vec::with_capacity(gops);
        let mut append_error = None;
        for k in 0..gops {
            let due = origin + LIVE_INTERVAL * (k as u32 + 1);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            sent_at.push(origin.elapsed().as_nanos() as u64);
            if let Err(e) = append(&gop(k + 1)) {
                append_error = Some(format!("live append to {name}: {e:?}"));
                break;
            }
        }
        // A subscriber still waiting after this is cut loose, never leaked.
        if append_error.is_some() || rx.recv_timeout(Duration::from_secs(5)).is_err() {
            abort();
        }
        let (received, seen_gaps) = subscriber
            .join()
            .map_err(|_| "live subscriber panicked".to_string())?;
        if let Some(error) = append_error {
            return Err(error);
        }
        gaps += seen_gaps;
        // Sequence 0 was written before subscribing; GOP k of the schedule is
        // sequence k + 1. Every one must arrive exactly once, in order.
        pass.attempted += gops as u64;
        let expected: Vec<u64> = (1..=gops as u64).collect();
        let seqs: Vec<u64> = received.iter().map(|&(seq, _)| seq).collect();
        if seqs != expected {
            let missing = expected.iter().filter(|s| !seqs.contains(s)).count().max(1);
            pass.failed += missing as u64;
            pass.note(format!(
                "FAILED: live tail of {name} saw sequences {seqs:?}, expected 1..={gops}"
            ));
        }
        Ok(received
            .iter()
            .filter(|&&(seq, _)| (1..=gops as u64).contains(&seq))
            .map(|&(seq, at)| at.saturating_sub(sent_at[seq as usize - 1]) as f64)
            .collect())
    };

    // Over the wire.
    client
        .store
        .write(&WriteRequest::new("live-net", Codec::H264), &gop(0))
        .map_err(err)?;
    let mut feed = client
        .store
        .subscribe("live-net", SubscribeFrom::Live)
        .map_err(err)?;
    let store = &mut client.store;
    let net_lag = tail(
        "live-net",
        &mut |frames| store.append("live-net", frames).map(|_| ()),
        Box::new(move || feed.next()),
        &|| service.net.shutdown(),
    )?;

    // In process.
    let session = service.server.session();
    session
        .write(&WriteRequest::new("live-inproc", Codec::H264), &gop(0))
        .map_err(err)?;
    let mut subscription = service
        .server
        .session()
        .subscribe("live-inproc", SubscribeFrom::Live);
    let (stats_tx, stats_rx) = mpsc::channel();
    let mut idle = 0;
    let inproc_lag = tail(
        "live-inproc",
        &mut |frames| session.append("live-inproc", frames).map(|_| ()),
        Box::new(move || loop {
            match subscription.next_timeout(Duration::from_secs(1)) {
                Ok(Some(event)) => {
                    let _ = stats_tx.send((
                        subscription.catchup_rounds(),
                        subscription.lag_transitions(),
                    ));
                    return Some(Ok(event));
                }
                Ok(None) if idle < 5 => idle += 1,
                Ok(None) => return None,
                Err(e) => return Some(Err(e)),
            }
        }),
        &|| {},
    )?;
    let (catchup_rounds, lag_transitions) = stats_rx.try_iter().last().unwrap_or((0, 0));

    let telemetry = telemetry.finish();
    pass.set(
        "live.net.lag_p50_ms",
        percentile(&net_lag, 0.5).unwrap_or(0.0) / 1e6,
    );
    pass.set(
        "live.hub.inproc_lag_p50_us",
        percentile(&inproc_lag, 0.5).unwrap_or(0.0) / 1e3,
    );
    pass.set("live.sub.catchup_rounds", catchup_rounds as f64);
    pass.set("live.sub.lag_transitions", lag_transitions as f64);
    pass.set("live.sub.gaps", gaps as f64);
    pass.set(
        "live.hub.published_gops",
        telemetry.counter("live.hub.published_gops") as f64,
    );
    pass.note(format!(
        "live tail: {gops} GOPs every {LIVE_INTERVAL:?}, over the wire and in process"
    ));
    Ok(())
}
