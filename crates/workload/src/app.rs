//! The end-to-end traffic-monitoring application (paper Sections 2 and 6.4).
//!
//! The application monitors an intersection for vehicles of a given colour in
//! three phases:
//!
//! 1. **Indexing** — read the video at low resolution, run the vehicle
//!    detector every `detect_every` frames, and record where vehicles appear.
//! 2. **Search** — given an alert colour, re-read the indexed regions and
//!    keep those whose detections match the colour (Euclidean distance ≤ 50,
//!    as in the paper).
//! 3. **Streaming** — retrieve the matching clips compressed with the
//!    device's codec (H.264) for playback.
//!
//! The driver runs against any [`VideoStorage`]; stores that cannot convert
//! formats (the local-file-system / "OpenCV" variant) decode in the stored
//! format and the *application* performs the resize and colour conversion,
//! exactly as the paper's baseline does. Multiple clients run the same
//! phases concurrently against a shared store.
//!
//! # Concurrency model
//!
//! A [`SharedStore`] is a [`StoreFactory`]: each client thread asks it for
//! its *own* [`VideoStorage`] handle. Against the sharded [`VssServer`]
//! (see [`server_store`]) every client gets an independent session and the
//! storage manager itself provides the concurrency — there is no driver-side
//! lock at all. Stores that are not internally thread-safe (the local file
//! system and VStore-like baselines) are adapted by [`shared_store`], whose
//! per-client handles serialize on one mutex.

use crate::detector::{detect_vehicles, Detection, DetectorParams};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vss_codec::Codec;
use vss_core::{
    ReadRequest, ReadResult, ReadStream, StorageBudget, VideoMetadata, VideoStorage, VssError,
    WriteReport, WriteRequest,
};
use vss_frame::{resize_bilinear, FrameSequence, PixelFormat, Resolution};
use vss_server::VssServer;

/// Application configuration.
#[derive(Debug, Clone)]
pub struct AppConfig {
    /// Logical video to analyse.
    pub video: String,
    /// Total duration of the video in seconds.
    pub duration: f64,
    /// Source resolution of the stored video.
    pub source_resolution: Resolution,
    /// Source codec of the stored video.
    pub source_codec: Codec,
    /// Low resolution used by the indexing phase.
    pub index_resolution: Resolution,
    /// Run the detector every `detect_every` frames (paper: every 10 frames).
    pub detect_every: usize,
    /// Colour to search for in the search phase.
    pub target_color: (u8, u8, u8),
    /// Maximum colour distance for a match (paper: 50).
    pub color_threshold: f64,
    /// Length of each streamed clip in seconds.
    pub clip_length: f64,
}

/// Wall-clock time spent in each phase by one client.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimings {
    /// Indexing phase duration.
    pub indexing: Duration,
    /// Search phase duration.
    pub search: Duration,
    /// Streaming phase duration.
    pub streaming: Duration,
    /// Number of time ranges with detections found during indexing.
    pub indexed_ranges: usize,
    /// Number of ranges whose vehicles matched the target colour.
    pub matching_ranges: usize,
    /// Number of clips produced by the streaming phase.
    pub clips: usize,
}

impl PhaseTimings {
    /// Total wall-clock time across all phases.
    pub fn total(&self) -> Duration {
        self.indexing + self.search + self.streaming
    }
}

/// Hands out per-client [`VideoStorage`] handles for the multi-client
/// application driver.
pub trait StoreFactory: Send + Sync {
    /// Human-readable name used in benchmark output.
    fn label(&self) -> &'static str;

    /// Creates a store handle for one client. Handles from the same factory
    /// share the underlying store state.
    fn client(&self) -> Box<dyn VideoStorage + Send>;
}

/// A shared, thread-safe store handle used by the application driver.
pub type SharedStore = Arc<dyn StoreFactory>;

/// Wraps a store that is not internally thread-safe for use by the
/// (possibly multi-client) application driver: every per-client handle
/// serializes on one mutex around the store — the compatibility shim for
/// the baseline stores (and the historical behaviour of this driver).
pub fn shared_store(store: Box<dyn VideoStorage + Send>) -> SharedStore {
    let label = store.label();
    Arc::new(MutexStoreFactory { label, store: Arc::new(Mutex::new(store)) })
}

/// Wraps a sharded [`VssServer`] for the application driver: every client
/// handle is its own server session, so concurrency is provided by the
/// storage manager (per-shard locks) with no driver-side lock.
pub fn server_store(server: VssServer) -> SharedStore {
    Arc::new(ServerStoreFactory { server })
}

struct MutexStoreFactory {
    label: &'static str,
    store: Arc<Mutex<Box<dyn VideoStorage + Send>>>,
}

impl StoreFactory for MutexStoreFactory {
    fn label(&self) -> &'static str {
        self.label
    }

    fn client(&self) -> Box<dyn VideoStorage + Send> {
        Box::new(MutexStoreClient { store: Arc::clone(&self.store) })
    }
}

/// A per-client handle that takes the shared mutex around every operation.
struct MutexStoreClient {
    store: Arc<Mutex<Box<dyn VideoStorage + Send>>>,
}

impl VideoStorage for MutexStoreClient {
    fn label(&self) -> &'static str {
        self.store.lock().label()
    }

    fn create(&mut self, name: &str, budget: Option<StorageBudget>) -> Result<(), VssError> {
        self.store.lock().create(name, budget)
    }

    fn delete(&mut self, name: &str) -> Result<(), VssError> {
        self.store.lock().delete(name)
    }

    fn write(
        &mut self,
        request: &WriteRequest,
        frames: &FrameSequence,
    ) -> Result<WriteReport, VssError> {
        self.store.lock().write(request, frames)
    }

    fn append(&mut self, name: &str, frames: &FrameSequence) -> Result<WriteReport, VssError> {
        self.store.lock().append(name, frames)
    }

    fn read(&mut self, request: &ReadRequest) -> Result<ReadResult, VssError> {
        self.store.lock().read(request)
    }

    fn read_stream(&mut self, request: &ReadRequest) -> Result<ReadStream, VssError> {
        // The stream is snapshotted under the mutex and consumed outside it.
        self.store.lock().read_stream(request)
    }

    fn metadata(&self, name: &str) -> Result<VideoMetadata, VssError> {
        self.store.lock().metadata(name)
    }

    fn supports_conversion(&self, from: Codec, to: Codec) -> bool {
        self.store.lock().supports_conversion(from, to)
    }
}

struct ServerStoreFactory {
    server: VssServer,
}

impl StoreFactory for ServerStoreFactory {
    fn label(&self) -> &'static str {
        "vss-server"
    }

    fn client(&self) -> Box<dyn VideoStorage + Send> {
        // A session speaks `VideoStorage` natively; no adapter needed.
        Box::new(self.server.session())
    }
}

/// Runs all three phases once against a per-client handle from the shared
/// store factory, returning the per-phase timings.
pub fn run_client(store: &SharedStore, config: &AppConfig) -> Result<PhaseTimings, VssError> {
    run_client_with(&mut *store.client(), config)
}

/// Runs all three phases once against an explicit store handle.
pub fn run_client_with(
    store: &mut dyn VideoStorage,
    config: &AppConfig,
) -> Result<PhaseTimings, VssError> {
    let mut timings = PhaseTimings::default();

    // --- Phase 1: indexing -------------------------------------------------
    let started = Instant::now();
    let step = 1.0f64.min(config.duration);
    let mut indexed: Vec<(f64, f64, Vec<Detection>)> = Vec::new();
    let mut t = 0.0;
    while t < config.duration - 1e-9 {
        let end = (t + step).min(config.duration);
        let frames = read_as(
            store,
            config,
            t,
            end,
            Some(config.index_resolution),
            Codec::Raw(PixelFormat::Rgb8),
        )?;
        let mut detections = Vec::new();
        for (i, frame) in frames.frames().iter().enumerate() {
            if i % config.detect_every.max(1) != 0 {
                continue;
            }
            detections.extend(detect_vehicles(frame, &DetectorParams::default()));
        }
        if !detections.is_empty() {
            indexed.push((t, end, detections));
        }
        t = end;
    }
    timings.indexing = started.elapsed();
    timings.indexed_ranges = indexed.len();

    // --- Phase 2: search ---------------------------------------------------
    let started = Instant::now();
    let mut matching: Vec<(f64, f64)> = Vec::new();
    for (start, end, _) in &indexed {
        let frames = read_as(store, config, *start, *end, None, Codec::Raw(PixelFormat::Rgb8))?;
        let mut matched = false;
        for frame in frames.frames().iter().step_by(config.detect_every.max(1)) {
            for detection in detect_vehicles(frame, &DetectorParams::default()) {
                if detection.color_distance(config.target_color) <= config.color_threshold {
                    matched = true;
                    break;
                }
            }
            if matched {
                break;
            }
        }
        if matched {
            matching.push((*start, *end));
        }
    }
    timings.search = started.elapsed();
    timings.matching_ranges = matching.len();

    // --- Phase 3: streaming content retrieval -------------------------------
    // Clips are consumed GOP-at-a-time through the streaming read API — a
    // playback client needs only the chunk in hand, not the whole clip.
    let started = Instant::now();
    for (start, _) in &matching {
        let clip_end = (start + config.clip_length).min(config.duration);
        if store.supports_conversion(config.source_codec, Codec::H264) {
            let stream = store
                .read_stream(&ReadRequest::new(&config.video, *start, clip_end, Codec::H264))?;
            for chunk in stream {
                let _gop = chunk?; // hand each GOP to the (simulated) player
            }
        } else {
            // The application decodes in the stored format and transcodes
            // itself (the paper's OpenCV + local-file-system variant).
            let frames = read_as(store, config, *start, clip_end, None, Codec::Raw(PixelFormat::Rgb8))?;
            let encoder = vss_codec::EncoderConfig::default();
            vss_codec::encode_to_gops(&frames, Codec::H264, &encoder)?;
        }
        timings.clips += 1;
    }
    timings.streaming = started.elapsed();
    Ok(timings)
}

/// Runs `clients` concurrent clients against the shared store and returns the
/// per-client timings (in client order). Each client thread gets its own
/// store handle from the factory (a private session against the sharded
/// server; a mutex-sharing handle for the baseline stores).
pub fn run_clients(
    store: &SharedStore,
    config: &AppConfig,
    clients: usize,
) -> Result<Vec<PhaseTimings>, VssError> {
    let clients = clients.max(1);
    let mut handles = Vec::with_capacity(clients);
    for _ in 0..clients {
        let store = Arc::clone(store);
        let config = config.clone();
        handles.push(std::thread::spawn(move || run_client_with(&mut *store.client(), &config)));
    }
    let mut results = Vec::with_capacity(clients);
    for handle in handles {
        results.push(handle.join().expect("client thread panicked")?);
    }
    Ok(results)
}

/// Reads a range in the requested configuration, falling back to
/// application-side conversion when the store cannot convert formats.
fn read_as(
    store: &mut dyn VideoStorage,
    config: &AppConfig,
    start: f64,
    end: f64,
    resolution: Option<Resolution>,
    codec: Codec,
) -> Result<FrameSequence, VssError> {
    if store.supports_conversion(config.source_codec, codec) {
        let mut request = ReadRequest::new(&config.video, start, end, codec);
        if let Some(resolution) = resolution {
            request = request.resolution(resolution);
        }
        match store.read(&request) {
            Ok(result) => return Ok(result.frames),
            Err(VssError::Unsupported(_)) => {}
            Err(other) => return Err(other),
        }
    }
    // Store-side conversion unavailable: read in the stored format and let
    // the application convert.
    let result =
        store.read(&ReadRequest::new(&config.video, start, end, config.source_codec))?;
    let mut converted = Vec::with_capacity(result.frames.len());
    for frame in result.frames.frames() {
        let frame = match resolution {
            Some(r) if frame.resolution() != r => resize_bilinear(frame, r.width, r.height)?,
            _ => frame.clone(),
        };
        let target_format = match codec {
            Codec::Raw(format) => format,
            _ => PixelFormat::Yuv420,
        };
        converted.push(frame.convert(target_format)?);
    }
    Ok(FrameSequence::new(converted, result.frames.frame_rate())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{SceneConfig, SceneRenderer};
    use vss_baseline::LocalFs;
    use vss_core::Vss;

    fn scenario(tag: &str) -> (AppConfig, FrameSequence, std::path::PathBuf) {
        let root = std::env::temp_dir().join(format!(
            "vss-app-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        // Seed 2 puts a vehicle in both seconds that the detector finds
        // whichever way a clip was resampled. A client can be served its
        // 64×36 index frames from another client's full-resolution raw view
        // instead of the original, and at the default seed the one vehicle
        // it found was then missed, so a client that started after the
        // other had finished indexed nothing.
        let renderer = SceneRenderer::new(SceneConfig {
            resolution: Resolution::new(128, 72),
            noise_amplitude: 0,
            seed: 2,
            ..Default::default()
        });
        let frames = renderer.render_sequence(0, 60);
        let config = AppConfig {
            video: "traffic".into(),
            duration: 2.0,
            source_resolution: Resolution::new(128, 72),
            source_codec: Codec::H264,
            index_resolution: Resolution::new(64, 36),
            detect_every: 10,
            target_color: (200, 40, 40),
            color_threshold: 60.0,
            clip_length: 1.0,
        };
        (config, frames, root)
    }

    #[test]
    fn application_runs_against_vss() {
        let (config, frames, root) = scenario("vss");
        let mut store = Vss::open_at(root.join("vss")).unwrap();
        VideoStorage::write(&mut store, &WriteRequest::new(&config.video, config.source_codec), &frames)
            .unwrap();
        let shared = shared_store(Box::new(store));
        let timings = run_client(&shared, &config).unwrap();
        assert!(timings.indexed_ranges > 0, "the scene contains vehicles");
        assert!(timings.matching_ranges > 0, "a red vehicle should match");
        assert_eq!(timings.clips, timings.matching_ranges);
        assert!(timings.total() > Duration::ZERO);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn application_runs_against_local_fs_with_app_side_conversion() {
        let (config, frames, root) = scenario("fs");
        let mut store = LocalFs::new(root.join("fs")).unwrap();
        store.write(&WriteRequest::new(&config.video, config.source_codec), &frames).unwrap();
        let shared = shared_store(Box::new(store));
        let timings = run_client(&shared, &config).unwrap();
        assert!(timings.indexed_ranges > 0);
        assert!(timings.clips > 0);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn multiple_clients_complete() {
        let (config, frames, root) = scenario("multi");
        let mut store = Vss::open_at(root.join("vss")).unwrap();
        VideoStorage::write(&mut store, &WriteRequest::new(&config.video, config.source_codec), &frames)
            .unwrap();
        let shared = shared_store(Box::new(store));
        assert_eq!(shared.label(), "vss");
        let results = run_clients(&shared, &config, 2).unwrap();
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|t| t.indexed_ranges > 0));
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn application_runs_against_the_sharded_server_without_a_driver_lock() {
        let (config, frames, root) = scenario("server");
        let server = vss_server::VssServer::open_sharded(
            vss_core::VssConfig::new(root.join("server")),
            4,
        )
        .unwrap();
        server
            .session()
            .write(&WriteRequest::new(&config.video, config.source_codec), &frames)
            .unwrap();
        let shared = server_store(server.clone());
        assert_eq!(shared.label(), "vss-server");
        let results = run_clients(&shared, &config, 2).unwrap();
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|t| t.indexed_ranges > 0));
        assert!(results.iter().all(|t| t.clips == t.matching_ranges));
        // Each client ran on its own session against the shard owning the
        // video; the server accounted their reads.
        assert!(server.stats().total_read_ops() > 0);
        let _ = std::fs::remove_dir_all(root);
    }
}
