//! # vss-baseline
//!
//! Baseline storage engines the paper evaluates VSS against (Section 6):
//!
//! * [`LocalFs`] — videos are stored as one monolithic encoded file per
//!   logical video on the local file system. Reads in the stored format are
//!   plain file reads; the local file system performs no automatic
//!   transcoding, so cross-format reads are unsupported (applications must
//!   decode/convert themselves, as the paper's OpenCV variant does).
//! * [`VStoreLike`] — models VStore's defining behaviour: the set of formats
//!   to materialize must be declared *a priori*, the whole video is staged in
//!   every declared format at write time, and reads are served only for
//!   staged formats.
//!
//! Both implement [`vss_core::VideoStorage`] — the same unified contract the
//! VSS engine ([`vss_core::Vss`]) and the sharded `vss-server` sessions
//! implement — so the benchmark harness and the end-to-end application
//! driver swap stores without code changes. Unsupported conversions surface
//! as [`VssError::Unsupported`]. Their streaming behaviour is honest about
//! the architecture the paper criticizes: `read_stream` still reads the
//! **whole monolithic file** before the first chunk decodes (GOP-at-a-time
//! decode, O(file) I/O), and `write_sink` falls back to buffering the clip
//! and batch-writing at finish — contrast with VSS, where both directions
//! are O(GOP).

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;
use vss_codec::{codec_instance, encode_to_gops, Codec, EncodedGop, EncoderConfig};
use vss_core::{
    ChunkStats, ReadChunk, ReadRequest, ReadResult, ReadStream, StorageBudget, VideoMetadata,
    VideoStorage, VssError, WriteReport, WriteRequest,
};
use vss_frame::FrameSequence;

/// Errors produced by the baseline stores (legacy vocabulary; the
/// [`VideoStorage`] methods speak [`VssError`] directly, and the two convert
/// into each other without information loss).
#[derive(Debug)]
pub enum BaselineError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The store does not support the requested operation (e.g. a format
    /// conversion the local file system cannot perform).
    Unsupported(String),
    /// The named video does not exist.
    NotFound(String),
    /// An error from the codec layer.
    Codec(vss_codec::CodecError),
    /// An error from the VSS adapter.
    Vss(vss_core::VssError),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::Io(e) => write!(f, "I/O error: {e}"),
            BaselineError::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
            BaselineError::NotFound(name) => write!(f, "video '{name}' not found"),
            BaselineError::Codec(e) => write!(f, "codec error: {e}"),
            BaselineError::Vss(e) => write!(f, "vss error: {e}"),
        }
    }
}

impl std::error::Error for BaselineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BaselineError::Io(e) => Some(e),
            BaselineError::Codec(e) => Some(e),
            BaselineError::Vss(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for BaselineError {
    fn from(e: std::io::Error) -> Self {
        BaselineError::Io(e)
    }
}
impl From<vss_codec::CodecError> for BaselineError {
    fn from(e: vss_codec::CodecError) -> Self {
        BaselineError::Codec(e)
    }
}
impl From<vss_core::VssError> for BaselineError {
    // Deliberately exhaustive (no `_`/catch-all arm) so that adding a
    // `VssError` variant forces a decision here — and in the `vss-net` wire
    // mapping — instead of silently degrading to a generic wrapper.
    fn from(e: vss_core::VssError) -> Self {
        match e {
            VssError::Unsupported(msg) => BaselineError::Unsupported(msg),
            VssError::VideoNotFound(name) => BaselineError::NotFound(name),
            VssError::Codec(e) => BaselineError::Codec(e),
            VssError::Catalog(vss_catalog::CatalogError::Io(e)) => BaselineError::Io(e),
            other @ (VssError::VideoExists(_)
            | VssError::OutOfRange { .. }
            | VssError::EmptyWrite
            | VssError::Unsatisfiable(_)
            | VssError::JointCompressionAborted(_)
            | VssError::Overloaded(_)
            | VssError::Remote { .. }
            | VssError::Catalog(_)
            | VssError::Frame(_)
            | VssError::Solver(_)
            | VssError::Vision(_)) => BaselineError::Vss(other),
        }
    }
}

/// The inverse mapping, so call sites can mix baseline stores and VSS behind
/// one `Result<_, VssError>` without hand-mapping errors.
impl From<BaselineError> for VssError {
    fn from(e: BaselineError) -> Self {
        match e {
            BaselineError::Io(e) => VssError::Catalog(vss_catalog::CatalogError::Io(e)),
            BaselineError::Unsupported(msg) => VssError::Unsupported(msg),
            BaselineError::NotFound(name) => VssError::VideoNotFound(name),
            BaselineError::Codec(e) => VssError::Codec(e),
            BaselineError::Vss(e) => e,
        }
    }
}

fn io_error(e: std::io::Error) -> VssError {
    VssError::Catalog(vss_catalog::CatalogError::Io(e))
}

/// Builds the GOP-at-a-time chunk iterator shared by both baselines: decode
/// each overlapping GOP, keep the frames inside `[start, end)`, and (for
/// same-codec compressed requests) hand the stored GOP through GOP-aligned.
/// `file_bytes` — the monolithic read both baselines pay up front — is
/// attributed to the first chunk.
#[allow(clippy::too_many_arguments)]
fn baseline_chunks(
    gops: Vec<EncodedGop>,
    codec: Codec,
    frame_rate: f64,
    start: f64,
    end: f64,
    file_bytes: u64,
    emit_encoded: bool,
) -> impl Iterator<Item = Result<ReadChunk, VssError>> + Send {
    let mut time = 0.0f64;
    let mut positioned = Vec::with_capacity(gops.len());
    for gop in gops {
        let duration = gop.frame_count() as f64 / frame_rate;
        let gop_start = time;
        time += duration;
        if gop_start + duration > start && gop_start < end {
            positioned.push((gop, gop_start));
        }
    }
    let mut first = true;
    positioned.into_iter().map(move |(gop, gop_start)| {
        let implementation = codec_instance(codec);
        let decoded = implementation.decode(&gop)?;
        let mut frames = FrameSequence::empty(frame_rate)?;
        for (i, frame) in decoded.frames().iter().enumerate() {
            let t = gop_start + i as f64 / frame_rate;
            if t >= start && t < end {
                frames.push(frame.clone())?;
            }
        }
        let frames_decoded = decoded.len();
        let bytes_read = if first { file_bytes } else { 0 };
        first = false;
        Ok(ReadChunk {
            frames,
            encoded_gop: if emit_encoded { Some(gop) } else { None },
            stats_delta: ChunkStats { gops_read: 1, frames_decoded, bytes_read },
        })
    })
}

/// Validates the request shapes neither baseline can serve (they store one
/// fixed configuration and perform no resampling).
fn reject_resampling(request: &ReadRequest, label: &str) -> Result<(), VssError> {
    if request.spatial.resolution.is_some() {
        return Err(VssError::Unsupported(format!("{label} cannot rescale")));
    }
    if request.spatial.region.is_some() {
        return Err(VssError::Unsupported(format!("{label} cannot crop")));
    }
    if request.temporal.frame_rate.is_some() {
        return Err(VssError::Unsupported(format!("{label} cannot resample frame rates")));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Local file system baseline
// ---------------------------------------------------------------------------

struct LocalFsVideo {
    codec: Codec,
    frame_rate: f64,
    gops: Vec<EncodedGop>,
    path: PathBuf,
}

impl LocalFsVideo {
    fn duration(&self) -> f64 {
        self.gops.iter().map(|g| g.frame_count()).sum::<usize>() as f64 / self.frame_rate
    }

    fn write_file(&self) -> Result<u64, VssError> {
        let mut file_bytes = Vec::new();
        for gop in &self.gops {
            let bytes = gop.as_bytes();
            file_bytes.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            file_bytes.extend_from_slice(bytes);
        }
        fs::write(&self.path, &file_bytes).map_err(io_error)?;
        Ok(file_bytes.len() as u64)
    }
}

/// The local-file-system baseline: one monolithic encoded file per video.
pub struct LocalFs {
    root: PathBuf,
    encoder: EncoderConfig,
    videos: BTreeMap<String, LocalFsVideo>,
}

impl LocalFs {
    /// Creates a store rooted at a directory.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self, VssError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(io_error)?;
        Ok(Self { root, encoder: EncoderConfig::default(), videos: BTreeMap::new() })
    }

    fn video(&self, name: &str) -> Result<&LocalFsVideo, VssError> {
        self.videos.get(name).ok_or_else(|| VssError::VideoNotFound(name.into()))
    }
}

impl VideoStorage for LocalFs {
    fn label(&self) -> &'static str {
        "local-fs"
    }

    fn create(&mut self, name: &str, budget: Option<StorageBudget>) -> Result<(), VssError> {
        if budget.is_some() {
            return Err(VssError::Unsupported(
                "local file system enforces no storage budgets".into(),
            ));
        }
        // Videos materialize on first write; nothing to record.
        let _ = name;
        Ok(())
    }

    fn delete(&mut self, name: &str) -> Result<(), VssError> {
        let video =
            self.videos.remove(name).ok_or_else(|| VssError::VideoNotFound(name.into()))?;
        if video.path.exists() {
            fs::remove_file(&video.path).map_err(io_error)?;
        }
        Ok(())
    }

    fn write(
        &mut self,
        request: &WriteRequest,
        frames: &FrameSequence,
    ) -> Result<WriteReport, VssError> {
        let started = Instant::now();
        if frames.is_empty() {
            return Err(VssError::EmptyWrite);
        }
        let gops = encode_to_gops(frames, request.codec, &self.encoder)?;
        let path = self.root.join(format!("{}.{}", request.name, request.codec.name()));
        let video = LocalFsVideo {
            codec: request.codec,
            frame_rate: frames.frame_rate(),
            gops,
            path,
        };
        let bytes_written = video.write_file()?;
        let gops_written = video.gops.len();
        self.videos.insert(request.name.clone(), video);
        Ok(WriteReport {
            physical_id: 0,
            gops_written,
            frames_written: frames.len(),
            bytes_written,
            deferred_levels: vec![0; gops_written],
            elapsed: started.elapsed(),
        })
    }

    fn append(&mut self, name: &str, frames: &FrameSequence) -> Result<WriteReport, VssError> {
        let started = Instant::now();
        if frames.is_empty() {
            return Err(VssError::EmptyWrite);
        }
        let encoder = self.encoder;
        let video =
            self.videos.get_mut(name).ok_or_else(|| VssError::VideoNotFound(name.into()))?;
        if (frames.frame_rate() - video.frame_rate).abs() > 1e-9 {
            return Err(VssError::Unsupported("append must match the stored frame rate".into()));
        }
        let new_gops = encode_to_gops(frames, video.codec, &encoder)?;
        let gops_written = new_gops.len();
        let before = fs::metadata(&video.path).map(|m| m.len()).unwrap_or(0);
        video.gops.extend(new_gops);
        // The monolithic file is rewritten in full — the baseline's append
        // cost the paper's GOP-file layout avoids.
        let total = video.write_file()?;
        Ok(WriteReport {
            physical_id: 0,
            gops_written,
            frames_written: frames.len(),
            bytes_written: total - before,
            deferred_levels: vec![0; gops_written],
            elapsed: started.elapsed(),
        })
    }

    fn read(&mut self, request: &ReadRequest) -> Result<ReadResult, VssError> {
        self.read_stream(request)?.drain()
    }

    fn read_stream(&mut self, request: &ReadRequest) -> Result<ReadStream, VssError> {
        reject_resampling(request, "local file system")?;
        let video = self.video(&request.name)?;
        if request.physical.codec != video.codec {
            return Err(VssError::Unsupported(format!(
                "local file system cannot convert {} to {}",
                video.codec, request.physical.codec
            )));
        }
        // The whole monolithic file is read up front — decoding is then
        // GOP-at-a-time, but the I/O is O(file) by construction.
        let file_bytes = fs::read(&video.path).map_err(io_error)?.len() as u64;
        let compressed = request.physical.codec.is_compressed();
        let chunks = baseline_chunks(
            video.gops.clone(),
            video.codec,
            video.frame_rate,
            request.temporal.start,
            request.temporal.end,
            file_bytes,
            compressed,
        );
        Ok(ReadStream::from_chunks(video.frame_rate, compressed, chunks))
    }

    fn metadata(&self, name: &str) -> Result<VideoMetadata, VssError> {
        let video = self.video(name)?;
        let bytes_used = fs::metadata(&video.path).map(|m| m.len()).unwrap_or(0);
        Ok(VideoMetadata {
            bytes_used,
            budget_bytes: None,
            time_range: Some((0.0, video.duration())),
        })
    }

    fn supports_conversion(&self, from: Codec, to: Codec) -> bool {
        from == to
    }
}

// ---------------------------------------------------------------------------
// VStore-like baseline
// ---------------------------------------------------------------------------

/// A VStore-like baseline: formats must be declared in advance, the whole
/// video is materialized in every declared format at write time, and reads
/// are served only for staged formats.
pub struct VStoreLike {
    root: PathBuf,
    encoder: EncoderConfig,
    staged_formats: Vec<Codec>,
    videos: BTreeMap<String, BTreeMap<String, StagedVideo>>,
}

/// One staged representation: frame rate, encoded GOPs and backing path.
type StagedVideo = (f64, Vec<EncodedGop>, PathBuf);

impl VStoreLike {
    /// Creates a store that will stage the given formats for every written
    /// video (the a-priori workload knowledge VStore requires).
    pub fn new(root: impl Into<PathBuf>, staged_formats: Vec<Codec>) -> Result<Self, VssError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(io_error)?;
        Ok(Self { root, encoder: EncoderConfig::default(), staged_formats, videos: BTreeMap::new() })
    }
}

impl VideoStorage for VStoreLike {
    fn label(&self) -> &'static str {
        "vstore-like"
    }

    fn create(&mut self, name: &str, budget: Option<StorageBudget>) -> Result<(), VssError> {
        if budget.is_some() {
            return Err(VssError::Unsupported("vstore-like enforces no storage budgets".into()));
        }
        let _ = name;
        Ok(())
    }

    fn delete(&mut self, name: &str) -> Result<(), VssError> {
        let staged =
            self.videos.remove(name).ok_or_else(|| VssError::VideoNotFound(name.into()))?;
        for (_, (_, _, path)) in staged {
            if path.exists() {
                fs::remove_file(path).map_err(io_error)?;
            }
        }
        Ok(())
    }

    fn write(
        &mut self,
        request: &WriteRequest,
        frames: &FrameSequence,
    ) -> Result<WriteReport, VssError> {
        let started = Instant::now();
        if frames.is_empty() {
            return Err(VssError::EmptyWrite);
        }
        let mut staged = BTreeMap::new();
        let mut bytes_written = 0u64;
        let mut gops_written = 0usize;
        let mut formats = self.staged_formats.clone();
        if !formats.contains(&request.codec) {
            formats.push(request.codec);
        }
        // VStore materializes the complete video in every pre-declared
        // format, even if only a small subset will ever be read.
        for format in formats {
            let gops = encode_to_gops(frames, format, &self.encoder)?;
            let path = self.root.join(format!("{}.{}", request.name, format.name()));
            let mut file_bytes = Vec::new();
            for gop in &gops {
                file_bytes.extend_from_slice(gop.as_bytes());
            }
            fs::write(&path, &file_bytes).map_err(io_error)?;
            bytes_written += file_bytes.len() as u64;
            gops_written += gops.len();
            staged.insert(format.name(), (frames.frame_rate(), gops, path));
        }
        self.videos.insert(request.name.clone(), staged);
        Ok(WriteReport {
            physical_id: 0,
            gops_written,
            frames_written: frames.len(),
            bytes_written,
            deferred_levels: vec![0; gops_written],
            elapsed: started.elapsed(),
        })
    }

    fn append(&mut self, name: &str, _frames: &FrameSequence) -> Result<WriteReport, VssError> {
        let _ = self.videos.get(name).ok_or_else(|| VssError::VideoNotFound(name.into()))?;
        Err(VssError::Unsupported(
            "vstore-like staging materializes whole videos at write time; append would restage \
             every declared format"
                .into(),
        ))
    }

    fn read(&mut self, request: &ReadRequest) -> Result<ReadResult, VssError> {
        self.read_stream(request)?.drain()
    }

    fn read_stream(&mut self, request: &ReadRequest) -> Result<ReadStream, VssError> {
        reject_resampling(request, "vstore-like staging")?;
        let video = self
            .videos
            .get(&request.name)
            .ok_or_else(|| VssError::VideoNotFound(request.name.clone()))?;
        let codec = request.physical.codec;
        let Some((frame_rate, gops, path)) = video.get(codec.name().as_str()) else {
            return Err(VssError::Unsupported(format!(
                "format {codec} was not staged at write time"
            )));
        };
        let file_bytes = fs::metadata(path).map_err(io_error)?.len();
        let compressed = codec.is_compressed();
        let chunks = baseline_chunks(
            gops.clone(),
            codec,
            *frame_rate,
            request.temporal.start,
            request.temporal.end,
            file_bytes,
            compressed,
        );
        Ok(ReadStream::from_chunks(*frame_rate, compressed, chunks))
    }

    fn metadata(&self, name: &str) -> Result<VideoMetadata, VssError> {
        let staged =
            self.videos.get(name).ok_or_else(|| VssError::VideoNotFound(name.into()))?;
        let mut bytes_used = 0u64;
        let mut duration = 0.0f64;
        for (frame_rate, gops, path) in staged.values() {
            bytes_used += fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            duration = duration
                .max(gops.iter().map(|g| g.frame_count()).sum::<usize>() as f64 / frame_rate);
        }
        Ok(VideoMetadata { bytes_used, budget_bytes: None, time_range: Some((0.0, duration)) })
    }

    fn supports_conversion(&self, _from: Codec, to: Codec) -> bool {
        self.staged_formats.contains(&to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vss_frame::{pattern, PixelFormat, Resolution};

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vss-baseline-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sequence(frames: usize) -> FrameSequence {
        let frames: Vec<_> =
            (0..frames).map(|i| pattern::gradient(64, 48, PixelFormat::Yuv420, i as u64)).collect();
        FrameSequence::new(frames, 30.0).unwrap()
    }

    #[test]
    fn local_fs_round_trips_same_format_only() {
        let root = temp_root("localfs");
        let mut store = LocalFs::new(&root).unwrap();
        let written = store.write(&WriteRequest::new("v", Codec::H264), &sequence(60)).unwrap();
        assert!(written.bytes_written > 0);
        let read = store.read(&ReadRequest::new("v", 0.5, 1.5, Codec::H264)).unwrap();
        assert_eq!(read.frames.len(), 30);
        assert!(read.stats.bytes_read >= written.bytes_written);
        assert!(read.encoded.as_ref().is_some_and(|g| !g.is_empty()), "same-codec GOPs pass through");
        assert!(matches!(
            store.read(&ReadRequest::new("v", 0.0, 1.0, Codec::Hevc)),
            Err(VssError::Unsupported(_))
        ));
        assert!(matches!(
            store.read(&ReadRequest::new("v", 0.0, 1.0, Codec::H264).resolution(Resolution::QVGA)),
            Err(VssError::Unsupported(_))
        ));
        assert!(matches!(
            store.read(&ReadRequest::new("missing", 0.0, 1.0, Codec::H264)),
            Err(VssError::VideoNotFound(_))
        ));
        assert!(VideoStorage::supports_conversion(&store, Codec::H264, Codec::H264));
        assert!(!VideoStorage::supports_conversion(&store, Codec::H264, Codec::Hevc));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn local_fs_streaming_matches_materialized_reads() {
        let root = temp_root("localfs-stream");
        let mut store = LocalFs::new(&root).unwrap();
        store.write(&WriteRequest::new("v", Codec::H264), &sequence(90)).unwrap();
        let request = ReadRequest::new("v", 0.5, 2.5, Codec::H264);
        let materialized = store.read(&request).unwrap();
        let mut streamed = FrameSequence::empty(30.0).unwrap();
        let mut chunks = 0;
        for chunk in store.read_stream(&request).unwrap() {
            streamed.extend(chunk.unwrap().frames).unwrap();
            chunks += 1;
        }
        assert!(chunks >= 2, "GOP-at-a-time chunking yields multiple chunks");
        assert_eq!(streamed.frames(), materialized.frames.frames());
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn local_fs_lifecycle_append_delete_metadata() {
        let root = temp_root("localfs-lifecycle");
        let mut store = LocalFs::new(&root).unwrap();
        store.create("v", None).unwrap();
        assert!(matches!(
            store.create("v", Some(StorageBudget::Bytes(1))),
            Err(VssError::Unsupported(_))
        ));
        store.write(&WriteRequest::new("v", Codec::H264), &sequence(30)).unwrap();
        store.append("v", &sequence(30)).unwrap();
        let metadata = store.metadata("v").unwrap();
        assert!(metadata.bytes_used > 0);
        assert_eq!(metadata.budget_bytes, None);
        let (start, end) = metadata.time_range.unwrap();
        assert_eq!(start, 0.0);
        assert!((end - 2.0).abs() < 1e-9);
        let read = store.read(&ReadRequest::new("v", 0.0, 2.0, Codec::H264)).unwrap();
        assert_eq!(read.frames.len(), 60);
        store.delete("v").unwrap();
        assert!(matches!(store.metadata("v"), Err(VssError::VideoNotFound(_))));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn vstore_like_serves_only_staged_formats_and_pays_full_staging_cost() {
        let root = temp_root("vstore");
        let mut staged =
            VStoreLike::new(&root, vec![Codec::H264, Codec::Raw(PixelFormat::Yuv420)]).unwrap();
        let written = staged.write(&WriteRequest::new("v", Codec::H264), &sequence(30)).unwrap();
        // The raw staging dominates: the whole video exists in both formats.
        let raw_size = PixelFormat::Yuv420.frame_bytes(64, 48) * 30;
        assert!(written.bytes_written as usize > raw_size);
        assert!(staged.read(&ReadRequest::new("v", 0.0, 1.0, Codec::Raw(PixelFormat::Yuv420))).is_ok());
        assert!(staged.read(&ReadRequest::new("v", 0.0, 1.0, Codec::H264)).is_ok());
        assert!(matches!(
            staged.read(&ReadRequest::new("v", 0.0, 1.0, Codec::Hevc)),
            Err(VssError::Unsupported(_))
        ));
        assert!(matches!(staged.append("v", &sequence(3)), Err(VssError::Unsupported(_))));
        assert!(VideoStorage::supports_conversion(&staged, Codec::H264, Codec::Raw(PixelFormat::Yuv420)));
        assert!(!VideoStorage::supports_conversion(&staged, Codec::H264, Codec::Hevc));
        let metadata = staged.metadata("v").unwrap();
        assert!(metadata.bytes_used as usize > raw_size);
        staged.delete("v").unwrap();
        assert!(staged.metadata("v").is_err());
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn vss_handle_serves_any_conversion_through_the_same_trait() {
        let root = temp_root("vss-handle");
        let mut vss = vss_core::Vss::open_at(&root).unwrap();
        // Drive the handle through the unified trait, as the workload does.
        let store: &mut dyn VideoStorage = &mut vss;
        store.write(&WriteRequest::new("v", Codec::H264), &sequence(60)).unwrap();
        let read = store.read(&ReadRequest::new("v", 0.0, 1.0, Codec::Hevc)).unwrap();
        assert_eq!(read.frames.len(), 30);
        let scaled = store
            .read(
                &ReadRequest::new("v", 0.0, 1.0, Codec::Raw(PixelFormat::Rgb8))
                    .resolution(Resolution::new(32, 24)),
            )
            .unwrap();
        assert_eq!(scaled.frames.frames()[0].width(), 32);
        assert!(VideoStorage::supports_conversion(store, Codec::H264, Codec::Hevc));
        assert_eq!(VideoStorage::label(store), "vss");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn errors_convert_in_both_directions_with_sources() {
        let vss: VssError = BaselineError::NotFound("v".into()).into();
        assert!(matches!(vss, VssError::VideoNotFound(_)));
        let vss: VssError = BaselineError::Unsupported("x".into()).into();
        assert!(matches!(vss, VssError::Unsupported(_)));
        let baseline: BaselineError = VssError::Unsupported("x".into()).into();
        assert!(matches!(baseline, BaselineError::Unsupported(_)));
        let baseline: BaselineError = VssError::VideoNotFound("v".into()).into();
        assert!(matches!(baseline, BaselineError::NotFound(_)));
        // Round trip through both directions preserves the category.
        let io = BaselineError::Io(std::io::Error::other("boom"));
        assert!(std::error::Error::source(&io).is_some(), "Io carries its source");
        let as_vss: VssError = io.into();
        assert!(std::error::Error::source(&as_vss).is_some(), "source survives conversion");
        assert!(as_vss.to_string().contains("boom"));
    }
}
