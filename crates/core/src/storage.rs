//! The unified client contract over every video store.
//!
//! [`VideoStorage`] is the one trait through which applications, the workload
//! driver and the benchmark harness speak to **any** store: a
//! [`Vss`](crate::Vss) (one shard), a `vss-server` session routing to one of
//! N of them, a `vss-net` remote store, or the paper's baseline stores
//! (`vss-baseline`). A bare [`Engine`] is not a store: it is what a `Vss`
//! locks. It covers
//! the paper's four operations (`create`, `write`, `read`, `delete`) plus
//! streaming ingest (`append`, [`write_sink`](VideoStorage::write_sink)),
//! GOP-at-a-time streaming reads ([`read_stream`](VideoStorage::read_stream))
//! and storage accounting ([`metadata`](VideoStorage::metadata)).
//!
//! Baselines that cannot perform a conversion (the local file system cannot
//! transcode; VStore-like staging serves only pre-declared formats) return
//! [`VssError::Unsupported`]; [`supports_conversion`](VideoStorage::supports_conversion)
//! lets drivers ask first, as the paper's application does.

use crate::engine::{Engine, WriteReport};
use crate::params::{ReadRequest, StorageBudget, WriteRequest};
use crate::read::ReadResult;
use crate::sink::{BufferedSinkBackend, WriteSink};
use crate::stream::ReadStream;
use crate::VssError;
use vss_codec::Codec;
use vss_frame::FrameSequence;

/// Storage accounting for one logical video, uniform across stores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VideoMetadata {
    /// Bytes used across all physical representations.
    pub bytes_used: u64,
    /// Resolved storage budget in bytes, if the store enforces one.
    pub budget_bytes: Option<u64>,
    /// Time range `[start, end)` in seconds covered by the stored data, if
    /// anything has been written.
    pub time_range: Option<(f64, f64)>,
}

/// The unified interface over VSS and the baseline stores. See the
/// [module docs](self).
pub trait VideoStorage {
    /// Human-readable store name used in benchmark output.
    fn label(&self) -> &'static str;

    /// Creates a logical video, optionally with an explicit storage budget.
    fn create(&mut self, name: &str, budget: Option<StorageBudget>) -> Result<(), VssError>;

    /// Deletes a logical video and all of its data.
    fn delete(&mut self, name: &str) -> Result<(), VssError>;

    /// Writes a frame sequence to a logical video (creating it if needed).
    fn write(
        &mut self,
        request: &WriteRequest,
        frames: &FrameSequence,
    ) -> Result<WriteReport, VssError>;

    /// Appends frames to a logical video's existing data (streaming ingest).
    fn append(&mut self, name: &str, frames: &FrameSequence) -> Result<WriteReport, VssError>;

    /// Executes a materialized read.
    fn read(&mut self, request: &ReadRequest) -> Result<ReadResult, VssError>;

    /// Opens a GOP-at-a-time streaming read. Draining the stream is
    /// byte-identical to [`read`](Self::read) of the same request (VSS stores
    /// guarantee this by construction; baselines decode the same GOPs either
    /// way). Streaming reads never admit results to a cache.
    fn read_stream(&mut self, request: &ReadRequest) -> Result<ReadStream, VssError>;

    /// Opens an incremental write: frames are pushed GOP-at-a-time and
    /// persisted as they fill (stores that cannot persist incrementally —
    /// the monolithic-file baselines — buffer and batch-write at finish,
    /// which is exactly their O(clip) cost the paper measures).
    fn write_sink(
        &mut self,
        request: &WriteRequest,
        frame_rate: f64,
    ) -> Result<WriteSink<'_>, VssError> {
        Ok(WriteSink::from_backend(
            Box::new(BufferedSinkBackend {
                store: self,
                request: request.clone(),
                frame_rate,
                frames: Vec::new(),
            }),
            frame_rate,
            usize::MAX,
        ))
    }

    /// Storage accounting for one logical video.
    fn metadata(&self, name: &str) -> Result<VideoMetadata, VssError>;

    /// True if the store can serve a read converting `from` into `to`.
    fn supports_conversion(&self, from: Codec, to: Codec) -> bool {
        let _ = (from, to);
        true
    }
}

impl Engine {
    /// Storage accounting for one logical video (the [`VideoStorage`]
    /// `metadata` operation).
    pub fn metadata(&self, name: &str) -> Result<VideoMetadata, VssError> {
        Ok(VideoMetadata {
            bytes_used: self.bytes_used(name)?,
            budget_bytes: self.budget_bytes(name)?,
            time_range: self.video_time_range(name).ok(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_support::{temp_engine, temp_vss};
    use vss_frame::{pattern, PixelFormat};

    fn sequence(frames: usize) -> FrameSequence {
        let frames: Vec<_> =
            (0..frames).map(|i| pattern::gradient(64, 48, PixelFormat::Yuv420, i as u64)).collect();
        FrameSequence::new(frames, 30.0).unwrap()
    }

    fn drive(store: &mut dyn VideoStorage) {
        store.create("v", None).unwrap();
        let report = store.write(&WriteRequest::new("v", Codec::H264), &sequence(60)).unwrap();
        assert_eq!(report.frames_written, 60);
        store.append("v", &sequence(30)).unwrap();
        let read = store.read(&ReadRequest::new("v", 0.0, 1.0, Codec::H264).uncacheable()).unwrap();
        assert_eq!(read.frames.len(), 30);
        let streamed = store
            .read_stream(&ReadRequest::new("v", 0.0, 1.0, Codec::H264).uncacheable())
            .unwrap()
            .drain()
            .unwrap();
        assert_eq!(streamed.frames.frames(), read.frames.frames());
        let metadata = store.metadata("v").unwrap();
        assert!(metadata.bytes_used > 0);
        assert_eq!(metadata.time_range.map(|(s, _)| s), Some(0.0));
        assert!(store.supports_conversion(Codec::H264, Codec::Hevc));
        store.delete("v").unwrap();
        assert!(store.metadata("v").is_err());
    }

    /// Object-safety and `Send` audit: every store — including `vss-net`'s
    /// `RemoteStore` — is consumed as `Box<dyn VideoStorage + Send>`, and the
    /// streaming handles cross threads (client-side socket readers, workload
    /// client threads). A compile failure here means a trait or handle change
    /// broke the multi-process service layer.
    #[test]
    fn trait_stays_object_safe_and_streams_stay_send() {
        fn assert_send<T: Send>() {}
        // `WriteSink` is deliberately not `Send`: its backend may borrow a
        // non-thread-safe store (the buffered baseline fallback). Streams are
        // free-standing snapshots and must stay movable across threads.
        assert_send::<ReadStream>();
        fn dynamic(_store: &mut dyn VideoStorage) {}
        let (mut vss, root) = temp_vss("storage-object-safety");
        dynamic(&mut vss);
        let boxed: Box<dyn VideoStorage + Send> = Box::new(vss);
        assert_eq!(boxed.label(), "vss");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn vss_implements_the_unified_contract() {
        let (mut vss, root) = temp_vss("storage-vss");
        drive(&mut vss);
        assert_eq!(VideoStorage::label(&vss), "vss");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn default_write_sink_buffers_then_batch_writes() {
        let (mut engine, root) = temp_engine("storage-buffered-sink");
        // Route through the default (buffered) sink implementation by going
        // through a trait object whose concrete override we bypass on purpose.
        struct Passthrough<'a>(&'a mut Engine);
        impl VideoStorage for Passthrough<'_> {
            fn label(&self) -> &'static str {
                "passthrough"
            }
            fn create(&mut self, name: &str, budget: Option<StorageBudget>) -> Result<(), VssError> {
                self.0.create_video(name, budget)
            }
            fn delete(&mut self, name: &str) -> Result<(), VssError> {
                self.0.delete_video(name)
            }
            fn write(
                &mut self,
                request: &WriteRequest,
                frames: &FrameSequence,
            ) -> Result<WriteReport, VssError> {
                self.0.write(request, frames)
            }
            fn append(&mut self, name: &str, frames: &FrameSequence) -> Result<WriteReport, VssError> {
                self.0.append(name, frames)
            }
            fn read(&mut self, request: &ReadRequest) -> Result<ReadResult, VssError> {
                self.0.read(request)
            }
            fn read_stream(&mut self, request: &ReadRequest) -> Result<ReadStream, VssError> {
                self.0.read_stream(request)
            }
            fn metadata(&self, name: &str) -> Result<VideoMetadata, VssError> {
                self.0.metadata(name)
            }
        }
        let mut store = Passthrough(&mut engine);
        let mut sink = store.write_sink(&WriteRequest::new("v", Codec::H264), 30.0).unwrap();
        sink.push_sequence(&sequence(45)).unwrap();
        let report = sink.finish().unwrap();
        assert_eq!(report.frames_written, 45);
        assert_eq!(report.gops_written, 2);
        let _ = std::fs::remove_dir_all(root);
    }
}
