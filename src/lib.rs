//! # vss
//!
//! Facade crate for the VSS reproduction (SIGMOD 2021, "VSS: A Storage System
//! for Video Analytics"). It re-exports the public API of every workspace
//! crate so examples and downstream users can depend on a single crate:
//!
//! ```no_run
//! use vss::prelude::*;
//! ```
//!
//! The individual subsystems remain available as modules:
//!
//! * [`frame`] — raw frames, pixel formats, resampling and quality metrics.
//! * [`codec`] — the simulated H.264/HEVC video codecs, lossless codec,
//!   GOP model and transcode cost tables.
//! * [`vision`] — keypoints, homography estimation, perspective warps,
//!   colour histograms and BIRCH clustering.
//! * [`solver`] — the fragment-selection optimizer used by reads.
//! * [`catalog`] — on-disk layout, metadata catalog and temporal index.
//! * [`core`] — the VSS storage manager itself (create/write/read/delete,
//!   caching, deferred compression, joint compression).
//! * [`live`] — live ingest pub/sub: the per-video broadcast hub fanning
//!   freshly persisted GOPs to tailing subscribers with lag-tolerant
//!   catch-up.
//! * [`server`] — the sharded multi-client service layer (per-client
//!   sessions, admission control, graceful shutdown, live subscriptions).
//! * [`net`] — the streaming wire protocol with its TCP server and
//!   [`RemoteStore`](vss_net::RemoteStore) client, making VSS a
//!   multi-process service.
//! * [`baseline`] — the Local-FS and VStore-like baseline storage engines.
//! * [`workload`] — synthetic datasets, query generators and the end-to-end
//!   application driver used by the benchmark harness.

pub use vss_baseline as baseline;
pub use vss_catalog as catalog;
pub use vss_codec as codec;
pub use vss_core as core;
pub use vss_frame as frame;
pub use vss_live as live;
pub use vss_net as net;
pub use vss_server as server;
pub use vss_solver as solver;
pub use vss_vision as vision;
pub use vss_workload as workload;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use vss_codec::{Codec, VideoCodec};
    pub use vss_core::{
        PhysicalParameters, PlannerKind, ReadChunk, ReadRequest, ReadStream, SpatialParameters,
        TemporalRange, VideoStorage, Vss, VssConfig, WriteRequest, WriteSink,
    };
    pub use vss_frame::{Frame, FrameSequence, PixelFormat, RegionOfInterest, Resolution};
    pub use vss_live::{LiveGop, SubEvent, SubscribeFrom, Subscription};
}
