//! # vss-workload
//!
//! Synthetic datasets, query workloads and application drivers used to
//! evaluate the VSS reproduction.
//!
//! * [`scene`] — a deterministic procedural traffic-scene renderer producing
//!   temporally coherent, overlapping camera views with ground-truth vehicle
//!   positions (the stand-in for RobotCar, Waymo and Visual Road video).
//! * [`datasets`] — presets mirroring the paper's Table 1, generated at a
//!   configurable scale.
//! * [`queries`] — deterministic random read workloads used to populate the
//!   cache in the read-performance and eviction experiments.
//! * [`detector`] — a lightweight vehicle detector and colour matcher (the
//!   stand-in for YOLOv4 in the end-to-end application).
//! * [`app`] — the three-phase traffic-monitoring application driver
//!   (indexing / search / streaming) with multi-client support.
//! * [`pairs`] — oracle and random joint-compression pair-selection
//!   strategies compared against VSS's selector in Figure 11.

#![warn(missing_docs)]

pub mod app;
pub mod datasets;
pub mod detector;
pub mod pairs;
pub mod queries;
pub mod scene;

pub use app::{
    run_client, run_client_with, run_clients, server_store, shared_store, AppConfig, PhaseTimings,
    SharedStore, StoreFactory,
};
pub use datasets::{DatasetSpec, GeneratedDataset};
pub use detector::{detect_vehicles, Detection, DetectorParams};
pub use pairs::{random_pairs, GroundTruthPairs};
pub use queries::QueryWorkload;
pub use scene::{CameraMotion, SceneConfig, SceneRenderer, VehicleBox};
