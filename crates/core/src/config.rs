//! Storage-manager configuration.

use crate::params::StorageBudget;
use std::path::PathBuf;
use vss_frame::PsnrDb;

/// Cache eviction policy (paper Section 4).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EvictionPolicy {
    /// Plain least-recently-used over GOP pages (the baseline the paper
    /// compares against).
    Lru,
    /// The paper's LRU_VSS: LRU adjusted by fragment position (γ = 2),
    /// redundancy rank (ζ = 1) and a baseline-quality guard (see the
    /// `cache` module).
    #[default]
    LruVss,
}

/// Configuration of the joint-compression optimization (paper Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JointConfig {
    /// Minimum number of unambiguous feature correspondences for a GOP pair
    /// to be considered related (prototype m = 20).
    pub min_correspondences: usize,
    /// Minimum recovered quality before joint compression of a GOP pair is
    /// aborted (prototype 24 dB for the re-estimation check).
    pub recovery_threshold: PsnrDb,
}

impl Default for JointConfig {
    fn default() -> Self {
        Self { min_correspondences: 20, recovery_threshold: PsnrDb(24.0) }
    }
}

/// Encoder quality (0–100) of compressed writes and cached compressed
/// results whose request names none.
pub const DEFAULT_ENCODER_QUALITY: u8 = 85;

/// Configuration of the VSS storage manager.
///
/// Reads whose request names no quality threshold use
/// [`DEFAULT_QUALITY_THRESHOLD`](crate::DEFAULT_QUALITY_THRESHOLD) (the
/// prototype's 40 dB), which also guards the last baseline-quality copy of
/// every range against eviction. Whether a read result may enter the cache
/// is the request's own [`cacheable`](crate::ReadRequest::cacheable) flag.
#[derive(Debug, Clone, PartialEq)]
pub struct VssConfig {
    /// Root directory for all stored video data and metadata.
    pub root: PathBuf,
    /// Storage budget of videos created without one (prototype: 10× the
    /// size of the originally written physical video).
    pub default_budget: StorageBudget,
    /// Frames per GOP for compressed representations.
    pub gop_size: usize,
    /// Eviction policy applied when the storage budget is exceeded.
    pub eviction_policy: EvictionPolicy,
    /// Whether deferred (lossless) compression of uncompressed entries is enabled.
    pub deferred_compression: bool,
    /// Worker threads used by the parallel GOP pipeline (encode, decode,
    /// per-frame normalization, deferred compression). `0` means "one worker
    /// per available core"; `1` reproduces the historical single-threaded
    /// execution bit-identically (no worker threads are spawned). Because
    /// GOPs are independent and results are collected in input order, every
    /// setting produces byte-identical output — the knob only changes wall
    /// time. The same budget is spent *inside* a GOP where there is only one
    /// to encode — a `ReadStream`'s output GOP, a `WriteSink`'s GOP — on the
    /// frame's planes and HEVC's two candidates; a multi-GOP write spends it
    /// on whole GOPs first and gives each GOP what is left over.
    pub parallelism: usize,
}

impl VssConfig {
    /// A configuration rooted at the given directory with the paper's
    /// prototype defaults.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            default_budget: StorageBudget::default(),
            gop_size: 30,
            eviction_policy: EvictionPolicy::default(),
            deferred_compression: true,
            parallelism: 0,
        }
    }

    /// Disables deferred compression (ablation).
    pub fn without_deferred_compression(mut self) -> Self {
        self.deferred_compression = false;
        self
    }

    /// Overrides the default storage budget.
    pub fn with_default_budget(mut self, budget: StorageBudget) -> Self {
        self.default_budget = budget;
        self
    }

    /// Overrides the compressed GOP size.
    pub fn with_gop_size(mut self, frames: usize) -> Self {
        self.gop_size = frames.max(1);
        self
    }

    /// Overrides the parallel GOP pipeline's worker-thread count
    /// (`0` = one worker per available core, `1` = fully sequential).
    pub fn with_parallelism(mut self, threads: usize) -> Self {
        self.parallelism = threads;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_prototype_constants() {
        let c = VssConfig::new("/tmp/x");
        assert_eq!(crate::DEFAULT_QUALITY_THRESHOLD, PsnrDb(40.0));
        assert_eq!(crate::write::DEFERRED_ACTIVATION_FRACTION, 0.25);
        assert_eq!(c.eviction_policy, EvictionPolicy::LruVss);
        assert_eq!((crate::cache::GAMMA, crate::cache::ZETA), (2.0, 1.0));
        assert_eq!(JointConfig::default().min_correspondences, 20);
        assert_eq!(crate::joint::MAX_FEATURE_DISTANCE_SQ, 400.0);
        assert_eq!(crate::joint::DUPLICATE_EPSILON, 0.1);
        assert!(matches!(c.default_budget, StorageBudget::MultipleOfOriginal(m) if m == 10.0));
        assert_eq!(c.parallelism, 0, "default uses every available core");
    }

    #[test]
    fn builders_toggle_features() {
        let c = VssConfig::new("/tmp/x")
            .without_deferred_compression()
            .with_gop_size(0)
            .with_default_budget(StorageBudget::Bytes(123))
            .with_parallelism(2);
        assert!(!c.deferred_compression);
        assert_eq!(c.gop_size, 1);
        assert_eq!(c.default_budget, StorageBudget::Bytes(123));
        assert_eq!(c.parallelism, 2);
    }
}
