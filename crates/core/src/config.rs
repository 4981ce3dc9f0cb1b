//! Storage-manager configuration.

use crate::params::StorageBudget;
use std::path::PathBuf;
use vss_frame::PsnrDb;

/// Cache eviction policy (paper Section 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EvictionPolicy {
    /// Plain least-recently-used over GOP pages (the baseline the paper
    /// compares against).
    Lru,
    /// The paper's LRU_VSS: LRU adjusted by fragment position (γ), redundancy
    /// rank (ζ) and a baseline-quality guard.
    LruVss {
        /// Weight of the position (defragmentation) term; prototype γ = 2.
        gamma: f64,
        /// Weight of the redundancy term; prototype ζ = 1.
        zeta: f64,
    },
}

impl Default for EvictionPolicy {
    fn default() -> Self {
        EvictionPolicy::LruVss { gamma: 2.0, zeta: 1.0 }
    }
}

/// Configuration of the joint-compression optimization (paper Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JointConfig {
    /// Minimum number of unambiguous feature correspondences for a GOP pair
    /// to be considered related (prototype m = 20).
    pub min_correspondences: usize,
    /// Maximum squared feature distance for a correspondence (prototype d = 400).
    pub max_feature_distance_sq: f64,
    /// `||H − I||₂` below which two frames are treated as exact duplicates
    /// and stored as a pointer (prototype ε = 0.1).
    pub duplicate_epsilon: f64,
    /// Minimum recovered quality before joint compression of a GOP pair is
    /// aborted (prototype 24 dB for the re-estimation check).
    pub recovery_threshold: PsnrDb,
    /// Quality threshold τ used by Algorithm 1's per-frame verification.
    pub quality_threshold: PsnrDb,
}

impl Default for JointConfig {
    fn default() -> Self {
        Self {
            min_correspondences: 20,
            max_feature_distance_sq: 400.0,
            duplicate_epsilon: 0.1,
            recovery_threshold: PsnrDb(24.0),
            quality_threshold: PsnrDb(40.0),
        }
    }
}

/// Configuration of the VSS storage manager.
#[derive(Debug, Clone, PartialEq)]
pub struct VssConfig {
    /// Root directory for all stored video data and metadata.
    pub root: PathBuf,
    /// Default storage budget for newly created videos (prototype: 10× the
    /// size of the originally written physical video).
    pub default_budget: StorageBudget,
    /// Default quality threshold for reads (prototype: 40 dB).
    pub default_quality_threshold: PsnrDb,
    /// Default encoder quality (0–100) for compressed writes and cached
    /// compressed results.
    pub default_encoder_quality: u8,
    /// Frames per GOP for compressed representations.
    pub gop_size: usize,
    /// Frames per block for uncompressed representations (the prototype
    /// bounds uncompressed blocks at ~25 MB; small synthetic frames use a
    /// fixed small frame count instead).
    pub uncompressed_gop_frames: usize,
    /// Whether read results may be admitted to the cache of materialized views.
    pub caching_enabled: bool,
    /// Eviction policy applied when the storage budget is exceeded.
    pub eviction_policy: EvictionPolicy,
    /// Whether deferred (lossless) compression of uncompressed entries is enabled.
    pub deferred_compression: bool,
    /// Fraction of the budget at which deferred compression activates
    /// (prototype: 25%).
    pub deferred_activation_fraction: f64,
    /// Whether physical video compaction is enabled.
    pub compaction_enabled: bool,
    /// Joint-compression parameters.
    pub joint: JointConfig,
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
    /// Streaming readahead depth, in GOPs — decides which thread runs the
    /// one GOP stage of each direction, nothing else. At `0` (the default)
    /// a [`ReadStream`](crate::ReadStream)'s consumer loads and decodes each
    /// GOP itself and the thread pushing into a
    /// [`WriteSink`](crate::WriteSink) encodes each GOP itself. With
    /// `readahead = N > 0` the same two functions run on workers:
    ///
    /// * a `ReadStream` reads file bytes and decodes up to `N` GOPs ahead
    ///   of the consumer on a bounded worker pool (cross-GOP decode
    ///   parallelism on the streaming path), raising the stream's peak
    ///   buffered memory bound from ~2 GOPs to ~`2 + N` GOPs; and
    /// * a `WriteSink` encodes GOP *n + 1* on a worker while GOP *n* is
    ///   being persisted, keeping up to `N` encoded GOPs in flight.
    ///
    /// Results are delivered strictly in input order, so every `readahead`
    /// setting produces byte-identical read output and byte-identical
    /// on-disk stores — like [`parallelism`](Self::parallelism), the knob
    /// only trades memory for wall time. Workers never touch the engine or
    /// its locks (streams snapshot their plan first; sinks persist on the
    /// caller's thread), and dropping a stream or sink cancels and joins its
    /// workers.
    pub readahead: usize,
}

impl VssConfig {
    /// A configuration rooted at the given directory with the paper's
    /// prototype defaults.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            default_budget: StorageBudget::default(),
            default_quality_threshold: PsnrDb(40.0),
            default_encoder_quality: 85,
            gop_size: 30,
            uncompressed_gop_frames: 3,
            caching_enabled: true,
            eviction_policy: EvictionPolicy::default(),
            deferred_compression: true,
            deferred_activation_fraction: 0.25,
            compaction_enabled: true,
            joint: JointConfig::default(),
            parallelism: 0,
            readahead: 0,
        }
    }

    /// Disables result caching (used by baseline comparisons and ablations).
    pub fn without_caching(mut self) -> Self {
        self.caching_enabled = false;
        self
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

    /// Overrides the streaming readahead depth in GOPs (`0` = the calling
    /// thread runs each GOP, `N` = workers run up to `N` GOPs ahead — see
    /// [`readahead`](Self::readahead)).
    pub fn with_readahead(mut self, gops: usize) -> Self {
        self.readahead = gops;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_prototype_constants() {
        let c = VssConfig::new("/tmp/x");
        assert_eq!(c.default_quality_threshold, PsnrDb(40.0));
        assert_eq!(c.deferred_activation_fraction, 0.25);
        assert!(matches!(c.eviction_policy, EvictionPolicy::LruVss { gamma, zeta } if gamma == 2.0 && zeta == 1.0));
        assert_eq!(c.joint.min_correspondences, 20);
        assert_eq!(c.joint.max_feature_distance_sq, 400.0);
        assert_eq!(c.joint.duplicate_epsilon, 0.1);
        assert!(matches!(c.default_budget, StorageBudget::MultipleOfOriginal(m) if m == 10.0));
        assert_eq!(c.parallelism, 0, "default uses every available core");
        assert_eq!(c.readahead, 0, "by default the calling thread runs each GOP");
    }

    #[test]
    fn builders_toggle_features() {
        let c = VssConfig::new("/tmp/x")
            .without_caching()
            .without_deferred_compression()
            .with_gop_size(0)
            .with_default_budget(StorageBudget::Bytes(123))
            .with_parallelism(2)
            .with_readahead(4);
        assert!(!c.caching_enabled);
        assert!(!c.deferred_compression);
        assert_eq!(c.gop_size, 1);
        assert_eq!(c.default_budget, StorageBudget::Bytes(123));
        assert_eq!(c.parallelism, 2);
        assert_eq!(c.readahead, 4);
    }
}
