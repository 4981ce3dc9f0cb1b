//! Cache behaviour under a constrained storage budget: replay a random read
//! workload with the LRU_VSS eviction policy and with plain LRU, then compare
//! how quickly a final full-video read completes (the Section 4 / Figure 16
//! scenario).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example cache_replay
//! ```

use std::time::Instant;
use vss::core::{EvictionPolicy, StorageBudget};
use vss::frame::PsnrDb;
use vss::prelude::*;
use vss::workload::{QueryWorkload, SceneConfig, SceneRenderer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let resolution = Resolution::new(160, 96);
    let renderer = SceneRenderer::new(SceneConfig {
        resolution,
        format: PixelFormat::Yuv420,
        ..Default::default()
    });
    let video = renderer.render_sequence(0, 90);
    let duration = video.duration_seconds();

    for (label, policy) in
        [("LRU_VSS", EvictionPolicy::default()), ("plain LRU", EvictionPolicy::Lru)]
    {
        let root = std::env::temp_dir().join(format!("vss-example-cache-{label}"));
        let _ = std::fs::remove_dir_all(&root);
        let vss = Vss::open(VssConfig::new(&root))?;
        // A tight budget (1.5x the original) forces evictions during the
        // replay; everything this replay admits fits in 3x.
        vss.create("traffic", Some(StorageBudget::MultipleOfOriginal(1.5)))?;
        vss.write(&WriteRequest::new("traffic", Codec::H264), &video)?;
        vss.with_engine(|engine| engine.config.eviction_policy = policy);

        // A view is admitted only if its resampling error alone clears the
        // threshold of the read that made it. Half- and quarter-size views
        // rate about 20–26 dB, so the replay asks for 20 dB: at the default 40 dB
        // it would admit only its full-size reads.
        let workload = QueryWorkload::cache_population("traffic", duration, resolution, 99);
        let mut admitted = 0usize;
        for request in workload.generate(25) {
            if let Ok(result) = vss.read(&request.quality_threshold(PsnrDb(20.0))) {
                admitted += usize::from(result.stats.cache_admitted);
            }
        }
        let fragments = vss.with_engine(|engine| engine.materialized_fragment_count("traffic"))?;
        let started = Instant::now();
        let final_read =
            vss.read(&ReadRequest::new("traffic", 0.0, duration, Codec::Hevc).uncacheable())?;
        println!(
            "{label:>9}: {admitted} reads admitted, {fragments} cached GOP pages survive, \
             final full read {:.2}s using {} fragment(s)",
            started.elapsed().as_secs_f64(),
            final_read.stats.plan.fragments_used().len()
        );
        let _ = std::fs::remove_dir_all(&root);
    }
    Ok(())
}
