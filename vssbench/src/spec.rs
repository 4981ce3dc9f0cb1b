//! The frozen names: workloads, end-to-end metrics and per-layer metrics.
//! `BENCHMARK.json` repeats them (a test keeps the two in step); the README
//! says what each one means and which end-to-end metric it should move.

pub const WORKLOADS: [&str; 4] = [
    "transcode_scan",
    "cached_clips",
    "ingest_dedup",
    "service_mixed",
];

/// `(name, unit)` of every end-to-end metric. Every workload reports every
/// one; the README says what an "op" and a "frame" are in each workload.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_s", "1/s"),
    ("frames_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("cpu_ms_per_frame", "ms"),
    ("stored_bytes_per_raw_byte", "ratio"),
];

/// `(name, unit)` of every per-layer metric, printed only by a traced run.
/// A workload that bypasses a layer reports 0 for it, which is the evidence
/// that it does.
pub const PER_LAYER: [(&str, &str); 80] = [
    // codec
    ("codec.encode_h264.ns_per_pixel", "ns"),
    ("codec.encode_hevc.ns_per_pixel", "ns"),
    ("codec.decode_h264.ns_per_pixel", "ns"),
    ("codec.decode_hevc.ns_per_pixel", "ns"),
    ("codec.encode.busy_share", "ratio"),
    ("codec.decode.busy_share", "ratio"),
    ("codec.gop.bytes_per_pixel", "ratio"),
    ("codec.lossless.ns_per_byte", "ns"),
    ("codec.lossless.ratio", "ratio"),
    // frame
    ("frame.resample.ns_per_pixel", "ns"),
    ("frame.convert.ns_per_pixel", "ns"),
    // solver
    ("solver.plan.us_per_read", "us"),
    ("solver.plan.candidates_per_read", "count"),
    ("solver.plan.segments_per_read", "count"),
    ("solver.plan_probe.us", "us"),
    // catalog
    ("catalog.wal.fsyncs_per_gop", "ratio"),
    ("catalog.wal.fsync_p50_us", "us"),
    ("catalog.wal.append_p50_us", "us"),
    ("catalog.wal.checkpoints", "count"),
    ("catalog.wal.bytes_per_gop", "ratio"),
    ("catalog.gop.append_us", "us"),
    ("catalog.gop.read_us", "us"),
    ("catalog.open.replay_ms", "ms"),
    ("catalog.open.records_replayed", "count"),
    // core
    ("core.read.self_share", "ratio"),
    ("core.cache.hit_frac", "ratio"),
    ("core.cache.admit_frac", "ratio"),
    ("core.cache.evictions", "count"),
    ("core.read.bytes_read_per_frame", "ratio"),
    ("core.read.decoded_per_frame_out", "ratio"),
    ("core.stream.peak_buffered_mb", "MB"),
    ("core.stream.readahead_stall_share", "ratio"),
    ("core.sink.persist_share", "ratio"),
    ("core.sink.encode_wait_share", "ratio"),
    ("core.deferred.pages_compressed", "count"),
    ("core.maintenance.busy_s", "s"),
    ("core.maintenance.bytes_reclaimed", "count"),
    ("core.maintenance.stall_mean_ms", "ms"),
    // vision / joint compression
    ("vision.features.ms_per_frame", "ms"),
    ("vision.homography.ms_per_pair", "ms"),
    ("core.joint.compress_share", "ratio"),
    ("core.joint.abort_frac", "ratio"),
    ("core.joint.recovered_psnr_db", "dB"),
    ("core.joint.fps", "1/s"),
    ("core.joint.bytes_per_separate_byte", "ratio"),
    // parallel
    ("parallel.pipeline.speedup", "ratio"),
    ("parallel.pipeline.workers", "count"),
    ("parallel.par_map.overhead_us", "us"),
    // server
    ("server.shard.lock_wait_share", "ratio"),
    ("server.shard.lock_wait_p99_us", "us"),
    ("server.shard.op_skew", "ratio"),
    ("server.cache.hit_frac", "ratio"),
    ("server.admission.shed_frac", "ratio"),
    ("server.session.inproc_read_ms", "ms"),
    // net
    ("net.rpc.overhead_ms", "ms"),
    ("net.wire.encode_ns_per_byte", "ns"),
    ("net.wire.decode_ns_per_byte", "ns"),
    ("net.wire.bytes_per_payload_byte", "ratio"),
    ("net.mux.credit_stall_share", "ratio"),
    ("net.mux.streams_opened", "count"),
    ("net.mux.resets", "count"),
    // live
    ("live.net.lag_p50_ms", "ms"),
    ("live.hub.inproc_lag_p50_us", "us"),
    ("live.sub.catchup_rounds", "count"),
    ("live.sub.lag_transitions", "count"),
    ("live.sub.gaps", "count"),
    ("live.hub.published_gops", "count"),
    // bench: the generator itself, never gated
    ("bench.gen.late_p90_ms", "ms"),
    ("bench.svc.p50_ms_r1", "ms"),
    ("bench.svc.p90_ms_r1", "ms"),
    ("bench.svc.p50_ms_r2", "ms"),
    ("bench.svc.p90_ms_r2", "ms"),
    ("bench.svc.p50_ms_r3", "ms"),
    ("bench.svc.p90_ms_r3", "ms"),
    ("bench.svc.backlog_end_r1", "count"),
    ("bench.svc.backlog_end_r2", "count"),
    ("bench.svc.backlog_end_r3", "count"),
    ("bench.svc.max_rate_ok_ops_s", "1/s"),
    ("bench.trace.overhead_frac", "ratio"),
    ("bench.inputs.digest", "hash"),
];

/// Count metrics that must repeat exactly on the same seed in the
/// single-client workloads (`--check` fails if they do not).
pub const EXACT_COUNTS: [&str; 5] = [
    "stored_bytes_per_raw_byte",
    "core.joint.bytes_per_separate_byte",
    "core.cache.hit_frac",
    "core.cache.evictions",
    "catalog.wal.fsyncs_per_gop",
];

/// The single-client workloads, where counts are deterministic.
pub const SINGLE_CLIENT: [&str; 3] = ["transcode_scan", "cached_clips", "ingest_dedup"];

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .chain(END_TO_END.iter().map(|(n, _)| n))
            .chain(PER_LAYER.iter().map(|(n, _)| n))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "duplicate name {name}");
        }
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn exact_counts_are_known_metrics() {
        for name in EXACT_COUNTS {
            assert!(
                END_TO_END
                    .iter()
                    .chain(PER_LAYER.iter())
                    .any(|(n, _)| *n == name),
                "{name} is not a metric"
            );
        }
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// binary prints. They must name the same things with the same units.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = serde::json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str, field: &str| -> Vec<String> {
            json.get(key)
                .and_then(|v| v.as_array())
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|item| {
                    item.get(field)
                        .and_then(|v| v.as_str())
                        .expect("string field")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(listed("workloads", "name"), WORKLOADS);
        assert_eq!(listed("end_to_end", "name"), END_TO_END.map(|(n, _)| n));
        assert_eq!(listed("end_to_end", "unit"), END_TO_END.map(|(_, u)| u));
        assert_eq!(listed("per_layer", "name"), PER_LAYER.map(|(n, _)| n));
        assert_eq!(listed("per_layer", "unit"), PER_LAYER.map(|(_, u)| u));
        let setup = json.get("end_to_end").unwrap().as_array().unwrap()[0].clone();
        assert_eq!(setup.get("better").and_then(|v| v.as_str()), Some("lower"));
    }
}
