//! Golden planner models: the exact bits of every per-pixel cost, every
//! conversion cost `α`, a set of optimal and greedy plans, and the quality
//! estimates the planner filters candidates by.
//!
//! The cost table and the rate/quality curve are fixed; any change to a
//! value, to the resolution ramp between 320×180 and 1920×1080 or to the
//! order in which a plan's costs are summed moves these bits.

use vss::catalog::{AtomicClock, GopRecord, PhysicalVideoRecord};
use vss::codec::{Codec, CostModel};
use vss::core::QualityModel;
use vss::frame::{PixelFormat, PsnrDb, Resolution};
use vss::solver::{plan_read, plan_read_greedy, FragmentCandidate, ReadPlan, ReadPlanRequest};

fn res(width: u32, height: u32) -> Resolution {
    Resolution::new(width, height)
}

/// Pixel counts below, at, inside and above the model's 320×180 → 1080p ramp.
const PIXELS: [u64; 8] = [1, 160 * 90, 320 * 180, 640 * 360, 960 * 540, 1280 * 720, 1920 * 1080, 3840 * 2160];

fn cost_rows(rows: &mut Vec<String>) {
    let model = CostModel;
    for codec in Codec::all() {
        for px in PIXELS {
            let decode = model.decode_cost_per_pixel(codec, px);
            let encode = model.encode_cost_per_pixel(codec, px);
            rows.push(format!("decode {codec} {px} {:#018x}", decode.to_bits()));
            rows.push(format!("encode {codec} {px} {:#018x}", encode.to_bits()));
        }
    }
}

fn alpha_rows(rows: &mut Vec<String>) {
    let model = CostModel;
    let pairs = [
        (res(960, 540), res(960, 540)),
        (res(1920, 1080), res(960, 540)),
        (res(320, 180), res(1920, 1080)),
        (res(960, 540), res(640, 360)),
    ];
    let targets = [Codec::H264, Codec::Hevc, Codec::Raw(PixelFormat::Rgb8)];
    for (src_res, dst_res) in pairs {
        for src in Codec::all() {
            for dst in targets {
                let alpha = model.alpha(src_res, src, dst_res, dst);
                rows.push(format!(
                    "alpha {}x{} {src} -> {}x{} {dst} {:#018x}",
                    src_res.width,
                    src_res.height,
                    dst_res.width,
                    dst_res.height,
                    alpha.to_bits()
                ));
            }
        }
    }
}

/// A fragment that passed the read's quality threshold.
fn frag(
    id: u64,
    start: f64,
    end: f64,
    resolution: Resolution,
    codec: Codec,
    frame_rate: f64,
    gop_frames: usize,
) -> FragmentCandidate {
    FragmentCandidate { id, start, end, resolution, codec, frame_rate, gop_frames, quality_ok: true }
}

/// Four candidate sets, each read twice: mixed codecs, resolutions, frame
/// rates and GOP lengths, with reads that start mid-GOP.
fn plan_cases() -> Vec<(&'static str, Vec<FragmentCandidate>, Vec<ReadPlanRequest>)> {
    let yuv = Codec::Raw(PixelFormat::Yuv420);
    let rgb = Codec::Raw(PixelFormat::Rgb8);
    let request = |start, end, resolution, codec| ReadPlanRequest { start, end, resolution, codec };
    vec![
        (
            "a",
            vec![
                frag(1, 0.0, 60.0, res(1920, 1080), Codec::H264, 30.0, 30),
                frag(2, 10.0, 25.0, res(960, 540), Codec::Hevc, 30.0, 30),
                frag(3, 20.0, 40.0, res(960, 540), yuv, 30.0, 1),
            ],
            vec![
                request(5.3, 35.7, res(960, 540), Codec::H264),
                request(12.1, 22.9, res(960, 540), Codec::Hevc),
            ],
        ),
        (
            "b",
            vec![
                frag(10, 0.0, 20.0, res(3840, 2160), Codec::Hevc, 30.0, 60),
                frag(11, 2.5, 12.0, res(1920, 1080), Codec::H264, 30.0, 30),
                frag(12, 8.0, 18.0, res(960, 540), rgb, 30.0, 1),
                FragmentCandidate { quality_ok: false, ..frag(13, 0.0, 20.0, res(960, 540), Codec::H264, 30.0, 30) },
            ],
            vec![
                request(3.1, 17.9, res(1920, 1080), Codec::Hevc),
                request(0.45, 19.0, res(960, 540), rgb),
            ],
        ),
        (
            "c",
            vec![
                frag(20, 0.0, 30.0, res(640, 360), Codec::H264, 15.0, 15),
                frag(21, 1.0, 7.0, res(320, 180), Codec::Hevc, 30.0, 10),
                frag(22, 5.0, 13.0, res(1280, 720), Codec::H264, 30.0, 45),
                frag(23, 11.0, 19.0, res(640, 360), yuv, 15.0, 1),
                frag(24, 17.5, 29.5, res(640, 360), Codec::Hevc, 30.0, 30),
            ],
            vec![
                request(0.7, 28.3, res(640, 360), Codec::H264),
                request(6.2, 18.8, res(320, 180), Codec::Raw(PixelFormat::Yuv422)),
            ],
        ),
        (
            // A cheaper source inside one long GOP: greedy takes it and pays
            // the look-back to return mid-GOP, the optimal plan stays.
            "d",
            vec![
                frag(30, 0.0, 20.0, res(960, 540), Codec::H264, 30.0, 300),
                frag(31, 4.0, 6.0, res(960, 540), yuv, 30.0, 1),
            ],
            vec![
                request(0.0, 20.0, res(960, 540), Codec::Hevc),
                request(3.3, 9.1, res(960, 540), Codec::Hevc),
            ],
        ),
    ]
}

fn plan_row(label: &str, plan: &ReadPlan) -> String {
    let ids: Vec<String> = plan.segments.iter().map(|s| s.fragment_id.to_string()).collect();
    format!("{label} {:#018x} [{}]", plan.total_cost.to_bits(), ids.join(","))
}

fn plan_rows(rows: &mut Vec<String>) {
    let model = CostModel;
    for (set, candidates, requests) in plan_cases() {
        for (i, request) in requests.iter().enumerate() {
            let optimal = plan_read(request, &candidates, &model).unwrap();
            let greedy = plan_read_greedy(request, &candidates, &model).unwrap();
            rows.push(plan_row(&format!("plan {set}{i} optimal"), &optimal));
            rows.push(plan_row(&format!("plan {set}{i} greedy"), &greedy));
        }
    }
}

fn record(codec: &str, is_original: bool, mse_bound: f64, byte_len: u64) -> PhysicalVideoRecord {
    PhysicalVideoRecord {
        id: 1,
        width: 320,
        height: 180,
        frame_rate: 30.0,
        codec: codec.into(),
        is_original,
        mse_bound,
        gops: vec![GopRecord {
            index: 0,
            start_time: 0.0,
            end_time: 1.0,
            frame_count: 30,
            byte_len,
            lossless_level: None,
            last_access: AtomicClock::new(0),
            crc: None,
        }],
    }
}

fn physical_quality(record: &PhysicalVideoRecord) -> PsnrDb {
    QualityModel::estimate_physical_quality(record)
}

fn quality_rows(rows: &mut Vec<String>) {
    let records = [
        ("original", record("h264", true, 0.0, 40_000)),
        ("h264-view", record("h264", false, 3.5, 90_000)),
        ("hevc-view", record("hevc", false, 12.25, 25_000)),
        ("raw-view", record("yuv420", false, 7.0, 320 * 180 * 3 / 2 * 30)),
    ];
    for (label, rec) in &records {
        rows.push(format!("quality {label} {:#018x}", physical_quality(rec).db().to_bits()));
    }
}

/// One row per value: what was computed, then its `f64::to_bits` (a plan
/// row ends with the fragment chosen for each of its segments).
const PINNED: &[&str] = &[
    "decode h264 1 0x402c000000000000",
    "encode h264 1 0x4036000000000000",
    "decode h264 14400 0x402c000000000000",
    "encode h264 14400 0x4036000000000000",
    "decode h264 57600 0x402c000000000000",
    "encode h264 57600 0x4036000000000000",
    "decode h264 230400 0x402c3d70a3d70a3e",
    "encode h264 230400 0x403630463796ac9e",
    "decode h264 518400 0x402ca3d70a3d70a4",
    "encode h264 518400 0x403680bb3ee721a5",
    "decode h264 921600 0x402d333333333334",
    "encode h264 921600 0x4036f15f15f15f16",
    "decode h264 2073600 0x402eccccccccccce",
    "encode h264 2073600 0x4038333333333334",
    "decode h264 8294400 0x402eccccccccccce",
    "encode h264 8294400 0x4038333333333334",
    "decode hevc 1 0x4033000000000000",
    "encode hevc 1 0x403e000000000000",
    "decode hevc 14400 0x4033000000000000",
    "encode hevc 14400 0x403e000000000000",
    "decode hevc 57600 0x4033000000000000",
    "encode hevc 57600 0x403e000000000000",
    "decode hevc 230400 0x403329b101767dce",
    "encode hevc 230400 0x403e41d41d41d41d",
    "decode hevc 518400 0x40336f2d593bfa26",
    "encode hevc 518400 0x403eaf8af8af8af9",
    "decode hevc 921600 0x4033d07507507508",
    "encode hevc 921600 0x403f492492492492",
    "decode hevc 2073600 0x4034e66666666667",
    "encode hevc 2073600 0x4040800000000000",
    "decode hevc 8294400 0x4034e66666666667",
    "encode hevc 8294400 0x4040800000000000",
    "decode rgb 1 0x3ff0000000000000",
    "encode rgb 1 0x3ff0000000000000",
    "decode rgb 14400 0x3ff0000000000000",
    "encode rgb 14400 0x3ff0000000000000",
    "decode rgb 57600 0x3ff0000000000000",
    "encode rgb 57600 0x3ff0000000000000",
    "decode rgb 230400 0x3ff0231bcb564eff",
    "encode rgb 230400 0x3ff0231bcb564eff",
    "decode rgb 518400 0x3ff05d9f7390d2a7",
    "encode rgb 518400 0x3ff05d9f7390d2a7",
    "decode rgb 921600 0x3ff0af8af8af8af9",
    "encode rgb 921600 0x3ff0af8af8af8af9",
    "decode rgb 2073600 0x3ff199999999999a",
    "encode rgb 2073600 0x3ff199999999999a",
    "decode rgb 8294400 0x3ff199999999999a",
    "encode rgb 8294400 0x3ff199999999999a",
    "decode yuv420 1 0x3ff0000000000000",
    "encode yuv420 1 0x3ff0000000000000",
    "decode yuv420 14400 0x3ff0000000000000",
    "encode yuv420 14400 0x3ff0000000000000",
    "decode yuv420 57600 0x3ff0000000000000",
    "encode yuv420 57600 0x3ff0000000000000",
    "decode yuv420 230400 0x3ff0231bcb564eff",
    "encode yuv420 230400 0x3ff0231bcb564eff",
    "decode yuv420 518400 0x3ff05d9f7390d2a7",
    "encode yuv420 518400 0x3ff05d9f7390d2a7",
    "decode yuv420 921600 0x3ff0af8af8af8af9",
    "encode yuv420 921600 0x3ff0af8af8af8af9",
    "decode yuv420 2073600 0x3ff199999999999a",
    "encode yuv420 2073600 0x3ff199999999999a",
    "decode yuv420 8294400 0x3ff199999999999a",
    "encode yuv420 8294400 0x3ff199999999999a",
    "decode yuv422 1 0x3ff0000000000000",
    "encode yuv422 1 0x3ff0000000000000",
    "decode yuv422 14400 0x3ff0000000000000",
    "encode yuv422 14400 0x3ff0000000000000",
    "decode yuv422 57600 0x3ff0000000000000",
    "encode yuv422 57600 0x3ff0000000000000",
    "decode yuv422 230400 0x3ff0231bcb564eff",
    "encode yuv422 230400 0x3ff0231bcb564eff",
    "decode yuv422 518400 0x3ff05d9f7390d2a7",
    "encode yuv422 518400 0x3ff05d9f7390d2a7",
    "decode yuv422 921600 0x3ff0af8af8af8af9",
    "encode yuv422 921600 0x3ff0af8af8af8af9",
    "decode yuv422 2073600 0x3ff199999999999a",
    "encode yuv422 2073600 0x3ff199999999999a",
    "decode yuv422 8294400 0x3ff199999999999a",
    "encode yuv422 8294400 0x3ff199999999999a",
    "alpha 960x540 h264 -> 960x540 h264 0x3fe0000000000000",
    "alpha 960x540 h264 -> 960x540 hevc 0x404680bb3ee721a6",
    "alpha 960x540 h264 -> 960x540 rgb 0x402eaf8af8af8af9",
    "alpha 960x540 hevc -> 960x540 h264 0x4044f7f44c118de6",
    "alpha 960x540 hevc -> 960x540 hevc 0x3fe0000000000000",
    "alpha 960x540 hevc -> 960x540 rgb 0x4034750750750750",
    "alpha 960x540 rgb -> 960x540 h264 0x4037869536202ecf",
    "alpha 960x540 rgb -> 960x540 hevc 0x403fb564efe89823",
    "alpha 960x540 rgb -> 960x540 rgb 0x3fe0000000000000",
    "alpha 960x540 yuv420 -> 960x540 h264 0x4037869536202ecf",
    "alpha 960x540 yuv420 -> 960x540 hevc 0x403fb564efe89823",
    "alpha 960x540 yuv420 -> 960x540 rgb 0x40005d9f7390d2a7",
    "alpha 960x540 yuv422 -> 960x540 h264 0x4037869536202ecf",
    "alpha 960x540 yuv422 -> 960x540 hevc 0x403fb564efe89823",
    "alpha 960x540 yuv422 -> 960x540 rgb 0x40005d9f7390d2a7",
    "alpha 1920x1080 h264 -> 960x540 h264 0x40447390d2a6c406",
    "alpha 1920x1080 h264 -> 960x540 hevc 0x40488af8af8af8b0",
    "alpha 1920x1080 h264 -> 960x540 rgb 0x40336c405d9f7391",
    "alpha 1920x1080 hevc -> 960x540 h264 0x40473390d2a6c406",
    "alpha 1920x1080 hevc -> 960x540 hevc 0x404b4af8af8af8b0",
    "alpha 1920x1080 hevc -> 960x540 rgb 0x4038ec405d9f7391",
    "alpha 1920x1080 rgb -> 960x540 h264 0x403a9a54d880bb3e",
    "alpha 1920x1080 rgb -> 960x540 hevc 0x4041649249249249",
    "alpha 1920x1080 rgb -> 960x540 rgb 0x40147dce434a9b10",
    "alpha 1920x1080 yuv420 -> 960x540 h264 0x403a9a54d880bb3e",
    "alpha 1920x1080 yuv420 -> 960x540 hevc 0x4041649249249249",
    "alpha 1920x1080 yuv420 -> 960x540 rgb 0x40147dce434a9b10",
    "alpha 1920x1080 yuv422 -> 960x540 h264 0x403a9a54d880bb3e",
    "alpha 1920x1080 yuv422 -> 960x540 hevc 0x4041649249249249",
    "alpha 1920x1080 yuv422 -> 960x540 rgb 0x40147dce434a9b10",
    "alpha 320x180 h264 -> 1920x1080 h264 0x404499999999999a",
    "alpha 320x180 h264 -> 1920x1080 hevc 0x4049000000000000",
    "alpha 320x180 h264 -> 1920x1080 rgb 0x403219999999999a",
    "alpha 320x180 hevc -> 1920x1080 h264 0x404719999999999a",
    "alpha 320x180 hevc -> 1920x1080 hevc 0x404b800000000000",
    "alpha 320x180 hevc -> 1920x1080 rgb 0x403719999999999a",
    "alpha 320x180 rgb -> 1920x1080 h264 0x403c333333333334",
    "alpha 320x180 rgb -> 1920x1080 hevc 0x4042800000000000",
    "alpha 320x180 rgb -> 1920x1080 rgb 0x4014666666666666",
    "alpha 320x180 yuv420 -> 1920x1080 h264 0x403c333333333334",
    "alpha 320x180 yuv420 -> 1920x1080 hevc 0x4042800000000000",
    "alpha 320x180 yuv420 -> 1920x1080 rgb 0x4014666666666666",
    "alpha 320x180 yuv422 -> 1920x1080 h264 0x403c333333333334",
    "alpha 320x180 yuv422 -> 1920x1080 hevc 0x4042800000000000",
    "alpha 320x180 yuv422 -> 1920x1080 rgb 0x4014666666666666",
    "alpha 960x540 h264 -> 640x360 h264 0x4043c118de5ab278",
    "alpha 960x540 h264 -> 640x360 hevc 0x4047c9dfd1304638",
    "alpha 960x540 h264 -> 640x360 rgb 0x4032541d41d41d42",
    "alpha 960x540 hevc -> 640x360 h264 0x40464fb9c8695362",
    "alpha 960x540 hevc -> 640x360 hevc 0x404a5880bb3ee722",
    "alpha 960x540 hevc -> 640x360 rgb 0x4037715f15f15f16",
    "alpha 960x540 rgb -> 640x360 h264 0x403a36202ecfb9c8",
    "alpha 960x540 rgb -> 640x360 hevc 0x404123d70a3d70a4",
    "alpha 960x540 rgb -> 640x360 rgb 0x4014202ecfb9c86a",
    "alpha 960x540 yuv420 -> 640x360 h264 0x403a36202ecfb9c8",
    "alpha 960x540 yuv420 -> 640x360 hevc 0x404123d70a3d70a4",
    "alpha 960x540 yuv420 -> 640x360 rgb 0x4014202ecfb9c86a",
    "alpha 960x540 yuv422 -> 640x360 h264 0x403a36202ecfb9c8",
    "alpha 960x540 yuv422 -> 640x360 hevc 0x404123d70a3d70a4",
    "alpha 960x540 yuv422 -> 640x360 rgb 0x4014202ecfb9c86a",
    "plan a0 optimal 0x4216efb326492493 [1,2,3]",
    "plan a0 greedy 0x4216efb326492493 [1,2,3]",
    "plan a1 optimal 0x419d63f115f15f16 [2]",
    "plan a1 greedy 0x419d63f115f15f16 [2]",
    "plan b0 optimal 0x4213cfc5f36db6dc [11,12]",
    "plan b0 greedy 0x4213cfc5f36db6dc [11,12]",
    "plan b1 optimal 0x421afc5c42492492 [10,11,12,10]",
    "plan b1 greedy 0x421afc5c42492492 [10,11,12,10]",
    "plan c0 optimal 0x419772b800000000 [20]",
    "plan c0 greedy 0x419772b800000000 [20]",
    "plan c1 optimal 0x41b93b9b09249249 [21,20,23]",
    "plan c1 greedy 0x41b93b9b09249249 [21,20,23]",
    "plan d0 optimal 0x420a130ab6db6db8 [30]",
    "plan d0 greedy 0x420ce81e47333334 [30,31,30]",
    "plan d1 optimal 0x41f3149d13a83a84 [30]",
    "plan d1 greedy 0x41f8bec43457c57c [30,31,30]",
    "quality original 0x4079000000000000",
    "quality h264-view 0x4040f7a78c1495db",
    "quality hevc-view 0x403da269bd5eb2c2",
    "quality raw-view 0x4043d7047267dcf4",
];

#[test]
fn planner_models_and_plans_keep_their_pinned_bits() {
    let mut rows = Vec::new();
    cost_rows(&mut rows);
    alpha_rows(&mut rows);
    plan_rows(&mut rows);
    quality_rows(&mut rows);
    for (row, pinned) in rows.iter().zip(PINNED) {
        assert_eq!(row, pinned);
    }
    assert_eq!(rows.len(), PINNED.len(), "row count");
}
