//! Golden lossless streams: every byte `lossless::compress` emits, pinned
//! against constants captured when lossless format 3 (left and above
//! prediction only) replaced format 2, by running this test with an empty
//! `GOLDEN` table and pasting the rows it printed. The inputs, levels and
//! lengths are those of the LZ77 rows captured on commit
//! 20248f31a138ece769b3fcde5aef883a17c65d9f; the raw GOPs at the end were
//! added with format 2, whose planes only a GOP's header reveals. Plain
//! bytes are one row predicted from the left, so those rows kept their
//! lengths through format 3; the raw GOPs' rows pin plane prediction.
//!
//! The compressor's output is a pure function of (input, level), and the
//! deferred-compression path stores it on disk and sizes the budget by it:
//! a change in how a block picks its predictor, builds its code or tokenizes
//! its residuals would change GOP files, `stored_bytes_per_raw_byte` and
//! every admission and eviction decision after it. These constants are the
//! reference; a row changes only when the format does.

use vss_codec::{codec_instance, lossless, Codec, EncoderConfig};
use vss_frame::{pattern, Frame, FrameSequence, PixelFormat};

const LEVELS: [u8; 6] = [1, 2, 9, 10, 18, 19];
/// 0–9 and 8·k ± 1: the word-at-a-time match compare must get every tail
/// shorter than a word, and every match that ends one byte either side of
/// a word boundary, exactly right.
const LENGTHS: [usize; 22] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 17, 23, 25, 31, 33, 63, 65, 255, 257, 4095, 4097];

fn fnv1a(data: &[u8]) -> u64 {
    data.iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Period-3 bytes with one perturbed byte every 29: short inputs match to
/// their very end, longer ones hold matches that stop at every offset
/// inside a word.
fn mixed(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| [0x41u8, 0x42, 0x43][i % 3] ^ if i % 29 == 28 { (i / 29) as u8 | 1 } else { 0 })
        .collect()
}

/// Three 64×48 frames of one pattern.
fn pattern_frames(kind: &str, format: PixelFormat) -> Vec<Frame> {
    (0..3u64)
        .map(|i| match kind {
            "flat" => {
                let mut frame = Frame::black(64, 48, format).unwrap();
                pattern::fill_rect(&mut frame, 0, 0, 64, 48, (90, 140, 200));
                frame
            }
            "gradient" => pattern::gradient(64, 48, format, i),
            _ => pattern::noise(64, 48, format, 0x5eed + i),
        })
        .collect()
}

/// Three frames of one pattern back to back, the shape of a raw GOP's
/// payload.
fn frames(kind: &str, format: PixelFormat) -> Vec<u8> {
    pattern_frames(kind, format).into_iter().flat_map(Frame::into_data).collect()
}

/// The same frames as a serialized raw GOP, which `compress` codes plane
/// by plane.
fn raw_gop(frames: Vec<Frame>, format: PixelFormat) -> Vec<u8> {
    let clip = FrameSequence::new(frames, 30.0).unwrap();
    codec_instance(Codec::Raw(format)).encode(&clip, &EncoderConfig::default()).unwrap().to_bytes()
}

/// A benchmark-sized raw GOP: two 240×136 YUV 4:2:0 frames of a lightly
/// noisy gradient (the `cached_clips` views are of this kind).
fn scene() -> Vec<u8> {
    (0..2u64)
        .flat_map(|i| {
            let base = pattern::gradient(240, 136, PixelFormat::Yuv420, i);
            pattern::add_noise(&base, 2, 0x5eed + i).into_data()
        })
        .collect()
}

/// A constant run of 70 000 bytes after a short prefix: matches are capped
/// at the 32 768-byte `max_match`.
fn long_run() -> Vec<u8> {
    let mut data = mixed(16);
    data.resize(16 + 70_000, 7);
    data
}

/// Over 1 MiB: seeded noise, then a copy of its start at distance exactly
/// 2^20 (still matchable), then a copy at distance 2^20 + 1 (past the
/// distance cut-off, so the chain walk stops there and it stays literal).
fn far_repeats() -> Vec<u8> {
    let mut rng = pattern::Xorshift::new(0x5eed);
    let mut data: Vec<u8> = (0..1 << 20).map(|_| rng.next_u64() as u8).collect();
    for k in 0..65_536 {
        let at = data.len();
        let dist = if k < 32_768 { 1 << 20 } else { (1 << 20) + 1 };
        data.push(data[at - dist]);
    }
    data
}

fn corpus() -> Vec<(String, Vec<u8>)> {
    let mut inputs: Vec<(String, Vec<u8>)> = LENGTHS.iter().map(|&len| ("mixed".to_string(), mixed(len))).collect();
    for format in [PixelFormat::Yuv420, PixelFormat::Rgb8] {
        for kind in ["flat", "gradient", "noise"] {
            inputs.push((format!("{kind}-{format:?}"), frames(kind, format)));
        }
    }
    inputs.push(("scene".to_string(), scene()));
    inputs.push(("long-run".to_string(), long_run()));
    inputs.push(("far-repeats".to_string(), far_repeats()));
    for format in [PixelFormat::Yuv420, PixelFormat::Rgb8] {
        for kind in ["flat", "gradient", "noise"] {
            inputs.push((format!("gop-{kind}-{format:?}"), raw_gop(pattern_frames(kind, format), format)));
        }
    }
    let scene_frames = (0..2u64)
        .map(|i| pattern::add_noise(&pattern::gradient(240, 136, PixelFormat::Yuv420, i), 2, 0x5eed + i))
        .collect();
    inputs.push(("gop-scene".to_string(), raw_gop(scene_frames, PixelFormat::Yuv420)));
    inputs
}

/// One golden row: the compressed length and digest, and whether the
/// stream decompresses back to the input.
fn row(label: &str, data: &[u8], level: u8) -> String {
    let compressed = lossless::compress(data, level);
    let round_trip = lossless::decompress(&compressed).is_ok_and(|restored| restored == data);
    format!(
        "{label} n{} L{level} len={} bytes={:016x} rt={}",
        data.len(),
        compressed.len(),
        fnv1a(&compressed),
        if round_trip { "ok" } else { "FAIL" }
    )
}

fn rows() -> Vec<String> {
    corpus()
        .iter()
        .flat_map(|(label, data)| LEVELS.iter().map(move |&level| row(label, data, level)))
        .collect()
}

#[test]
fn compressed_streams_match_the_pinned_format() {
    let actual = rows();
    if actual != GOLDEN {
        for line in &actual {
            println!("    \"{line}\",");
        }
        let first = actual.iter().zip(GOLDEN).position(|(a, g)| a != g);
        panic!(
            "golden mismatch ({} rows, {} expected), first differing row: {first:?}",
            actual.len(),
            GOLDEN.len()
        );
    }
}

#[rustfmt::skip]
const GOLDEN: &[&str] = &[
    "mixed n0 L1 len=10 bytes=2f7d4023b6867c3e rt=ok",
    "mixed n0 L2 len=10 bytes=52e6dbf0c894b605 rt=ok",
    "mixed n0 L9 len=10 bytes=4aca1e8c46f84a76 rt=ok",
    "mixed n0 L10 len=10 bytes=6e33ba595906843d rt=ok",
    "mixed n0 L18 len=10 bytes=1c4d1f1fa7b11995 rt=ok",
    "mixed n0 L19 len=10 bytes=3fb6baecb9bf535c rt=ok",
    "mixed n1 L1 len=12 bytes=ee14eafe48b5b6d9 rt=ok",
    "mixed n1 L2 len=12 bytes=5dd2713594bcbee2 rt=ok",
    "mixed n1 L9 len=12 bytes=f63eb2b5f13b65d1 rt=ok",
    "mixed n1 L10 len=12 bytes=65fc38ed3d426dda rt=ok",
    "mixed n1 L18 len=12 bytes=4d7f61c643b23a72 rt=ok",
    "mixed n1 L19 len=12 bytes=9fcb4d7ce1caeb27 rt=ok",
    "mixed n2 L1 len=13 bytes=7c14c09335ccbda9 rt=ok",
    "mixed n2 L2 len=13 bytes=e8a39b35a12bfa78 rt=ok",
    "mixed n2 L9 len=13 bytes=e0c215a690f50d11 rt=ok",
    "mixed n2 L10 len=13 bytes=4b9df048fae2b560 rt=ok",
    "mixed n2 L18 len=13 bytes=1d95f10ee969c728 rt=ok",
    "mixed n2 L19 len=13 bytes=95777309ca3d1507 rt=ok",
    "mixed n3 L1 len=14 bytes=7218fdf7adadd7d6 rt=ok",
    "mixed n3 L2 len=14 bytes=abe39d4d9af3e889 rt=ok",
    "mixed n3 L9 len=14 bytes=5831f5d91f2c968e rt=ok",
    "mixed n3 L10 len=14 bytes=e6ba15318071fcc1 rt=ok",
    "mixed n3 L18 len=14 bytes=37e82d85d166c819 rt=ok",
    "mixed n3 L19 len=14 bytes=b0679773749216c4 rt=ok",
    "mixed n4 L1 len=15 bytes=714ce0955d6b45dd rt=ok",
    "mixed n4 L2 len=15 bytes=10ac34b8b93491b0 rt=ok",
    "mixed n4 L9 len=15 bytes=3d95d501e2f7ad05 rt=ok",
    "mixed n4 L10 len=15 bytes=8837a922cac1a358 rt=ok",
    "mixed n4 L18 len=15 bytes=6ca2d8685944bbe0 rt=ok",
    "mixed n4 L19 len=15 bytes=28c06c7e71e7bbe7 rt=ok",
    "mixed n5 L1 len=16 bytes=e4b162d20ddc8125 rt=ok",
    "mixed n5 L2 len=16 bytes=ed9d94af77ca6b3e rt=ok",
    "mixed n5 L9 len=16 bytes=8cb3308e1a44a01d rt=ok",
    "mixed n5 L10 len=16 bytes=41c45e455152ecb6 rt=ok",
    "mixed n5 L18 len=16 bytes=ea6439767cf8c4ce rt=ok",
    "mixed n5 L19 len=16 bytes=16217734fc2de357 rt=ok",
    "mixed n6 L1 len=17 bytes=368c0faad0a2cd9a rt=ok",
    "mixed n6 L2 len=17 bytes=5a1fc0894004cb7f rt=ok",
    "mixed n6 L9 len=17 bytes=bde2a68f034aa902 rt=ok",
    "mixed n6 L10 len=17 bytes=3105ecb95223e8e7 rt=ok",
    "mixed n6 L18 len=17 bytes=583e6c5922f9f4af rt=ok",
    "mixed n6 L19 len=17 bytes=9cc0345d6e0e94e4 rt=ok",
    "mixed n7 L1 len=18 bytes=5d8e4703888dea59 rt=ok",
    "mixed n7 L2 len=18 bytes=725dadba41da51a2 rt=ok",
    "mixed n7 L9 len=18 bytes=ffee3c57343f3811 rt=ok",
    "mixed n7 L10 len=18 bytes=bdfb6836d7750cda rt=ok",
    "mixed n7 L18 len=18 bytes=3567151cea593732 rt=ok",
    "mixed n7 L19 len=18 bytes=765214169f290917 rt=ok",
    "mixed n8 L1 len=19 bytes=d28c953b3f81eea9 rt=ok",
    "mixed n8 L2 len=19 bytes=311bf79c75f2cb08 rt=ok",
    "mixed n8 L9 len=19 bytes=5bf42bade948a5d1 rt=ok",
    "mixed n8 L10 len=19 bytes=13fdb07a1fe1c110 rt=ok",
    "mixed n8 L18 len=19 bytes=05347ccd5c279538 rt=ok",
    "mixed n8 L19 len=19 bytes=fae198f2f5afb1d7 rt=ok",
    "mixed n9 L1 len=20 bytes=61a8c246a7a17c66 rt=ok",
    "mixed n9 L2 len=20 bytes=5d501c68502a6dc9 rt=ok",
    "mixed n9 L9 len=20 bytes=f98e9e9ff82645be rt=ok",
    "mixed n9 L10 len=20 bytes=256b6ec3a41f0a41 rt=ok",
    "mixed n9 L18 len=20 bytes=f95600bdf778d4d9 rt=ok",
    "mixed n9 L19 len=20 bytes=51ee5a156713c6a4 rt=ok",
    "mixed n15 L1 len=26 bytes=e1d866320826fce6 rt=ok",
    "mixed n15 L2 len=26 bytes=4cbbc97b4cd46a89 rt=ok",
    "mixed n15 L9 len=26 bytes=8dcf6828c79f2ffe rt=ok",
    "mixed n15 L10 len=26 bytes=ca01841e45971141 rt=ok",
    "mixed n15 L18 len=26 bytes=13e15f0285ead599 rt=ok",
    "mixed n15 L19 len=26 bytes=8e4450ee02d2dc94 rt=ok",
    "mixed n17 L1 len=28 bytes=86c3e1d7e95fe2e5 rt=ok",
    "mixed n17 L2 len=28 bytes=fc6fac91ec8821de rt=ok",
    "mixed n17 L9 len=28 bytes=755f15c349f8027d rt=ok",
    "mixed n17 L10 len=28 bytes=c27bf79f2ba82c56 rt=ok",
    "mixed n17 L18 len=28 bytes=f708033efec4edae rt=ok",
    "mixed n17 L19 len=28 bytes=6b91d9f917740c77 rt=ok",
    "mixed n23 L1 len=34 bytes=74f50d814c3f26c5 rt=ok",
    "mixed n23 L2 len=34 bytes=afb7a02202442ffe rt=ok",
    "mixed n23 L9 len=34 bytes=76da409253b88d1d rt=ok",
    "mixed n23 L10 len=34 bytes=54cb08d3e03c99b6 rt=ok",
    "mixed n23 L18 len=34 bytes=c50591b35eb0510e rt=ok",
    "mixed n23 L19 len=34 bytes=09eaa93973bf9c07 rt=ok",
    "mixed n25 L1 len=36 bytes=e2be8e6f4d10f209 rt=ok",
    "mixed n25 L2 len=36 bytes=e595ea2d6f016c82 rt=ok",
    "mixed n25 L9 len=36 bytes=92aac339e0f9e581 rt=ok",
    "mixed n25 L10 len=36 bytes=98027f1282e0447a rt=ok",
    "mixed n25 L18 len=36 bytes=211fb7f0acb2db52 rt=ok",
    "mixed n25 L19 len=36 bytes=a5f4309f58469037 rt=ok",
    "mixed n31 L1 len=42 bytes=f6b1e72664c6a8c6 rt=ok",
    "mixed n31 L2 len=42 bytes=2aa210b4e2675c05 rt=ok",
    "mixed n31 L9 len=42 bytes=d17092c2d781defe rt=ok",
    "mixed n31 L10 len=42 bytes=4b752db985b90ebd rt=ok",
    "mixed n31 L18 len=42 bytes=1beebd8dfae81d95 rt=ok",
    "mixed n31 L19 len=42 bytes=00390864015e37ec rt=ok",
    "mixed n33 L1 len=44 bytes=f5f55df9f9e463fd rt=ok",
    "mixed n33 L2 len=44 bytes=b09d0492409a37e2 rt=ok",
    "mixed n33 L9 len=44 bytes=3e19175413772075 rt=ok",
    "mixed n33 L10 len=44 bytes=d99f7847fbb7e4da rt=ok",
    "mixed n33 L18 len=44 bytes=cc0e118232176fb2 rt=ok",
    "mixed n33 L19 len=44 bytes=9c4ecd2bcb8abf6b rt=ok",
    "mixed n63 L1 len=51 bytes=1f40474925a7a1a3 rt=ok",
    "mixed n63 L2 len=51 bytes=ef0dba229a8f6342 rt=ok",
    "mixed n63 L9 len=51 bytes=6508b9f275cf023b rt=ok",
    "mixed n63 L10 len=51 bytes=5c32ac36ef195ffa rt=ok",
    "mixed n63 L18 len=51 bytes=e8146bc3e9714032 rt=ok",
    "mixed n63 L19 len=51 bytes=aa7a46bf7e3d865d rt=ok",
    "mixed n65 L1 len=51 bytes=32006c863c628dd8 rt=ok",
    "mixed n65 L2 len=51 bytes=bfc2f6fbc2d1fc6d rt=ok",
    "mixed n65 L9 len=51 bytes=dfb45fe5f49e1fe0 rt=ok",
    "mixed n65 L10 len=51 bytes=b5e7450d83359cd5 rt=ok",
    "mixed n65 L18 len=51 bytes=088883d2fc1ea45d rt=ok",
    "mixed n65 L19 len=51 bytes=8daa20e5512dae06 rt=ok",
    "mixed n255 L1 len=91 bytes=a8471e41e9836c1c rt=ok",
    "mixed n255 L2 len=91 bytes=a67a2a1ab8e4e0b1 rt=ok",
    "mixed n255 L9 len=91 bytes=c31f719045dd1fd4 rt=ok",
    "mixed n255 L10 len=91 bytes=95d892770277f8c9 rt=ok",
    "mixed n255 L18 len=91 bytes=b36f4c9a87d6aea1 rt=ok",
    "mixed n255 L19 len=91 bytes=db541537d7b2d78a rt=ok",
    "mixed n257 L1 len=91 bytes=ec209319a8d51ce6 rt=ok",
    "mixed n257 L2 len=91 bytes=c24b0be4ce2405b3 rt=ok",
    "mixed n257 L9 len=91 bytes=c363ba0fcd8b25be rt=ok",
    "mixed n257 L10 len=91 bytes=47fbe1944d5c09eb rt=ok",
    "mixed n257 L18 len=91 bytes=88b7d43f107bf5c3 rt=ok",
    "mixed n257 L19 len=91 bytes=6f37200180c59c48 rt=ok",
    "mixed n4095 L1 len=1059 bytes=8abb147f31c415db rt=ok",
    "mixed n4095 L2 len=1059 bytes=e3c9af995585e2e2 rt=ok",
    "mixed n4095 L9 len=1059 bytes=adf1c30724cc3903 rt=ok",
    "mixed n4095 L10 len=1059 bytes=4aa2be06a287b10a rt=ok",
    "mixed n4095 L18 len=1059 bytes=2772f014759a9792 rt=ok",
    "mixed n4095 L19 len=1059 bytes=e06a311eb3e3905d rt=ok",
    "mixed n4097 L1 len=1060 bytes=8dfbcd77de0f8df9 rt=ok",
    "mixed n4097 L2 len=1060 bytes=06cc189cc4295cae rt=ok",
    "mixed n4097 L9 len=1060 bytes=402bd4567b1df7f1 rt=ok",
    "mixed n4097 L10 len=1060 bytes=71fd91fc8bfcdca6 rt=ok",
    "mixed n4097 L18 len=1060 bytes=79132934f8bbcf7e rt=ok",
    "mixed n4097 L19 len=1060 bytes=a1b74c3aaa503743 rt=ok",
    "flat-Yuv420 n13824 L1 len=72 bytes=a6ffe7ec73b010e8 rt=ok",
    "flat-Yuv420 n13824 L2 len=72 bytes=277c9bf5954e85cb rt=ok",
    "flat-Yuv420 n13824 L9 len=72 bytes=43830fb80cf684f0 rt=ok",
    "flat-Yuv420 n13824 L10 len=72 bytes=9422b50e6fb1b1b3 rt=ok",
    "flat-Yuv420 n13824 L18 len=72 bytes=fa8af12dee4654db rt=ok",
    "flat-Yuv420 n13824 L19 len=72 bytes=a5d2a893f9a5743a rt=ok",
    "gradient-Yuv420 n13824 L1 len=3842 bytes=bd175838745bc73d rt=ok",
    "gradient-Yuv420 n13824 L2 len=3842 bytes=3edd2314465f90ca rt=ok",
    "gradient-Yuv420 n13824 L9 len=3842 bytes=61128e5e3d3e8b45 rt=ok",
    "gradient-Yuv420 n13824 L10 len=3842 bytes=39819cdfd12015b2 rt=ok",
    "gradient-Yuv420 n13824 L18 len=3842 bytes=af1ff1add139139a rt=ok",
    "gradient-Yuv420 n13824 L19 len=3842 bytes=0fff6f1cc416d3d7 rt=ok",
    "noise-Yuv420 n13824 L1 len=13837 bytes=350b6619a17ee0a1 rt=ok",
    "noise-Yuv420 n13824 L2 len=13837 bytes=5b7e83889b3d1dcc rt=ok",
    "noise-Yuv420 n13824 L9 len=13837 bytes=991ed21fc8d5d7f9 rt=ok",
    "noise-Yuv420 n13824 L10 len=13837 bytes=b0c2ad7799882384 rt=ok",
    "noise-Yuv420 n13824 L18 len=13837 bytes=1e241cc3dccee73c rt=ok",
    "noise-Yuv420 n13824 L19 len=13837 bytes=2b308ee9611d1a33 rt=ok",
    "flat-Rgb8 n27648 L1 len=6957 bytes=78914123c56a86d3 rt=ok",
    "flat-Rgb8 n27648 L2 len=6957 bytes=7dca3af37d1ef73e rt=ok",
    "flat-Rgb8 n27648 L9 len=6957 bytes=99c4aa22973bbc4b rt=ok",
    "flat-Rgb8 n27648 L10 len=6957 bytes=b5ca71a56ccd0eb6 rt=ok",
    "flat-Rgb8 n27648 L18 len=6957 bytes=e9e72651c986962e rt=ok",
    "flat-Rgb8 n27648 L19 len=6957 bytes=8b6a3e4b93ae9859 rt=ok",
    "gradient-Rgb8 n27648 L1 len=27663 bytes=e626be4759d4ddb2 rt=ok",
    "gradient-Rgb8 n27648 L2 len=27663 bytes=c6147ce87acd49df rt=ok",
    "gradient-Rgb8 n27648 L9 len=27663 bytes=4a6927313328af5a rt=ok",
    "gradient-Rgb8 n27648 L10 len=27663 bytes=a4ea7f70eb9f6907 rt=ok",
    "gradient-Rgb8 n27648 L18 len=27663 bytes=4b1a38df3c10924f rt=ok",
    "gradient-Rgb8 n27648 L19 len=27663 bytes=f02549b0f60ecd64 rt=ok",
    "noise-Rgb8 n27648 L1 len=27663 bytes=4038475185061bd5 rt=ok",
    "noise-Rgb8 n27648 L2 len=27663 bytes=25528887822d1d20 rt=ok",
    "noise-Rgb8 n27648 L9 len=27663 bytes=435fa7ca8749e5bd rt=ok",
    "noise-Rgb8 n27648 L10 len=27663 bytes=96334095bfa76d68 rt=ok",
    "noise-Rgb8 n27648 L18 len=27663 bytes=d75bb8ee3bcfc7f0 rt=ok",
    "noise-Rgb8 n27648 L19 len=27663 bytes=a38212db021bb7e7 rt=ok",
    "scene n97920 L1 len=34234 bytes=ea582956dbd6f9ba rt=ok",
    "scene n97920 L2 len=34234 bytes=5acd7cd3be2513d9 rt=ok",
    "scene n97920 L9 len=34234 bytes=44f74bc58d1aa832 rt=ok",
    "scene n97920 L10 len=34234 bytes=565aa85dde211571 rt=ok",
    "scene n97920 L18 len=34234 bytes=433d208c92cc2a09 rt=ok",
    "scene n97920 L19 len=34234 bytes=63223ea8fb37a930 rt=ok",
    "long-run n70016 L1 len=212 bytes=796e4a1bfcde1da2 rt=ok",
    "long-run n70016 L2 len=212 bytes=c076b4d83dc52265 rt=ok",
    "long-run n70016 L9 len=212 bytes=3729949bf2eacb9a rt=ok",
    "long-run n70016 L10 len=212 bytes=0c3f9f697d7c9afd rt=ok",
    "long-run n70016 L18 len=212 bytes=8921d77603d0d875 rt=ok",
    "long-run n70016 L19 len=212 bytes=52abb7d77e305a68 rt=ok",
    "far-repeats n1114112 L1 len=1114143 bytes=51066c6ceb64c8dd rt=ok",
    "far-repeats n1114112 L2 len=1114143 bytes=61153949bdda08f0 rt=ok",
    "far-repeats n1114112 L9 len=1114143 bytes=1b3f3fdf8a843be5 rt=ok",
    "far-repeats n1114112 L10 len=1114143 bytes=e9fcb42dec7933f8 rt=ok",
    "far-repeats n1114112 L18 len=1114143 bytes=0d1b56be5fdab0a0 rt=ok",
    "far-repeats n1114112 L19 len=1114143 bytes=cba46e4c0c176e0f rt=ok",
    "gop-flat-Yuv420 n13856 L1 len=124 bytes=21ce7562f32c2516 rt=ok",
    "gop-flat-Yuv420 n13856 L2 len=124 bytes=dff52e66b8090951 rt=ok",
    "gop-flat-Yuv420 n13856 L9 len=124 bytes=ea670f4f89e3511e rt=ok",
    "gop-flat-Yuv420 n13856 L10 len=124 bytes=80658c62f11e2fd9 rt=ok",
    "gop-flat-Yuv420 n13856 L18 len=124 bytes=823b1ef40feab781 rt=ok",
    "gop-flat-Yuv420 n13856 L19 len=124 bytes=2ca329663240376c rt=ok",
    "gop-gradient-Yuv420 n13856 L1 len=3876 bytes=fb83094eb4f02c01 rt=ok",
    "gop-gradient-Yuv420 n13856 L2 len=3876 bytes=f153f8c3430009fe rt=ok",
    "gop-gradient-Yuv420 n13856 L9 len=3876 bytes=46d7cd2807f24bd9 rt=ok",
    "gop-gradient-Yuv420 n13856 L10 len=3876 bytes=fd19eedd96c4c9d6 rt=ok",
    "gop-gradient-Yuv420 n13856 L18 len=3876 bytes=8370e4ce9658d6ae rt=ok",
    "gop-gradient-Yuv420 n13856 L19 len=3876 bytes=910c8d6879418677 rt=ok",
    "gop-noise-Yuv420 n13856 L1 len=13868 bytes=d3eb64398295ed0d rt=ok",
    "gop-noise-Yuv420 n13856 L2 len=13868 bytes=e383b7372ec11b22 rt=ok",
    "gop-noise-Yuv420 n13856 L9 len=13868 bytes=facc260094ecffc5 rt=ok",
    "gop-noise-Yuv420 n13856 L10 len=13868 bytes=bab3b21d90c1f85a rt=ok",
    "gop-noise-Yuv420 n13856 L18 len=13868 bytes=dfb2d293e2258112 rt=ok",
    "gop-noise-Yuv420 n13856 L19 len=13868 bytes=b789cb60d8c5ea9f rt=ok",
    "gop-flat-Rgb8 n27680 L1 len=145 bytes=9c4f90eea7d81e5d rt=ok",
    "gop-flat-Rgb8 n27680 L2 len=145 bytes=f29c35ec57ec6a14 rt=ok",
    "gop-flat-Rgb8 n27680 L9 len=145 bytes=59907969ac21f8b5 rt=ok",
    "gop-flat-Rgb8 n27680 L10 len=145 bytes=3590dd87042c87cc rt=ok",
    "gop-flat-Rgb8 n27680 L18 len=145 bytes=684a595b21eebda4 rt=ok",
    "gop-flat-Rgb8 n27680 L19 len=145 bytes=36e3bde78421b4ab rt=ok",
    "gop-gradient-Rgb8 n27680 L1 len=6530 bytes=a835bd060f4ba349 rt=ok",
    "gop-gradient-Rgb8 n27680 L2 len=6530 bytes=7bb31f251848da2a rt=ok",
    "gop-gradient-Rgb8 n27680 L9 len=6530 bytes=efe90ada1f4e1021 rt=ok",
    "gop-gradient-Rgb8 n27680 L10 len=6530 bytes=39e77bb42402df42 rt=ok",
    "gop-gradient-Rgb8 n27680 L18 len=6530 bytes=d42b0fb37da9ebda rt=ok",
    "gop-gradient-Rgb8 n27680 L19 len=6530 bytes=90cdc80815db1be3 rt=ok",
    "gop-noise-Rgb8 n27680 L1 len=27693 bytes=582512fae118b008 rt=ok",
    "gop-noise-Rgb8 n27680 L2 len=27693 bytes=a306f088067cbb39 rt=ok",
    "gop-noise-Rgb8 n27680 L9 len=27693 bytes=53475a09ade1bcd0 rt=ok",
    "gop-noise-Rgb8 n27680 L10 len=27693 bytes=66f3cc204ef8a101 rt=ok",
    "gop-noise-Rgb8 n27680 L18 len=27693 bytes=4456d936f2271509 rt=ok",
    "gop-noise-Rgb8 n27680 L19 len=27693 bytes=4f26750de8d9c746 rt=ok",
    "gop-scene n97951 L1 len=33639 bytes=4763ab214edb2d74 rt=ok",
    "gop-scene n97951 L2 len=33639 bytes=87f0d52c34682449 rt=ok",
    "gop-scene n97951 L9 len=33639 bytes=f1a0887448d0d4fc rt=ok",
    "gop-scene n97951 L10 len=33639 bytes=6c5b14cb7aa14b31 rt=ok",
    "gop-scene n97951 L18 len=33639 bytes=0ba5c4e33aa180d9 rt=ok",
    "gop-scene n97951 L19 len=33639 bytes=3ce2f3f42f253e5e rt=ok",
];
