//! Golden lossless streams: every byte `lossless::compress` emits, pinned
//! against constants captured when lossless format 2 (plane prediction and
//! Huffman-coded residuals) replaced the LZ77 format, by running this test
//! with an empty `GOLDEN` table and pasting the rows it printed. The LZ77
//! rows it replaced were captured on commit
//! 20248f31a138ece769b3fcde5aef883a17c65d9f; the inputs, levels and lengths
//! are theirs, and the raw GOPs at the end were added with format 2, whose
//! planes only a GOP's header reveals.
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
    "mixed n0 L1 len=10 bytes=23578cff409635d5 rt=ok",
    "mixed n0 L2 len=10 bytes=ffedf1322e87fc0e rt=ok",
    "mixed n0 L9 len=10 bytes=3ea46b67d108040d rt=ok",
    "mixed n0 L10 len=10 bytes=1b3acf9abef9ca46 rt=ok",
    "mixed n0 L18 len=10 bytes=3687ae034f6b987e rt=ok",
    "mixed n0 L19 len=10 bytes=131e12363d5d5eb7 rt=ok",
    "mixed n1 L1 len=12 bytes=275870f320efa732 rt=ok",
    "mixed n1 L2 len=12 bytes=b79a6abbd4e7c5a9 rt=ok",
    "mixed n1 L9 len=12 bytes=2f8238aac975562a rt=ok",
    "mixed n1 L10 len=12 bytes=bfc4b2737d6e4e21 rt=ok",
    "mixed n1 L18 len=12 bytes=c7edfa2b25f32399 rt=ok",
    "mixed n1 L19 len=12 bytes=75a18e7487d99964 rt=ok",
    "mixed n2 L1 len=13 bytes=8a3dfa4adbad93e8 rt=ok",
    "mixed n2 L2 len=13 bytes=1bfb9fa86edbe919 rt=ok",
    "mixed n2 L9 len=13 bytes=ed384f5e35644ed0 rt=ok",
    "mixed n2 L10 len=13 bytes=825c74bbcb76a681 rt=ok",
    "mixed n2 L18 len=13 bytes=e556c9cf252d6169 rt=ok",
    "mixed n2 L19 len=13 bytes=824b5e852db7c74a rt=ok",
    "mixed n3 L1 len=14 bytes=705c1e5d8fbab7d9 rt=ok",
    "mixed n3 L2 len=14 bytes=8d01ff0a17e59126 rt=ok",
    "mixed n3 L9 len=14 bytes=01a31643eaa9b611 rt=ok",
    "mixed n3 L10 len=14 bytes=731af6eb89644fde rt=ok",
    "mixed n3 L18 len=14 bytes=adf1eecf6ee33d96 rt=ok",
    "mixed n3 L19 len=14 bytes=a47e4b7be07f6693 rt=ok",
    "mixed n4 L1 len=15 bytes=ad955700c1e5f8a0 rt=ok",
    "mixed n4 L2 len=15 bytes=62f382dfda1c024d rt=ok",
    "mixed n4 L9 len=15 bytes=27c9c73fb8930ec8 rt=ok",
    "mixed n4 L10 len=15 bytes=d8caf749ea35cc75 rt=ok",
    "mixed n4 L18 len=15 bytes=53006788e0e4959d rt=ok",
    "mixed n4 L19 len=15 bytes=2456cf6f03b85c0e rt=ok",
    "mixed n5 L1 len=16 bytes=932ac0ed93795f8e rt=ok",
    "mixed n5 L2 len=16 bytes=de1993365c6b12f5 rt=ok",
    "mixed n5 L9 len=16 bytes=93508eac16c4d686 rt=ok",
    "mixed n5 L10 len=16 bytes=35b0f633876bbb6d rt=ok",
    "mixed n5 L18 len=16 bytes=3519bfc6ecf40de5 rt=ok",
    "mixed n5 L19 len=16 bytes=2f56d272884829ac rt=ok",
    "mixed n6 L1 len=17 bytes=ba9ca0751ffda36f rt=ok",
    "mixed n6 L2 len=17 bytes=380337b39e55aa0a rt=ok",
    "mixed n6 L9 len=17 bytes=2edc6a425c6d0cd7 rt=ok",
    "mixed n6 L10 len=17 bytes=c3b6ca6cb790d172 rt=ok",
    "mixed n6 L18 len=17 bytes=4278769a52cbbd5a rt=ok",
    "mixed n6 L19 len=17 bytes=f4711e608c429b55 rt=ok",
    "mixed n7 L1 len=18 bytes=0df7d85a89de1af2 rt=ok",
    "mixed n7 L2 len=18 bytes=8b2f28bcdbc3c729 rt=ok",
    "mixed n7 L9 len=18 bytes=ab03d6046b4bf9aa rt=ok",
    "mixed n7 L10 len=18 bytes=2932a23ba0e2a261 rt=ok",
    "mixed n7 L18 len=18 bytes=721cc77c02c85b19 rt=ok",
    "mixed n7 L19 len=18 bytes=90fde352272c6f44 rt=ok",
    "mixed n8 L1 len=19 bytes=c23f44c937da44f8 rt=ok",
    "mixed n8 L2 len=19 bytes=41017e0e03eb2519 rt=ok",
    "mixed n8 L9 len=19 bytes=7d7c8e601068a100 rt=ok",
    "mixed n8 L10 len=19 bytes=9a9bee88d75d44c1 rt=ok",
    "mixed n8 L18 len=19 bytes=576ec169b2da5669 rt=ok",
    "mixed n8 L19 len=19 bytes=6e8823381c32c5da rt=ok",
    "mixed n9 L1 len=20 bytes=d023197033ca0d99 rt=ok",
    "mixed n9 L2 len=20 bytes=c5b7e1cdff6fddb6 rt=ok",
    "mixed n9 L9 len=20 bytes=9bf626a02b477b91 rt=ok",
    "mixed n9 L10 len=20 bytes=613db5d118c4ce8e rt=ok",
    "mixed n9 L18 len=20 bytes=766cfc1d64759b26 rt=ok",
    "mixed n9 L19 len=20 bytes=480af47b407c4233 rt=ok",
    "mixed n15 L1 len=26 bytes=a753af33d417b159 rt=ok",
    "mixed n15 L2 len=26 bytes=89905aa5a6ee4bb6 rt=ok",
    "mixed n15 L9 len=26 bytes=80ca9a38abd9b111 rt=ok",
    "mixed n15 L10 len=26 bytes=2d67e263961dfece rt=ok",
    "mixed n15 L18 len=26 bytes=7da195a3dd362ca6 rt=ok",
    "mixed n15 L19 len=26 bytes=fc35a9b480dc4913 rt=ok",
    "mixed n17 L1 len=28 bytes=550161400aee036e rt=ok",
    "mixed n17 L2 len=28 bytes=d06197da89079135 rt=ok",
    "mixed n17 L9 len=28 bytes=172e5b62e331d566 rt=ok",
    "mixed n17 L10 len=28 bytes=4c35f8aa1c53818d rt=ok",
    "mixed n17 L18 len=28 bytes=dbec151de11836a5 rt=ok",
    "mixed n17 L19 len=28 bytes=1f947aa9de0c0aac rt=ok",
    "mixed n23 L1 len=34 bytes=7e265ab467f4afce rt=ok",
    "mixed n23 L2 len=34 bytes=b69ac45b1c95b5d5 rt=ok",
    "mixed n23 L9 len=34 bytes=d185a969f4082086 rt=ok",
    "mixed n23 L10 len=34 bytes=9f89710949543c6d rt=ok",
    "mixed n23 L18 len=34 bytes=03fe8cfedf839885 rt=ok",
    "mixed n23 L19 len=34 bytes=74a6b88191a380ac rt=ok",
    "mixed n25 L1 len=36 bytes=d1b4fc2f52068c12 rt=ok",
    "mixed n25 L2 len=36 bytes=2b4aa643b2670519 rt=ok",
    "mixed n25 L9 len=36 bytes=48220b048d265b0a rt=ok",
    "mixed n25 L10 len=36 bytes=e3b7cd47a08b54d1 rt=ok",
    "mixed n25 L18 len=36 bytes=25c07cf17ba4fac9 rt=ok",
    "mixed n25 L19 len=36 bytes=a084074571df2a64 rt=ok",
    "mixed n31 L1 len=42 bytes=d294c7d2454e8655 rt=ok",
    "mixed n31 L2 len=42 bytes=7573716f3db76396 rt=ok",
    "mixed n31 L9 len=42 bytes=04a218b56b62308d rt=ok",
    "mixed n31 L10 len=42 bytes=d7eb7cae40a47c8e rt=ok",
    "mixed n31 L18 len=42 bytes=73ab6072f39b2c86 rt=ok",
    "mixed n31 L19 len=42 bytes=85377ed3f97026ff rt=ok",
    "mixed n33 L1 len=44 bytes=4c1aafb5d31aae72 rt=ok",
    "mixed n33 L2 len=44 bytes=ccdb253533a8da4d rt=ok",
    "mixed n33 L9 len=44 bytes=ad82b5ff12d3616a rt=ok",
    "mixed n33 L10 len=44 bytes=7fd4ac165376eb85 rt=ok",
    "mixed n33 L18 len=44 bytes=5c83cb8c53b32bbd rt=ok",
    "mixed n33 L19 len=44 bytes=821114f46edba73c rt=ok",
    "mixed n63 L1 len=51 bytes=487321cc9c278372 rt=ok",
    "mixed n63 L2 len=51 bytes=75d5d22f8b77fcd3 rt=ok",
    "mixed n63 L9 len=51 bytes=fa48e2bd7542216a rt=ok",
    "mixed n63 L10 len=51 bytes=0aa5984ff258f4ab rt=ok",
    "mixed n63 L18 len=51 bytes=051045614c93e1e3 rt=ok",
    "mixed n63 L19 len=51 bytes=84b80275b57b6f80 rt=ok",
    "mixed n65 L1 len=51 bytes=b9d3e49b02441c1d rt=ok",
    "mixed n65 L2 len=51 bytes=bc44c1e0ea7ac5c8 rt=ok",
    "mixed n65 L9 len=51 bytes=a6e5506667998fc5 rt=ok",
    "mixed n65 L10 len=51 bytes=71a44bb4dd407b50 rt=ok",
    "mixed n65 L18 len=51 bytes=0d54c44fbdc08498 rt=ok",
    "mixed n65 L19 len=51 bytes=f2c8580baea64647 rt=ok",
    "mixed n255 L1 len=91 bytes=3c615ce2be913961 rt=ok",
    "mixed n255 L2 len=91 bytes=fa4070d984ca60cc rt=ok",
    "mixed n255 L9 len=91 bytes=dfc1dec0aecd7ff9 rt=ok",
    "mixed n255 L10 len=91 bytes=e4a2993245f74dc4 rt=ok",
    "mixed n255 L18 len=91 bytes=13ec0843ac8386dc rt=ok",
    "mixed n255 L19 len=91 bytes=1f5366c48b68062b rt=ok",
    "mixed n257 L1 len=91 bytes=d14180d3e7c19a03 rt=ok",
    "mixed n257 L2 len=91 bytes=f0356ed6c3e2d436 rt=ok",
    "mixed n257 L9 len=91 bytes=5ff2687d222ad5fb rt=ok",
    "mixed n257 L10 len=91 bytes=c60d9eaf8e2c858e rt=ok",
    "mixed n257 L18 len=91 bytes=acdbb12c4e94a026 rt=ok",
    "mixed n257 L19 len=91 bytes=56e52a0ee6bdb4d1 rt=ok",
    "mixed n4095 L1 len=1059 bytes=dfdd7183fbedfbd2 rt=ok",
    "mixed n4095 L2 len=1059 bytes=4ff68540d855784b rt=ok",
    "mixed n4095 L9 len=1059 bytes=a70bfd738122833a rt=ok",
    "mixed n4095 L10 len=1059 bytes=115bc027ad5a9af3 rt=ok",
    "mixed n4095 L18 len=1059 bytes=3d6641751aaa081b rt=ok",
    "mixed n4095 L19 len=1059 bytes=beb0fb9d6a005df0 rt=ok",
    "mixed n4097 L1 len=1060 bytes=353ab12781a62cbe rt=ok",
    "mixed n4097 L2 len=1060 bytes=eac0e1009ca4bd89 rt=ok",
    "mixed n4097 L9 len=1060 bytes=ba137815da728036 rt=ok",
    "mixed n4097 L10 len=1060 bytes=7b454618aa4f7c41 rt=ok",
    "mixed n4097 L18 len=1060 bytes=21f744bb7008c839 rt=ok",
    "mixed n4097 L19 len=1060 bytes=c3cb60709a856b6c rt=ok",
    "flat-Yuv420 n13824 L1 len=72 bytes=16560156cba39c1b rt=ok",
    "flat-Yuv420 n13824 L2 len=72 bytes=2809ee372ace4cf8 rt=ok",
    "flat-Yuv420 n13824 L9 len=72 bytes=971c4c1a48f7a483 rt=ok",
    "flat-Yuv420 n13824 L10 len=72 bytes=4eb9de216ec39480 rt=ok",
    "flat-Yuv420 n13824 L18 len=72 bytes=9149ca11de9bcd28 rt=ok",
    "flat-Yuv420 n13824 L19 len=72 bytes=779efefbec71fa79 rt=ok",
    "gradient-Yuv420 n13824 L1 len=3842 bytes=396fee5270830bda rt=ok",
    "gradient-Yuv420 n13824 L2 len=3842 bytes=073ef8bc725ac58d rt=ok",
    "gradient-Yuv420 n13824 L9 len=3842 bytes=aa1d36fa4fc5b482 rt=ok",
    "gradient-Yuv420 n13824 L10 len=3842 bytes=5b4ab44a68dff915 rt=ok",
    "gradient-Yuv420 n13824 L18 len=3842 bytes=59cdfcf05a2b567d rt=ok",
    "gradient-Yuv420 n13824 L19 len=3842 bytes=f356d2301815c680 rt=ok",
    "noise-Yuv420 n13824 L1 len=13837 bytes=2fddb9372ccab37c rt=ok",
    "noise-Yuv420 n13824 L2 len=13837 bytes=c30fd0273df2a011 rt=ok",
    "noise-Yuv420 n13824 L9 len=13837 bytes=54da2028e1753134 rt=ok",
    "noise-Yuv420 n13824 L10 len=13837 bytes=75c1475053974429 rt=ok",
    "noise-Yuv420 n13824 L18 len=13837 bytes=95da5ecf563087e1 rt=ok",
    "noise-Yuv420 n13824 L19 len=13837 bytes=78b3ca66836d09b2 rt=ok",
    "flat-Rgb8 n27648 L1 len=6957 bytes=b0a5c61422bc626e rt=ok",
    "flat-Rgb8 n27648 L2 len=6957 bytes=2032437836dedc03 rt=ok",
    "flat-Rgb8 n27648 L9 len=6957 bytes=8d94060a9964efa6 rt=ok",
    "flat-Rgb8 n27648 L10 len=6957 bytes=638c813f194471fb rt=ok",
    "flat-Rgb8 n27648 L18 len=6957 bytes=7cfe7c782a9d8613 rt=ok",
    "flat-Rgb8 n27648 L19 len=6957 bytes=a1a86e2c1a652650 rt=ok",
    "gradient-Rgb8 n27648 L1 len=27663 bytes=aea7483f8f7e160f rt=ok",
    "gradient-Rgb8 n27648 L2 len=27663 bytes=3be74a77d68c4962 rt=ok",
    "gradient-Rgb8 n27648 L9 len=27663 bytes=8eb19f7a7a6fce77 rt=ok",
    "gradient-Rgb8 n27648 L10 len=27663 bytes=6e1cde51bce60d0a rt=ok",
    "gradient-Rgb8 n27648 L18 len=27663 bytes=23decaabf8d26a72 rt=ok",
    "gradient-Rgb8 n27648 L19 len=27663 bytes=1cb726f78e5350fd rt=ok",
    "noise-Rgb8 n27648 L1 len=27663 bytes=58ab484bdf451e30 rt=ok",
    "noise-Rgb8 n27648 L2 len=27663 bytes=bb058d05739407e5 rt=ok",
    "noise-Rgb8 n27648 L9 len=27663 bytes=329acb827e0a5b78 rt=ok",
    "noise-Rgb8 n27648 L10 len=27663 bytes=d31b6bbce5df79cd rt=ok",
    "noise-Rgb8 n27648 L18 len=27663 bytes=69f49e031de5f615 rt=ok",
    "noise-Rgb8 n27648 L19 len=27663 bytes=f8070f1876eb6abe rt=ok",
    "scene n97920 L1 len=34234 bytes=999111078891f049 rt=ok",
    "scene n97920 L2 len=34234 bytes=50f71370a4a7dbea rt=ok",
    "scene n97920 L9 len=34234 bytes=e2845b2837b93361 rt=ok",
    "scene n97920 L10 len=34234 bytes=cfdf7d322c8d1362 rt=ok",
    "scene n97920 L18 len=34234 bytes=ef74c893dd0f76fa rt=ok",
    "scene n97920 L19 len=34234 bytes=3e031ab449420053 rt=ok",
    "long-run n70016 L1 len=212 bytes=67674cfb1a9ceeb5 rt=ok",
    "long-run n70016 L2 len=212 bytes=f049e44e8f2effb2 rt=ok",
    "long-run n70016 L9 len=212 bytes=8cf1b46c1ec19c8d rt=ok",
    "long-run n70016 L10 len=212 bytes=11869d8904aea9ea rt=ok",
    "long-run n70016 L18 len=212 bytes=4f19dd95709c99e2 rt=ok",
    "long-run n70016 L19 len=212 bytes=47a909218f6f6167 rt=ok",
    "far-repeats n1114112 L1 len=1114143 bytes=903e93ac5d29b260 rt=ok",
    "far-repeats n1114112 L2 len=1114143 bytes=811842d54867a4cd rt=ok",
    "far-repeats n1114112 L9 len=1114143 bytes=8708361209256568 rt=ok",
    "far-repeats n1114112 L10 len=1114143 bytes=e4319a32b8b3c095 rt=ok",
    "far-repeats n1114112 L18 len=1114143 bytes=eb8e7833f7f8a89d rt=ok",
    "far-repeats n1114112 L19 len=1114143 bytes=7bf7114dba8ca04e rt=ok",
    "gop-flat-Yuv420 n13856 L1 len=124 bytes=9e286c58c4d80841 rt=ok",
    "gop-flat-Yuv420 n13856 L2 len=124 bytes=50ec02ad36323986 rt=ok",
    "gop-flat-Yuv420 n13856 L9 len=124 bytes=ecf3976635370d09 rt=ok",
    "gop-flat-Yuv420 n13856 L10 len=124 bytes=f4a8509208bdfb8e rt=ok",
    "gop-flat-Yuv420 n13856 L18 len=124 bytes=ba6a2a288ffe93d6 rt=ok",
    "gop-flat-Yuv420 n13856 L19 len=124 bytes=7218d11aab4deab3 rt=ok",
    "gop-gradient-Yuv420 n13856 L1 len=3234 bytes=860ccf3725e7a97a rt=ok",
    "gop-gradient-Yuv420 n13856 L2 len=3234 bytes=61c36e28ddedebd9 rt=ok",
    "gop-gradient-Yuv420 n13856 L9 len=3234 bytes=e00522472e23d312 rt=ok",
    "gop-gradient-Yuv420 n13856 L10 len=3234 bytes=f17bff278dc01091 rt=ok",
    "gop-gradient-Yuv420 n13856 L18 len=3234 bytes=a51f65254809b489 rt=ok",
    "gop-gradient-Yuv420 n13856 L19 len=3234 bytes=24b0827e43f7986c rt=ok",
    "gop-noise-Yuv420 n13856 L1 len=13868 bytes=454383a20e4533d2 rt=ok",
    "gop-noise-Yuv420 n13856 L2 len=13868 bytes=59d3da009c55c73d rt=ok",
    "gop-noise-Yuv420 n13856 L9 len=13868 bytes=f4468c007209528a rt=ok",
    "gop-noise-Yuv420 n13856 L10 len=13868 bytes=e9c0d48b6181bfb5 rt=ok",
    "gop-noise-Yuv420 n13856 L18 len=13772 bytes=eae16b33fa78a1d6 rt=ok",
    "gop-noise-Yuv420 n13856 L19 len=13772 bytes=7fdddce9cafb7413 rt=ok",
    "gop-flat-Rgb8 n27680 L1 len=145 bytes=55eab47eea331c64 rt=ok",
    "gop-flat-Rgb8 n27680 L2 len=145 bytes=556db99ae236a0ed rt=ok",
    "gop-flat-Rgb8 n27680 L9 len=145 bytes=a2619b4628844bdc rt=ok",
    "gop-flat-Rgb8 n27680 L10 len=145 bytes=493cdf0eaee60bc5 rt=ok",
    "gop-flat-Rgb8 n27680 L18 len=145 bytes=4e44d57b6832651d rt=ok",
    "gop-flat-Rgb8 n27680 L19 len=145 bytes=f73cb6043c1a98d6 rt=ok",
    "gop-gradient-Rgb8 n27680 L1 len=2202 bytes=24b0a614d618fc03 rt=ok",
    "gop-gradient-Rgb8 n27680 L2 len=2202 bytes=8177cc37b847afc0 rt=ok",
    "gop-gradient-Rgb8 n27680 L9 len=2202 bytes=b4bef9c600a6f44b rt=ok",
    "gop-gradient-Rgb8 n27680 L10 len=2202 bytes=dbafb57afb4afbc8 rt=ok",
    "gop-gradient-Rgb8 n27680 L18 len=2202 bytes=e471eae233e17cf0 rt=ok",
    "gop-gradient-Rgb8 n27680 L19 len=2202 bytes=1318c2aee32ef4ad rt=ok",
    "gop-noise-Rgb8 n27680 L1 len=27693 bytes=b59ff55a3ceb2dc9 rt=ok",
    "gop-noise-Rgb8 n27680 L2 len=27693 bytes=537703aa1ea59c98 rt=ok",
    "gop-noise-Rgb8 n27680 L9 len=27693 bytes=dbf7bb6289fa2cd1 rt=ok",
    "gop-noise-Rgb8 n27680 L10 len=27693 bytes=c6e7edb5b9eafd20 rt=ok",
    "gop-noise-Rgb8 n27680 L18 len=27693 bytes=6f93b46ab6e995c8 rt=ok",
    "gop-noise-Rgb8 n27680 L19 len=27693 bytes=bf0b37f71a3321bb rt=ok",
    "gop-scene n97951 L1 len=34758 bytes=46bbdc3cac4d7e8e rt=ok",
    "gop-scene n97951 L2 len=34758 bytes=591a530f15befdc1 rt=ok",
    "gop-scene n97951 L9 len=33639 bytes=e4c42d0cd7cbb213 rt=ok",
    "gop-scene n97951 L10 len=33639 bytes=d9809b280342ac1e rt=ok",
    "gop-scene n97951 L18 len=32498 bytes=8bbb149d4c5f08e9 rt=ok",
    "gop-scene n97951 L19 len=32498 bytes=1eb8bc95c21495f4 rt=ok",
];
