//! Golden lossless streams: every byte `lossless::compress` emits, pinned
//! against constants captured on the parent of the match-search rewrite
//! (commit 20248f31a138ece769b3fcde5aef883a17c65d9f) by running this test
//! there with an empty `GOLDEN` table and pasting the rows it printed.
//!
//! The compressor's output is a pure function of (input, level), and the
//! deferred-compression path stores it on disk and sizes the budget by it:
//! a shortcut in the match search that changed one chosen (length,
//! distance) would change GOP files, `stored_bytes_per_raw_byte` and every
//! admission and eviction decision after it. These constants are the
//! reference; a row changes only when the format does.

use vss_codec::lossless;
use vss_frame::{pattern, Frame, PixelFormat};

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

/// Three frames of one pattern back to back, the shape of a raw GOP.
fn frames(kind: &str, format: PixelFormat) -> Vec<u8> {
    (0..3u64)
        .flat_map(|i| {
            let frame = match kind {
                "flat" => {
                    let mut frame = Frame::black(64, 48, format).unwrap();
                    pattern::fill_rect(&mut frame, 0, 0, 64, 48, (90, 140, 200));
                    frame
                }
                "gradient" => pattern::gradient(64, 48, format, i),
                _ => pattern::noise(64, 48, format, 0x5eed + i),
            };
            frame.into_data()
        })
        .collect()
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
fn compressed_streams_match_the_parent_commit() {
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
    "mixed n0 L1 len=6 bytes=64f82c458fe54170 rt=ok",
    "mixed n0 L2 len=6 bytes=65025e458fedeaeb rt=ok",
    "mixed n0 L9 len=6 bytes=65135c458ffc5ab8 rt=ok",
    "mixed n0 L10 len=6 bytes=651d8e4590050433 rt=ok",
    "mixed n0 L18 len=6 bytes=64cbfe458fbfb85b rt=ok",
    "mixed n0 L19 len=6 bytes=64c898458fbcd532 rt=ok",
    "mixed n1 L1 len=9 bytes=300edb28b752442b rt=ok",
    "mixed n1 L2 len=9 bytes=162d769782dba69e rt=ok",
    "mixed n1 L9 len=9 bytes=9585f47ca1cd9743 rt=ok",
    "mixed n1 L10 len=9 bytes=7ba48feb6d56f9b6 rt=ok",
    "mixed n1 L18 len=9 bytes=4b3f43efade5006e rt=ok",
    "mixed n1 L19 len=9 bytes=7e7e6ed5dcfa72c1 rt=ok",
    "mixed n2 L1 len=10 bytes=ff87f859f9313f16 rt=ok",
    "mixed n2 L2 len=10 bytes=96f75af2c4726355 rt=ok",
    "mixed n2 L9 len=10 bytes=e43b19f168bf70de rt=ok",
    "mixed n2 L10 len=10 bytes=7baa7c8a3400951d rt=ok",
    "mixed n2 L18 len=10 bytes=cd9117c3e555ffc5 rt=ok",
    "mixed n2 L19 len=10 bytes=e0ebdce715cc4d98 rt=ok",
    "mixed n3 L1 len=11 bytes=a1e5d00d066a3dbd rt=ok",
    "mixed n3 L2 len=11 bytes=bc17265936a2be14 rt=ok",
    "mixed n3 L9 len=11 bytes=cc79ac5f9508d495 rt=ok",
    "mixed n3 L10 len=11 bytes=e6ab02abc54154ec rt=ok",
    "mixed n3 L18 len=11 bytes=66ef6db419659064 rt=ok",
    "mixed n3 L19 len=11 bytes=39b1add4a1e3e4a3 rt=ok",
    "mixed n4 L1 len=12 bytes=3c621181bb0bac61 rt=ok",
    "mixed n4 L2 len=12 bytes=67ffecb75417bc36 rt=ok",
    "mixed n4 L9 len=12 bytes=343899ca12868559 rt=ok",
    "mixed n4 L10 len=12 bytes=5fd474ffab8f2f2e rt=ok",
    "mixed n4 L18 len=12 bytes=7afbd7fb8a420ec6 rt=ok",
    "mixed n4 L19 len=12 bytes=c2e3e42f98afb56f rt=ok",
    "mixed n5 L1 len=13 bytes=eb0aa246f3cf9738 rt=ok",
    "mixed n5 L2 len=13 bytes=8ae0efadc55b215d rt=ok",
    "mixed n5 L9 len=13 bytes=80a12d3393c7f2a0 rt=ok",
    "mixed n5 L10 len=13 bytes=27437a9a6b19cec5 rt=ok",
    "mixed n5 L18 len=13 bytes=fe104495d50bbe0d rt=ok",
    "mixed n5 L19 len=13 bytes=1dacadb6918afa02 rt=ok",
    "mixed n6 L1 len=14 bytes=a24f615d1c06d8a3 rt=ok",
    "mixed n6 L2 len=14 bytes=578ac4448fcd3c2c rt=ok",
    "mixed n6 L9 len=14 bytes=1c6ed97abf07805b rt=ok",
    "mixed n6 L10 len=14 bytes=d1aa3c6232cde3e4 rt=ok",
    "mixed n6 L18 len=14 bytes=b641d41319c942bc rt=ok",
    "mixed n6 L19 len=14 bytes=0285f2bf38517ec1 rt=ok",
    "mixed n7 L1 len=15 bytes=784c9abf112009af rt=ok",
    "mixed n7 L2 len=15 bytes=8d5f537707e440ae rt=ok",
    "mixed n7 L9 len=15 bytes=4ddd40485712d287 rt=ok",
    "mixed n7 L10 len=15 bytes=c01172a5b62d5c86 rt=ok",
    "mixed n7 L18 len=15 bytes=851c8ebf13a85bfe rt=ok",
    "mixed n7 L19 len=15 bytes=911ac9a26fccbf35 rt=ok",
    "mixed n8 L1 len=15 bytes=dfd44d4457719ae9 rt=ok",
    "mixed n8 L2 len=15 bytes=149a440a6da26eac rt=ok",
    "mixed n8 L9 len=15 bytes=2fbacb49f95a98a1 rt=ok",
    "mixed n8 L10 len=15 bytes=7a79e06aec209144 rt=ok",
    "mixed n8 L18 len=15 bytes=01b0affee4e1955c rt=ok",
    "mixed n8 L19 len=15 bytes=c3195d3552c207bf rt=ok",
    "mixed n9 L1 len=15 bytes=1d0ebc647669b8fd rt=ok",
    "mixed n9 L2 len=15 bytes=28ce18179a7d7418 rt=ok",
    "mixed n9 L9 len=15 bytes=1b86f73ccc7f9335 rt=ok",
    "mixed n9 L10 len=15 bytes=e1293ec9ecce71b0 rt=ok",
    "mixed n9 L18 len=15 bytes=208c735fa64378c8 rt=ok",
    "mixed n9 L19 len=15 bytes=0053cc5571ba25d3 rt=ok",
    "mixed n15 L1 len=15 bytes=41b138c6745a82a1 rt=ok",
    "mixed n15 L2 len=15 bytes=42ad752603d04674 rt=ok",
    "mixed n15 L9 len=15 bytes=354b244b35bb4c49 rt=ok",
    "mixed n15 L10 len=15 bytes=fb3efbd8564f769c rt=ok",
    "mixed n15 L18 len=15 bytes=3a6bd06e0f964b24 rt=ok",
    "mixed n15 L19 len=15 bytes=37e2b274543a76f7 rt=ok",
    "mixed n17 L1 len=15 bytes=d476a91f0047ea8d rt=ok",
    "mixed n17 L2 len=15 bytes=7c0e1ab0a5262088 rt=ok",
    "mixed n17 L9 len=15 bytes=6ec6f9d5d7283fa5 rt=ok",
    "mixed n17 L10 len=15 bytes=fff88d0c9f14eba0 rt=ok",
    "mixed n17 L18 len=15 bytes=01bd251cf3fcfed8 rt=ok",
    "mixed n17 L19 len=15 bytes=c30ce81743a69e43 rt=ok",
    "mixed n23 L1 len=15 bytes=ee3ad62d6983a3a1 rt=ok",
    "mixed n23 L2 len=15 bytes=95b717bf0e4ac054 rt=ok",
    "mixed n23 L9 len=15 bytes=88c186e440922b49 rt=ok",
    "mixed n23 L10 len=15 bytes=19d7ea1b0867bdfc rt=ok",
    "mixed n23 L18 len=15 bytes=77e914ac3dd80544 rt=ok",
    "mixed n23 L19 len=15 bytes=a963eb08da81fe77 rt=ok",
    "mixed n25 L1 len=15 bytes=972fc4e0d23462fd rt=ok",
    "mixed n25 L2 len=15 bytes=5cd20c6df2834178 rt=ok",
    "mixed n25 L9 len=15 bytes=fd7c2141510eeab5 rt=ok",
    "mixed n25 L10 len=15 bytes=c2b1a8ce71016410 rt=ok",
    "mixed n25 L18 len=15 bytes=3f04095b22108668 rt=ok",
    "mixed n25 L19 len=15 bytes=e248f659f6497d53 rt=ok",
    "mixed n31 L1 len=20 bytes=20bfc24b32f58405 rt=ok",
    "mixed n31 L2 len=20 bytes=fe74849d4488d216 rt=ok",
    "mixed n31 L9 len=20 bytes=51de4dbd286ede8d rt=ok",
    "mixed n31 L10 len=20 bytes=237ae24d37ee0e1e rt=ok",
    "mixed n31 L18 len=20 bytes=345b70a89cc61146 rt=ok",
    "mixed n31 L19 len=20 bytes=812bd3dde22221bf rt=ok",
    "mixed n33 L1 len=22 bytes=62cd0811051b6373 rt=ok",
    "mixed n33 L2 len=22 bytes=842c8f0b242d78ec rt=ok",
    "mixed n33 L9 len=22 bytes=0a8baec9349edbab rt=ok",
    "mixed n33 L10 len=22 bytes=14e2499b2904b4a4 rt=ok",
    "mixed n33 L18 len=22 bytes=37612638eb1beebc rt=ok",
    "mixed n33 L19 len=22 bytes=ce3da9f937cede2d rt=ok",
    "mixed n63 L1 len=31 bytes=f6dd2e1924af99e8 rt=ok",
    "mixed n63 L2 len=31 bytes=7450842aacb1a445 rt=ok",
    "mixed n63 L9 len=31 bytes=7cc51023424d1990 rt=ok",
    "mixed n63 L10 len=31 bytes=9682284439957550 rt=ok",
    "mixed n63 L18 len=31 bytes=46588ea75fefc548 rt=ok",
    "mixed n63 L19 len=31 bytes=0a46599bda7aeadb rt=ok",
    "mixed n65 L1 len=31 bytes=d95a42c478c3cb7c rt=ok",
    "mixed n65 L2 len=31 bytes=e03731ac6310c7f1 rt=ok",
    "mixed n65 L9 len=31 bytes=55a759c9d0d41014 rt=ok",
    "mixed n65 L10 len=31 bytes=7710249dc69a3769 rt=ok",
    "mixed n65 L18 len=31 bytes=da725c863cff84e1 rt=ok",
    "mixed n65 L19 len=31 bytes=4d5fc09d64116dfe rt=ok",
    "mixed n255 L1 len=79 bytes=b73ac95f9d5d7c37 rt=ok",
    "mixed n255 L2 len=74 bytes=a5dff8b5aa60a6eb rt=ok",
    "mixed n255 L9 len=73 bytes=695f5f670eb83a47 rt=ok",
    "mixed n255 L10 len=72 bytes=d3fba7bf597921ee rt=ok",
    "mixed n255 L18 len=72 bytes=c94098fabee8a956 rt=ok",
    "mixed n255 L19 len=72 bytes=0d1d64aaebeea76b rt=ok",
    "mixed n257 L1 len=79 bytes=6dfffbab8f073596 rt=ok",
    "mixed n257 L2 len=74 bytes=a6256010a47cf15c rt=ok",
    "mixed n257 L9 len=73 bytes=9e5ae6cb485f5b4a rt=ok",
    "mixed n257 L10 len=72 bytes=2833303a2dc69b14 rt=ok",
    "mixed n257 L18 len=72 bytes=0ec7e42f2ddb3e7c rt=ok",
    "mixed n257 L19 len=72 bytes=bef93bb31063827d rt=ok",
    "mixed n4095 L1 len=1276 bytes=2b2565af5f54f6bb rt=ok",
    "mixed n4095 L2 len=1005 bytes=de4f72831886eda0 rt=ok",
    "mixed n4095 L9 len=1004 bytes=9cdf03d7e1888f28 rt=ok",
    "mixed n4095 L10 len=1003 bytes=f9356fee48fd6388 rt=ok",
    "mixed n4095 L18 len=1003 bytes=ccf39f66606bf350 rt=ok",
    "mixed n4095 L19 len=1003 bytes=01d9fbc7cf34c3af rt=ok",
    "mixed n4097 L1 len=1276 bytes=25be2c1fd9cd924c rt=ok",
    "mixed n4097 L2 len=1005 bytes=6145fccba213999d rt=ok",
    "mixed n4097 L9 len=1004 bytes=425a4ef0aad815e3 rt=ok",
    "mixed n4097 L10 len=1003 bytes=4cc3a2d40f686cc5 rt=ok",
    "mixed n4097 L18 len=1003 bytes=63aca778e4b1b78d rt=ok",
    "mixed n4097 L19 len=1003 bytes=309f455822c37846 rt=ok",
    "flat-Yuv420 n13824 L1 len=49 bytes=84aacaa5e2c39512 rt=ok",
    "flat-Yuv420 n13824 L2 len=49 bytes=5177ac774db02d67 rt=ok",
    "flat-Yuv420 n13824 L9 len=53 bytes=f4ab2cced426c824 rt=ok",
    "flat-Yuv420 n13824 L10 len=49 bytes=c1dc59f420469f4e rt=ok",
    "flat-Yuv420 n13824 L18 len=53 bytes=a7a39b24b88a9ce2 rt=ok",
    "flat-Yuv420 n13824 L19 len=53 bytes=6e8366dbf5869f01 rt=ok",
    "gradient-Yuv420 n13824 L1 len=1653 bytes=8fd0a94e8fdedea1 rt=ok",
    "gradient-Yuv420 n13824 L2 len=1511 bytes=191b752fcd28959d rt=ok",
    "gradient-Yuv420 n13824 L9 len=1434 bytes=5e5837d8ee5cadf2 rt=ok",
    "gradient-Yuv420 n13824 L10 len=1363 bytes=cbf17b47096b3549 rt=ok",
    "gradient-Yuv420 n13824 L18 len=1351 bytes=22f9c9742f8d6f76 rt=ok",
    "gradient-Yuv420 n13824 L19 len=1348 bytes=345b7901a9bc5ed7 rt=ok",
    "noise-Yuv420 n13824 L1 len=13834 bytes=c900de4edc0cfb77 rt=ok",
    "noise-Yuv420 n13824 L2 len=13834 bytes=774526cb92f9c830 rt=ok",
    "noise-Yuv420 n13824 L9 len=13834 bytes=6ee5e72768002d3f rt=ok",
    "noise-Yuv420 n13824 L10 len=13834 bytes=507e9d2b149e2df8 rt=ok",
    "noise-Yuv420 n13824 L18 len=13834 bytes=57aac5765327a080 rt=ok",
    "noise-Yuv420 n13824 L19 len=13834 bytes=53434f8509c0fb41 rt=ok",
    "flat-Rgb8 n27648 L1 len=19 bytes=ad3aa416b1df9b49 rt=ok",
    "flat-Rgb8 n27648 L2 len=19 bytes=d8be800fbaef6c00 rt=ok",
    "flat-Rgb8 n27648 L9 len=19 bytes=d664f4789a8aadc1 rt=ok",
    "flat-Rgb8 n27648 L10 len=19 bytes=b61fe919a84b1078 rt=ok",
    "flat-Rgb8 n27648 L18 len=19 bytes=89e8b8de239520b0 rt=ok",
    "flat-Rgb8 n27648 L19 len=19 bytes=1d23b998cdab83cb rt=ok",
    "gradient-Rgb8 n27648 L1 len=10475 bytes=fb0f8beb4ad2c91b rt=ok",
    "gradient-Rgb8 n27648 L2 len=10475 bytes=7be8a6e5895ae166 rt=ok",
    "gradient-Rgb8 n27648 L9 len=10475 bytes=00ea474b02b78b43 rt=ok",
    "gradient-Rgb8 n27648 L10 len=10283 bytes=b67430a53cc22000 rt=ok",
    "gradient-Rgb8 n27648 L18 len=10283 bytes=3c828036f8f16988 rt=ok",
    "gradient-Rgb8 n27648 L19 len=10283 bytes=43233eaa8bd8e557 rt=ok",
    "noise-Rgb8 n27648 L1 len=27660 bytes=3eda5144cd96a9e3 rt=ok",
    "noise-Rgb8 n27648 L2 len=27660 bytes=d902c06a7670814c rt=ok",
    "noise-Rgb8 n27648 L9 len=27660 bytes=f82316300254e7db rt=ok",
    "noise-Rgb8 n27648 L10 len=27660 bytes=e4c81a763699cfc4 rt=ok",
    "noise-Rgb8 n27648 L18 len=27660 bytes=566d7ec98f66623c rt=ok",
    "noise-Rgb8 n27648 L19 len=27660 bytes=f2a5750db02ff585 rt=ok",
    "scene n97920 L1 len=80696 bytes=07c328a1cdcd307b rt=ok",
    "scene n97920 L2 len=78336 bytes=a1e8219425809fdb rt=ok",
    "scene n97920 L9 len=76820 bytes=7d0dccd3904406ce rt=ok",
    "scene n97920 L10 len=72372 bytes=468adc4664d852f3 rt=ok",
    "scene n97920 L18 len=72151 bytes=076465edaa9a2fd3 rt=ok",
    "scene n97920 L19 len=72173 bytes=2f6589b6b25dc288 rt=ok",
    "long-run n70016 L1 len=35 bytes=4ba59525d4b77012 rt=ok",
    "long-run n70016 L2 len=35 bytes=a61294124dea149f rt=ok",
    "long-run n70016 L9 len=35 bytes=19bfab0f12ac3bba rt=ok",
    "long-run n70016 L10 len=35 bytes=b266017ef1499d23 rt=ok",
    "long-run n70016 L18 len=35 bytes=273b00115afa780b rt=ok",
    "long-run n70016 L19 len=35 bytes=504939742357ea10 rt=ok",
    "far-repeats n1114112 L1 len=1081867 bytes=7654a9eeea4f18df rt=ok",
    "far-repeats n1114112 L2 len=1081936 bytes=d5595f2c79f2f86d rt=ok",
    "far-repeats n1114112 L9 len=1081951 bytes=e6a033f62bdf90a3 rt=ok",
    "far-repeats n1114112 L10 len=1081951 bytes=dd24944250069792 rt=ok",
    "far-repeats n1114112 L18 len=1081951 bytes=a89668d4b93ab25a rt=ok",
    "far-repeats n1114112 L19 len=1081951 bytes=d4299c92ba3e4ce9 rt=ok",
];
