//! Golden bitstreams: every byte the lossy codecs emit, and every sample they
//! decode, pinned against constants captured on the parent of the row-kernel
//! rewrite (commit 713f3a3bce1278c4c0f032879f786f461785f8d5) by running this
//! test there with an empty `GOLDEN` table and pasting the rows it printed.
//!
//! The kernels in `video.rs`/`bitstream.rs` have no scalar twin to compare
//! against; these constants are the reference. A row changes only when the
//! bitstream format does, and then it is a format change, not a refactor.

use vss_codec::{codec_instance, Codec, EncodedGop, EncoderConfig};
use vss_frame::{pattern, Frame, FrameSequence, PixelFormat};

const QUALITIES: [u8; 4] = [100, 85, 30, 0];
/// 34×18 has an odd chroma width and plane heights (18, 9) that are not
/// multiples of four: no kernel that codes rows in groups gets past it.
const RESOLUTIONS: [(u32, u32); 4] = [(2, 2), (34, 18), (64, 48), (240, 136)];
const GOP_LENGTHS: [usize; 3] = [1, 2, 7];

fn fnv1a(hash: &mut u64, data: &[u8]) {
    for &byte in data {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn gradient_clip(width: u32, height: u32, frames: usize) -> FrameSequence {
    let frames = (0..frames)
        .map(|i| pattern::gradient(width, height, PixelFormat::Yuv420, i as u64))
        .collect();
    FrameSequence::new(frames, 30.0).unwrap()
}

/// Seeded noise over a still gradient, every third frame left clean: the
/// noisy frames favour the HEVC simulation's basic predictors, the clean
/// ones its advanced predictors, so one GOP carries both mode flags.
fn noise_clip(width: u32, height: u32) -> FrameSequence {
    let base = pattern::gradient(width, height, PixelFormat::Yuv420, 3);
    let frames: Vec<Frame> = (0..7u64)
        .map(|i| if i % 3 == 0 { base.clone() } else { pattern::add_noise(&base, 40, 0x5eed + i) })
        .collect();
    FrameSequence::new(frames, 30.0).unwrap()
}

fn encode(clip: &FrameSequence, codec: Codec, quality: u8) -> EncodedGop {
    let config = EncoderConfig { quality, gop_size: clip.len() };
    codec_instance(codec).encode(clip, &config).unwrap()
}

/// One golden row: the serialized GOP's length and digest, and a digest over
/// every decoded frame. Also checks, for every `k`, that `decode_prefix(k)`
/// is the first `k` frames of the full decode.
fn row(label: &str, clip: &FrameSequence, codec: Codec, quality: u8) -> String {
    let gop = encode(clip, codec, quality);
    let bytes = gop.to_bytes();
    let implementation = codec_instance(codec);
    let decoded = implementation.decode(&gop).unwrap();
    assert_eq!(decoded.len(), clip.len());
    for k in 0..=clip.len() {
        let prefix = implementation.decode_prefix(&gop, k).unwrap();
        assert_eq!(prefix.frames(), &decoded.frames()[..k], "{label} {codec} q{quality} prefix {k}");
    }
    let (mut bytes_digest, mut frames_digest) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
    fnv1a(&mut bytes_digest, &bytes);
    for frame in decoded.frames() {
        assert_eq!(frame.format(), PixelFormat::Yuv420);
        fnv1a(&mut frames_digest, frame.data());
    }
    let (w, h) = (gop.width(), gop.height());
    format!(
        "{label} {codec} q{quality} {w}x{h} n{} len={} bytes={bytes_digest:016x} frames={frames_digest:016x}",
        clip.len(),
        bytes.len()
    )
}

fn rows() -> Vec<String> {
    let mut rows = Vec::new();
    for &(width, height) in &RESOLUTIONS {
        for &frames in &GOP_LENGTHS {
            let clip = gradient_clip(width, height, frames);
            for codec in [Codec::H264, Codec::Hevc] {
                rows.extend(QUALITIES.iter().map(|&q| row("gradient", &clip, codec, q)));
            }
        }
    }
    for &(width, height) in &[(34, 18), (64, 48)] {
        let clip = noise_clip(width, height);
        for codec in [Codec::H264, Codec::Hevc] {
            rows.extend(QUALITIES.iter().map(|&q| row("noise", &clip, codec, q)));
        }
    }
    rows
}

#[test]
fn bitstreams_and_decoded_frames_match_the_parent_commit() {
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

#[test]
fn the_noise_clip_makes_hevc_pick_both_predictor_families() {
    // Each HEVC-sim frame payload starts with its one-byte mode flag.
    for &(width, height) in &[(34, 18), (64, 48)] {
        let gop = encode(&noise_clip(width, height), Codec::Hevc, 85);
        let flags: Vec<u8> =
            (0..gop.frame_count()).map(|i| gop.frame_payload(i).unwrap()[0]).collect();
        assert!(flags.contains(&0) && flags.contains(&1), "{width}x{height}: mode flags {flags:?}");
    }
}

#[rustfmt::skip]
const GOLDEN: &[&str] = &[
    "gradient h264 q100 2x2 n1 len=42 bytes=7c5177891575aa31 frames=7fe6f8029cebf4f4",
    "gradient h264 q85 2x2 n1 len=40 bytes=87aa8cc66e9dd114 frames=52ad334ca064c105",
    "gradient h264 q30 2x2 n1 len=40 bytes=3ae88af22633870b frames=c9d903bc38c49839",
    "gradient h264 q0 2x2 n1 len=40 bytes=2ecb06de2c2f171e frames=60a1f2c07b2fdc7d",
    "gradient hevc q100 2x2 n1 len=43 bytes=403afe101fcda38c frames=7fe6f8029cebf4f4",
    "gradient hevc q85 2x2 n1 len=41 bytes=1e9c51cf4c44603f frames=52ad334ca064c105",
    "gradient hevc q30 2x2 n1 len=41 bytes=a53f57bc9578611c frames=c9d903bc38c49839",
    "gradient hevc q0 2x2 n1 len=41 bytes=21f87c039fecfa1d frames=60a1f2c07b2fdc7d",
    "gradient h264 q100 2x2 n2 len=60 bytes=d4f0d52ef51f2e9a frames=82e89160414c9b6f",
    "gradient h264 q85 2x2 n2 len=57 bytes=dd7d9486ffd77533 frames=c99f96ce37bbe61d",
    "gradient h264 q30 2x2 n2 len=57 bytes=75802f62424b0502 frames=727d3cc61c1cdb97",
    "gradient h264 q0 2x2 n2 len=55 bytes=ba9a6c55c631a0e8 frames=cd7875c0e44ec115",
    "gradient hevc q100 2x2 n2 len=62 bytes=b55e71a0a155f881 frames=82e89160414c9b6f",
    "gradient hevc q85 2x2 n2 len=59 bytes=2bc7a12c454a1834 frames=c99f96ce37bbe61d",
    "gradient hevc q30 2x2 n2 len=59 bytes=e72f581ea789ced3 frames=727d3cc61c1cdb97",
    "gradient hevc q0 2x2 n2 len=57 bytes=f4ae7335f84e011f frames=cd7875c0e44ec115",
    "gradient h264 q100 2x2 n7 len=148 bytes=28f23abb4d5d46e9 frames=86fe1cddb709725a",
    "gradient h264 q85 2x2 n7 len=142 bytes=10e9ba194f6955c6 frames=45fb55d52b976af5",
    "gradient h264 q30 2x2 n7 len=142 bytes=250d53d6c4d687e9 frames=1ca9c9def27b7fc3",
    "gradient h264 q0 2x2 n7 len=140 bytes=a2935af2c1379b27 frames=2d1dfc6c74ff545d",
    "gradient hevc q100 2x2 n7 len=155 bytes=901d7cc90013d7da frames=86fe1cddb709725a",
    "gradient hevc q85 2x2 n7 len=149 bytes=6321ebb29f6aa9e3 frames=45fb55d52b976af5",
    "gradient hevc q30 2x2 n7 len=149 bytes=16d09d63d1b24e60 frames=1ca9c9def27b7fc3",
    "gradient hevc q0 2x2 n7 len=147 bytes=2d4887cdb752febc frames=2d1dfc6c74ff545d",
    "gradient h264 q100 34x18 n1 len=1869 bytes=23a03923817fa46f frames=639b0deaa4e9ecb1",
    "gradient h264 q85 34x18 n1 len=794 bytes=598bb4638feb504a frames=93b1e7e233d94ce5",
    "gradient h264 q30 34x18 n1 len=214 bytes=852f1fa97e70ce98 frames=f6d1ca14bba8dbd1",
    "gradient h264 q0 34x18 n1 len=166 bytes=3d23f53bb98636d3 frames=3acc00c038fd9ced",
    "gradient hevc q100 34x18 n1 len=1724 bytes=ac6eb1961e4a97a7 frames=639b0deaa4e9ecb1",
    "gradient hevc q85 34x18 n1 len=637 bytes=21acb91e21abedf3 frames=5b341d83f68771f5",
    "gradient hevc q30 34x18 n1 len=215 bytes=0aebfcb4a5c28848 frames=f6d1ca14bba8dbd1",
    "gradient hevc q0 34x18 n1 len=167 bytes=302f24e44549e147 frames=3acc00c038fd9ced",
    "gradient h264 q100 34x18 n2 len=3714 bytes=051b3f869ab5f6e5 frames=c18ddb2fa823c4c6",
    "gradient h264 q85 34x18 n2 len=1355 bytes=c75afc44af407556 frames=3782efd53a56d955",
    "gradient h264 q30 34x18 n2 len=361 bytes=ba1b81de2e36c58d frames=627ab202a0340e40",
    "gradient h264 q0 34x18 n2 len=278 bytes=1ba3483df277e74f frames=6fc2d815ba7a2ba8",
    "gradient hevc q100 34x18 n2 len=3570 bytes=a0b52f8901fd85b5 frames=c18ddb2fa823c4c6",
    "gradient hevc q85 34x18 n2 len=1215 bytes=e67a74d81a0bdaf7 frames=163b8e978e52bac5",
    "gradient hevc q30 34x18 n2 len=363 bytes=1eb7f65225e134f7 frames=627ab202a0340e40",
    "gradient hevc q0 34x18 n2 len=280 bytes=ba745799b2bb22b9 frames=6fc2d815ba7a2ba8",
    "gradient h264 q100 34x18 n7 len=12774 bytes=ee0c9901d8fe6c4c frames=914e77462f529c17",
    "gradient h264 q85 34x18 n7 len=4336 bytes=914ab64a65d44375 frames=f67ff54eac66859d",
    "gradient h264 q30 34x18 n7 len=1338 bytes=6c69853a12ea9000 frames=0020c44a4f0edf05",
    "gradient h264 q0 34x18 n7 len=1093 bytes=10bfe7b428f8e64f frames=907c5bdcf4e780d9",
    "gradient hevc q100 34x18 n7 len=12575 bytes=ada216f50a4fc212 frames=914e77462f529c17",
    "gradient hevc q85 34x18 n7 len=4193 bytes=6a4ead94927cb6ad frames=8af65cad0252fd2d",
    "gradient hevc q30 34x18 n7 len=1339 bytes=2361caa933afe672 frames=2d0351db76eb7763",
    "gradient hevc q0 34x18 n7 len=1098 bytes=b8d20eca4ea03c24 frames=971c88daf5b11a89",
    "gradient h264 q100 64x48 n1 len=9007 bytes=9773aec7691b48aa frames=e4750526e19e3d7b",
    "gradient h264 q85 64x48 n1 len=2012 bytes=31f6fc8e2c6b6aca frames=9d4ff8bd9291e165",
    "gradient h264 q30 64x48 n1 len=504 bytes=5afa7f6c00f06adf frames=8d8c86d3e85cb544",
    "gradient h264 q0 64x48 n1 len=381 bytes=d80e385dd1287821 frames=5f7116c88f5b3b08",
    "gradient hevc q100 64x48 n1 len=7812 bytes=8c5c5148586bff0b frames=e4750526e19e3d7b",
    "gradient hevc q85 64x48 n1 len=2013 bytes=cf3e1367e6af0cf6 frames=9d4ff8bd9291e165",
    "gradient hevc q30 64x48 n1 len=505 bytes=22e0a4490d5b053f frames=8d8c86d3e85cb544",
    "gradient hevc q0 64x48 n1 len=382 bytes=dbb8e066d59ea60f frames=5f7116c88f5b3b08",
    "gradient h264 q100 64x48 n2 len=17714 bytes=afefe2f72bb20e72 frames=884d5adcd189ed58",
    "gradient h264 q85 64x48 n2 len=3603 bytes=21bd8f51b2f4f4f1 frames=900d2e71404a312d",
    "gradient h264 q30 64x48 n2 len=895 bytes=5c7f95bd2db8ca7a frames=daaef3aa69522a03",
    "gradient h264 q0 64x48 n2 len=675 bytes=5475520331f08c4d frames=df654d11cfda3115",
    "gradient hevc q100 64x48 n2 len=16520 bytes=527e9037ba884841 frames=884d5adcd189ed58",
    "gradient hevc q85 64x48 n2 len=3605 bytes=2a1338af35ac91b4 frames=900d2e71404a312d",
    "gradient hevc q30 64x48 n2 len=897 bytes=11911dc35f0efce9 frames=daaef3aa69522a03",
    "gradient hevc q0 64x48 n2 len=677 bytes=b6762180db58e4d6 frames=df654d11cfda3115",
    "gradient h264 q100 64x48 n7 len=59471 bytes=5dd70308d2ecbdac frames=a0fb9276da44eaa9",
    "gradient h264 q85 64x48 n7 len=12244 bytes=a27e356e023bbb00 frames=2e419ebb1949514d",
    "gradient h264 q30 64x48 n7 len=3593 bytes=c4e23bc487b63946 frames=421ce55ee7b6b1e8",
    "gradient h264 q0 64x48 n7 len=2850 bytes=2db69e99aeb388cc frames=f54b882956de795d",
    "gradient hevc q100 64x48 n7 len=58218 bytes=5353433bb7dc149d frames=a0fb9276da44eaa9",
    "gradient hevc q85 64x48 n7 len=12229 bytes=c8a24afca14588f0 frames=0e4e2aa40830234d",
    "gradient hevc q30 64x48 n7 len=3582 bytes=bdef4864135a8b11 frames=44eb57423c77cb62",
    "gradient hevc q0 64x48 n7 len=2851 bytes=80232db68ede91e8 frames=b45f33a2e91bd59d",
    "gradient h264 q100 240x136 n1 len=42165 bytes=f289dc151ed53ed9 frames=7942fb7741b5939e",
    "gradient h264 q85 240x136 n1 len=13633 bytes=0a826a1bdc0263b3 frames=1a5454928e35df95",
    "gradient h264 q30 240x136 n1 len=3148 bytes=1e6c5e93600705e8 frames=ffd242683ee9a025",
    "gradient h264 q0 240x136 n1 len=2313 bytes=a7842263f800dd20 frames=0e1e23de58f3afa5",
    "gradient hevc q100 240x136 n1 len=32910 bytes=bb5fb4445cead7f8 frames=7942fb7741b5939e",
    "gradient hevc q85 240x136 n1 len=13634 bytes=3e971c59c55f6fe5 frames=1a5454928e35df95",
    "gradient hevc q30 240x136 n1 len=3149 bytes=32e6b8db258fd8ea frames=ffd242683ee9a025",
    "gradient hevc q0 240x136 n1 len=2314 bytes=4d2090f8a8895d8c frames=0e1e23de58f3afa5",
    "gradient h264 q100 240x136 n2 len=78924 bytes=3a6f8bc833c4c41e frames=3074d738d78e985e",
    "gradient h264 q85 240x136 n2 len=27333 bytes=a9de7a4b5007a96d frames=315a02b2d5f28985",
    "gradient h264 q30 240x136 n2 len=6275 bytes=55375917154e3819 frames=081c08b6bcd048b5",
    "gradient h264 q0 240x136 n2 len=4606 bytes=0c559c454de3b7b8 frames=9ee767f6c90c1475",
    "gradient hevc q100 240x136 n2 len=69670 bytes=16c18380d78a1efa frames=3074d738d78e985e",
    "gradient hevc q85 240x136 n2 len=27335 bytes=71bc7f17be984d2a frames=315a02b2d5f28985",
    "gradient hevc q30 240x136 n2 len=6277 bytes=65dbc4791d9ad93a frames=081c08b6bcd048b5",
    "gradient hevc q0 240x136 n2 len=4608 bytes=5cc39b7f0760244f frames=9ee767f6c90c1475",
    "gradient h264 q100 240x136 n7 len=264731 bytes=ed95234b6c786612 frames=895d8d5c1cf5326c",
    "gradient h264 q85 240x136 n7 len=101563 bytes=6d9d0458420992bf frames=8fe005fe72d98c55",
    "gradient h264 q30 240x136 n7 len=24615 bytes=99437986bf7682d7 frames=96e8e0d5111c8cef",
    "gradient h264 q0 240x136 n7 len=18735 bytes=2bb0de81cc7ab594 frames=0e83c0266352ec65",
    "gradient hevc q100 240x136 n7 len=246676 bytes=2f381387a7f4bb8b frames=895d8d5c1cf5326c",
    "gradient hevc q85 240x136 n7 len=101322 bytes=9291c96b8f9f15a0 frames=926538a247d46475",
    "gradient hevc q30 240x136 n7 len=24598 bytes=aa2c4441b9edd627 frames=8b1a9a01277574e7",
    "gradient hevc q0 240x136 n7 len=18718 bytes=e394c56da7f89957 frames=101c786b42137705",
    "noise h264 q100 34x18 n7 len=12732 bytes=a8d9851346e6af17 frames=21a1a736746846d0",
    "noise h264 q85 34x18 n7 len=10296 bytes=14216f02cf0bbf5c frames=4ee7f020528bcad8",
    "noise h264 q30 34x18 n7 len=4858 bytes=6f20dec568db55b6 frames=64f1ae220700beaf",
    "noise h264 q0 34x18 n7 len=3696 bytes=04f3965b22cc3757 frames=bd42a0a356cf37cb",
    "noise hevc q100 34x18 n7 len=12541 bytes=6a0d8815ac2d00fe frames=21a1a736746846d0",
    "noise hevc q85 34x18 n7 len=9695 bytes=951838c50ea2521c frames=5c6481cae9ba6fd8",
    "noise hevc q30 34x18 n7 len=4665 bytes=52af7d91a31f3678 frames=d56bf3068b77485b",
    "noise hevc q0 34x18 n7 len=3559 bytes=505536a3dfed6197 frames=36061929ff282855",
    "noise h264 q100 64x48 n7 len=63241 bytes=39081b8e63fb6198 frames=8e82b16d2968ea6a",
    "noise h264 q85 64x48 n7 len=49102 bytes=99d4e5191fb7afaa frames=ad9d90cc6188cfdc",
    "noise h264 q30 64x48 n7 len=24054 bytes=6558b6bc737fdd5a frames=57a7ecb7063c4749",
    "noise h264 q0 64x48 n7 len=17514 bytes=8af894fe42cff9b4 frames=2f601e8d55f78509",
    "noise hevc q100 64x48 n7 len=61900 bytes=f1c5420d2b10cbb3 frames=8e82b16d2968ea6a",
    "noise hevc q85 64x48 n7 len=46309 bytes=3f55796e63a55569 frames=61861dd37ca14b7c",
    "noise hevc q30 64x48 n7 len=22323 bytes=86275786d7476537 frames=1287ff1ea6f2a765",
    "noise hevc q0 64x48 n7 len=16390 bytes=360a10024c0efc06 frames=b9efe3b055a7af46",
];
