//! Golden bitstreams: every byte the lossy codecs emit, and every sample they
//! decode, pinned against constants captured on the parent of the row-kernel
//! rewrite (commit 713f3a3bce1278c4c0f032879f786f461785f8d5) by running this
//! test there with an empty `GOLDEN` table and pasting the rows it printed.
//!
//! The kernels in `video.rs`/`bitstream.rs` have no scalar twin to compare
//! against; these constants are the reference. A row changes only when the
//! bitstream format does, and then it is a format change, not a refactor.
//!
//! The HEVC rows were re-pinned once since, when HEVC-sim began deciding its
//! predictor family once per GOP (the intra frame basic, frames 1 and 2 both
//! ways, frame 2's winner from frame 3 on), and the `noise2` rows were added
//! then. The format did not change: every frame still carries its mode flag
//! and the decoder is the same. The H.264 rows are unchanged.

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

/// Seeded noise over a still gradient, every third frame from `clean` on
/// left clean. The HEVC simulation's frame 2 picks the predictor family for
/// the rest of the GOP: a noisy frame 2 (`clean` 0) picks the basic family,
/// a clean one (`clean` 2) the advanced family, so the golden set decodes
/// both families.
fn noise_clip(width: u32, height: u32, clean: u64) -> FrameSequence {
    let base = pattern::gradient(width, height, PixelFormat::Yuv420, 3);
    let frames: Vec<Frame> = (0..7u64)
        .map(|i| if i % 3 == clean { base.clone() } else { pattern::add_noise(&base, 40, 0x5eed + i) })
        .collect();
    FrameSequence::new(frames, 30.0).unwrap()
}

/// Every golden clip with its row label, in row order.
fn clips() -> Vec<(&'static str, FrameSequence)> {
    let mut clips = Vec::new();
    for &(width, height) in &RESOLUTIONS {
        for &frames in &GOP_LENGTHS {
            clips.push(("gradient", gradient_clip(width, height, frames)));
        }
    }
    for (label, clean) in [("noise", 0), ("noise2", 2)] {
        for &(width, height) in &[(34, 18), (64, 48)] {
            clips.push((label, noise_clip(width, height, clean)));
        }
    }
    clips
}

/// The one-byte mode flag each HEVC-sim frame payload starts with.
fn mode_flags(gop: &EncodedGop) -> Vec<u8> {
    (0..gop.frame_count()).map(|i| gop.frame_payload(i).unwrap()[0]).collect()
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
    for (label, clip) in clips() {
        for codec in [Codec::H264, Codec::Hevc] {
            rows.extend(QUALITIES.iter().map(|&q| row(label, &clip, codec, q)));
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
fn hevc_codes_the_intra_frame_basic_and_the_rest_of_the_gop_as_frame_2_chose() {
    let mut decided = Vec::new();
    for (label, clip) in clips() {
        for quality in QUALITIES {
            let gop = encode(&clip, Codec::Hevc, quality);
            let flags = mode_flags(&gop);
            let (width, height) = (gop.width(), gop.height());
            let at = format!("{label} {width}x{height} n{} q{quality}: mode flags {flags:?}", clip.len());
            assert_eq!(flags[0], 0, "{at}");
            assert!(flags.iter().all(|&flag| flag <= 1), "{at}");
            if let Some((&chosen, rest)) = flags.get(2..).and_then(<[u8]>::split_first) {
                assert!(rest.iter().all(|&flag| flag == chosen), "{at}");
                decided.push((label, width, quality, chosen));
            }
        }
    }
    // Both families reach the golden rows' decoded frames past frame 2.
    for width in [34, 64] {
        assert!(decided.contains(&("noise", width, 85, 0)), "{decided:?}");
        assert!(decided.contains(&("noise2", width, 85, 1)), "{decided:?}");
    }
}

#[rustfmt::skip]
const GOLDEN: &[&str] = &[
    "gradient h264 q100 2x2 n1 len=42 bytes=7c5177891575aa31 frames=7fe6f8029cebf4f4",
    "gradient h264 q85 2x2 n1 len=40 bytes=87aa8cc66e9dd114 frames=52ad334ca064c105",
    "gradient h264 q30 2x2 n1 len=40 bytes=3ae88af22633870b frames=c9d903bc38c49839",
    "gradient h264 q0 2x2 n1 len=40 bytes=2ecb06de2c2f171e frames=60a1f2c07b2fdc7d",
    "gradient hevc q100 2x2 n1 len=43 bytes=bcc2a19031435015 frames=7fe6f8029cebf4f4",
    "gradient hevc q85 2x2 n1 len=41 bytes=3e968a4a0ff7b352 frames=52ad334ca064c105",
    "gradient hevc q30 2x2 n1 len=41 bytes=7dca2cc5d6453e59 frames=c9d903bc38c49839",
    "gradient hevc q0 2x2 n1 len=41 bytes=a777481683a025a0 frames=60a1f2c07b2fdc7d",
    "gradient h264 q100 2x2 n2 len=60 bytes=d4f0d52ef51f2e9a frames=82e89160414c9b6f",
    "gradient h264 q85 2x2 n2 len=57 bytes=dd7d9486ffd77533 frames=c99f96ce37bbe61d",
    "gradient h264 q30 2x2 n2 len=57 bytes=75802f62424b0502 frames=727d3cc61c1cdb97",
    "gradient h264 q0 2x2 n2 len=55 bytes=ba9a6c55c631a0e8 frames=cd7875c0e44ec115",
    "gradient hevc q100 2x2 n2 len=62 bytes=a03e2442ed420162 frames=82e89160414c9b6f",
    "gradient hevc q85 2x2 n2 len=59 bytes=7b147c2cd93286cd frames=c99f96ce37bbe61d",
    "gradient hevc q30 2x2 n2 len=59 bytes=86b4b74c08d85e32 frames=727d3cc61c1cdb97",
    "gradient hevc q0 2x2 n2 len=57 bytes=8a46fe10235c580a frames=cd7875c0e44ec115",
    "gradient h264 q100 2x2 n7 len=148 bytes=28f23abb4d5d46e9 frames=86fe1cddb709725a",
    "gradient h264 q85 2x2 n7 len=142 bytes=10e9ba194f6955c6 frames=45fb55d52b976af5",
    "gradient h264 q30 2x2 n7 len=142 bytes=250d53d6c4d687e9 frames=1ca9c9def27b7fc3",
    "gradient h264 q0 2x2 n7 len=140 bytes=a2935af2c1379b27 frames=2d1dfc6c74ff545d",
    "gradient hevc q100 2x2 n7 len=155 bytes=8251e4ba150f3527 frames=86fe1cddb709725a",
    "gradient hevc q85 2x2 n7 len=149 bytes=089d4ad6d5e0fe3e frames=45fb55d52b976af5",
    "gradient hevc q30 2x2 n7 len=149 bytes=fa5e8a27456a147d frames=1ca9c9def27b7fc3",
    "gradient hevc q0 2x2 n7 len=147 bytes=55fcc5c26501756d frames=2d1dfc6c74ff545d",
    "gradient h264 q100 34x18 n1 len=1869 bytes=23a03923817fa46f frames=639b0deaa4e9ecb1",
    "gradient h264 q85 34x18 n1 len=794 bytes=598bb4638feb504a frames=93b1e7e233d94ce5",
    "gradient h264 q30 34x18 n1 len=214 bytes=852f1fa97e70ce98 frames=f6d1ca14bba8dbd1",
    "gradient h264 q0 34x18 n1 len=166 bytes=3d23f53bb98636d3 frames=3acc00c038fd9ced",
    "gradient hevc q100 34x18 n1 len=1870 bytes=eb73c7b82936cd27 frames=639b0deaa4e9ecb1",
    "gradient hevc q85 34x18 n1 len=795 bytes=0b41119b0f420e98 frames=93b1e7e233d94ce5",
    "gradient hevc q30 34x18 n1 len=215 bytes=0aebfcb4a5c28848 frames=f6d1ca14bba8dbd1",
    "gradient hevc q0 34x18 n1 len=167 bytes=302f24e44549e147 frames=3acc00c038fd9ced",
    "gradient h264 q100 34x18 n2 len=3714 bytes=051b3f869ab5f6e5 frames=c18ddb2fa823c4c6",
    "gradient h264 q85 34x18 n2 len=1355 bytes=c75afc44af407556 frames=3782efd53a56d955",
    "gradient h264 q30 34x18 n2 len=361 bytes=ba1b81de2e36c58d frames=627ab202a0340e40",
    "gradient h264 q0 34x18 n2 len=278 bytes=1ba3483df277e74f frames=6fc2d815ba7a2ba8",
    "gradient hevc q100 34x18 n2 len=3716 bytes=6c1797f036cb514f frames=c18ddb2fa823c4c6",
    "gradient hevc q85 34x18 n2 len=1357 bytes=b6be2f04891e978a frames=3782efd53a56d955",
    "gradient hevc q30 34x18 n2 len=363 bytes=1eb7f65225e134f7 frames=627ab202a0340e40",
    "gradient hevc q0 34x18 n2 len=280 bytes=ba745799b2bb22b9 frames=6fc2d815ba7a2ba8",
    "gradient h264 q100 34x18 n7 len=12774 bytes=ee0c9901d8fe6c4c frames=914e77462f529c17",
    "gradient h264 q85 34x18 n7 len=4336 bytes=914ab64a65d44375 frames=f67ff54eac66859d",
    "gradient h264 q30 34x18 n7 len=1338 bytes=6c69853a12ea9000 frames=0020c44a4f0edf05",
    "gradient h264 q0 34x18 n7 len=1093 bytes=10bfe7b428f8e64f frames=907c5bdcf4e780d9",
    "gradient hevc q100 34x18 n7 len=12733 bytes=6c313bc1e49c282a frames=914e77462f529c17",
    "gradient hevc q85 34x18 n7 len=4343 bytes=72bfb06ed8442bca frames=f67ff54eac66859d",
    "gradient hevc q30 34x18 n7 len=1345 bytes=9af549738be81e8d frames=0020c44a4f0edf05",
    "gradient hevc q0 34x18 n7 len=1100 bytes=0450bde723129f44 frames=907c5bdcf4e780d9",
    "gradient h264 q100 64x48 n1 len=9007 bytes=9773aec7691b48aa frames=e4750526e19e3d7b",
    "gradient h264 q85 64x48 n1 len=2012 bytes=31f6fc8e2c6b6aca frames=9d4ff8bd9291e165",
    "gradient h264 q30 64x48 n1 len=504 bytes=5afa7f6c00f06adf frames=8d8c86d3e85cb544",
    "gradient h264 q0 64x48 n1 len=381 bytes=d80e385dd1287821 frames=5f7116c88f5b3b08",
    "gradient hevc q100 64x48 n1 len=9008 bytes=1b08e7f0b07bb9e6 frames=e4750526e19e3d7b",
    "gradient hevc q85 64x48 n1 len=2013 bytes=cf3e1367e6af0cf6 frames=9d4ff8bd9291e165",
    "gradient hevc q30 64x48 n1 len=505 bytes=22e0a4490d5b053f frames=8d8c86d3e85cb544",
    "gradient hevc q0 64x48 n1 len=382 bytes=dbb8e066d59ea60f frames=5f7116c88f5b3b08",
    "gradient h264 q100 64x48 n2 len=17714 bytes=afefe2f72bb20e72 frames=884d5adcd189ed58",
    "gradient h264 q85 64x48 n2 len=3603 bytes=21bd8f51b2f4f4f1 frames=900d2e71404a312d",
    "gradient h264 q30 64x48 n2 len=895 bytes=5c7f95bd2db8ca7a frames=daaef3aa69522a03",
    "gradient h264 q0 64x48 n2 len=675 bytes=5475520331f08c4d frames=df654d11cfda3115",
    "gradient hevc q100 64x48 n2 len=17716 bytes=9a396bff79fc8c2e frames=884d5adcd189ed58",
    "gradient hevc q85 64x48 n2 len=3605 bytes=2a1338af35ac91b4 frames=900d2e71404a312d",
    "gradient hevc q30 64x48 n2 len=897 bytes=11911dc35f0efce9 frames=daaef3aa69522a03",
    "gradient hevc q0 64x48 n2 len=677 bytes=b6762180db58e4d6 frames=df654d11cfda3115",
    "gradient h264 q100 64x48 n7 len=59471 bytes=5dd70308d2ecbdac frames=a0fb9276da44eaa9",
    "gradient h264 q85 64x48 n7 len=12244 bytes=a27e356e023bbb00 frames=2e419ebb1949514d",
    "gradient h264 q30 64x48 n7 len=3593 bytes=c4e23bc487b63946 frames=421ce55ee7b6b1e8",
    "gradient h264 q0 64x48 n7 len=2850 bytes=2db69e99aeb388cc frames=f54b882956de795d",
    "gradient hevc q100 64x48 n7 len=59450 bytes=29530cf4f1228dfc frames=a0fb9276da44eaa9",
    "gradient hevc q85 64x48 n7 len=12251 bytes=7e5968d757e9cba6 frames=2e419ebb1949514d",
    "gradient hevc q30 64x48 n7 len=3600 bytes=c4fb6c72f9f59548 frames=421ce55ee7b6b1e8",
    "gradient hevc q0 64x48 n7 len=2857 bytes=2a31a210bffafce2 frames=f54b882956de795d",
    "gradient h264 q100 240x136 n1 len=42165 bytes=f289dc151ed53ed9 frames=7942fb7741b5939e",
    "gradient h264 q85 240x136 n1 len=13633 bytes=0a826a1bdc0263b3 frames=1a5454928e35df95",
    "gradient h264 q30 240x136 n1 len=3148 bytes=1e6c5e93600705e8 frames=ffd242683ee9a025",
    "gradient h264 q0 240x136 n1 len=2313 bytes=a7842263f800dd20 frames=0e1e23de58f3afa5",
    "gradient hevc q100 240x136 n1 len=42166 bytes=1082d57b24ca7bc3 frames=7942fb7741b5939e",
    "gradient hevc q85 240x136 n1 len=13634 bytes=3e971c59c55f6fe5 frames=1a5454928e35df95",
    "gradient hevc q30 240x136 n1 len=3149 bytes=32e6b8db258fd8ea frames=ffd242683ee9a025",
    "gradient hevc q0 240x136 n1 len=2314 bytes=4d2090f8a8895d8c frames=0e1e23de58f3afa5",
    "gradient h264 q100 240x136 n2 len=78924 bytes=3a6f8bc833c4c41e frames=3074d738d78e985e",
    "gradient h264 q85 240x136 n2 len=27333 bytes=a9de7a4b5007a96d frames=315a02b2d5f28985",
    "gradient h264 q30 240x136 n2 len=6275 bytes=55375917154e3819 frames=081c08b6bcd048b5",
    "gradient h264 q0 240x136 n2 len=4606 bytes=0c559c454de3b7b8 frames=9ee767f6c90c1475",
    "gradient hevc q100 240x136 n2 len=78926 bytes=d6def1bdb48aa1ed frames=3074d738d78e985e",
    "gradient hevc q85 240x136 n2 len=27335 bytes=71bc7f17be984d2a frames=315a02b2d5f28985",
    "gradient hevc q30 240x136 n2 len=6277 bytes=65dbc4791d9ad93a frames=081c08b6bcd048b5",
    "gradient hevc q0 240x136 n2 len=4608 bytes=5cc39b7f0760244f frames=9ee767f6c90c1475",
    "gradient h264 q100 240x136 n7 len=264731 bytes=ed95234b6c786612 frames=895d8d5c1cf5326c",
    "gradient h264 q85 240x136 n7 len=101563 bytes=6d9d0458420992bf frames=8fe005fe72d98c55",
    "gradient h264 q30 240x136 n7 len=24615 bytes=99437986bf7682d7 frames=96e8e0d5111c8cef",
    "gradient h264 q0 240x136 n7 len=18735 bytes=2bb0de81cc7ab594 frames=0e83c0266352ec65",
    "gradient hevc q100 240x136 n7 len=259128 bytes=7df05f724c018f10 frames=895d8d5c1cf5326c",
    "gradient hevc q85 240x136 n7 len=101782 bytes=47dbf273957db5bc frames=dcbfdd05e082f95d",
    "gradient hevc q30 240x136 n7 len=24622 bytes=00c06d13ad98776f frames=96e8e0d5111c8cef",
    "gradient hevc q0 240x136 n7 len=18780 bytes=2748091a77735175 frames=61188565f0db7a45",
    "noise h264 q100 34x18 n7 len=12732 bytes=a8d9851346e6af17 frames=21a1a736746846d0",
    "noise h264 q85 34x18 n7 len=10296 bytes=14216f02cf0bbf5c frames=4ee7f020528bcad8",
    "noise h264 q30 34x18 n7 len=4858 bytes=6f20dec568db55b6 frames=64f1ae220700beaf",
    "noise h264 q0 34x18 n7 len=3696 bytes=04f3965b22cc3757 frames=bd42a0a356cf37cb",
    "noise hevc q100 34x18 n7 len=12739 bytes=d4d9f018e222ca8c frames=21a1a736746846d0",
    "noise hevc q85 34x18 n7 len=10303 bytes=c3f55f62255bbb46 frames=4ee7f020528bcad8",
    "noise hevc q30 34x18 n7 len=4865 bytes=9a9b7ee55de2f068 frames=64f1ae220700beaf",
    "noise hevc q0 34x18 n7 len=3703 bytes=cc842a72c837492d frames=bd42a0a356cf37cb",
    "noise h264 q100 64x48 n7 len=63241 bytes=39081b8e63fb6198 frames=8e82b16d2968ea6a",
    "noise h264 q85 64x48 n7 len=49102 bytes=99d4e5191fb7afaa frames=ad9d90cc6188cfdc",
    "noise h264 q30 64x48 n7 len=24054 bytes=6558b6bc737fdd5a frames=57a7ecb7063c4749",
    "noise h264 q0 64x48 n7 len=17514 bytes=8af894fe42cff9b4 frames=2f601e8d55f78509",
    "noise hevc q100 64x48 n7 len=63248 bytes=e04ff3a47b42f6de frames=8e82b16d2968ea6a",
    "noise hevc q85 64x48 n7 len=49109 bytes=b25beac2d7089d46 frames=ad9d90cc6188cfdc",
    "noise hevc q30 64x48 n7 len=24061 bytes=ac2768e6ed0c4ebe frames=57a7ecb7063c4749",
    "noise hevc q0 64x48 n7 len=17521 bytes=14ffef5b4b12463e frames=2f601e8d55f78509",
    "noise2 h264 q100 34x18 n7 len=12700 bytes=7d0c4558588b66c3 frames=ce7aecf56d27fa39",
    "noise2 h264 q85 34x18 n7 len=11080 bytes=6cefe90f23f91048 frames=35ad7426c5ed8777",
    "noise2 h264 q30 34x18 n7 len=5596 bytes=05266addb3b1ed9a frames=afc3db5cb9e3a38d",
    "noise2 h264 q0 34x18 n7 len=4042 bytes=19944ae15021979e frames=ee16ac4703c719f1",
    "noise2 hevc q100 34x18 n7 len=12683 bytes=fef170db7ba15f78 frames=ce7aecf56d27fa39",
    "noise2 hevc q85 34x18 n7 len=10655 bytes=0ab9df159a6c43be frames=5ec37263fe06c85b",
    "noise2 hevc q30 34x18 n7 len=5743 bytes=91d77f9295bc87db frames=352b67af7e96c007",
    "noise2 hevc q0 34x18 n7 len=4247 bytes=27d09fd1e260a771 frames=1d3f271c3fc8d071",
    "noise2 h264 q100 64x48 n7 len=63160 bytes=b82c18b85df78949 frames=d9423b24620a8d36",
    "noise2 h264 q85 64x48 n7 len=55046 bytes=f8690d125ca07835 frames=4a85bb542282fdce",
    "noise2 h264 q30 64x48 n7 len=27808 bytes=955ac7fc337e55bf frames=1dd7e13bcfa41da1",
    "noise2 h264 q0 64x48 n7 len=20284 bytes=987db596248a28c5 frames=42aa96e8489b1f7b",
    "noise2 hevc q100 64x48 n7 len=63247 bytes=5a1c6c2f766315b7 frames=d9423b24620a8d36",
    "noise2 hevc q85 64x48 n7 len=52921 bytes=c4c1aa4a202b34ea frames=9f0397decea45d19",
    "noise2 hevc q30 64x48 n7 len=28587 bytes=5841189414b91891 frames=19eec79bed589f18",
    "noise2 hevc q0 64x48 n7 len=21181 bytes=65cb004d96680ff2 frames=6cadee7575739702",
];
