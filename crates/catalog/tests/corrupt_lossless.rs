//! A corrupt lossless GOP file must cost only itself on reopen.
//!
//! `Catalog::open` classifies every GOP file whose size disagrees with its
//! record, which means decompressing it. When this test was written a
//! 10-byte stream of the LZ77 format claiming a 2^34-byte original aborted
//! the process (`memory allocation of 17179869184 bytes failed`), so one bad
//! file made the whole store unopenable. The streams below are the same two
//! attacks in lossless format 3: a huge claimed length, and a zero run far
//! past the room its block has. The contract is that an unreadable file is
//! dropped and itemised in the `RecoveryReport`, like a missing one.
//!
//! This is its own test binary: where the decoder is unbounded the abort
//! kills every test in the binary, and it must kill only this one.

use std::fs;
use std::path::PathBuf;
use vss_catalog::Catalog;
use vss_codec::bitstream::write_varint;
use vss_codec::{lossless, Codec, CodecError, EncodedGop, FrameInfo};
use vss_frame::PixelFormat;

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("vss-corrupt-lossless-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

/// A small raw GOP, losslessly compressed the way deferred compression
/// stores it.
fn lossless_gop(seed: u8) -> Vec<u8> {
    let frames = 2;
    let infos = (0..frames).map(|i| FrameInfo { is_intra: i == 0, offset: i * 48, len: 48 }).collect();
    let payload = (0..frames * 48).map(|i| (i as u8 / 4).wrapping_add(seed)).collect();
    let gop = EncodedGop::new(Codec::Raw(PixelFormat::Rgb8), 4, 4, 30.0, 10, infos, payload);
    lossless::compress(gop.as_bytes(), 9)
}

/// The stream header: magic, level, claimed original length, and a layout
/// of plain bytes (codec id, header length, width and height all 0).
fn header(original_len: u64) -> Vec<u8> {
    let mut stream = b"VSL3".to_vec();
    stream.push(9);
    write_varint(&mut stream, original_len);
    stream.extend_from_slice(&[0, 0, 0, 0]);
    stream
}

/// 14 bytes: a header claiming a 2^34-byte original, and no blocks.
fn huge_claim() -> Vec<u8> {
    header(1 << 34)
}

/// 35 bytes: a 2-byte original whose one block (tag 1, predictor left) has
/// a code table giving only the longest zero run, 64 zeros, a code (`0`,
/// one bit), four stream lengths (1 byte in the stream that codes the first
/// residual) and that stream: a run of 64 zeros where one residual fits.
fn huge_run() -> Vec<u8> {
    let mut stream = header(2);
    stream.push(1);
    // Code lengths as nibbles: 17 runs of 18 zero lengths, one of 12, then 1.
    stream.extend_from_slice(&[0xff; 17]);
    stream.extend_from_slice(&[0x9f, 0x01]);
    stream.extend_from_slice(&[0, 1, 0, 0]);
    stream.push(0x00);
    stream
}

#[test]
fn a_corrupt_lossless_gop_file_is_dropped_on_reopen_not_fatal() {
    let root = temp_root("reopen");
    let (dir, intact) = {
        let mut catalog = Catalog::open(&root).unwrap();
        catalog.create_video("v").unwrap();
        let id = catalog.add_physical("v", 4, 4, 30.0, "rgb", false, 0.0).unwrap();
        for (index, seed) in [0u8, 1, 2].into_iter().enumerate() {
            let gop = lossless_gop(seed);
            catalog.append_gop("v", id, index as f64, index as f64 + 1.0, 2, &gop, Some(9)).unwrap();
        }
        let physical = &catalog.video("v").unwrap().physical[0];
        let dir = root.join("v").join(physical.directory_name());
        (dir, catalog.read_gop("v", id, 2).unwrap())
    };
    assert_eq!(huge_claim().len(), 14);
    assert_eq!(huge_run().len(), 35);
    assert!(matches!(lossless::decompress(&huge_run()), Err(CodecError::Corrupt(m)) if m.contains("zero run")));
    // A different size from the record makes `open` classify the file.
    fs::write(dir.join("0.gop"), huge_claim()).unwrap();
    fs::write(dir.join("1.gop"), huge_run()).unwrap();

    let catalog = Catalog::open(&root).expect("a corrupt GOP file must not make the store unopenable");
    let report = catalog.recovery_report();
    assert_eq!(report.gop_records_dropped, 2, "{report:?}");
    assert_eq!(report.gop_records_healed, 0, "{report:?}");
    let physical = &catalog.video("v").unwrap().physical[0];
    let indices: Vec<u64> = physical.gops.iter().map(|g| g.index).collect();
    assert_eq!(indices, [2], "only the intact GOP survives");
    assert_eq!(catalog.read_gop("v", physical.id, 2).unwrap(), intact);
    assert!(!dir.join("0.gop").exists() && !dir.join("1.gop").exists(), "dropped files are removed");
    drop(catalog);

    let again = Catalog::open(&root).unwrap();
    assert!(!again.recovery_report().repaired_anything(), "{:?}", again.recovery_report());
    fs::remove_dir_all(&root).unwrap();
}
