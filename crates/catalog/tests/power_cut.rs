//! What a power cut and a failed journal commit leave of derived GOPs.
//!
//! A derived GOP (a view's) is written without `fsync` and its record
//! carries a CRC-32 of its bytes. A power cut can leave such a file zeroed,
//! with stale bytes of the same length, or missing; `Catalog::open` must
//! drop exactly those records, like a missing file, and leave durable GOPs
//! (an original's, or a view page hardened by eviction) untouched. A batch
//! whose journal `fsync` fails must return a typed error and leave the
//! in-memory catalog equal to a fresh reopen.

use std::fs;
use std::path::{Path, PathBuf};
use vss_catalog::fault::{self, FaultPlan};
use vss_catalog::{wal, Catalog, CatalogError};
use vss_codec::{lossless, Codec, EncodedGop, FrameInfo};
use vss_frame::PixelFormat;

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("vss-power-cut-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

/// A small raw GOP whose bytes depend on `seed`.
fn gop_bytes(seed: u8) -> Vec<u8> {
    let infos = (0..2).map(|i| FrameInfo { is_intra: i == 0, offset: i * 48, len: 48 }).collect();
    let payload = (0..96u8).map(|i| i.wrapping_mul(seed)).collect();
    EncodedGop::new(Codec::Raw(PixelFormat::Rgb8), 4, 4, 30.0, 10, infos, payload).to_bytes()
}

/// A store with a 2-GOP original and a 6-GOP view admitted as one batch.
/// Returns the original's and the view's ids.
fn store_with_a_view(root: &Path) -> (u64, u64) {
    let mut catalog = Catalog::open(root).unwrap();
    catalog.create_video("v").unwrap();
    let original = catalog.add_physical("v", 4, 4, 30.0, "rgb", true, 0.0).unwrap();
    for i in 0..2u8 {
        let start = f64::from(i);
        catalog.append_gop("v", original, start, start + 1.0, 2, &gop_bytes(i + 1), None).unwrap();
    }
    let journal = catalog.journal_bytes();
    catalog.begin_batch();
    let view = catalog.add_physical("v", 4, 4, 30.0, "rgb", false, 0.0).unwrap();
    for i in 0..6u8 {
        let start = f64::from(i) / 3.0;
        catalog.append_gop("v", view, start, start + 1.0 / 3.0, 2, &gop_bytes(i + 10), None).unwrap();
    }
    assert_eq!(catalog.journal_bytes(), journal, "a batch journals nothing until it commits");
    catalog.commit_batch().unwrap();
    let video = catalog.video("v").unwrap();
    assert!(video.physical[0].gops.iter().all(|g| g.crc.is_none()), "an original's GOPs are durable");
    assert!(video.physical[1].gops.iter().all(|g| g.crc.is_some()), "a view's GOPs are derived");
    (original, view)
}

#[test]
fn a_power_cut_costs_exactly_the_torn_derived_gops() {
    let root = temp_root("torn");
    let (original, view) = store_with_a_view(&root);
    let mut catalog = Catalog::open(&root).unwrap();
    assert!(!catalog.recovery_report().repaired_anything(), "{:?}", catalog.recovery_report());
    // Eviction hardens the view's GOPs over [0, 1/3) before an original page
    // they cover may go.
    assert_eq!(catalog.harden_gops("v", view, 0.0, 1.0 / 3.0).unwrap(), 1);
    let record = catalog.video("v").unwrap().clone();
    let path = |physical: usize, index: u64| {
        catalog.gop_path("v", &record.physical[physical], index)
    };
    let before: Vec<Vec<u8>> = (0..2).map(|i| fs::read(path(0, i)).unwrap()).collect();
    let hardened = fs::read(path(1, 0)).unwrap();

    // What a power cut can leave of unsynced files: zeroes, a flipped byte
    // (same length, stale content), and no file at all.
    let zeroed = path(1, 1);
    let len = fs::metadata(&zeroed).unwrap().len() as usize;
    fs::write(&zeroed, vec![0u8; len]).unwrap();
    let mut flipped = fs::read(path(1, 2)).unwrap();
    flipped[len / 2] ^= 0x40;
    fs::write(path(1, 2), &flipped).unwrap();
    fs::remove_file(path(1, 3)).unwrap();
    drop(catalog);

    let catalog = Catalog::open(&root).unwrap();
    let report = catalog.recovery_report();
    assert_eq!(report.gop_records_dropped, 3, "{report:?}");
    assert_eq!(report.gop_records_healed, 0, "{report:?}");
    let video = catalog.video("v").unwrap();
    let indices = |id| -> Vec<u64> {
        video.physical_by_id(id).unwrap().gops.iter().map(|g| g.index).collect()
    };
    assert_eq!(indices(original), [0, 1]);
    assert_eq!(indices(view), [0, 4, 5]);
    for (index, bytes) in before.iter().enumerate() {
        assert_eq!(&catalog.read_gop("v", original, index as u64).unwrap(), bytes);
    }
    assert_eq!(catalog.read_gop("v", view, 0).unwrap(), hardened, "the hardened GOP survives");
    for gop in &video.physical_by_id(view).unwrap().gops {
        let bytes = catalog.read_gop("v", view, gop.index).unwrap();
        assert!(gop.crc.is_none_or(|crc| crc == wal::crc32(&bytes)));
    }
    assert!(!zeroed.exists(), "a dropped GOP's file is removed");
    drop(catalog);

    let again = Catalog::open(&root).unwrap();
    assert!(!again.recovery_report().repaired_anything(), "{:?}", again.recovery_report());
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn a_batch_whose_fsync_fails_leaves_what_a_reopen_loads() {
    let root = temp_root("fsync");
    let (_, view) = store_with_a_view(&root);
    let mut catalog = Catalog::open(&root).unwrap();
    let evicted = catalog.gop_path("v", catalog.video("v").unwrap().physical_by_id(view).unwrap(), 5);
    let compressed = lossless::compress(&gop_bytes(10), 9);

    catalog.begin_batch();
    let admitted = catalog.add_physical("v", 4, 4, 30.0, "rgb", false, 0.0).unwrap();
    catalog.append_gop("v", admitted, 0.0, 1.0, 2, &gop_bytes(42), None).unwrap();
    catalog.remove_gop("v", view, 5).unwrap();
    catalog.rewrite_gop("v", view, 0, &compressed, Some(9)).unwrap();
    let guard = fault::install(FaultPlan {
        prefix: Some(root.join(wal::WAL_FILE)),
        sync_fail_nth: Some(1),
        ..Default::default()
    });
    let error = catalog.commit_batch().unwrap_err();
    drop(guard);
    assert!(matches!(error, CatalogError::Io(_)), "typed I/O error, got {error}");
    assert!(evicted.exists(), "nothing is unlinked before its batch is durable");

    let fresh = Catalog::open(&root).unwrap();
    assert!(!fresh.recovery_report().repaired_anything(), "{:?}", fresh.recovery_report());
    assert_eq!(catalog.video_names(), fresh.video_names());
    assert_eq!(catalog.video("v").unwrap(), fresh.video("v").unwrap());
    let video = catalog.video("v").unwrap();
    assert!(video.physical_by_id(admitted).is_none(), "the admission is gone whole");
    let gops = &video.physical_by_id(view).unwrap().gops;
    assert_eq!(gops.len(), 6, "the eviction never happened");
    // The rewrite had already replaced the file; the record now describes
    // the file as it is, checksum included.
    assert_eq!(gops[0].byte_len, compressed.len() as u64);
    assert_eq!(gops[0].crc, Some(wal::crc32(&compressed)));
    assert_eq!(catalog.read_gop("v", view, 0).unwrap(), compressed);
    drop(fresh);

    // The catalog stays usable, and what it commits next survives.
    catalog.remove_gop("v", view, 5).unwrap();
    drop(catalog);
    let reopened = Catalog::open(&root).unwrap();
    assert_eq!(reopened.video("v").unwrap().physical_by_id(view).unwrap().gops.len(), 5);
    assert!(!evicted.exists());
    fs::remove_dir_all(&root).unwrap();
}
