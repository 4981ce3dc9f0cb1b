//! File I/O primitives for the two GOP durability classes (see the crate's
//! *Durability contract*), and every other byte the catalog promises to keep.
//!
//! [`write_atomic`] is the classic crash-safe pattern — write to a temporary
//! file in the same directory, `fsync` the file, `rename` over the
//! destination, then `fsync` the parent directory so the rename itself is
//! durable. Durable GOPs, checkpoints and the server manifest go through it.
//! Derived GOPs skip every `fsync`: [`write_derived`] writes a fresh file at
//! its final name, [`replace_derived`] swaps a rewrite in by rename, and
//! [`fsync_file`] hardens one later. Every write and sync is routed through
//! the [`fault`] injection checks, so the crash-recovery suite can tear or
//! fail any of them deterministically.

use crate::fault::{self, WriteOutcome};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Suffix of in-flight temporary files. Recovery deletes any leftovers, so
/// the suffix is part of the on-disk contract.
pub const TMP_SUFFIX: &str = ".tmp";

/// `fsync`s a directory so a previously performed rename/create/unlink in it
/// survives a power cut. (On some filesystems a rename is not durable until
/// its parent directory has been synced — the hole the original
/// `Catalog::persist` left open.)
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    fault::on_sync(dir)?;
    fs::File::open(dir)?.sync_all()
}

/// `fsync`s an existing file's bytes.
pub fn fsync_file(path: &Path) -> io::Result<()> {
    fault::on_sync(path)?;
    fs::File::open(path)?.sync_all()
}

/// Writes `bytes` to `path`, honouring injected faults (a torn write leaves
/// the configured prefix of the bytes behind and reports the failure), and
/// `sync_all`s the file when `sync` is set.
fn write_file(path: &Path, bytes: &[u8], sync: bool) -> io::Result<()> {
    let outcome = fault::on_write(path, bytes.len())?;
    let mut file = fs::File::create(path)?;
    match outcome {
        WriteOutcome::Proceed => file.write_all(bytes)?,
        WriteOutcome::Tear(keep) => {
            file.write_all(&bytes[..keep])?;
            let _ = file.sync_all();
            return Err(io::Error::other(format!(
                "injected fault: write torn after {keep} bytes ({})",
                path.display()
            )));
        }
        WriteOutcome::Fail => unreachable!("on_write reports failures as errors"),
    }
    if sync {
        fault::on_sync(path)?;
        file.sync_all()?;
    }
    Ok(())
}

fn tmp_path(path: &Path) -> io::Result<PathBuf> {
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::other(format!("no file name in {}", path.display())))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(TMP_SUFFIX);
    Ok(path.with_file_name(tmp_name))
}

/// Atomically and durably replaces `path` with `bytes`: write to
/// `<path>.tmp`, `fsync` the file, `rename` into place, `fsync` the parent
/// directory. After this returns, either the old content or the new content
/// survives any crash — never a mix, and never neither.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path)?;
    write_file(&tmp, bytes, true)?;
    fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        fsync_dir(parent)?;
    }
    Ok(())
}

/// Writes a derived GOP's `bytes` at `path`, its final name, with no
/// `fsync`: a process crash keeps them, a power cut may tear them, and the
/// checksum in the GOP's record tells the two apart on the next open.
pub fn write_derived(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_file(path, bytes, false)
}

/// Replaces a derived GOP's file with `bytes` by temp file and rename, with
/// no `fsync`: a process crash leaves the old or the new bytes, never a mix.
pub fn replace_derived(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path)?;
    write_file(&tmp, bytes, false)?;
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vss-durable-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_atomic_replaces_content_and_removes_the_temp() {
        let dir = temp_dir("atomic");
        let path = dir.join("data.bin");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert!(!dir.join("data.bin.tmp").exists(), "temp file consumed by the rename");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_leaves_old_content_intact() {
        let dir = temp_dir("torn");
        let path = dir.join("data.bin");
        write_atomic(&path, b"stable contents").unwrap();
        let _guard = fault::install(FaultPlan {
            prefix: Some(dir.clone()),
            tear_nth: Some(1),
            tear_at: 3,
            ..Default::default()
        });
        let err = write_atomic(&path, b"replacement").unwrap_err();
        assert!(err.to_string().contains("injected"), "typed injected error: {err}");
        assert_eq!(fs::read(&path).unwrap(), b"stable contents", "target never touched");
        let tmp = dir.join("data.bin.tmp");
        assert_eq!(fs::read(&tmp).unwrap(), b"rep", "torn prefix stays in the temp file");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_sync_surfaces_before_the_rename() {
        let dir = temp_dir("sync");
        let path = dir.join("data.bin");
        write_atomic(&path, b"old").unwrap();
        let _guard = fault::install(FaultPlan {
            prefix: Some(dir.clone()),
            // Syncs per write_atomic: file sync, then dir sync. Fail the
            // first, i.e. the file's own sync.
            sync_fail_nth: Some(1),
            ..Default::default()
        });
        assert!(write_atomic(&path, b"new").is_err());
        assert_eq!(fs::read(&path).unwrap(), b"old");
        fs::remove_dir_all(&dir).unwrap();
    }
}
