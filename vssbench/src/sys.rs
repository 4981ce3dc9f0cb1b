//! What the benchmark asks the operating system: peak memory, CPU time,
//! directory sizes and a scratch directory that cleans up after itself.

use std::fs;
use std::path::{Path, PathBuf};

/// Peak resident set size of this process in MB (`VmHWM`). One workload per
/// process, so this is the workload's own high-water mark.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// User + system CPU seconds of the whole process so far, including threads
/// that already exited (which per-task accounting would lose — the parallel
/// GOP pipeline spawns scoped workers per call). `/proc/self/stat` counts in
/// clock ticks; Linux fixes `USER_HZ` at 100 on every architecture.
pub fn cpu_seconds() -> Result<f64, String> {
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let after = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3 (state), so utime (14) and stime (15) sit at 11 and 12.
    let ticks = |index: usize| -> Result<f64, String> {
        fields
            .get(index)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("/proc/self/stat field {} missing", index + 3))
    };
    Ok((ticks(11)? + ticks(12)?) / TICKS_PER_SECOND)
}

/// Total size in bytes of every regular file under `root`.
pub fn dir_bytes(root: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(root) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(kind) if kind.is_dir() => dir_bytes(&entry.path()),
            Ok(kind) if kind.is_file() => entry.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

/// A directory under `./.bench_scratch/` (inside the checkout: the benchmark
/// reads and writes nowhere else) that is removed when dropped.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn create(tag: &str) -> Result<Self, String> {
        let root = PathBuf::from(".bench_scratch").join(format!("{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).map_err(|e| format!("creating {}: {e}", root.display()))?;
        Ok(Self { root })
    }

    pub fn path(&self) -> &Path {
        &self.root
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
        // Leave no empty parent behind when this was the last scratch user.
        let _ = fs::remove_dir(".bench_scratch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_numbers() {
        assert!(peak_rss_mb().unwrap() > 0.5);
        let before = cpu_seconds().unwrap();
        let mut x = 1u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(i | 1));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds().unwrap() >= before);
    }

    #[test]
    fn dir_bytes_walks_subdirectories() {
        let scratch = Scratch::create("sys-test").unwrap();
        let sub = scratch.path().join("a/b");
        fs::create_dir_all(&sub).unwrap();
        fs::write(sub.join("x"), [0u8; 10]).unwrap();
        fs::write(scratch.path().join("y"), [0u8; 5]).unwrap();
        assert_eq!(dir_bytes(scratch.path()), 15);
        let root = scratch.path().to_path_buf();
        drop(scratch);
        assert!(!root.exists());
    }
}
