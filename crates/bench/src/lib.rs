//! # vss-bench
//!
//! Shared infrastructure for the paper-figure printer that regenerates every
//! table and figure of the paper's evaluation (Section 6).
//!
//! The `harness` binary (`cargo run -p vss-bench --release --bin harness --
//! <experiment>`) produces one [`Report`] per experiment: a set of labelled
//! rows that mirror the series/rows of the corresponding paper figure or
//! table. Reports are printed as aligned text tables and written as JSON
//! under `results/`.
//!
//! Experiment sizes are controlled by [`ScaleConfig`], read from the
//! `VSS_SCALE` / `VSS_MAX_FRAMES` / `VSS_ITERATIONS` environment variables:
//! the paper's datasets are hours of 1K–4K video, which the simulated CPU
//! codecs cannot chew through in minutes, so the harness runs spatially and
//! temporally scaled-down versions by default. The *relative* comparisons
//! (who wins, crossover points) are what the figures reproduce; whether a
//! change made the system faster is `vssbench/`'s question, not this crate's.

#![warn(missing_docs)]

use serde::Serialize;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// One labelled measurement row of a report.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Row label (e.g. a dataset name, a cache size, a series name).
    pub label: String,
    /// Named numeric values (e.g. `fps`, `seconds`, `bytes`).
    pub values: BTreeMap<String, f64>,
}

impl Row {
    /// Creates an empty row with a label.
    pub fn new(label: impl Into<String>) -> Self {
        Self { label: label.into(), values: BTreeMap::new() }
    }

    /// Adds a numeric value.
    pub fn with(mut self, key: impl Into<String>, value: f64) -> Self {
        self.values.insert(key.into(), value);
        self
    }
}

/// A complete experiment report.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Experiment identifier (e.g. `fig10`, `table2`).
    pub experiment: String,
    /// Human-readable description of what is being reproduced.
    pub description: String,
    /// The measurement rows.
    pub rows: Vec<Row>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(experiment: impl Into<String>, description: impl Into<String>) -> Self {
        Self { experiment: experiment.into(), description: description.into(), rows: Vec::new() }
    }

    /// Appends a row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Renders the report as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut columns: Vec<String> = Vec::new();
        for row in &self.rows {
            for key in row.values.keys() {
                if !columns.contains(key) {
                    columns.push(key.clone());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("# {} — {}\n", self.experiment, self.description));
        let label_width = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .chain(std::iter::once("label".len()))
            .max()
            .unwrap_or(5)
            + 2;
        out.push_str(&format!("{:<label_width$}", "label"));
        for column in &columns {
            out.push_str(&format!("{column:>16}"));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("{:<label_width$}", row.label));
            for column in &columns {
                match row.values.get(column) {
                    Some(value) => out.push_str(&format!("{value:>16.3}")),
                    None => out.push_str(&format!("{:>16}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Writes the report as JSON into `dir/<experiment>.json` and returns the
    /// path written.
    pub fn write_json(&self, dir: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir.as_ref())?;
        let path = dir.as_ref().join(format!("{}.json", self.experiment));
        fs::write(&path, serde_json::to_string_pretty(self).expect("report serializes"))?;
        Ok(path)
    }
}

/// Spatial/temporal scaling applied to every experiment.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Divisor applied to dataset resolutions (1 = the paper's resolution).
    pub resolution_divisor: u32,
    /// Maximum frames generated per dataset.
    pub max_frames: usize,
    /// Multiplier on iteration counts (cache sizes, read counts, ...).
    pub iterations: usize,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        Self { resolution_divisor: 8, max_frames: 90, iterations: 20 }
    }
}

impl ScaleConfig {
    /// Reads the scale from `VSS_SCALE` (resolution divisor),
    /// `VSS_MAX_FRAMES` and `VSS_ITERATIONS`, falling back to the defaults.
    pub fn from_env() -> Self {
        let parse = |name: &str, default: u64| {
            std::env::var(name).ok().and_then(|v| v.parse::<u64>().ok()).unwrap_or(default)
        };
        let default = Self::default();
        Self {
            resolution_divisor: parse("VSS_SCALE", u64::from(default.resolution_divisor)) as u32,
            max_frames: parse("VSS_MAX_FRAMES", default.max_frames as u64) as usize,
            iterations: parse("VSS_ITERATIONS", default.iterations as u64) as usize,
        }
    }
}

/// Frames-per-second given a frame count and elapsed wall time.
pub fn fps(frames: usize, elapsed: Duration) -> f64 {
    if elapsed.as_secs_f64() <= 0.0 {
        return 0.0;
    }
    frames as f64 / elapsed.as_secs_f64()
}

/// A fresh temporary directory under the system temp dir, removed if it
/// already exists.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vss-bench-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_table_and_json_round_trip() {
        let mut report = Report::new("figX", "demo");
        report.push(Row::new("a").with("fps", 10.0).with("bytes", 100.0));
        report.push(Row::new("b").with("fps", 20.5));
        let table = report.to_table();
        assert!(table.contains("figX"));
        assert!(table.contains("20.5"));
        assert!(table.contains('-'), "missing values render as dashes");
        let dir = scratch_dir("report-test");
        let path = report.write_json(&dir).unwrap();
        let parsed: serde_json::Value =
            serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(parsed["experiment"], "figX");
        assert_eq!(parsed["rows"].as_array().unwrap().len(), 2);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn scale_config_env_parsing() {
        let default = ScaleConfig::default();
        assert!(default.resolution_divisor >= 1);
        std::env::set_var("VSS_SCALE", "4");
        std::env::set_var("VSS_MAX_FRAMES", "33");
        let parsed = ScaleConfig::from_env();
        assert_eq!(parsed.resolution_divisor, 4);
        assert_eq!(parsed.max_frames, 33);
        std::env::remove_var("VSS_SCALE");
        std::env::remove_var("VSS_MAX_FRAMES");
    }

    #[test]
    fn fps_helper() {
        assert_eq!(fps(30, Duration::from_secs(1)), 30.0);
        assert_eq!(fps(10, Duration::ZERO), 0.0);
    }
}
