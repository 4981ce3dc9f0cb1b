//! `vssbench`: the repository's benchmark. See `README.md` next to
//! `Cargo.toml` for the workloads, the metrics and how they interact.
//!
//! ```text
//! vssbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!          [--trace-out <file>] [--out <file>] [--smoke] [--check]
//! ```
//!
//! One workload runs per process (so peak RSS and the process-wide telemetry
//! registry are that workload's own); `all` and `--check` re-exec this
//! binary once per workload and pass. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod gen;
mod probes;
mod spec;
mod stats;
mod sys;
mod trace;
mod workloads;

use serde::json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{Ctx, Mode, Pass};

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    smoke: bool,
    check: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        trace_out: None,
        out: None,
        smoke: false,
        check: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--traced" => args.trace = true,
            "--trace-out" => args.trace_out = Some(value("--trace-out")?.into()),
            "--out" => args.out = Some(value("--out")?.into()),
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload != "all" && !spec::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}' (one of {:?} or all)",
            args.workload,
            spec::WORKLOADS
        ));
    }
    Ok(args)
}

/// What one single-workload process reports.
struct Report {
    attempted: u64,
    failed: u64,
    /// `(name, unit, value)` in table order.
    metrics: Vec<(&'static str, &'static str, f64)>,
    notes: Vec<String>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: BTreeMap<String, Value> = self
            .metrics
            .iter()
            .map(|&(name, unit, value)| {
                let entry = BTreeMap::from([
                    ("value".to_string(), Value::Number(value)),
                    ("unit".to_string(), Value::String(unit.to_string())),
                ]);
                (name.to_string(), Value::Object(entry))
            })
            .collect();
        Value::Object(BTreeMap::from([
            ("correct".to_string(), Value::Bool(self.failed == 0)),
            (
                "attempted".to_string(),
                Value::Integer(self.attempted as i128),
            ),
            ("failed".to_string(), Value::Integer(self.failed as i128)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]))
        .to_compact()
    }
}

fn require(value: Option<f64>, name: &str, samples: usize) -> Result<f64, String> {
    value.ok_or_else(|| {
        format!(
            "{name} is unsupported with {samples} latency samples: lengthen the run (--seconds)"
        )
    })
}

/// The measured pass: tracing off, full op counts, set-up repeated.
fn run_end_to_end(name: &str, ctx: &Ctx) -> Result<Report, String> {
    let pass = workloads::run(
        name,
        ctx,
        Mode {
            divisor: 1,
            traced: false,
            setup_reps: 3,
        },
    )?;
    let samples = pass.latencies_ms.len();
    let values = [
        stats::median(&pass.setup_s),
        sys::peak_rss_mb()?,
        stats::ratio(pass.ops as f64, pass.wall_s),
        stats::ratio(pass.frames as f64, pass.wall_s),
        require(
            stats::percentile(&pass.latencies_ms, 0.50),
            "op_p50_ms",
            samples,
        )?,
        require(
            stats::percentile(&pass.latencies_ms, 0.90),
            "op_p90_ms",
            samples,
        )?,
        stats::ratio(pass.cpu_s * 1e3, pass.cpu_frames as f64),
        stats::ratio(pass.stored_bytes as f64, pass.raw_bytes as f64),
    ];
    let mut notes = pass.notes;
    notes.push(format!(
        "{} ops, {} frames in {:.3} s; {samples} latency samples; set-up x{} {:?} s",
        pass.ops,
        pass.frames,
        pass.wall_s,
        pass.setup_s.len(),
        pass.setup_s
    ));
    notes.push(format!("inputs digest {:016x}", pass.inputs_digest));
    Ok(Report {
        attempted: pass.attempted,
        failed: pass.failed,
        metrics: spec::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect(),
        notes,
    })
}

/// The traced run: the workload at a third of its op count, once with
/// tracing off (the reference for the overhead) and once with the span
/// recorder on, then the layer probes. Never feeds end-to-end metrics.
fn run_per_layer(name: &str, ctx: &Ctx, trace_out: Option<&PathBuf>) -> Result<Report, String> {
    let plain = workloads::run(
        name,
        ctx,
        Mode {
            divisor: 3,
            traced: false,
            setup_reps: 1,
        },
    )?;
    let mut traced: Pass = workloads::run(
        name,
        ctx,
        Mode {
            divisor: 3,
            traced: true,
            setup_reps: 1,
        },
    )?;
    probes::run(ctx, &mut traced)?;
    let per_op = |pass: &Pass| stats::ratio(pass.ops as f64, pass.wall_s);
    traced.set(
        "bench.trace.overhead_frac",
        1.0 - stats::ratio(per_op(&traced), per_op(&plain)),
    );
    // 48 bits survive the trip through a JSON number exactly.
    traced.set(
        "bench.inputs.digest",
        (traced.inputs_digest & 0xffff_ffff_ffff) as f64,
    );
    if plain.inputs_digest != traced.inputs_digest {
        traced.fail("the two passes of the traced run saw different inputs".into());
    }
    if let Some(path) = trace_out {
        std::fs::write(path, trace::to_json_lines(&traced.spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let mut notes = std::mem::take(&mut traced.notes);
    notes.push(format!(
        "{} spans; untraced {:.2} ops/s, traced {:.2} ops/s",
        traced.spans.len(),
        per_op(&plain),
        per_op(&traced)
    ));
    Ok(Report {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics: spec::PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, traced.layer.get(n).copied().unwrap_or(0.0)))
            .collect(),
        notes,
    })
}

fn run_single(args: &Args) -> Result<bool, String> {
    let scratch = sys::Scratch::create(&args.workload)?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: if args.smoke { 1.0 } else { args.seconds },
        smoke: args.smoke,
        scratch: scratch.path(),
    };
    let report = if args.trace {
        run_per_layer(&args.workload, &ctx, args.trace_out.as_ref())?
    } else {
        run_end_to_end(&args.workload, &ctx)?
    };
    println!(
        "# {} seed {} ({}, {} cores)",
        args.workload,
        args.seed,
        if args.trace {
            "traced run: per-layer metrics"
        } else {
            "tracing off: end-to-end metrics"
        },
        vss_parallel::available_parallelism()
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for &(name, unit, value) in &report.metrics {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    println!("# attempted {} failed {}", report.attempted, report.failed);
    let json = report.json();
    if let Some(path) = &args.out {
        std::fs::write(path, &json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("{json}");
    Ok(report.failed == 0)
}

/// Runs one workload in a child process and returns its result line parsed.
fn run_child(args: &Args, workload: &str, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command.args(["--workload", workload, "--seed", &args.seed.to_string()]);
    command.args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if args.smoke {
        command.arg("--smoke");
    }
    if let (true, Some(path)) = (trace, &args.trace_out) {
        command
            .arg("--trace-out")
            .arg(path.with_extension(format!("{workload}.jsonl")));
    }
    let output = command
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    serde::json::parse(last).map_err(|e| format!("{workload} result line: {e}"))
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn clean(result: &Value) -> bool {
    matches!(result.get("correct"), Some(Value::Bool(true)))
}

/// Every workload untraced, then traced, each in its own process.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut combined = BTreeMap::new();
    for trace in [false, true] {
        for workload in spec::WORKLOADS {
            let result = run_child(args, workload, trace)?;
            ok &= clean(&result);
            combined.insert(
                format!(
                    "{workload}.{}",
                    if trace { "per_layer" } else { "end_to_end" }
                ),
                result,
            );
        }
    }
    if let Some(path) = &args.out {
        std::fs::write(path, Value::Object(combined).to_pretty())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(ok)
}

/// Regression bounds of the end-to-end metrics, read from `BENCHMARK.json`
/// in the working directory (the one place they are recorded).
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let json = serde::json::parse(&text)?;
    let list = json
        .get("end_to_end")
        .and_then(|v| v.as_array())
        .ok_or("BENCHMARK.json: no end_to_end")?;
    list.iter()
        .map(|item| {
            let name = item
                .get("name")
                .and_then(|v| v.as_str())
                .ok_or("end_to_end entry without a name")?;
            let bound = item
                .get("bound")
                .and_then(|v| v.as_f64())
                .ok_or("end_to_end entry without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// `--check`: the full set twice on one seed. Every end-to-end metric's two
/// values must agree within its bound, and the exact counts of the
/// single-client workloads must be identical.
fn run_check(args: &Args) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut ok = true;
    let mut table = Vec::new();
    for workload in spec::WORKLOADS {
        let runs = [
            run_child(args, workload, false)?,
            run_child(args, workload, false)?,
        ];
        let traced = [
            run_child(args, workload, true)?,
            run_child(args, workload, true)?,
        ];
        ok &= runs.iter().chain(&traced).all(clean);
        for (name, _) in spec::END_TO_END {
            let (a, b) = (metric(&runs[0], name), metric(&runs[1], name));
            let (Some(a), Some(b)) = (a, b) else {
                return Err(format!("{workload} did not report {name}"));
            };
            let spread = stats::ratio((a - b).abs(), a.abs().min(b.abs()));
            let bound = *bounds
                .get(name)
                .ok_or_else(|| format!("no bound for {name}"))?;
            let within = spread <= bound;
            ok &= within;
            table.push(format!(
                "{workload:<16} {name:<28} {a:>14.5} {b:>14.5} spread {:>7.3}% bound {:>5.1}% {}",
                spread * 100.0,
                bound * 100.0,
                if within { "ok" } else { "EXCEEDED" }
            ));
        }
        if spec::SINGLE_CLIENT.contains(&workload) {
            for name in spec::EXACT_COUNTS {
                let pair = if spec::END_TO_END.iter().any(|(n, _)| *n == name) {
                    &runs
                } else {
                    &traced
                };
                let (a, b) = (metric(&pair[0], name), metric(&pair[1], name));
                let same = a.is_some() && a == b;
                ok &= same;
                table.push(format!(
                    "{workload:<16} {name:<28} {a:?} {b:?} {}",
                    if same { "identical" } else { "DIFFERS" }
                ));
            }
        }
    }
    println!("# --check seed {}: two runs of every workload", args.seed);
    table.iter().for_each(|line| println!("{line}"));
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("vssbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.check {
        run_check(&args)
    } else if args.workload == "all" {
        run_all(&args)
    } else {
        run_single(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // Failed ops are reported in the result line, not by the exit code:
        // the driver reads `failed`; `--check` and `all` gate on it.
        Ok(false) if !args.check && args.workload != "all" => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("vssbench: {message}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_arguments_parse() {
        let a = args(&[
            "--workload",
            "cached_clips",
            "--seed",
            "42",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("cached_clips", 42, 15.0, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = Report {
            attempted: 10,
            failed: 1,
            metrics: vec![("setup_s", "s", 0.25)],
            notes: Vec::new(),
        };
        let parsed = serde::json::parse(&report.json()).unwrap();
        let keys: Vec<&String> = parsed.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(metric(&parsed, "setup_s"), Some(0.25));
        assert_eq!(
            parsed
                .get("metrics")
                .unwrap()
                .get("setup_s")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("s")
        );
    }
}
