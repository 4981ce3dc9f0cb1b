//! `vss-top` — a live view of a running VSS server.
//!
//! Polls a server over one connection and renders, every interval, the two
//! things a server shows remotely: its recent traced requests (the `spans`
//! admin topic) and every series of its telemetry registry, fetched page by
//! page, with per-second rates computed from consecutive snapshots. The
//! per-shard (`server.shard.*{shard=N}`), per-connection (`net.conn.*`) and
//! per-stream-kind (`net.mux.*{kind=...}`) views are those series.
//!
//! ```text
//! vss-top <addr> [--once] [--interval-ms N] [--metrics] [--spans REQUEST_ID]
//! ```
//!
//! * `--once` prints a single snapshot and exits (used by CI as a smoke
//!   test against a loopback server).
//! * `--interval-ms N` sets the poll interval (default 2000).
//! * `--metrics` prints the server's Prometheus-style text exposition and
//!   exits.
//! * `--spans REQUEST_ID` prints the rendered span tree of one traced
//!   request and exits.

use std::fmt::Write as _;
use std::io::IsTerminal;
use std::time::{Duration, Instant};
use vss_net::wire::admin_topic;
use vss_net::RemoteStore;
use vss_telemetry::TelemetrySnapshot;

/// Parsed command line.
struct Options {
    addr: String,
    once: bool,
    interval: Duration,
    metrics: bool,
    spans: Option<u64>,
}

fn usage() -> ! {
    eprintln!("usage: vss-top <addr> [--once] [--interval-ms N] [--metrics] [--spans REQUEST_ID]");
    std::process::exit(2);
}

fn parse_options() -> Options {
    let mut addr = None;
    let mut once = false;
    let mut interval = Duration::from_millis(2000);
    let mut metrics = false;
    let mut spans = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--once" => once = true,
            "--metrics" => metrics = true,
            "--interval-ms" => {
                let value = args.next().unwrap_or_else(|| usage());
                match value.parse::<u64>() {
                    Ok(ms) if ms > 0 => interval = Duration::from_millis(ms),
                    _ => usage(),
                }
            }
            "--spans" => {
                let value = args.next().unwrap_or_else(|| usage());
                match value.parse::<u64>() {
                    Ok(id) => spans = Some(id),
                    Err(_) => usage(),
                }
            }
            "--help" | "-h" => usage(),
            other if addr.is_none() && !other.starts_with('-') => addr = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(addr) = addr else { usage() };
    Options { addr, once, interval, metrics, spans }
}

/// The labeled-series section: every counter, gauge and histogram in the
/// server's registry (already sorted, labels canonical), with per-second
/// rates for counters and histogram counts once two snapshots exist.
fn series_section(
    current: &TelemetrySnapshot,
    previous: Option<&(Instant, TelemetrySnapshot)>,
    out: &mut String,
) {
    let elapsed = previous.map(|(at, _)| at.elapsed().as_secs_f64().max(1e-9));
    let rate = |name: &str, now: u64| -> String {
        match (elapsed, previous) {
            (Some(seconds), Some((_, prev))) => {
                let before = prev.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
                let before = before.or_else(|| {
                    prev.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h.count)
                });
                match before {
                    Some(before) => {
                        format!("  {:+.1}/s", (now.saturating_sub(before)) as f64 / seconds)
                    }
                    None => String::new(),
                }
            }
            _ => String::new(),
        }
    };
    out.push_str("== series ==\n");
    for (name, value) in &current.counters {
        let _ = writeln!(out, "counter  {name} = {value}{}", rate(name, *value));
    }
    for (name, value) in &current.gauges {
        let _ = writeln!(out, "gauge    {name} = {value}");
    }
    for (name, summary) in &current.histograms {
        let _ = writeln!(
            out,
            "hist     {name} count={}{} p50={} p99={} max={}",
            summary.count,
            rate(name, summary.count),
            summary.p50,
            summary.p99,
            summary.max
        );
    }
}

/// Fetches everything for one refresh and renders it as one string, so a
/// mid-poll failure never leaves a half-drawn screen.
fn render(
    store: &RemoteStore,
    addr: &str,
    poll: u64,
    previous: Option<&(Instant, TelemetrySnapshot)>,
) -> Result<(String, TelemetrySnapshot), vss_core::VssError> {
    let mut out = String::new();
    let _ = writeln!(out, "vss-top — {addr} (poll #{poll})\n");
    out.push_str("== recent traces ==\n");
    match store.admin_table(admin_topic::SPANS, 0) {
        Ok(table) => out.push_str(&table.to_text()),
        // A typed refusal renders as its message rather than killing the view.
        Err(error) => {
            let _ = writeln!(out, "({error})");
        }
    }
    out.push('\n');
    let snapshot = store.stats_snapshot()?;
    series_section(&snapshot, previous, &mut out);
    Ok((out, snapshot))
}

fn main() {
    let options = parse_options();
    let store = match RemoteStore::connect(options.addr.as_str()) {
        Ok(store) => store,
        Err(error) => {
            eprintln!("vss-top: cannot connect to {}: {error}", options.addr);
            std::process::exit(1);
        }
    };
    if options.metrics {
        match store.metrics_text() {
            Ok(text) => print!("{text}"),
            Err(error) => {
                eprintln!("vss-top: metrics fetch failed: {error}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Some(request_id) = options.spans {
        match store.admin_table(admin_topic::SPANS, request_id) {
            Ok(table) => print!("{}", table.to_text()),
            Err(error) => {
                eprintln!("vss-top: span fetch failed: {error}");
                std::process::exit(1);
            }
        }
        return;
    }
    let clear_screen = !options.once && std::io::stdout().is_terminal();
    let mut previous: Option<(Instant, TelemetrySnapshot)> = None;
    let mut failures = 0u32;
    let mut poll = 0u64;
    loop {
        poll += 1;
        match render(&store, &options.addr, poll, previous.as_ref()) {
            Ok((text, snapshot)) => {
                failures = 0;
                if clear_screen {
                    print!("\x1b[2J\x1b[H");
                }
                print!("{text}");
                previous = Some((Instant::now(), snapshot));
            }
            Err(error) => {
                // The first poll failing means the server has no admin
                // plane (or went away) — report and exit; later transient
                // failures get a few retries before giving up.
                failures += 1;
                eprintln!("vss-top: poll failed: {error}");
                if poll == 1 || failures >= 5 {
                    std::process::exit(1);
                }
            }
        }
        if options.once {
            return;
        }
        std::thread::sleep(options.interval);
    }
}
