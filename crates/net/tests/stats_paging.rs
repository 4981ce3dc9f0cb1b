//! A paged registry fetch returns every series once, in sorted order, even
//! when the registry grows between pages.
//!
//! Pages are cut by index over the sorted, flattened registry. Serving the
//! first page registers the server's own `net.stats_page.*` span series,
//! which sort before the filler below and shift every later index back by
//! one, so the series that ended page 1 reappears at the head of page 2.
//! This is its own test binary because the registry is process-global and
//! the fetch must be the process's first: after it, those series exist and
//! nothing moves between pages.

use vss_core::VssConfig;
use vss_net::{NetServer, RemoteStore};
use vss_server::VssServer;

/// More filler than one page's section holds (`wire::MAX_METRICS` = 4096).
const FILLER: usize = 5000;

fn assert_strictly_increasing(section: &str, names: &[&str]) {
    for pair in names.windows(2) {
        assert!(
            pair[0] < pair[1],
            "{section}: {:?} then {:?}",
            pair[0],
            pair[1]
        );
    }
}

#[test]
fn a_registry_that_grows_mid_fetch_arrives_once_and_sorted() {
    for index in 0..FILLER {
        vss_telemetry::counter(&format!("zz.paging.{index:05}")).incr();
    }
    let root = std::env::temp_dir().join(format!("vss-net-stats-paging-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = VssServer::open_sharded(VssConfig::new(&root), 1).unwrap();
    let net = NetServer::bind(server.clone(), "127.0.0.1:0").unwrap();
    let store = RemoteStore::connect(net.local_addr()).unwrap();

    let snapshot = store.stats_snapshot().unwrap();
    let counters: Vec<&str> = snapshot.counters.iter().map(|(n, _)| n.as_str()).collect();
    let gauges: Vec<&str> = snapshot.gauges.iter().map(|(n, _)| n.as_str()).collect();
    let histograms: Vec<&str> = snapshot
        .histograms
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    assert_strictly_increasing("counters", &counters);
    assert_strictly_increasing("gauges", &gauges);
    assert_strictly_increasing("histograms", &histograms);
    // Registered before the fetch, so every filler series arrives.
    let filler = counters
        .iter()
        .filter(|name| name.starts_with("zz.paging."))
        .count();
    assert_eq!(filler, FILLER);

    net.shutdown();
    let _ = std::fs::remove_dir_all(root);
}
