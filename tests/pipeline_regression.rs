//! Regression pin: batch `FindPlotters` output on a seeded campus day.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use peerwatch::botnet::{generate_storm_trace, StormConfig};
use peerwatch::data::{build_day, overlay_bots, CampusConfig};
use peerwatch::detect::{try_find_plotters_table_tier, FindPlottersConfig, ProfileTier};
use peerwatch::flow::FlowTable;
use peerwatch::netsim::SimDuration;

fn campus_fixture() -> (Vec<peerwatch::flow::FlowRecord>, HashSet<Ipv4Addr>) {
    let campus = CampusConfig {
        seed: 0x5EED,
        n_background: 100,
        n_gnutella: 5,
        n_emule: 4,
        n_bittorrent: 6,
        catalog_files: 150,
        emule_kad_external: 40,
        bt_dht_external: 40,
        duration: SimDuration::from_hours(6),
        ..CampusConfig::default()
    };
    let day = build_day(&campus, 0);
    let storm = generate_storm_trace(
        &StormConfig {
            n_bots: 6,
            external_population: 70,
            duration: campus.duration,
            ..StormConfig::default()
        },
        5,
    );
    let overlaid = overlay_bots(&day, &[&storm], 77);
    let mut flows = overlaid.flows.clone();
    flows.sort_by_key(|f| (f.start, f.src, f.dst, f.sport, f.dport));
    let internal: HashSet<Ipv4Addr> = flows
        .iter()
        .flat_map(|f| [f.src, f.dst])
        .filter(|&ip| day.is_internal(ip))
        .collect();
    (flows, internal)
}

/// Output of the batch pipeline on the fixture, captured before the
/// columnar `FlowTable` refactor. Thresholds are pinned to the exact f64
/// bit patterns so any numeric drift — not just set membership — fails.
#[test]
fn batch_output_unchanged_by_data_plane_refactor() {
    let (flows, internal) = campus_fixture();
    let report = try_find_plotters_table_tier(
        &FlowTable::from_records(&flows),
        |ip| internal.contains(&ip),
        &FindPlottersConfig::default(),
        ProfileTier::Exact,
        1,
    )
    .unwrap();

    assert_eq!(report.all_hosts.len(), 89);
    assert_eq!(report.after_reduction.len(), 44);
    assert_eq!(
        report.reduction_threshold.to_bits(),
        4596946965101448099,
        "reduction threshold drifted"
    );
    assert_eq!(
        report.tau_vol.to_bits(),
        4656620730951606612,
        "tau_vol drifted"
    );
    assert_eq!(
        report.tau_churn.to_bits(),
        4605270044693542068,
        "tau_churn drifted"
    );
    assert_eq!(
        report.hm.tau.to_bits(),
        4654673199762592079,
        "hm tau drifted"
    );
    assert_eq!(report.hm.clusters.len(), 2);

    let mut suspects: Vec<Ipv4Addr> = report.suspects.iter().copied().collect();
    suspects.sort();
    let expected: Vec<Ipv4Addr> = [
        "10.1.0.3",
        "10.1.0.42",
        "10.1.0.52",
        "10.1.0.56",
        "10.2.0.34",
        "10.2.0.35",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect();
    assert_eq!(suspects, expected);
}
