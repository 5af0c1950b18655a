//! Benchmark-support crate: shared fixtures for the Criterion benches in
//! `benches/`.
//!
//! The benches cover every substrate (statistics kernels, Argus
//! aggregation, Kademlia lookups, feature extraction, the three tests and
//! the full pipeline) plus one bench per reproduced figure, so performance
//! regressions in any layer of the reproduction are visible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pw_botnet::{generate_nugache_trace, generate_storm_trace, NugacheConfig, StormConfig};
use pw_data::{build_day, overlay_bots, CampusConfig, DayDataset};
use pw_detect::{extract_profiles_table_par_tier, ProfileTable, ProfileTier};
use pw_flow::{FlowRecord, FlowTable};
use pw_netsim::SimDuration;

/// A bench-sized campus: big enough to exercise real code paths, small
/// enough for Criterion's sampling.
pub fn bench_campus() -> CampusConfig {
    CampusConfig {
        seed: 0xBE7C,
        n_background: 150,
        n_gnutella: 8,
        n_emule: 6,
        n_bittorrent: 10,
        catalog_files: 300,
        emule_kad_external: 60,
        bt_dht_external: 60,
        duration: SimDuration::from_hours(6),
        ..CampusConfig::default()
    }
}

/// One bench day with bots overlaid, plus extracted profiles.
pub struct BenchDay {
    /// The campus day.
    pub day: DayDataset,
    /// Overlaid flows (campus + bots).
    pub flows: Vec<FlowRecord>,
    /// Extracted per-host profiles.
    pub profiles: ProfileTable,
}

/// Builds the shared bench fixture (a few seconds; reused across benches).
pub fn bench_day() -> BenchDay {
    let campus = bench_campus();
    let day = build_day(&campus, 0);
    let storm = generate_storm_trace(
        &StormConfig {
            n_bots: 6,
            external_population: 80,
            duration: campus.duration,
            ..StormConfig::default()
        },
        1,
    );
    let nugache = generate_nugache_trace(
        &NugacheConfig {
            n_bots: 15,
            duration: campus.duration,
            ..NugacheConfig::default()
        },
        2,
    );
    let overlaid = overlay_bots(&day, &[&storm, &nugache], 3);
    let profiles = extract_profiles_table_par_tier(
        &FlowTable::from_records(&overlaid.flows),
        |ip| day.is_internal(ip),
        ProfileTier::Exact,
        1,
    );
    BenchDay {
        day,
        flows: overlaid.flows,
        profiles,
    }
}
