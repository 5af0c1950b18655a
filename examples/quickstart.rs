//! Quickstart: build a small campus day, implant a Storm botnet, and find
//! it with `FindPlotters` — end to end in under a minute.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use peerwatch::botnet::{
    generate_nugache_trace, generate_storm_trace, BotFamily, NugacheConfig, StormConfig,
};
use peerwatch::data::{build_day, overlay_bots, CampusConfig};
use peerwatch::detect::{try_find_plotters_table_tier, FindPlottersConfig, ProfileTier};
use peerwatch::flow::FlowTable;

fn main() {
    // 1. One day of border traffic for a full-size campus. (The detector's
    //    percentile thresholds and cluster-diameter statistics want a
    //    realistic population; tiny campuses make θ_hm unstable.)
    let campus = CampusConfig {
        seed: 2024,
        ..CampusConfig::default()
    };
    let day = build_day(&campus, 0);
    println!(
        "campus day: {} border flows from {} hosts ({} active)",
        day.flows.len(),
        day.hosts.len(),
        day.active_hosts().len()
    );

    // 2. Honeynet captures: 13 Storm bots on a real simulated Overnet and
    //    82 Nugache bots, like the paper's traces.
    let storm_cfg = StormConfig {
        duration: campus.duration,
        ..StormConfig::default()
    };
    let storm = generate_storm_trace(&storm_cfg, 7);
    let nugache_cfg = NugacheConfig {
        duration: campus.duration,
        ..NugacheConfig::default()
    };
    let nugache = generate_nugache_trace(&nugache_cfg, 8);
    println!(
        "storm trace: {} bots, {} flows",
        storm.bots.len(),
        storm.total_flows()
    );
    println!(
        "nugache trace: {} bots, {} flows",
        nugache.bots.len(),
        nugache.total_flows()
    );

    // 3. Implant each bot onto a random active internal host.
    let overlaid = overlay_bots(&day, &[&storm, &nugache], 42);
    let implanted = overlaid.implanted_hosts(BotFamily::Storm);
    let implanted_nugache = overlaid.implanted_hosts(BotFamily::Nugache);

    // 4. Run the detector on nothing but the flow records.
    let report = try_find_plotters_table_tier(
        &FlowTable::from_records(&overlaid.flows),
        |ip| day.is_internal(ip),
        &FindPlottersConfig::default(),
        ProfileTier::Exact,
        1,
    )
    .expect("campus day yields a verdict");
    println!(
        "\npipeline: {} hosts -> {} after reduction -> {} in S_vol ∪ S_churn -> {} suspects",
        report.all_hosts.len(),
        report.after_reduction.len(),
        report.union.len(),
        report.suspects.len()
    );
    println!(
        "thresholds: failed-rate > {:.1}%, τ_vol = {:.0} B/flow, τ_churn = {:.1}%",
        report.reduction_threshold * 100.0,
        report.tau_vol,
        report.tau_churn * 100.0
    );

    let storm_found = implanted
        .iter()
        .filter(|h| report.suspects.contains(h))
        .count();
    let nugache_found = implanted_nugache
        .iter()
        .filter(|h| report.suspects.contains(h))
        .count();
    let traders: std::collections::HashSet<_> = day.trader_hosts().into_iter().collect();
    let fp: Vec<_> = report
        .suspects
        .iter()
        .filter(|ip| !implanted.contains(ip) && !implanted_nugache.contains(ip))
        .collect();
    let fp_traders = fp.iter().filter(|ip| traders.contains(**ip)).count();
    println!(
        "Storm detected:   {storm_found}/{} (paper: 87.50%)",
        implanted.len()
    );
    println!(
        "Nugache detected: {nugache_found}/{} (paper: 30%)",
        implanted_nugache.len()
    );
    println!(
        "false positives:  {} hosts ({} of them Traders) out of {} non-bot hosts",
        fp.len(),
        fp_traders,
        report.all_hosts.len() - implanted.len() - implanted_nugache.len()
    );
}
