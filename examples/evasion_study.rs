//! Evasion study (paper §VI): how much must a bot change to escape?
//!
//! The paper's core claim is that the *combination* of tests is what bites:
//! beating `θ_vol` alone leaves a bot in `S_churn` and vice versa, and the
//! timing test sits behind both. This study measures, for each §VI knob,
//! (a) whether the bots escape the *individual* test and (b) what happens
//! to end-to-end detection — then shows the multi-knob change (with its
//! stealth costs) that evasion actually requires.
//!
//! ```sh
//! cargo run --release --example evasion_study
//! ```

use std::collections::HashSet;
use std::net::Ipv4Addr;

use peerwatch::botnet::{
    apply_evasion, generate_nugache_trace, generate_storm_trace, BotFamily, BotTrace,
    EvasionConfig, NugacheConfig, StormConfig,
};
use peerwatch::data::{build_day, overlay_bots, CampusConfig, DayDataset};
use peerwatch::detect::{
    try_find_plotters_table_tier, FindPlottersConfig, PlotterReport, ProfileTier,
};
use peerwatch::flow::FlowTable;
use peerwatch::netsim::SimDuration;

struct Outcome {
    in_s_vol: usize,
    in_s_churn: usize,
    detected: usize,
    bots: usize,
}

fn evaluate(day: &DayDataset, storm: &BotTrace, nugache: &BotTrace) -> Outcome {
    let overlaid = overlay_bots(day, &[storm, nugache], 42);
    let report: PlotterReport = try_find_plotters_table_tier(
        &FlowTable::from_records(&overlaid.flows),
        |ip| day.is_internal(ip),
        &FindPlottersConfig::default(),
        ProfileTier::Exact,
        1,
    )
    .expect("campus day yields a verdict");
    let bots: HashSet<Ipv4Addr> = overlaid
        .implanted_hosts(BotFamily::Storm)
        .into_iter()
        .collect();
    Outcome {
        in_s_vol: report.s_vol.intersection(&bots).count(),
        in_s_churn: report.s_churn.intersection(&bots).count(),
        detected: report.suspects.intersection(&bots).count(),
        bots: bots.len(),
    }
}

fn main() {
    let campus = CampusConfig {
        seed: 99,
        ..CampusConfig::default()
    };
    let day = build_day(&campus, 0);
    let storm = generate_storm_trace(
        &StormConfig {
            duration: campus.duration,
            ..StormConfig::default()
        },
        3,
    );
    // Nugache rides along un-evaded, as in the paper's combined overlay.
    let nugache = generate_nugache_trace(
        &NugacheConfig {
            duration: campus.duration,
            ..NugacheConfig::default()
        },
        4,
    );

    let base = evaluate(&day, &storm, &nugache);
    println!(
        "baseline Storm: {}/{} in S_vol, {}/{} in S_churn, {}/{} detected end-to-end",
        base.in_s_vol, base.bots, base.in_s_churn, base.bots, base.detected, base.bots
    );

    println!("\n-- volume inflation alone (targets θ_vol) --");
    println!(
        "{:<8} {:>8} {:>10} {:>10}",
        "factor", "in S_vol", "in S_churn", "detected"
    );
    for mult in [4.0, 8.0, 16.0, 32.0] {
        let e = apply_evasion(
            &storm,
            &EvasionConfig {
                volume_multiplier: mult,
                ..Default::default()
            },
            1,
        );
        let o = evaluate(&day, &e, &nugache);
        println!(
            "×{mult:<7} {:>8} {:>10} {:>10}",
            o.in_s_vol, o.in_s_churn, o.detected
        );
    }
    println!("escaping the volume test is not enough: the churn test still routes the");
    println!("bots into θ_hm (S_hm input is the *union*).");

    println!("\n-- new-peer inflation alone (targets θ_churn) --");
    println!(
        "{:<8} {:>8} {:>10} {:>10}",
        "factor", "in S_vol", "in S_churn", "detected"
    );
    for mult in [2.0, 3.0, 5.0, 8.0] {
        let e = apply_evasion(
            &storm,
            &EvasionConfig {
                new_peer_multiplier: mult,
                ..Default::default()
            },
            2,
        );
        let o = evaluate(&day, &e, &nugache);
        println!(
            "×{mult:<7} {:>8} {:>10} {:>10}",
            o.in_s_vol, o.in_s_churn, o.detected
        );
    }

    println!("\n-- interstitial jitter alone (targets θ_hm) --");
    println!("{:<10} {:>10}", "jitter", "detected");
    for d in [60u64, 600, 3600, 10800] {
        let e = apply_evasion(
            &storm,
            &EvasionConfig::jitter_only(SimDuration::from_secs(d)),
            3,
        );
        let o = evaluate(&day, &e, &nugache);
        println!("±{d:<8}s {:>10}", o.detected);
    }

    println!("\n-- the combination evasion actually requires --");
    let full = EvasionConfig {
        volume_multiplier: 32.0,
        new_peer_multiplier: 6.0,
        jitter: Some(SimDuration::from_mins(30)),
    };
    let e = apply_evasion(&storm, &full, 4);
    let o = evaluate(&day, &e, &nugache);
    println!(
        "32× volume + 6× new peers + ±30 min jitter: {}/{} in S_vol, {}/{} in S_churn, {}/{} detected",
        o.in_s_vol, o.bots, o.in_s_churn, o.bots, o.detected, o.bots
    );
    println!("\nNote how the knobs *interfere*: the one-off probes that raise the churn");
    println!("metric are tiny failed flows, which drag the average bytes-per-flow back");
    println!("down into S_vol — beating one test un-beats another. And every knob costs");
    println!("stealth: more volume, more scanning-like probes, slower command latency.");
    println!("That interlock, on top of thresholds the bot cannot observe (medians of");
    println!("the live background), is §VI's robustness argument.");
}
