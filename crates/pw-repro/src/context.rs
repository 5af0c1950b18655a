//! The shared experiment context: days, traces, profiles, ground truth.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use pw_botnet::BotFamily;
use pw_data::{run_experiment, DayRun, ExperimentConfig};
use pw_detect::{extract_profiles_table_par_tier, ProfileTable, ProfileTier};
use pw_flow::FlowTable;
use pw_netsim::SimDuration;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper-scale run: ~540 hosts, 8 days, 24-hour windows.
    Standard,
    /// A smoke-test run (set `PW_FAST=1`): small campus, 2 short days.
    Fast,
}

impl Scale {
    /// Reads the scale from the `PW_FAST` environment variable.
    pub fn from_env() -> Self {
        if std::env::var("PW_FAST").is_ok_and(|v| v == "1") {
            Scale::Fast
        } else {
            Scale::Standard
        }
    }

    /// The experiment configuration for this scale.
    pub fn config(self) -> ExperimentConfig {
        match self {
            Scale::Standard => ExperimentConfig::default(),
            Scale::Fast => {
                let mut cfg = ExperimentConfig::small();
                cfg.campus.duration = SimDuration::from_hours(6);
                cfg.storm.duration = SimDuration::from_hours(6);
                cfg.storm.n_bots = 4;
                cfg.storm.external_population = 80;
                cfg.nugache.duration = SimDuration::from_hours(6);
                cfg.nugache.n_bots = 8;
                cfg.days = 2;
                cfg
            }
        }
    }
}

/// One evaluated day, with extracted features and ground truth sets.
#[derive(Debug)]
pub struct DayContext {
    /// The raw day (campus + traces + overlay).
    pub run: DayRun,
    /// Per-host behavioural profiles over the overlaid traffic.
    pub profiles: ProfileTable,
    /// Hosts carrying Storm traffic.
    pub storm_hosts: HashSet<Ipv4Addr>,
    /// Hosts carrying Nugache traffic.
    pub nugache_hosts: HashSet<Ipv4Addr>,
    /// All implanted hosts.
    pub implanted: HashSet<Ipv4Addr>,
    /// Trader hosts (generator ground truth) active this day.
    pub traders: HashSet<Ipv4Addr>,
}

impl DayContext {
    fn new(run: DayRun) -> Self {
        let overlaid = &run.overlaid;
        let base = &overlaid.base;
        let profiles = extract_profiles_table_par_tier(
            &FlowTable::from_records(&overlaid.flows),
            |ip| base.is_internal(ip),
            ProfileTier::Exact,
            1,
        );
        let storm_hosts = overlaid
            .implanted_hosts(BotFamily::Storm)
            .into_iter()
            .collect();
        let nugache_hosts: HashSet<Ipv4Addr> = overlaid
            .implanted_hosts(BotFamily::Nugache)
            .into_iter()
            .collect();
        let implanted: HashSet<Ipv4Addr> = overlaid.implants.keys().copied().collect();
        let traders = base
            .trader_hosts()
            .into_iter()
            .filter(|ip| base.hosts[ip].active)
            .collect();
        Self {
            run,
            profiles,
            storm_hosts,
            nugache_hosts,
            implanted,
            traders,
        }
    }
}

/// The full multi-day experiment context.
#[derive(Debug)]
pub struct Context {
    /// Configuration used.
    pub cfg: ExperimentConfig,
    /// One entry per day.
    pub days: Vec<DayContext>,
}

/// Builds the experiment at the given scale (expensive at
/// [`Scale::Standard`]; run in release mode).
pub fn build_context(scale: Scale) -> Context {
    let cfg = scale.config();
    let days = run_experiment(&cfg)
        .into_iter()
        .map(DayContext::new)
        .collect();
    Context { cfg, days }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_context_builds_with_ground_truth() {
        let ctx = build_context(Scale::Fast);
        assert_eq!(ctx.days.len(), 2);
        for day in &ctx.days {
            assert!(!day.profiles.is_empty());
            assert_eq!(day.storm_hosts.len(), 4);
            assert_eq!(day.nugache_hosts.len(), 8);
            assert_eq!(day.implanted.len(), 12);
            // Implanted hosts have profiles (they generated traffic).
            for ip in &day.implanted {
                assert!(
                    day.profiles.get(*ip).is_some(),
                    "no profile for implant {ip}"
                );
            }
        }
    }

    #[test]
    fn scale_from_env_defaults_to_standard() {
        // The test environment does not set PW_FAST.
        if std::env::var("PW_FAST").is_err() {
            assert_eq!(Scale::from_env(), Scale::Standard);
        }
    }
}
