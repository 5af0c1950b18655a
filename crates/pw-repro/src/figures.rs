//! Per-figure computations for the paper's evaluation (Figures 1–12).
//!
//! Each `figNN_*` function returns plain data; the matching binary renders
//! it with [`crate::table`], and the integration tests assert the paper's
//! qualitative shapes on the same data.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use pw_analysis::{Ecdf, Histogram, RocCurve, RocPoint};
use pw_botnet::{apply_evasion, BotTrace, EvasionConfig};
use pw_data::overlay_bots;
use pw_detect::{
    extract_profiles_table_par_tier, try_find_plotters_from_table, try_find_plotters_table_tier,
    FindPlottersConfig, HostProfile, ProfileTable, ProfileTier, Threshold,
};
use pw_flow::signatures::P2pApp;
use pw_flow::FlowTable;
use pw_netsim::SimDuration;

use crate::context::{Context, DayContext};
use crate::stages;

/// The percentile sweep the paper uses for its ROC curves.
pub const ROC_PERCENTILES: [f64; 5] = [10.0, 30.0, 50.0, 70.0, 90.0];

/// A named per-host value series, rendered as a CDF.
#[derive(Debug, Clone)]
pub struct CdfSeries {
    /// Series name (dataset).
    pub name: String,
    /// One value per host.
    pub values: Vec<f64>,
}

impl CdfSeries {
    /// Quantiles of the series at the given cumulative fractions.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<(f64, Option<f64>)> {
        let cdf = Ecdf::new(self.values.clone());
        qs.iter().map(|&q| (q, cdf.quantile(q))).collect()
    }

    /// Fraction of hosts with value ≤ x.
    pub fn fraction_below(&self, x: f64) -> f64 {
        Ecdf::new(self.values.clone()).eval(x)
    }

    /// Median value.
    pub fn median(&self) -> Option<f64> {
        pw_analysis::median(&self.values)
    }
}

/// Extracts per-bot profiles from a honeynet trace (the bots are the
/// "internal" hosts of the honeynet).
pub fn profiles_of_trace(trace: &BotTrace) -> ProfileTable {
    let bot_ips: HashSet<Ipv4Addr> = trace.bots.iter().map(|b| b.ip).collect();
    let mut all: Vec<pw_flow::FlowRecord> = trace
        .bots
        .iter()
        .flat_map(|b| b.flows.iter().copied())
        .collect();
    all.sort_by_key(|f| (f.start, f.src, f.sport, f.dst, f.dport, f.end));
    all.dedup();
    extract_profiles_table_par_tier(
        &FlowTable::from_records(&all),
        |ip| bot_ips.contains(&ip),
        ProfileTier::Exact,
        1,
    )
}

fn base_profiles(day: &DayContext) -> ProfileTable {
    let base = &day.run.overlaid.base;
    extract_profiles_table_par_tier(
        &FlowTable::from_records(&base.flows),
        |ip| base.is_internal(ip),
        ProfileTier::Exact,
        1,
    )
}

// ---------------------------------------------------------------------
// Figure 1: CDF of average flow size (bytes uploaded per flow) per host.
// ---------------------------------------------------------------------

/// Figure 1 data: one CDF series per dataset (CMU, Trader, Storm, Nugache),
/// computed over day 0 like the paper's single-day plot.
pub fn fig01_volume_cdfs(ctx: &Context) -> Vec<CdfSeries> {
    let day = &ctx.days[0];
    let base = base_profiles(day);
    let traders = &day.traders;
    let cmu: Vec<f64> = base
        .profiles()
        .iter()
        .filter_map(pw_detect::HostProfile::avg_upload_per_flow)
        .collect();
    let trader: Vec<f64> = base
        .profiles()
        .iter()
        .filter(|p| traders.contains(&p.ip))
        .filter_map(pw_detect::HostProfile::avg_upload_per_flow)
        .collect();
    let storm: Vec<f64> = profiles_of_trace(&day.run.storm)
        .profiles()
        .iter()
        .filter_map(pw_detect::HostProfile::avg_upload_per_flow)
        .collect();
    let nugache: Vec<f64> = profiles_of_trace(&day.run.nugache)
        .profiles()
        .iter()
        .filter_map(pw_detect::HostProfile::avg_upload_per_flow)
        .collect();
    vec![
        CdfSeries {
            name: "CMU".into(),
            values: cmu,
        },
        CdfSeries {
            name: "Trader".into(),
            values: trader,
        },
        CdfSeries {
            name: "Storm".into(),
            values: storm,
        },
        CdfSeries {
            name: "Nugache".into(),
            values: nugache,
        },
    ]
}

// ---------------------------------------------------------------------
// Figure 2: new IPs contacted over one day, Trader vs Storm bot.
// ---------------------------------------------------------------------

/// Hourly new-IP behaviour of one host.
#[derive(Debug, Clone)]
pub struct NewIpSeries {
    /// Host description.
    pub name: String,
    /// `(hour, fraction of that hour's contacted IPs that are new)`.
    pub hourly: Vec<(usize, f64)>,
    /// The §IV-B churn metric over the whole day.
    pub day_new_fraction: f64,
}

/// Per hour: among the distinct IPs the host contacted that hour, the
/// fraction it had never contacted before (the paper's Figure 2 bars).
fn hourly_new_fractions(flows: &[pw_flow::FlowRecord], host: Ipv4Addr) -> Vec<(usize, f64)> {
    let mut ordered: Vec<&pw_flow::FlowRecord> = flows.iter().filter(|f| f.src == host).collect();
    ordered.sort_by_key(|f| f.start);
    let mut seen: HashSet<Ipv4Addr> = HashSet::new();
    let mut by_hour: std::collections::BTreeMap<usize, (HashSet<Ipv4Addr>, HashSet<Ipv4Addr>)> =
        Default::default();
    for f in ordered {
        let hour = (f.start.as_millis() / 3_600_000) as usize;
        let e = by_hour.entry(hour).or_default();
        if seen.insert(f.dst) {
            e.0.insert(f.dst); // new this hour
        }
        e.1.insert(f.dst); // contacted this hour
    }
    by_hour
        .into_iter()
        .map(|(h, (new, total))| (h, new.len() as f64 / total.len().max(1) as f64))
        .collect()
}

/// Figure 2 data: a representative Trader and a representative Storm bot.
pub fn fig02_new_ips(ctx: &Context) -> Vec<NewIpSeries> {
    let day = &ctx.days[0];
    let base = base_profiles(day);
    // The busiest Trader of the day.
    let trader_profile = base
        .profiles()
        .iter()
        .filter(|p| day.traders.contains(&p.ip))
        .max_by_key(|p| p.distinct_destinations())
        .expect("a trader is active");
    // The busiest Storm bot from the honeynet trace.
    let storm_profiles = profiles_of_trace(&day.run.storm);
    let storm_profile = storm_profiles
        .profiles()
        .iter()
        .max_by_key(|p| p.distinct_destinations())
        .expect("storm bots exist");
    let storm_flows: Vec<pw_flow::FlowRecord> = day
        .run
        .storm
        .bots
        .iter()
        .find(|b| b.ip == storm_profile.ip)
        .expect("bot exists")
        .flows
        .clone();
    vec![
        NewIpSeries {
            name: format!("Trader {}", trader_profile.ip),
            hourly: hourly_new_fractions(&day.run.overlaid.base.flows, trader_profile.ip),
            day_new_fraction: trader_profile.new_ip_fraction().unwrap_or(0.0),
        },
        NewIpSeries {
            name: format!("Storm {}", storm_profile.ip),
            hourly: hourly_new_fractions(&storm_flows, storm_profile.ip),
            day_new_fraction: storm_profile.new_ip_fraction().unwrap_or(0.0),
        },
    ]
}

// ---------------------------------------------------------------------
// Figure 3: per-destination interstitial-time distributions.
// ---------------------------------------------------------------------

/// One panel of Figure 3.
#[derive(Debug, Clone)]
pub struct InterstitialPanel {
    /// Host description.
    pub name: String,
    /// Number of interstitial samples.
    pub samples: usize,
    /// FD histogram as `(bin centre seconds, probability)`.
    pub histogram: Vec<(f64, f64)>,
    /// The bin centres (seconds) of the three most massive bins.
    pub modes: Vec<f64>,
}

fn panel(name: String, p: &HostProfile) -> InterstitialPanel {
    let hist = Histogram::freedman_diaconis(p.interstitials()).expect("samples exist");
    let pm = hist.point_masses();
    let mut by_mass = pm.clone();
    by_mass.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    InterstitialPanel {
        name,
        samples: p.interstitials().len(),
        histogram: pm,
        modes: by_mass.iter().take(3).map(|&(c, _)| c).collect(),
    }
}

/// Figure 3 data: Storm bot, Nugache bot, BitTorrent host, Gnutella host.
pub fn fig03_interstitials(ctx: &Context) -> Vec<InterstitialPanel> {
    let day = &ctx.days[0];
    let storm = profiles_of_trace(&day.run.storm);
    let nugache = profiles_of_trace(&day.run.nugache);
    let base = base_profiles(day);
    let storm_p = storm
        .profiles()
        .iter()
        .max_by_key(|p| p.interstitials().len())
        .expect("storm");
    let nug_p = nugache
        .profiles()
        .iter()
        .max_by_key(|p| p.interstitials().len())
        .expect("nugache");
    let pick_trader = |app: P2pApp| {
        base.profiles()
            .iter()
            .filter(|p| {
                matches!(day.run.overlaid.base.hosts.get(&p.ip),
                    Some(info) if info.role == pw_data::HostRole::Trader(app))
            })
            .max_by_key(|p| p.interstitials().len())
            .expect("trader active")
    };
    vec![
        panel(format!("(a) Storm {}", storm_p.ip), storm_p),
        panel(format!("(b) Nugache {}", nug_p.ip), nug_p),
        panel(
            format!("(c) BitTorrent {}", pick_trader(P2pApp::BitTorrent).ip),
            pick_trader(P2pApp::BitTorrent),
        ),
        panel(
            format!("(d) Gnutella {}", pick_trader(P2pApp::Gnutella).ip),
            pick_trader(P2pApp::Gnutella),
        ),
    ]
}

// ---------------------------------------------------------------------
// Figure 5: CDF of failed-connection percentage per host.
// ---------------------------------------------------------------------

/// Figure 5 data: failed-connection-rate CDFs per dataset (hosts that
/// initiated at least one successful connection, like the paper).
pub fn fig05_failed_cdfs(ctx: &Context) -> Vec<CdfSeries> {
    let day = &ctx.days[0];
    let base = base_profiles(day);
    let eligible = |p: &&HostProfile| p.initiated_successfully() && p.failed_rate().is_some();
    let cmu_minus_trader: Vec<f64> = base
        .profiles()
        .iter()
        .filter(|p| !day.traders.contains(&p.ip))
        .filter(eligible)
        .filter_map(pw_detect::HostProfile::failed_rate)
        .collect();
    let trader: Vec<f64> = base
        .profiles()
        .iter()
        .filter(|p| day.traders.contains(&p.ip))
        .filter(eligible)
        .filter_map(pw_detect::HostProfile::failed_rate)
        .collect();
    let storm: Vec<f64> = profiles_of_trace(&day.run.storm)
        .profiles()
        .iter()
        .filter(eligible)
        .filter_map(pw_detect::HostProfile::failed_rate)
        .collect();
    let nugache: Vec<f64> = profiles_of_trace(&day.run.nugache)
        .profiles()
        .iter()
        .filter(eligible)
        .filter_map(pw_detect::HostProfile::failed_rate)
        .collect();
    vec![
        CdfSeries {
            name: "CMU\\Trader".into(),
            values: cmu_minus_trader,
        },
        CdfSeries {
            name: "Trader".into(),
            values: trader,
        },
        CdfSeries {
            name: "Storm".into(),
            values: storm,
        },
        CdfSeries {
            name: "Nugache".into(),
            values: nugache,
        },
    ]
}

// ---------------------------------------------------------------------
// Figures 6–8: ROC curves.
// ---------------------------------------------------------------------

fn day_rates(
    detected: &HashSet<Ipv4Addr>,
    input: &HashSet<Ipv4Addr>,
    family: &HashSet<Ipv4Addr>,
    implanted: &HashSet<Ipv4Addr>,
) -> (Option<f64>, Option<f64>) {
    let fam_in: Vec<&Ipv4Addr> = input.intersection(family).collect();
    let tpr = if fam_in.is_empty() {
        None
    } else {
        let tp = fam_in.iter().filter(|ip| detected.contains(**ip)).count();
        Some(tp as f64 / fam_in.len() as f64)
    };
    let negatives: Vec<&Ipv4Addr> = input.difference(implanted).collect();
    let fpr = if negatives.is_empty() {
        None
    } else {
        let fp = negatives
            .iter()
            .filter(|ip| detected.contains(**ip))
            .count();
        Some(fp as f64 / negatives.len() as f64)
    };
    (tpr, fpr)
}

fn average(points: &[(f64, f64)]) -> Option<(f64, f64)> {
    if points.is_empty() {
        return None;
    }
    let n = points.len() as f64;
    Some((
        points.iter().map(|p| p.0).sum::<f64>() / n,
        points.iter().map(|p| p.1).sum::<f64>() / n,
    ))
}

fn roc_for_test<F>(ctx: &Context, mut detect: F) -> Vec<RocCurve>
where
    F: FnMut(&DayContext, &HashSet<Ipv4Addr>, f64) -> HashSet<Ipv4Addr>,
{
    let mut storm_curve = RocCurve::new("storm");
    let mut nugache_curve = RocCurve::new("nugache");
    for &p in &ROC_PERCENTILES {
        let mut storm_pts = Vec::new();
        let mut nugache_pts = Vec::new();
        for day in &ctx.days {
            let (input, _) = stages::reduce(&day.profiles);
            let detected = detect(day, &input, p);
            let (tpr_s, fpr) = day_rates(&detected, &input, &day.storm_hosts, &day.implanted);
            let (tpr_n, _) = day_rates(&detected, &input, &day.nugache_hosts, &day.implanted);
            if let (Some(t), Some(f)) = (tpr_s, fpr) {
                storm_pts.push((f, t));
            }
            if let (Some(t), Some(f)) = (tpr_n, fpr) {
                nugache_pts.push((f, t));
            }
        }
        if let Some((f, t)) = average(&storm_pts) {
            storm_curve.push(RocPoint {
                label: format!("p{p:.0}"),
                fpr: f,
                tpr: t,
            });
        }
        if let Some((f, t)) = average(&nugache_pts) {
            nugache_curve.push(RocPoint {
                label: format!("p{p:.0}"),
                fpr: f,
                tpr: t,
            });
        }
    }
    vec![storm_curve, nugache_curve]
}

/// Figure 6: ROC of the volume test `θ_vol`.
pub fn fig06_roc_volume(ctx: &Context) -> Vec<RocCurve> {
    roc_for_test(ctx, |day, input, p| {
        stages::vol(&day.profiles, input, Threshold::Percentile(p)).0
    })
}

/// Figure 7: ROC of the churn test `θ_churn`.
pub fn fig07_roc_churn(ctx: &Context) -> Vec<RocCurve> {
    roc_for_test(ctx, |day, input, p| {
        stages::churn(&day.profiles, input, Threshold::Percentile(p)).0
    })
}

/// Figure 8: ROC of the human-vs-machine test `θ_hm` (input is
/// `S_vol ∪ S_churn` at the 50th percentile).
pub fn fig08_roc_hm(ctx: &Context) -> Vec<RocCurve> {
    let mut storm_curve = RocCurve::new("storm");
    let mut nugache_curve = RocCurve::new("nugache");
    for &p in &ROC_PERCENTILES {
        let mut storm_pts = Vec::new();
        let mut nugache_pts = Vec::new();
        for day in &ctx.days {
            let (reduced, _) = stages::reduce(&day.profiles);
            let (s_vol, _) = stages::vol(&day.profiles, &reduced, Threshold::Percentile(50.0));
            let (s_churn, _) = stages::churn(&day.profiles, &reduced, Threshold::Percentile(50.0));
            let input: HashSet<Ipv4Addr> = s_vol.union(&s_churn).copied().collect();
            let hm = stages::hm(&day.profiles, &input, Threshold::Percentile(p), 0.05);
            let (tpr_s, fpr) = day_rates(&hm.kept, &input, &day.storm_hosts, &day.implanted);
            let (tpr_n, _) = day_rates(&hm.kept, &input, &day.nugache_hosts, &day.implanted);
            if let (Some(t), Some(f)) = (tpr_s, fpr) {
                storm_pts.push((f, t));
            }
            if let (Some(t), Some(f)) = (tpr_n, fpr) {
                nugache_pts.push((f, t));
            }
        }
        if let Some((f, t)) = average(&storm_pts) {
            storm_curve.push(RocPoint {
                label: format!("p{p:.0}"),
                fpr: f,
                tpr: t,
            });
        }
        if let Some((f, t)) = average(&nugache_pts) {
            nugache_curve.push(RocPoint {
                label: format!("p{p:.0}"),
                fpr: f,
                tpr: t,
            });
        }
    }
    vec![storm_curve, nugache_curve]
}

// ---------------------------------------------------------------------
// Figure 9: the pipeline, stage by stage.
// ---------------------------------------------------------------------

/// Per-stage survival, averaged over days.
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Stage name.
    pub stage: String,
    /// Mean hosts surviving.
    pub hosts: f64,
    /// Mean Storm implants surviving.
    pub storm: f64,
    /// Mean Nugache implants surviving.
    pub nugache: f64,
    /// Mean (non-implanted) Traders surviving.
    pub traders: f64,
}

/// Figure 9 data plus the paper's headline numbers.
#[derive(Debug, Clone)]
pub struct PipelineFig {
    /// Survival per stage.
    pub stages: Vec<StageRow>,
    /// Mean Storm true-positive rate (denominator: all implanted Storm
    /// hosts that day).
    pub storm_tpr: f64,
    /// Mean Nugache true-positive rate.
    pub nugache_tpr: f64,
    /// Mean false-positive rate over non-implanted hosts.
    pub fpr: f64,
    /// Mean fraction of Traders that survive all tests.
    pub traders_remaining: f64,
    /// Mean share of the pipeline's output that is (non-implanted) Traders.
    pub trader_share_of_output: f64,
}

/// Runs the default `FindPlotters` configuration over every day.
pub fn fig09_pipeline(ctx: &Context) -> PipelineFig {
    let cfg = FindPlottersConfig::default();
    let mut stages: Vec<StageRow> = Vec::new();
    let stage_names = [
        "all hosts",
        "after reduction",
        "S_vol",
        "S_churn",
        "S_vol ∪ S_churn",
        "θ_hm (final)",
    ];
    let mut acc: Vec<[f64; 4]> = vec![[0.0; 4]; stage_names.len()];
    let mut tprs = Vec::new();
    let mut tprn = Vec::new();
    let mut fprs = Vec::new();
    let mut traders_rem = Vec::new();
    let mut trader_share = Vec::new();

    for day in &ctx.days {
        let report = try_find_plotters_from_table(&day.profiles, &cfg, 1)
            .expect("campus day yields a verdict");
        let traders_not_implanted: HashSet<Ipv4Addr> =
            day.traders.difference(&day.implanted).copied().collect();
        let sets: [&HashSet<Ipv4Addr>; 6] = [
            &report.all_hosts,
            &report.after_reduction,
            &report.s_vol,
            &report.s_churn,
            &report.union,
            &report.suspects,
        ];
        for (i, s) in sets.iter().enumerate() {
            acc[i][0] += s.len() as f64;
            acc[i][1] += s.intersection(&day.storm_hosts).count() as f64;
            acc[i][2] += s.intersection(&day.nugache_hosts).count() as f64;
            acc[i][3] += s.intersection(&traders_not_implanted).count() as f64;
        }
        tprs.push(
            report.suspects.intersection(&day.storm_hosts).count() as f64
                / day.storm_hosts.len().max(1) as f64,
        );
        tprn.push(
            report.suspects.intersection(&day.nugache_hosts).count() as f64
                / day.nugache_hosts.len().max(1) as f64,
        );
        let negatives: HashSet<Ipv4Addr> = report
            .all_hosts
            .difference(&day.implanted)
            .copied()
            .collect();
        let fp = report.suspects.difference(&day.implanted).count() as f64;
        fprs.push(fp / negatives.len().max(1) as f64);
        traders_rem.push(
            report.suspects.intersection(&traders_not_implanted).count() as f64
                / traders_not_implanted.len().max(1) as f64,
        );
        if !report.suspects.is_empty() {
            trader_share.push(
                report.suspects.intersection(&traders_not_implanted).count() as f64
                    / report.suspects.len() as f64,
            );
        }
    }

    let n = ctx.days.len() as f64;
    for (i, name) in stage_names.iter().enumerate() {
        stages.push(StageRow {
            stage: (*name).into(),
            hosts: acc[i][0] / n,
            storm: acc[i][1] / n,
            nugache: acc[i][2] / n,
            traders: acc[i][3] / n,
        });
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    PipelineFig {
        stages,
        storm_tpr: mean(&tprs),
        nugache_tpr: mean(&tprn),
        fpr: mean(&fprs),
        traders_remaining: mean(&traders_rem),
        trader_share_of_output: mean(&trader_share),
    }
}

// ---------------------------------------------------------------------
// Figure 10: flow counts of surviving Nugache bots.
// ---------------------------------------------------------------------

/// Figure 10 data: for each pipeline stage, the flow counts (log-scale in
/// the paper) of the Nugache implants that survive it, accumulated over all
/// days.
pub fn fig10_nugache_flow_counts(ctx: &Context) -> Vec<(String, Vec<f64>)> {
    let cfg = FindPlottersConfig::default();
    let mut out: Vec<(String, Vec<f64>)> = vec![
        ("all Nugache bots".into(), Vec::new()),
        ("after reduction".into(), Vec::new()),
        ("after S_vol ∪ S_churn".into(), Vec::new()),
        ("after θ_hm".into(), Vec::new()),
    ];
    for day in &ctx.days {
        let report = try_find_plotters_from_table(&day.profiles, &cfg, 1)
            .expect("campus day yields a verdict");
        // Sorted so the per-stage point vectors are byte-stable run to run.
        let mut nugache: Vec<_> = day.nugache_hosts.iter().collect();
        nugache.sort_unstable();
        for ip in nugache {
            let flows = day
                .run
                .overlaid
                .implant_flow_counts
                .get(ip)
                .copied()
                .unwrap_or(0) as f64;
            out[0].1.push(flows);
            if report.after_reduction.contains(ip) {
                out[1].1.push(flows);
            }
            if report.union.contains(ip) {
                out[2].1.push(flows);
            }
            if report.suspects.contains(ip) {
                out[3].1.push(flows);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Figure 11: evasion margins for θ_vol and θ_churn.
// ---------------------------------------------------------------------

/// One day's thresholds versus the median Plotter, and the implied
/// multiplicative evasion factor.
#[derive(Debug, Clone)]
pub struct EvasionMarginRow {
    /// Day index.
    pub day: usize,
    /// The resolved threshold (τ_vol bytes, or τ_churn fraction).
    pub tau: f64,
    /// Median metric value among Storm implants.
    pub storm_median: f64,
    /// Median metric value among Nugache implants.
    pub nugache_median: f64,
    /// τ / median for Storm (how much the median Storm bot must multiply
    /// its metric to escape the test).
    pub storm_factor: f64,
    /// τ / median for Nugache.
    pub nugache_factor: f64,
}

/// Figure 11 data: volume margins (11a) and churn margins (11b).
pub fn fig11_evasion_margins(ctx: &Context) -> (Vec<EvasionMarginRow>, Vec<EvasionMarginRow>) {
    let mut vol = Vec::new();
    let mut churn = Vec::new();
    for (d, day) in ctx.days.iter().enumerate() {
        let (input, _) = stages::reduce(&day.profiles);
        let (_, tau_vol) = stages::vol(&day.profiles, &input, Threshold::Percentile(50.0));
        let (_, tau_churn) = stages::churn(&day.profiles, &input, Threshold::Percentile(50.0));
        let med = |hosts: &HashSet<Ipv4Addr>, f: &dyn Fn(&HostProfile) -> Option<f64>| {
            let vals: Vec<f64> = hosts
                .iter()
                .filter_map(|ip| day.profiles.get(*ip))
                .filter_map(f)
                .collect();
            pw_analysis::median(&vals).unwrap_or(f64::NAN)
        };
        let sv = med(&day.storm_hosts, &|p| p.avg_upload_per_flow());
        let nv = med(&day.nugache_hosts, &|p| p.avg_upload_per_flow());
        vol.push(EvasionMarginRow {
            day: d,
            tau: tau_vol,
            storm_median: sv,
            nugache_median: nv,
            storm_factor: tau_vol / sv,
            nugache_factor: tau_vol / nv,
        });
        let sc = med(&day.storm_hosts, &|p| p.new_ip_fraction());
        let nc = med(&day.nugache_hosts, &|p| p.new_ip_fraction());
        churn.push(EvasionMarginRow {
            day: d,
            tau: tau_churn,
            storm_median: sc,
            nugache_median: nc,
            storm_factor: tau_churn / sc.max(1e-6),
            nugache_factor: tau_churn / nc.max(1e-6),
        });
    }
    (vol, churn)
}

// ---------------------------------------------------------------------
// Figure 12: jitter evasion sweep.
// ---------------------------------------------------------------------

/// The jitter magnitudes swept (seconds), 30 s … 3 h like the paper.
pub const JITTER_SWEEP_SECS: [u64; 8] = [30, 60, 120, 300, 600, 1800, 7200, 10800];

/// One operating point of the jitter sweep.
#[derive(Debug, Clone)]
pub struct JitterRow {
    /// Jitter half-width `d` in seconds (0 = no evasion).
    pub d_secs: u64,
    /// Mean Storm TPR of the full pipeline.
    pub storm_tpr: f64,
    /// Mean Nugache TPR of the full pipeline.
    pub nugache_tpr: f64,
}

/// Figure 12 data: pipeline true-positive rate as bots randomize their
/// repeat-peer connection times by ±d.
pub fn fig12_jitter_sweep(ctx: &Context) -> Vec<JitterRow> {
    let cfg = FindPlottersConfig::default();
    let mut rows = Vec::new();
    let mut sweep = vec![0u64];
    sweep.extend(JITTER_SWEEP_SECS);
    for d in sweep {
        let mut storm_tprs = Vec::new();
        let mut nugache_tprs = Vec::new();
        for (di, day) in ctx.days.iter().enumerate() {
            let (storm, nugache) = (&day.run.storm, &day.run.nugache);
            let (storm_e, nugache_e);
            let (storm_t, nugache_t) = if d == 0 {
                (storm, nugache)
            } else {
                let ecfg = EvasionConfig::jitter_only(SimDuration::from_secs(d));
                storm_e = apply_evasion(storm, &ecfg, 0xE0A + d);
                nugache_e = apply_evasion(nugache, &ecfg, 0xE0B + d);
                (&storm_e, &nugache_e)
            };
            // Average over several overlay placements: per-day detection is
            // close to all-or-nothing, so extra placements smooth the curve.
            for placement in 0..3u64 {
                let implants_seed = ctx.cfg.campus.seed ^ di as u64 ^ (placement << 17);
                let overlaid =
                    overlay_bots(&day.run.overlaid.base, &[storm_t, nugache_t], implants_seed);
                let report = try_find_plotters_table_tier(
                    &FlowTable::from_records(&overlaid.flows),
                    |ip| day.run.overlaid.base.is_internal(ip),
                    &cfg,
                    ProfileTier::Exact,
                    1,
                )
                .expect("campus day yields a verdict");
                let storm_hosts: HashSet<Ipv4Addr> = overlaid
                    .implanted_hosts(pw_botnet::BotFamily::Storm)
                    .into_iter()
                    .collect();
                let nugache_hosts: HashSet<Ipv4Addr> = overlaid
                    .implanted_hosts(pw_botnet::BotFamily::Nugache)
                    .into_iter()
                    .collect();
                storm_tprs.push(
                    report.suspects.intersection(&storm_hosts).count() as f64
                        / storm_hosts.len().max(1) as f64,
                );
                nugache_tprs.push(
                    report.suspects.intersection(&nugache_hosts).count() as f64
                        / nugache_hosts.len().max(1) as f64,
                );
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        rows.push(JitterRow {
            d_secs: d,
            storm_tpr: mean(&storm_tprs),
            nugache_tpr: mean(&nugache_tprs),
        });
    }
    rows
}
