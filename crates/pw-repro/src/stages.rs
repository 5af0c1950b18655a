//! Set-shaped stage adapters over the canonical `pw_detect` view API.
//!
//! The repro harness carries ground truth around as `HashSet<Ipv4Addr>`
//! (implants, traders, per-family bot sets), so the per-figure code wants
//! individual pipeline stages in that shape too. These helpers build a
//! [`ProfileView`] over a day's [`ProfileTable`], run one canonical
//! `*_view` stage, and convert the surviving [`pw_detect::HostMask`] back
//! to IPs. An unresolvable threshold yields an empty set with threshold
//! `0.0` rather than an error — the figures average over days and treat
//! an empty stage as zero survival.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use pw_detect::{
    initial_reduction_view, theta_churn_view, theta_hm_view, theta_vol_view, HmOptions, HmOutcome,
    HostMask, ProfileTable, ProfileView, Threshold,
};

/// The §V-A data reduction (median failed-connection rate) as an IP set,
/// with the resolved rate threshold.
pub fn reduce(profiles: &ProfileTable) -> (HashSet<Ipv4Addr>, f64) {
    let view = ProfileView::from_table(profiles);
    let (mask, threshold) = initial_reduction_view(&view);
    (mask.to_ips(&view), threshold)
}

/// The `θ_vol` volume test (§IV-A) over `input`, as an IP set with the
/// resolved byte threshold.
pub fn vol(
    profiles: &ProfileTable,
    input: &HashSet<Ipv4Addr>,
    tau: Threshold,
) -> (HashSet<Ipv4Addr>, f64) {
    let view = ProfileView::from_table(profiles);
    let mask = HostMask::from_ips(&view, input);
    match theta_vol_view(&view, &mask, tau, 1) {
        Some((kept, t)) => (kept.to_ips(&view), t),
        None => (HashSet::new(), 0.0),
    }
}

/// The `θ_churn` peer-churn test (§IV-B) over `input`, as an IP set with
/// the resolved new-IP-fraction threshold.
pub fn churn(
    profiles: &ProfileTable,
    input: &HashSet<Ipv4Addr>,
    tau: Threshold,
) -> (HashSet<Ipv4Addr>, f64) {
    let view = ProfileView::from_table(profiles);
    let mask = HostMask::from_ips(&view, input);
    match theta_churn_view(&view, &mask, tau, 1) {
        Some((kept, t)) => (kept.to_ips(&view), t),
        None => (HashSet::new(), 0.0),
    }
}

/// The `θ_hm` human-vs-machine test (§IV-C) over `input` with the default
/// [`HmOptions`]; the outcome is already IP-shaped.
pub fn hm(
    profiles: &ProfileTable,
    input: &HashSet<Ipv4Addr>,
    tau: Threshold,
    cut_fraction: f64,
) -> HmOutcome {
    hm_with_options(profiles, input, tau, cut_fraction, &HmOptions::default())
}

/// [`hm`] with explicit [`HmOptions`] (used by the ablation study).
pub fn hm_with_options(
    profiles: &ProfileTable,
    input: &HashSet<Ipv4Addr>,
    tau: Threshold,
    cut_fraction: f64,
    options: &HmOptions,
) -> HmOutcome {
    let view = ProfileView::from_table(profiles);
    let mask = HostMask::from_ips(&view, input);
    theta_hm_view(&view, &mask, tau, cut_fraction, options)
}
