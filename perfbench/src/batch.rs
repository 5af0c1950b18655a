//! The batch path: CSV bytes → `read_flows_lossy` → `FlowTable` →
//! exact-tier `try_find_plotters_table_tier` → sorted suspect list.

use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use pw_detect::{
    extract_profiles_table_par_tier, initial_reduction_view, theta_churn_view, theta_hm_view,
    theta_vol_view, try_find_plotters_from_table, try_find_plotters_table_tier, FindPlottersConfig,
    HmOptions, HostMask, ProfileTier, ProfileView, ThetaHmConfig,
};
use pw_flow::csvio::read_flows_lossy;
use pw_flow::FlowTable;

use crate::hostref::{self, HostRef};
use crate::internal;
use crate::report::{ms, peak_rss_mb, reset_peak_rss, Metrics, Samples, Tally};
use crate::trace::Tracer;

/// The paper's operating point, built and validated the way the
/// `findplotters` CLI builds it before it reads any input.
pub fn detect_config() -> FindPlottersConfig {
    FindPlottersConfig::builder()
        .build()
        .expect("default detection configuration is valid")
}

/// Builds per set-up sample: one build is tens of nanoseconds, so a
/// sample times a block of them and divides.
const SETUP_BLOCK: u32 = 2_000;
/// Set-up samples taken before the timed passes; one more is taken
/// before every pass, so the median spans the whole run.
const SETUP_SAMPLES: usize = 31;

/// Mean cost of one build-and-validate of the detection configuration
/// over a block of [`SETUP_BLOCK`] builds.
fn setup_sample() -> f64 {
    let t0 = Instant::now();
    for _ in 0..SETUP_BLOCK {
        std::hint::black_box(detect_config());
    }
    t0.elapsed().as_secs_f64() / f64::from(SETUP_BLOCK)
}

/// One untraced pass over the CSV bytes.
pub struct Pass {
    pub suspects: Vec<Ipv4Addr>,
    pub rows: usize,
    pub row_errors: usize,
    /// First CSV byte to sorted suspect list.
    pub total: Duration,
    /// Input fully read (end of parse) to sorted suspect list: the close
    /// of the one window a batch run has.
    pub close: Duration,
}

pub fn pass(csv: &[u8], cfg: &FindPlottersConfig, threads: usize) -> Pass {
    let t0 = Instant::now();
    let (records, errors) = read_flows_lossy(csv).expect("generated CSV has a valid header");
    let t_read = Instant::now();
    let table = FlowTable::from_records(&records);
    let report = try_find_plotters_table_tier(&table, internal, cfg, ProfileTier::Exact, threads)
        .expect("a campus day always yields a verdict");
    let suspects = sorted(report.suspects.iter().copied());
    let t1 = Instant::now();
    Pass {
        suspects,
        rows: records.len(),
        row_errors: errors.len(),
        total: t1 - t0,
        close: t1 - t_read,
    }
}

pub fn sorted(ips: impl Iterator<Item = Ipv4Addr>) -> Vec<Ipv4Addr> {
    let mut v: Vec<Ipv4Addr> = ips.collect();
    v.sort_unstable();
    v
}

/// The untraced batch workload on one day: a `threads = 1` reference,
/// then timed passes at `threads` until `seconds` have been measured,
/// each followed by a gap that times the host reference task.
pub fn run(
    csv: &[u8],
    flows: usize,
    threads: usize,
    seconds: f64,
    host: &HostRef,
    s: &mut Samples,
    tally: &mut Tally,
) {
    let cfg = detect_config();
    s.setup_s.extend((0..SETUP_SAMPLES).map(|_| setup_sample()));
    let reference = pass(csv, &cfg, 1);
    tally.check(
        reference.rows == flows && reference.row_errors == 0,
        "reference pass read every generated row",
    );
    let mut before = host.gap(reference.total.as_secs_f64(), &mut s.ref_ms);
    let t0 = Instant::now();
    let mut passes = 0;
    while passes == 0 || t0.elapsed().as_secs_f64() < seconds {
        passes += 1;
        s.setup_s.push(setup_sample());
        reset_peak_rss();
        let p = pass(csv, &cfg, threads);
        s.peak_rss_mb.push(peak_rss_mb());
        tally.check(
            p.suspects == reference.suspects && p.rows == flows && p.row_errors == 0,
            "batch pass suspects equal the threads=1 reference",
        );
        let pass_s = p.total.as_secs_f64();
        let after = host.gap(pass_s, &mut s.ref_ms);
        s.flows_per_s.push(flows as f64 / pass_s);
        s.flows_per_ref
            .push(hostref::flows_per_ref(flows, pass_s, before, after));
        s.close_ms.push(ms(p.close));
        before = after;
    }
    println!(
        "batch: {passes} passes at threads={threads}, {} suspects (as the threads=1 reference)",
        reference.suspects.len()
    );
}

/// The batch path with every stage called directly, each in its own
/// span under a root named `root_name`, then `try_find_plotters_from_table`
/// on the same profiles (outside the root) to price the report assembly
/// the stages leave out. Per-layer metrics get `suffix` appended.
/// Returns the root span.
#[allow(clippy::too_many_arguments)]
pub fn layers(
    tr: &mut Tracer,
    root_name: &'static str,
    csv: &[u8],
    threads: usize,
    reference: &[Ipv4Addr],
    suffix: &str,
    m: &mut Metrics,
    tally: &mut Tally,
) -> usize {
    let cfg = detect_config();
    let theta = ThetaHmConfig {
        profile: true,
        ..cfg.theta_hm
    };
    let root = tr.open(root_name);
    let (records, errors) = tr.span("csvio.read_flows_lossy", || {
        read_flows_lossy(csv).expect("generated CSV has a valid header")
    });
    let table = tr.span("table.from_records", || FlowTable::from_records(&records));
    let profiles = tr.span("features.extract_profiles_table_par_tier", || {
        extract_profiles_table_par_tier(&table, internal, ProfileTier::Exact, threads)
    });
    let view = ProfileView::from_table(&profiles);
    let (reduced, _) = tr.span("reduction.initial_reduction_view", || {
        initial_reduction_view(&view)
    });
    let (s_vol, _) = tr
        .span("theta_vol.theta_vol_view", || {
            theta_vol_view(&view, &reduced, cfg.tau_vol, threads)
        })
        .unwrap_or((HostMask::empty(view.len()), 0.0));
    let (s_churn, _) = tr
        .span("theta_churn.theta_churn_view", || {
            theta_churn_view(&view, &reduced, cfg.tau_churn, threads)
        })
        .unwrap_or((HostMask::empty(view.len()), 0.0));
    let union = s_vol.union(&s_churn);
    let hm = tr.span("theta_hm.theta_hm_view", || {
        theta_hm_view(
            &view,
            &union,
            cfg.tau_hm,
            cfg.cut_fraction,
            &HmOptions {
                threads,
                theta,
                ..HmOptions::default()
            },
        )
    });
    let suspects = sorted(hm.kept.iter().copied());
    tr.close(root);
    tally.check(
        suspects == reference,
        "stage-by-stage suspects equal the reference",
    );

    let pipeline = tr.open("pipeline.try_find_plotters_from_table");
    let report = try_find_plotters_from_table(&profiles, &cfg, threads).expect("verdict");
    tr.close(pipeline);
    tally.check(
        sorted(report.suspects.iter().copied()) == reference,
        "pipeline suspects equal the reference",
    );

    let span_ms = |name: &str| tr.total_ms(root, name);
    let stages_ms = span_ms("reduction.initial_reduction_view")
        + span_ms("theta_vol.theta_vol_view")
        + span_ms("theta_churn.theta_churn_view")
        + span_ms("theta_hm.theta_hm_view");
    let k = |name: &str| format!("{name}{suffix}");
    if suffix.is_empty() {
        let parse_ms = span_ms("csvio.read_flows_lossy");
        m.set("csvio.parse_ms", parse_ms);
        m.set("csvio.mb_per_s", csv.len() as f64 / 1e6 / (parse_ms / 1e3));
        m.set("csvio.rows", records.len() as f64);
        m.set("csvio.row_errors", errors.len() as f64);
        m.set("table.build_ms", span_ms("table.from_records"));
        m.set("table.hosts", table.hosts().len() as f64);
        let bytes: usize = profiles
            .profiles()
            .iter()
            .map(|p| p.estimated_bytes())
            .sum();
        m.set("features.profiles", profiles.len() as f64);
        m.set(
            "features.bytes_per_host",
            bytes as f64 / profiles.len().max(1) as f64,
        );
        m.set("reduction.ms", span_ms("reduction.initial_reduction_view"));
        m.set("reduction.kept", reduced.count() as f64);
        m.set("theta_vol.ms", span_ms("theta_vol.theta_vol_view"));
        m.set("theta_vol.kept", s_vol.count() as f64);
        m.set("theta_churn.ms", span_ms("theta_churn.theta_churn_view"));
        m.set("theta_churn.kept", s_churn.count() as f64);
        let p = hm.profile.clone().unwrap_or_default();
        let n = p.hosts as f64;
        m.set("theta_hm.hosts", n);
        m.set("theta_hm.pairs", n * (n - 1.0) / 2.0);
        m.set("theta_hm.hist_ms", ms(p.histograms));
        m.set("theta_hm.fill_ms", ms(p.distance_fill));
        m.set("theta_hm.linkage_ms", ms(p.linkage));
        m.set("theta_hm.cut_ms", ms(p.cut_and_diameters));
        m.set("theta_hm.clusters", hm.clusters.len() as f64);
        m.set("pipeline.report_ms", tr.get(pipeline).ms() - stages_ms);
    }
    m.set(
        &k("features.extract_ms"),
        span_ms("features.extract_profiles_table_par_tier"),
    );
    m.set(&k("theta_hm.ms"), span_ms("theta_hm.theta_hm_view"));
    m.set(&k("batch.pass_ms"), tr.get(root).ms());
    root
}
