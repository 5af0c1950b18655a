//! One benchmark per reproduced evaluation artefact: how long each
//! figure's computation takes over a bench-scale day (generation included
//! once in the fixture, excluded from the measurement).
//!
//! Together with `pw-repro`'s binaries (which regenerate the figures at
//! paper scale), this gives the per-figure performance map DESIGN.md §3
//! promises.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pw_analysis::Ecdf;
use pw_bench::bench_day;
use pw_botnet::{
    apply_evasion, generate_nugache_trace, generate_storm_trace, EvasionConfig, NugacheConfig,
    StormConfig,
};
use pw_detect::{try_find_plotters_from_table, FindPlottersConfig};
use pw_netsim::SimDuration;

fn bench_figure_kernels(c: &mut Criterion) {
    let fixture = bench_day();
    let profiles = &fixture.profiles;

    // Figures 1 and 5 are per-host CDFs over extracted features.
    c.bench_function("fig01_volume_cdf_kernel", |b| {
        b.iter(|| {
            let vals: Vec<f64> = profiles
                .profiles()
                .iter()
                .filter_map(pw_detect::HostProfile::avg_upload_per_flow)
                .collect();
            Ecdf::new(black_box(vals))
        })
    });
    c.bench_function("fig05_failed_cdf_kernel", |b| {
        b.iter(|| {
            let vals: Vec<f64> = profiles
                .profiles()
                .iter()
                .filter_map(pw_detect::HostProfile::failed_rate)
                .collect();
            Ecdf::new(black_box(vals))
        })
    });

    // Figure 2/3 kernels: churn metric and FD histograms per host.
    c.bench_function("fig02_churn_kernel", |b| {
        b.iter(|| {
            profiles
                .profiles()
                .iter()
                .filter_map(pw_detect::HostProfile::new_ip_fraction)
                .sum::<f64>()
        })
    });
    c.bench_function("fig03_interstitial_histograms", |b| {
        b.iter(|| {
            profiles
                .profiles()
                .iter()
                .filter(|p| p.has_interstitials())
                .fold(0usize, |acc, p| {
                    black_box(
                        pw_analysis::Histogram::freedman_diaconis(p.interstitials()).unwrap(),
                    );
                    acc + 1
                })
        })
    });

    // Figures 6–9 all reduce to pipeline invocations.
    let mut group = c.benchmark_group("fig09_pipeline_day");
    group.sample_size(10);
    group.bench_function("one_day", |b| {
        b.iter(|| {
            try_find_plotters_from_table(black_box(profiles), &FindPlottersConfig::default(), 1)
                .expect("campus day yields a verdict")
        })
    });
    group.finish();
}

fn bench_trace_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_generation");
    group.sample_size(10);
    group.bench_function("storm_6bots_6h", |b| {
        b.iter(|| {
            generate_storm_trace(
                &StormConfig {
                    n_bots: 6,
                    external_population: 80,
                    duration: SimDuration::from_hours(6),
                    ..StormConfig::default()
                },
                black_box(1),
            )
        })
    });
    group.bench_function("nugache_15bots_6h", |b| {
        b.iter(|| {
            generate_nugache_trace(
                &NugacheConfig {
                    n_bots: 15,
                    duration: SimDuration::from_hours(6),
                    ..NugacheConfig::default()
                },
                black_box(2),
            )
        })
    });
    group.finish();
}

fn bench_evasion_rewrite(c: &mut Criterion) {
    // Figures 11/12 kernel: the §VI trace rewrites.
    let trace = generate_storm_trace(
        &StormConfig {
            n_bots: 6,
            external_population: 80,
            duration: SimDuration::from_hours(6),
            ..StormConfig::default()
        },
        3,
    );
    let cfg = EvasionConfig {
        volume_multiplier: 4.0,
        new_peer_multiplier: 1.5,
        jitter: Some(SimDuration::from_mins(10)),
    };
    let mut group = c.benchmark_group("fig12_evasion_rewrite");
    group.sample_size(20);
    group.bench_function("all_knobs", |b| {
        b.iter(|| apply_evasion(black_box(&trace), &cfg, 9))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_figure_kernels,
    bench_trace_generation,
    bench_evasion_rewrite
);
criterion_main!(benches);
