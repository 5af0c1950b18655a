//! Streaming-engine benchmarks: batch vs streaming, and the multi-core
//! speedup of the whole host-sharded pipeline. Extraction alone is
//! measured serial and sharded by the `profiles/extract` group.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pw_bench::bench_day;
use pw_detect::stream::{DetectionEngine, EngineConfig};
use pw_detect::{
    try_find_plotters_from_table, try_find_plotters_table_tier, FindPlottersConfig, ProfileTier,
};
use pw_flow::FlowTable;
use pw_netsim::SimDuration;

fn bench_parallel_speedup(c: &mut Criterion) {
    let fixture = bench_day();
    let day = &fixture.day;
    let mut flows = fixture.flows.clone();
    flows.sort_by_key(|f| (f.start, f.src, f.dst, f.sport, f.dport));

    let mut group = c.benchmark_group("stream/full_pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Elements(flows.len() as u64));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| {
                try_find_plotters_table_tier(
                    &FlowTable::from_records(black_box(&flows)),
                    |ip| day.is_internal(ip),
                    &FindPlottersConfig::default(),
                    ProfileTier::Exact,
                    t,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    let fixture = bench_day();
    let day = &fixture.day;
    let mut flows = fixture.flows.clone();
    flows.sort_by_key(|f| (f.start, f.src, f.dst, f.sport, f.dport));

    // Batch baseline on pre-extracted profiles, for scale.
    let mut group = c.benchmark_group("stream/batch_baseline");
    group.sample_size(10);
    group.bench_function("find_plotters_from_table", |b| {
        b.iter(|| {
            try_find_plotters_from_table(
                black_box(&fixture.profiles),
                &FindPlottersConfig::default(),
                1,
            )
            .expect("campus day yields a verdict")
        })
    });
    group.finish();

    // The engine replaying the day in hourly tumbling windows.
    let mut group = c.benchmark_group("stream/engine_hourly");
    group.sample_size(10);
    group.throughput(Throughput::Elements(flows.len() as u64));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| {
                let cfg = EngineConfig {
                    window: SimDuration::from_hours(1),
                    slide: SimDuration::from_hours(1),
                    lateness: SimDuration::from_mins(10),
                    threads: t,
                    ..Default::default()
                };
                let mut engine =
                    DetectionEngine::new(cfg, |ip| day.is_internal(ip)).expect("valid config");
                let mut reports = Vec::new();
                for f in black_box(&flows) {
                    reports.extend(engine.push(*f).expect("in-order replay"));
                }
                reports.extend(engine.finish());
                reports
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_speedup, bench_engine);
criterion_main!(benches);
