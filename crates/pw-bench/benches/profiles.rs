//! Profile-extraction before/after: the pre-refactor HashMap-per-flow
//! path (frozen here as a baseline) against the interned columnar
//! [`FlowTable`] path, plus batch and streaming detection throughput on
//! the same seeded campus day.

use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pw_bench::bench_day;
use pw_detect::stream::{DetectionEngine, EngineConfig};
use pw_detect::{
    extract_profiles_table_par_tier, internal_endpoint, try_find_plotters_from_table,
    FindPlottersConfig, HostProfile, ProfileAccumulator, ProfileRepr, ProfileTier,
};
use pw_flow::{FlowRecord, FlowTable};
use pw_netsim::{SimDuration, SimTime};

/// The pre-refactor extraction loop, kept as the "before" side of the
/// comparison: one address-keyed map probe per flow, two internality
/// checks per flow, nothing shared with other pipeline stages.
#[derive(Default)]
struct LegacyAcc {
    flows_involving: u64,
    bytes_uploaded: u64,
    initiated: u64,
    initiated_failed: u64,
    first_activity: Option<SimTime>,
    first_contact: BTreeMap<Ipv4Addr, SimTime>,
    interstitials: Vec<f64>,
}

fn legacy_extract_profiles<F>(
    flows: &[FlowRecord],
    is_internal: F,
) -> HashMap<Ipv4Addr, HostProfile>
where
    F: Fn(Ipv4Addr) -> bool,
{
    let mut ordered: Vec<&FlowRecord> = flows.iter().collect();
    ordered.sort_by_key(|f| (f.start, f.src, f.dst, f.sport, f.dport));
    let mut accs: HashMap<Ipv4Addr, LegacyAcc> = HashMap::new();
    let mut last_to: HashMap<Ipv4Addr, HashMap<Ipv4Addr, SimTime>> = HashMap::new();
    for f in ordered {
        let Some(host) = internal_endpoint(f, &is_internal) else {
            continue;
        };
        let p = accs.entry(host).or_default();
        p.flows_involving += 1;
        p.bytes_uploaded += f.bytes_uploaded_by(host).unwrap_or(0);
        if f.src == host {
            p.initiated += 1;
            if f.is_failed() {
                p.initiated_failed += 1;
            }
            if p.first_activity.is_none() {
                p.first_activity = Some(f.start);
            }
            p.first_contact.entry(f.dst).or_insert(f.start);
            if let Some(prev) = last_to.entry(host).or_default().insert(f.dst, f.start) {
                p.interstitials.push((f.start - prev).as_secs_f64());
            }
        }
    }
    accs.into_iter()
        .map(|(ip, a)| {
            (
                ip,
                HostProfile {
                    ip,
                    flows_involving: a.flows_involving,
                    bytes_uploaded: a.bytes_uploaded,
                    initiated: a.initiated,
                    initiated_failed: a.initiated_failed,
                    first_activity: a.first_activity,
                    repr: ProfileRepr::Exact {
                        first_contact: a.first_contact,
                        interstitials: a.interstitials,
                    },
                },
            )
        })
        .collect()
}

fn bench_extraction(c: &mut Criterion) {
    let fixture = bench_day();
    let day = &fixture.day;
    let flows = &fixture.flows;
    let table = FlowTable::from_records(flows);

    // Keep the frozen baseline honest: it must still produce exactly what
    // the refactored path produces.
    assert_eq!(
        legacy_extract_profiles(flows, |ip| day.is_internal(ip)),
        extract_profiles_table_par_tier(&table, |ip| day.is_internal(ip), ProfileTier::Exact, 1)
            .to_map(),
        "legacy baseline diverged from the table path"
    );

    let mut group = c.benchmark_group("profiles/extract");
    group.sample_size(10);
    group.throughput(Throughput::Elements(flows.len() as u64));
    group.bench_function("legacy_hashmap", |b| {
        b.iter(|| legacy_extract_profiles(black_box(flows), |ip| day.is_internal(ip)))
    });
    group.bench_function("table_from_records", |b| {
        b.iter(|| {
            let t = FlowTable::from_records(black_box(flows));
            extract_profiles_table_par_tier(&t, |ip| day.is_internal(ip), ProfileTier::Exact, 1)
        })
    });
    group.bench_function("table_prebuilt", |b| {
        b.iter(|| {
            extract_profiles_table_par_tier(
                black_box(&table),
                |ip| day.is_internal(ip),
                ProfileTier::Exact,
                1,
            )
        })
    });
    for threads in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("table_sharded", threads),
            &threads,
            |b, &t| {
                b.iter(|| {
                    extract_profiles_table_par_tier(
                        black_box(&table),
                        |ip| day.is_internal(ip),
                        ProfileTier::Exact,
                        t,
                    )
                })
            },
        );
    }
    group.finish();
}

/// Accumulates `n` synthetic hosts at the sketched tier; every 97th host
/// is a heavy hitter whose fan-out forces both sketches dense, the rest
/// stay in the sparse-exact range. Mirrors the `sketch_accuracy` harness
/// population so BENCH_N.json tracks the same workload it validates.
fn synth_sketched_hosts(n: usize, tier: ProfileTier) -> usize {
    let mut acc = ProfileAccumulator::with_tier(tier);
    for k in 0..n {
        let host = Ipv4Addr::new(10, (k >> 16) as u8, (k >> 8) as u8, k as u8);
        let peers: u32 = if k % 97 == 0 { 512 } else { 8 };
        for p in 0..peers {
            let v = (k as u32)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(p.wrapping_mul(0x85EB_CA6B));
            let f = FlowRecord {
                start: SimTime::from_millis(u64::from(p) * 500),
                end: SimTime::from_millis(u64::from(p) * 500 + 100),
                src: host,
                sport: 40_000,
                dst: Ipv4Addr::new(100, (v >> 16) as u8, (v >> 8) as u8, v as u8),
                dport: 80,
                proto: pw_flow::Proto::Tcp,
                src_pkts: 2,
                src_bytes: 900,
                dst_pkts: 1,
                dst_bytes: 64,
                state: pw_flow::FlowState::Established,
                payload: pw_flow::Payload::empty(),
            };
            acc.absorb(&f, host);
        }
    }
    acc.finish()
        .profiles()
        .iter()
        .map(HostProfile::estimated_bytes)
        .sum()
}

/// The sketched tier end to end: per-day extraction (serial and sharded)
/// and large-n accumulation with dense heavy hitters, in both tiers so
/// the throughput cost of sketching is directly visible.
fn bench_sketched_extraction(c: &mut Criterion) {
    let fixture = bench_day();
    let day = &fixture.day;
    let table = FlowTable::from_records(&fixture.flows);

    let mut group = c.benchmark_group("profiles_sketched");
    group.sample_size(10);
    group.throughput(Throughput::Elements(fixture.flows.len() as u64));
    group.bench_function("extract_day", |b| {
        b.iter(|| {
            extract_profiles_table_par_tier(
                black_box(&table),
                |ip| day.is_internal(ip),
                ProfileTier::Sketched,
                1,
            )
        })
    });
    for threads in [4usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("extract_day_sharded", threads),
            &threads,
            |b, &t| {
                b.iter(|| {
                    extract_profiles_table_par_tier(
                        black_box(&table),
                        |ip| day.is_internal(ip),
                        ProfileTier::Sketched,
                        t,
                    )
                })
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("profiles_sketched/accumulate");
    group.sample_size(10);
    for n in [10_000usize, 50_000] {
        group.throughput(Throughput::Elements((n + n / 97 * 504) as u64 * 8));
        for tier in [ProfileTier::Exact, ProfileTier::Sketched] {
            group.bench_with_input(BenchmarkId::new(tier.name(), n), &n, |b, &n| {
                b.iter(|| synth_sketched_hosts(black_box(n), tier))
            });
        }
    }
    group.finish();
}

fn bench_detection(c: &mut Criterion) {
    let fixture = bench_day();
    let day = &fixture.day;
    let flows = &fixture.flows;
    let table = FlowTable::from_records(flows);
    let profile_table =
        extract_profiles_table_par_tier(&table, |ip| day.is_internal(ip), ProfileTier::Exact, 1);

    let mut group = c.benchmark_group("profiles/batch_detect");
    group.sample_size(10);
    group.bench_function("from_profile_table", |b| {
        b.iter(|| {
            try_find_plotters_from_table(
                black_box(&profile_table),
                &FindPlottersConfig::default(),
                1,
            )
            .expect("campus day yields a verdict")
        })
    });
    group.finish();

    // Streaming throughput over the same day (hourly tumbling windows).
    let mut ordered = flows.clone();
    ordered.sort_by_key(|f| (f.start, f.src, f.dst, f.sport, f.dport));
    let mut group = c.benchmark_group("profiles/streaming_hourly");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ordered.len() as u64));
    for threads in [1usize, 4] {
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
                for f in black_box(&ordered) {
                    reports.extend(engine.push(*f).expect("in-order replay"));
                }
                reports.extend(engine.finish());
                reports
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_extraction,
    bench_sketched_extraction,
    bench_detection
);
criterion_main!(benches);
