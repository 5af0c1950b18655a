//! Argus-substrate benchmarks: aggregation throughput and persistence.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use pw_flow::synth::{emit_connection, ConnOutcome, ConnSpec};
use pw_flow::{ArgusAggregator, Packet, PacketSink};
use pw_netsim::{SimDuration, SimTime};
use std::net::Ipv4Addr;

fn packet_script(conns: usize) -> Vec<Packet> {
    let mut pkts: Vec<Packet> = Vec::new();
    for i in 0..conns {
        let spec = ConnSpec::tcp(
            SimTime::from_millis(i as u64 * 50),
            Ipv4Addr::new(10, 1, (i / 250) as u8, (i % 250) as u8 + 1),
            40_000 + (i % 20_000) as u16,
            Ipv4Addr::new(93, 10, (i / 200 % 200) as u8, (i % 200) as u8 + 1),
            80,
        )
        .outcome(ConnOutcome::Established {
            bytes_up: 600,
            bytes_down: 30_000,
        })
        .duration(SimDuration::from_secs(2));
        emit_connection(&mut pkts, &spec);
    }
    pkts
}

fn bench_aggregation(c: &mut Criterion) {
    let pkts = packet_script(10_000);
    let mut group = c.benchmark_group("argus");
    group.throughput(Throughput::Elements(pkts.len() as u64));
    group.sample_size(20);
    group.bench_function("aggregate_10k_conns", |b| {
        b.iter(|| {
            let mut agg = ArgusAggregator::default();
            for p in &pkts {
                agg.emit(black_box(*p));
            }
            agg.finish(SimTime::from_hours(2))
        })
    });
    group.finish();
}

fn bench_csv(c: &mut Criterion) {
    let pkts = packet_script(5_000);
    let mut agg = ArgusAggregator::default();
    for p in &pkts {
        agg.emit(*p);
    }
    let flows = agg.finish(SimTime::from_hours(2));
    let mut buf = Vec::new();
    pw_flow::csvio::write_flows(&mut buf, &flows).unwrap();

    let mut group = c.benchmark_group("flow_csv");
    group.throughput(Throughput::Elements(flows.len() as u64));
    group.bench_function("write", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(buf.len());
            pw_flow::csvio::write_flows(&mut out, black_box(&flows)).unwrap();
            out
        })
    });
    group.bench_function("read", |b| {
        b.iter(|| pw_flow::csvio::read_flows(black_box(buf.as_slice())).unwrap())
    });
    group.bench_function("read_lossy", |b| {
        b.iter(|| pw_flow::csvio::read_flows_lossy(black_box(buf.as_slice())).unwrap())
    });
    group.finish();
}

fn bench_signatures(c: &mut Criterion) {
    let payloads: Vec<&[u8]> = vec![
        b"GNUTELLA CONNECT/0.6\r\n",
        b"\x13BitTorrent protocol",
        b"GET /announce?info_hash=x HTTP/1.1",
        b"GET /index.html HTTP/1.1",
        b"\xe3\x20rest-of-frame",
        b"random human text with no signature at all.....",
    ];
    c.bench_function("classify_payload_6", |b| {
        b.iter(|| {
            payloads
                .iter()
                .filter(|p| pw_flow::signatures::classify_payload(black_box(p)).is_some())
                .count()
        })
    });
}

criterion_group!(benches, bench_aggregation, bench_csv, bench_signatures);
criterion_main!(benches);
