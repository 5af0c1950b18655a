//! Seeded fuzzing (fixed `ChaosRng` seeds and counts) of the PWFS frame
//! codec and the checkpoint parsers. No input may panic: every tag at
//! every body length, sessions truncated at every byte or bit-flipped, and
//! checkpoints with flipped bits, dropped or doubled lines, edited digits
//! and forged row counts (re-sealed, so each reaches the line parser) end
//! in a value or a typed error. Encode∘decode and serialize∘parse are the
//! identity on valid inputs. Mutated snapshots are only parsed: restoring
//! one would run whatever configuration the mutation wrote.

use std::net::Ipv4Addr;

use peerwatch::chaos::ChaosRng;
use peerwatch::detect::checkpoint::{
    append_checksum_trailer, split_checksum_trailer, CheckpointError, EngineCheckpoint,
};
use peerwatch::detect::stream::{DetectionEngine, EngineConfig, LatePolicy};
use peerwatch::detect::ProfileTier;
use peerwatch::flow::frame::{
    read_frame_v, read_hello, write_frame_v, write_hello, Frame, FrameError, Hello, FLOW_WIRE_LEN,
    MAX_FRAME_LEN, VERSION, VERSION_V1,
};
use peerwatch::flow::{FlowRecord, FlowState, Payload, Proto};
use peerwatch::netsim::{SimDuration, SimTime};
use peerwatch::server::checkpoint::ServerCheckpoint;

/// Random sessions per protocol version.
const SESSIONS: usize = 40;
/// Mutations of each engine and each server snapshot.
const MUTATIONS: usize = 200;
/// Numbers written over digit runs; the first two also over row counts.
const FORGED: [&str; 4] = [
    "18446744073709551615",
    "100000000000",
    "18446744073709551616",
    "0",
];
/// Lines whose last token counts the rows that follow.
const COUNTED: [&str; 3] = ["buffer ", "window ", "exporters "];

fn flow(rng: &mut ChaosRng, start_ms: u64) -> FlowRecord {
    let payload = rng.next_u64().to_le_bytes();
    FlowRecord {
        start: SimTime::from_millis(start_ms),
        end: SimTime::from_millis(start_ms + rng.below(60_000) as u64),
        src: Ipv4Addr::new(10, 1, 0, 1 + rng.below(8) as u8),
        sport: rng.next_u64() as u16,
        dst: Ipv4Addr::from(rng.next_u64() as u32),
        dport: rng.next_u64() as u16,
        proto: [Proto::Tcp, Proto::Udp][rng.below(2)],
        src_pkts: 1 + rng.below(50) as u64,
        src_bytes: rng.next_u64() >> 40,
        dst_pkts: rng.below(50) as u64,
        dst_bytes: rng.next_u64() >> 40,
        state: [FlowState::Established, FlowState::SynNoAnswer][rng.below(2)],
        payload: Payload::capture(&payload[..rng.below(9)]),
    }
}

fn assert_reencodes(frame: &Frame) {
    let mut buf = Vec::new();
    frame.encode(&mut buf);
    assert_eq!(Frame::decode(&buf[4..]).unwrap(), *frame);
}

#[test]
fn every_tag_at_every_length_is_a_frame_or_a_typed_error() {
    let mut rng = ChaosRng::new(0x7A65_0001);
    let flow_len = 1 + 8 + FLOW_WIRE_LEN;
    let mut bytes: Vec<u8> = (0..MAX_FRAME_LEN).map(|_| rng.next_u64() as u8).collect();
    for tag in 0..=u8::MAX {
        bytes[0] = tag;
        for len in 0..=MAX_FRAME_LEN as usize {
            let known = matches!(tag, 0x01 | 0x03) && len > 0;
            match Frame::decode(&bytes[..len]) {
                Ok(frame) => {
                    assert!((tag, len) == (0x01, flow_len) || (tag, len) == (0x03, 1));
                    assert_reencodes(&frame);
                }
                Err(FrameError::BadLength { .. }) => assert!(known || len == 0),
                Err(FrameError::UnknownTag(t)) => assert!(t == tag && !known && len > 0),
                // Field checks (proto, state, payload length) only.
                Err(e) => assert_eq!((tag, len), (0x01, flow_len), "{e}"),
            }
        }
    }
}

/// Reads a session back: the hello (through the server's sniffed-prefix
/// entry point when the stream length is even), then frames until EOF or
/// the first error.
fn read_session(wire: &[u8]) -> (Option<Hello>, Vec<Frame>, Result<(), FrameError>) {
    let sniffed = if wire.len() >= 4 && wire.len().is_multiple_of(2) {
        4
    } else {
        0
    };
    let (first, mut r) = wire.split_at(sniffed);
    let hello = match read_hello(&mut r, first) {
        Ok(h) => h,
        Err(e) => return (None, Vec::new(), Err(e)),
    };
    let mut frames = Vec::new();
    loop {
        match read_frame_v(&mut r, hello.version) {
            Ok(Some(f)) => frames.push(f),
            end => return (Some(hello), frames, end.map(drop)),
        }
    }
}

#[test]
fn sessions_round_trip_and_damaged_ones_fail_typed() {
    let mut rng = ChaosRng::new(0x7A65_0002);
    for version in [VERSION_V1, VERSION] {
        for _ in 0..SESSIONS {
            let hello = Hello {
                version,
                ..Hello::new(rng.next_u64() as u32)
            };
            let mut wire = Vec::new();
            write_hello(&mut wire, hello).unwrap();
            // Byte offsets where the hello and each frame end.
            let mut ends = vec![wire.len()];
            let mut frames = Vec::new();
            for seq in 0..=rng.below(6) as u64 {
                let frame = match rng.below(10) {
                    0 => Frame::Bye,
                    _ => Frame::Flow {
                        seq,
                        flow: flow(&mut rng, seq << 40),
                    },
                };
                write_frame_v(&mut wire, &frame, version).unwrap();
                ends.push(wire.len());
                frames.push(frame);
            }

            let (got_hello, got, end) = read_session(&wire);
            assert_eq!((got_hello, &got), (Some(hello), &frames));
            assert!(end.is_ok());

            for cut in 0..wire.len() {
                let (_, got, end) = read_session(&wire[..cut]);
                assert_eq!(got, frames[..got.len()], "cut {cut}");
                match end {
                    Ok(()) => assert_eq!(ends[got.len()], cut, "clean EOF mid-frame"),
                    Err(e) => assert!(matches!(e, FrameError::Io(_)), "cut {cut}: {e}"),
                }
            }

            for flips in 1..=3 {
                let mut bad = wire.clone();
                for _ in 0..flips {
                    let at = rng.below(bad.len());
                    bad[at] ^= 1 << rng.below(8);
                }
                let (got_hello, got, end) = read_session(&bad);
                if version == VERSION && flips == 1 {
                    assert!(end.is_err(), "a flipped bit went unnoticed");
                    if got_hello.is_some() {
                        assert_eq!(got, frames[..got.len()]);
                    }
                }
                got.iter().for_each(assert_reencodes);
            }
        }
    }
}

/// Snapshots of engines holding buffered flows and open windows, under the
/// default configuration and one that changes every field.
fn snapshots(rng: &mut ChaosRng) -> Vec<EngineCheckpoint> {
    let sliding = EngineConfig {
        window: SimDuration::from_mins(20),
        slide: SimDuration::from_mins(10),
        lateness: SimDuration::from_mins(5),
        threads: 2,
        late_policy: LatePolicy::ExtendOldest,
        max_flows: Some(500),
        dedupe: true,
        reject_invalid: true,
        tier: ProfileTier::Sketched,
        ..Default::default()
    };
    [EngineConfig::default(), sliding]
        .into_iter()
        .map(|cfg| {
            let mut eng = DetectionEngine::new(cfg, |ip: Ipv4Addr| ip.octets()[0] == 10).unwrap();
            let mut t = 0u64;
            for _ in 0..24 {
                t += rng.below(100_000) as u64;
                let start_ms = t.saturating_sub(rng.below(200_000) as u64);
                let _ = eng.push(flow(rng, start_ms));
            }
            let snap = eng.checkpoint();
            assert!(!snap.buffer.is_empty() && !snap.open.is_empty());
            snap
        })
        .collect()
}

fn joined(lines: &[String]) -> String {
    lines.iter().flat_map(|l| [l.as_str(), "\n"]).collect()
}

fn sealed(mut text: String) -> String {
    append_checksum_trailer(&mut text);
    text
}

fn unsealed(text: &str) -> Vec<String> {
    let body = split_checksum_trailer(text).expect("valid trailer");
    body.lines().map(str::to_owned).collect()
}

/// One random mutation of a line after the first (the magic).
fn mutate(rng: &mut ChaosRng, lines: &mut Vec<String>) {
    let i = 1 + rng.below(lines.len() - 1);
    let line = lines[i].clone();
    let at = rng.below(line.len().max(1));
    let digit = |c: char| c.is_ascii_digit();
    match rng.below(5) {
        0 => drop(lines.remove(i)),
        1 => lines.insert(i, line),
        2 if line[at..].starts_with(digit) => {
            let s = line[..at].rfind(|c| !digit(c)).map_or(0, |p| p + 1);
            let e = line[at..]
                .find(|c| !digit(c))
                .map_or(line.len(), |n| at + n);
            let number = FORGED[rng.below(FORGED.len())];
            lines[i] = format!("{}{number}{}", &line[..s], &line[e..]);
        }
        3 => {
            // A row count forged far past the file's end.
            let counted: Vec<usize> = (1..lines.len())
                .filter(|&k| COUNTED.iter().any(|p| lines[k].starts_with(p)))
                .collect();
            if let Some(&k) = counted.get(rng.below(counted.len().max(1))) {
                let head = lines[k].rsplit_once(' ').expect("a counted line").0;
                lines[k] = format!("{head} {}", FORGED[rng.below(2)]);
            }
        }
        _ => {
            // A flipped bit. Printable ASCII only: a control byte would
            // split or join lines, which is the dropping mutation's job.
            let mut bytes = line.into_bytes();
            if let Some(b) = bytes.get_mut(at) {
                let flipped = *b ^ 1 << rng.below(7);
                if (0x20..0x7F).contains(&flipped) {
                    *b = flipped;
                }
            }
            lines[i] = String::from_utf8(bytes).expect("the text is ASCII");
        }
    }
}

/// `parse` must return a snapshot or a parser error (a re-sealed file
/// never fails its checksum), and an accepted snapshot must serialize to
/// a fixed point. Returns whether it was accepted.
fn parses_to_fixed_point<T>(
    text: &str,
    parse: fn(&str) -> Result<T, CheckpointError>,
    serialize: fn(&T) -> String,
) -> bool {
    match parse(text) {
        Ok(snap) => {
            let once = serialize(&snap);
            assert_eq!(serialize(&parse(&once).expect("own output parses")), once);
            true
        }
        Err(e @ (CheckpointError::Io(_) | CheckpointError::Checksum { .. })) => {
            panic!("a re-sealed mutation failed outside the parser: {e}")
        }
        Err(_) => false,
    }
}

#[test]
fn checkpoints_parse_or_fail_typed_under_mutation() {
    let mut rng = ChaosRng::new(0x7A65_0003);
    let mut accepted = 0;
    for engine in snapshots(&mut rng) {
        let text = engine.serialize();
        assert_eq!(EngineCheckpoint::parse(&text).unwrap(), engine);
        let clean = unsealed(&text);
        for _ in 0..MUTATIONS {
            let mut lines = clean.clone();
            mutate(&mut rng, &mut lines);
            let text = sealed(joined(&lines));
            accepted += usize::from(parses_to_fixed_point(
                &text,
                EngineCheckpoint::parse,
                EngineCheckpoint::serialize,
            ));
        }

        let server = ServerCheckpoint {
            exporters: (0..=rng.below(4) as u32)
                .map(|id| (id * 7, rng.next_u64() >> 20))
                .collect(),
            engine,
        };
        let text = server.serialize();
        assert_eq!(ServerCheckpoint::parse(&text).unwrap(), server);
        // The exporter table and the embedded engine text are mutated
        // apart, and each is re-sealed.
        let outer = unsealed(&text);
        let marker = outer.iter().position(|l| l == "engine-checkpoint").unwrap();
        let clean = [
            outer[..=marker].to_vec(),
            unsealed(&joined(&outer[marker + 1..])),
        ];
        for _ in 0..MUTATIONS {
            let mut parts = clean.clone();
            let part = rng.below(2);
            mutate(&mut rng, &mut parts[part]);
            let text = sealed(joined(&parts[0]) + &sealed(joined(&parts[1])));
            accepted += usize::from(parses_to_fixed_point(
                &text,
                ServerCheckpoint::parse,
                ServerCheckpoint::serialize,
            ));
        }
    }
    // Both outcomes occur: the mutations neither all pass nor all fail.
    assert!(accepted > 0 && accepted < 4 * MUTATIONS, "{accepted}");
}
