//! `findplotters --theta-hm-mode` end to end: the binary accepts exactly
//! the `exact | bucketed | bucketed:EXACT_BELOW` grammar, in batch mode and
//! in `serve`, and refuses anything else with exit code 2 and the flag
//! named.

use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::process::{Command, Output};

use peerwatch::flow::{csvio, FlowRecord, FlowState, Payload, Proto};
use peerwatch::netsim::{SimDuration, SimTime};

fn flow(src: Ipv4Addr, dst: Ipv4Addr, start: SimTime, up: u64, failed: bool) -> FlowRecord {
    FlowRecord {
        start,
        end: start + SimDuration::from_secs(1),
        src,
        sport: 999,
        dst,
        dport: 80,
        proto: Proto::Tcp,
        src_pkts: 1,
        src_bytes: up,
        dst_pkts: 1,
        dst_bytes: 64,
        state: if failed {
            FlowState::SynNoAnswer
        } else {
            FlowState::Established
        },
        payload: Payload::empty(),
    }
}

/// Two hours of periodic bots, heavy traders and background hosts on the
/// CLI's default internal subnets: enough for a batch verdict.
fn fixture() -> PathBuf {
    let mut flows = Vec::new();
    for b in 0..3u8 {
        let bot = Ipv4Addr::new(10, 1, 0, 1 + b);
        for round in 0..24u64 {
            for peer in 0..5u8 {
                let dst = Ipv4Addr::new(60, 1, b, peer + 1);
                let t = SimTime::from_secs(round * 300 + u64::from(peer));
                flows.push(flow(bot, dst, t, 80, peer % 2 == 0));
            }
        }
    }
    for tr in 0..2u8 {
        let trader = Ipv4Addr::new(10, 1, 0, 10 + tr);
        for p in 0..40u64 {
            let dst = Ipv4Addr::new(70, 2, tr, (p + 1) as u8);
            let t = SimTime::from_secs(60 + p * 170 + (p * p * 37) % 90);
            let failed = p % 5 < 2;
            let up = if failed { 120 } else { 900_000 };
            flows.push(flow(trader, dst, t, up, failed));
        }
    }
    for n in 0..6u8 {
        let host = Ipv4Addr::new(10, 2, 0, 1 + n);
        for k in 0..40u64 {
            let dst = Ipv4Addr::new(80, 3, (k % 9) as u8, 1);
            let t = SimTime::from_secs(30 + k * 175 + (k * k * 131 + u64::from(n) * 997) % 120);
            flows.push(flow(host, dst, t, 600, k % 25 == 0));
        }
    }
    let dir = std::env::temp_dir().join("pw-findplotters-cli");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("flows-{}.csv", std::process::id()));
    let mut buf = Vec::new();
    csvio::write_flows(&mut buf, &flows).expect("format csv");
    std::fs::write(&path, buf).expect("write csv");
    path
}

/// Thresholds loose enough that `θ_hm` clusters the fixture's hosts
/// instead of receiving an empty population.
const LOOSE: [&str; 5] = ["--no-reduction", "--tau-vol", "100", "--tau-churn", "100"];

fn findplotters(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_findplotters"))
        .args(args)
        .output()
        .expect("run findplotters")
}

#[test]
fn theta_hm_mode_accepts_exactly_the_documented_grammar() {
    let csv = fixture();
    let csv = csv.to_str().expect("utf-8 temp path");

    let mut stdout = Vec::new();
    for mode in ["exact", "bucketed", "bucketed:0"] {
        let out = findplotters(&[&[csv, "--theta-hm-mode", mode], &LOOSE[..]].concat());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--theta-hm-mode {mode}: {err}");
        let text = String::from_utf8(out.stdout).expect("utf-8 stdout");
        assert!(text.contains("suspected Plotters"), "{mode}: {text}");
        stdout.push(text);
    }
    // Nine θ_hm hosts sit far below the default cutoff: `bucketed` runs the
    // exact path and prints the same report.
    assert_eq!(stdout[0], stdout[1]);

    // Forced bucketing with the stage profile reports its buckets.
    let forced = [csv, "--theta-hm-mode", "bucketed:0", "--hm-profile"];
    let out = findplotters(&[&forced, &LOOSE[..]].concat());
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("θ_hm stage profile:"), "{text}");

    // The retired four-part form and unknown modes are argument errors,
    // in batch mode and in `serve` (which parses the same flags).
    for bad in ["bucketed:0:512:16:2", "warp"] {
        for args in [
            vec![csv, "--theta-hm-mode", bad],
            vec!["serve", "--bind", "127.0.0.1:0", "--theta-hm-mode", bad],
        ] {
            let out = findplotters(&args);
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(
                err.contains(&format!("invalid value {bad:?} for --theta-hm-mode")),
                "{args:?}: {err}"
            );
            assert!(out.stdout.is_empty(), "{args:?}");
        }
    }
    std::fs::remove_file(csv).ok();
}
