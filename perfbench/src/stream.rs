//! The service path: PWFS v2 frames over loopback into an in-process
//! `pw_server::Server`, verdicts read back through its query protocol.
//!
//! Load is a closed loop from two threads: one exporter connection,
//! held back only by TCP backpressure, and one query connection polling
//! `STATS` and reading `REPORT` whenever `windows=` advances.

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use pw_detect::checkpoint::write_text_retained;
use pw_detect::{DetectionEngine, EngineConfig, WindowReport};
use pw_flow::frame::{self, Frame, Hello, VERSION};
use pw_flow::FlowRecord;
use pw_netsim::SimDuration;
use pw_server::{Server, ServerCheckpoint, ServerConfig};

use crate::hostref::{self, HostRef};
use crate::internal;
use crate::report::{median, ms, peak_rss_mb, quantile, reset_peak_rss, Metrics, Samples, Tally};
use crate::trace::Tracer;

/// Applied flows between periodic checkpoints (the server default).
pub const CHECKPOINT_EVERY: u64 = 10_000;
/// Retained snapshots behind the primary checkpoint.
pub const CHECKPOINT_RETAIN: usize = 2;
const EXPORTER_ID: u32 = 1;
const POLL: Duration = Duration::from_millis(1);
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Set-up-only server starts measured before the timed passes, on top of
/// the one each pass contributes.
const SETUP_REPS: usize = 31;

/// 1 h windows sliding every 10 min with 10 min lateness, one engine
/// thread, the paper's detection operating point.
pub fn engine_config() -> EngineConfig {
    EngineConfig::builder()
        .window(SimDuration::from_hours(1))
        .slide(SimDuration::from_mins(10))
        .lateness(SimDuration::from_mins(10))
        .detect(crate::batch::detect_config())
        .build()
        .expect("stream engine configuration is valid")
}

pub fn server_config(checkpoint: Option<&Path>) -> ServerConfig {
    let b = ServerConfig::builder().engine(engine_config());
    let b = match checkpoint {
        Some(p) => b
            .checkpoint_path(p)
            .checkpoint_every(CHECKPOINT_EVERY)
            .checkpoint_retain(CHECKPOINT_RETAIN),
        None => b,
    };
    b.build().expect("server configuration is valid")
}

/// What a window's verdict must read, on the server or in-process.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub index: u64,
    pub flows: usize,
    pub hosts: usize,
    /// Reduction, τ_vol, τ_churn, τ_hm as IEEE-754 bits; `None` when the
    /// window had no verdict.
    pub taus: Option<[u64; 4]>,
    pub suspects: Vec<Ipv4Addr>,
}

impl Verdict {
    fn of(w: &WindowReport) -> Self {
        let (taus, suspects) = match &w.outcome {
            Ok(r) => (
                Some([
                    r.reduction_threshold.to_bits(),
                    r.tau_vol.to_bits(),
                    r.tau_churn.to_bits(),
                    r.hm.tau.to_bits(),
                ]),
                crate::batch::sorted(r.suspects.iter().copied()),
            ),
            Err(_) => (None, Vec::new()),
        };
        Verdict {
            index: w.index,
            flows: w.flows,
            hosts: w.hosts,
            taus,
            suspects,
        }
    }

    /// Parses a `REPORT` reply (`report …`, `taus …`, `suspect …`, `end`).
    fn parse(lines: &[String]) -> Option<Self> {
        let head = lines.first()?.strip_prefix("report ")?;
        let mut v = Verdict {
            index: kv(head, "index")?,
            flows: kv(head, "flows")? as usize,
            hosts: kv(head, "hosts")? as usize,
            taus: None,
            suspects: Vec::new(),
        };
        for l in &lines[1..] {
            if let Some(t) = l.strip_prefix("taus ") {
                let mut bits = [0u64; 4];
                for (slot, key) in bits.iter_mut().zip(["reduction", "vol", "churn", "hm"]) {
                    *slot = field(t, key).and_then(|x| u64::from_str_radix(x, 16).ok())?;
                }
                v.taus = Some(bits);
            } else if let Some(ip) = l.strip_prefix("suspect ") {
                v.suspects.push(ip.parse().ok()?);
            }
        }
        Some(v)
    }
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
}

fn kv(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.parse().ok()
}

/// The in-process `DetectionEngine` replay every service pass is checked
/// against.
#[derive(Debug)]
pub struct Reference {
    /// Verdicts in close order.
    pub windows: Vec<Verdict>,
    /// `(flow index, windows closed)` for every push that closed windows.
    pub triggers: Vec<(usize, usize)>,
    /// Windows closed by the watermark (the rest close at `FINISH`).
    pub watermark_closes: usize,
    pub late: u64,
}

pub fn reference(flows: &[FlowRecord]) -> Reference {
    let mut engine = DetectionEngine::new(engine_config(), internal).expect("valid engine");
    let mut r = Reference {
        windows: Vec::new(),
        triggers: Vec::new(),
        watermark_closes: 0,
        late: 0,
    };
    for (i, f) in flows.iter().enumerate() {
        match engine.push(*f) {
            Ok(ws) if !ws.is_empty() => {
                r.triggers.push((i, ws.len()));
                r.windows.extend(ws.iter().map(Verdict::of));
            }
            Ok(_) => {}
            Err(_) => r.late += 1,
        }
    }
    r.watermark_closes = r.windows.len();
    r.windows.extend(engine.finish().iter().map(Verdict::of));
    r
}

/// A line-protocol query connection.
struct Query {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Query {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("query connect: {e}"))?;
        s.set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        s.set_write_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Query {
            reader: BufReader::new(s.try_clone().map_err(|e| e.to_string())?),
            writer: s,
        })
    }

    /// Sends one command and reads its reply: one line, or for `REPORT`
    /// and `HEALTH` every line up to `end`.
    fn ask(&mut self, cmd: &str) -> Result<Vec<String>, String> {
        self.writer
            .write_all(format!("{cmd}\n").as_bytes())
            .map_err(|e| format!("{cmd}: {e}"))?;
        let multi = matches!(cmd, "REPORT" | "HEALTH");
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("{cmd}: {e}"))?;
            if n == 0 {
                return Err(format!("{cmd}: connection closed"));
            }
            let line = line.trim_end().to_owned();
            let last = !multi || line == "end";
            lines.push(line);
            if last {
                return Ok(lines);
            }
        }
    }
}

fn exporter_connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("exporter connect: {e}"))?;
    s.set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    s.set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(s)
}

/// Empties the checkpoint directory so a bind starts fresh instead of
/// resuming an earlier pass.
fn clear_checkpoints(cfg: &ServerConfig) {
    if let Some(dir) = cfg.checkpoint_path.as_deref().and_then(Path::parent) {
        let _ = fs::remove_dir_all(dir);
        fs::create_dir_all(dir).expect("create checkpoint directory");
    }
}

/// Binds a fresh server, runs `drive` against it, then shuts it down and
/// waits for it to stop.
fn with_server<T>(
    cfg: &ServerConfig,
    drive: impl FnOnce(SocketAddr, Instant) -> Result<T, String>,
) -> Result<T, String> {
    clear_checkpoints(cfg);
    let t_bind = Instant::now();
    let server =
        Server::bind("127.0.0.1:0", cfg.clone(), internal).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    thread::scope(|s| {
        let run = s.spawn(move || server.run());
        let out = drive(addr, t_bind);
        let stopped = Query::connect(addr).and_then(|mut q| q.ask("SHUTDOWN"));
        let ran = run.join();
        let out = out?;
        match (stopped, ran) {
            (Ok(r), Ok(Ok(()))) if r.first().is_some_and(|l| l.starts_with("ok")) => Ok(out),
            (stopped, ran) => Err(format!("shutdown: {stopped:?} / {ran:?}")),
        }
    })
}

/// Hello → HelloAck on a fresh exporter connection; returns the stream
/// and the instant the ack arrived.
fn handshake(addr: SocketAddr) -> Result<(TcpStream, Instant, Instant), String> {
    let mut s = exporter_connect(addr)?;
    let t_hello = Instant::now();
    frame::write_hello(&mut s, Hello::new(EXPORTER_ID)).map_err(|e| format!("hello: {e}"))?;
    let ack = frame::read_hello_ack(&mut s).map_err(|e| format!("hello ack: {e}"))?;
    let t_ack = Instant::now();
    if ack.next_seq != 0 || ack.version != VERSION {
        return Err(format!("unexpected hello ack {ack:?}"));
    }
    Ok((s, t_hello, t_ack))
}

/// `Bye` and the v2 final ack: the number of flows the server applied.
fn bye(s: &mut TcpStream) -> Result<u64, String> {
    frame::write_frame_v(s, &Frame::Bye, VERSION).map_err(|e| format!("bye: {e}"))?;
    s.flush().map_err(|e| format!("bye: {e}"))?;
    frame::read_hello_ack(s)
        .map(|a| a.next_seq)
        .map_err(|e| format!("bye ack: {e}"))
}

/// Server start (`Server::bind` until the first `HelloAck`) with no load.
pub fn setup_once(cfg: &ServerConfig) -> Result<Duration, String> {
    with_server(cfg, |addr, t_bind| {
        let (mut s, _, t_ack) = handshake(addr)?;
        bye(&mut s)?;
        Ok(t_ack - t_bind)
    })
}

/// One timed service pass.
pub struct ServicePass {
    pub setup: Duration,
    /// First `Hello` to the `FINISH` reply.
    pub total: Duration,
    /// Trigger frame written → `STATS windows=` advanced, per
    /// watermark-closed window.
    pub closes_ms: Vec<f64>,
}

pub fn service_pass(
    cfg: &ServerConfig,
    flows: &[FlowRecord],
    refr: &Reference,
    tally: &mut Tally,
) -> Result<ServicePass, String> {
    with_server(cfg, |addr, t_bind| {
        let query = Query::connect(addr)?;
        let (stream, t_hello, t_ack) = handshake(addr)?;
        let stamps: Vec<AtomicU64> = (0..refr.watermark_closes)
            .map(|_| AtomicU64::new(0))
            .collect();
        let done = AtomicBool::new(false);
        let (exported, polled) = thread::scope(|s| {
            let poller = s.spawn(|| poll(query, refr, &done));
            let exported = export(stream, flows, refr, &stamps, t_hello);
            done.store(true, Ordering::SeqCst);
            (exported, poller.join().expect("poller thread"))
        });
        let applied = exported?;
        let (seen_at, t_end, poll_tally) = polled?;
        tally.attempted += poll_tally.attempted;
        tally.failed += poll_tally.failed;
        tally.check(
            applied == flows.len() as u64,
            "Bye ack certifies every flow applied",
        );
        let mut closes_ms = Vec::with_capacity(seen_at.len());
        for (seen, stamp) in seen_at.iter().zip(&stamps) {
            // Stamps are stored before their frame is written, so a close
            // the poller saw always has one.
            match stamp.load(Ordering::SeqCst).checked_sub(1) {
                Some(ns) => {
                    let written = t_hello + Duration::from_nanos(ns);
                    closes_ms.push(ms(seen.saturating_duration_since(written)));
                }
                None => tally.check(false, "a window closed before its trigger frame was sent"),
            }
        }
        Ok(ServicePass {
            setup: t_ack - t_bind,
            total: t_end - t_hello,
            closes_ms,
        })
    })
}

/// The exporter: every flow as a v2 frame, flushing and timestamping at
/// each frame that closes windows, then `Bye`.
fn export(
    stream: TcpStream,
    flows: &[FlowRecord],
    refr: &Reference,
    stamps: &[AtomicU64],
    t_hello: Instant,
) -> Result<u64, String> {
    let io = |e: std::io::Error| format!("send: {e}");
    let mut w = BufWriter::with_capacity(1 << 16, stream.try_clone().map_err(io)?);
    let mut triggers = refr.triggers.iter().peekable();
    let mut slot = 0;
    for (i, f) in flows.iter().enumerate() {
        let fr = Frame::Flow {
            seq: i as u64,
            flow: *f,
        };
        match triggers.peek() {
            Some(&&(at, n)) if at == i => {
                triggers.next();
                let t = (Instant::now() - t_hello).as_nanos() as u64 + 1;
                for s in &stamps[slot..slot + n] {
                    s.store(t, Ordering::SeqCst);
                }
                slot += n;
                frame::write_frame_v(&mut w, &fr, VERSION).map_err(io)?;
                w.flush().map_err(io)?;
            }
            _ => frame::write_frame_v(&mut w, &fr, VERSION).map_err(io)?,
        }
    }
    w.flush().map_err(io)?;
    drop(w);
    let mut s = stream;
    bye(&mut s)
}

type Polled = (Vec<Instant>, Instant, Tally);

/// The query client: polls `STATS`, checks every `REPORT` it sees, and
/// after the exporter's `Bye` ack sends `FINISH` and audits the counters.
fn poll(mut q: Query, refr: &Reference, done: &AtomicBool) -> Result<Polled, String> {
    let mut tally = Tally::default();
    let mut seen_at = Vec::with_capacity(refr.watermark_closes);
    let check_report = |q: &mut Query, tally: &mut Tally, nth: usize| -> Result<(), String> {
        let got = Verdict::parse(&q.ask("REPORT")?);
        tally.check(
            got.as_ref() == refr.windows.get(nth - 1),
            &format!("REPORT after {nth} windows matches the reference"),
        );
        Ok(())
    };
    let mut windows = 0;
    loop {
        let finished = done.load(Ordering::SeqCst);
        let stats = q.ask("STATS")?;
        let now_windows = kv(&stats[0], "windows").ok_or("STATS without windows=")? as usize;
        if now_windows > windows {
            windows = now_windows;
            seen_at.resize(windows.min(refr.watermark_closes), Instant::now());
            check_report(&mut q, &mut tally, windows)?;
        }
        if finished {
            break;
        }
        thread::sleep(POLL);
    }
    tally.check(
        windows == refr.watermark_closes,
        "watermark closes equal the reference",
    );
    let fin = q.ask("FINISH")?;
    let t_end = Instant::now();
    let rest = refr.windows.len() - refr.watermark_closes;
    tally.check(
        fin[0] == format!("ok windows={rest}"),
        "FINISH closes the rest",
    );
    if rest > 0 {
        check_report(&mut q, &mut tally, refr.windows.len())?;
    }
    let stats = q.ask("STATS")?;
    let s = &stats[0];
    for (key, want) in [
        ("windows", refr.windows.len() as u64),
        ("late", refr.late),
        ("checkpoint_errors", 0),
        ("frames_corrupt", 0),
        ("sessions_reaped", 0),
    ] {
        tally.check(kv(s, key) == Some(want), &format!("STATS {key}={want}"));
    }
    Ok((seen_at, t_end, tally))
}

/// The untraced stream workload on one day: reference replay, set-up
/// samples, then timed service passes until `seconds` have been measured,
/// each followed by a gap that times the host reference task.
pub fn run(
    flows: &[FlowRecord],
    checkpoint: Option<&Path>,
    seconds: f64,
    host: &HostRef,
    s: &mut Samples,
    tally: &mut Tally,
) {
    let cfg = server_config(checkpoint);
    let t_ref = Instant::now();
    let refr = reference(flows);
    let mut before = host.gap(t_ref.elapsed().as_secs_f64(), &mut s.ref_ms);
    for _ in 0..SETUP_REPS {
        match setup_once(&cfg) {
            Ok(d) => s.setup_s.push(d.as_secs_f64()),
            Err(e) => tally.check(false, &e),
        }
    }
    let t0 = Instant::now();
    let mut passes = 0;
    while passes == 0 || t0.elapsed().as_secs_f64() < seconds {
        passes += 1;
        reset_peak_rss();
        match service_pass(&cfg, flows, &refr, tally) {
            Ok(p) => {
                s.peak_rss_mb.push(peak_rss_mb());
                tally.check(true, "service pass");
                s.setup_s.push(p.setup.as_secs_f64());
                let pass_s = p.total.as_secs_f64();
                let after = host.gap(pass_s, &mut s.ref_ms);
                s.flows_per_s.push(flows.len() as f64 / pass_s);
                s.flows_per_ref
                    .push(hostref::flows_per_ref(flows.len(), pass_s, before, after));
                s.close_ms.extend(p.closes_ms);
                before = after;
            }
            Err(e) => tally.check(false, &format!("service pass: {e}")),
        }
    }
    println!(
        "stream: {passes} passes, {} windows each, {} closed by the watermark and timed",
        refr.windows.len(),
        refr.watermark_closes,
    );
    if let Some(dir) = checkpoint.and_then(Path::parent) {
        let _ = fs::remove_dir_all(dir);
    }
}

/// Every flow as a length-prefixed frame (`Frame::encode`, no CRC
/// trailer), in sequence order.
fn encode_all(flows: &[FlowRecord]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(flows.len() * (frame::FLOW_WIRE_LEN + 13));
    for (i, f) in flows.iter().enumerate() {
        Frame::Flow {
            seq: i as u64,
            flow: *f,
        }
        .encode(&mut buf);
    }
    buf
}

fn decode_all(buf: &[u8]) -> Result<Vec<FlowRecord>, String> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < buf.len() {
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
        let body = &buf[at + 4..at + 4 + len];
        match Frame::decode(body).map_err(|e| e.to_string())? {
            Frame::Flow { flow, .. } => out.push(flow),
            other => return Err(format!("unexpected frame {other:?}")),
        }
        at += 4 + len;
    }
    Ok(out)
}

/// One checkpoint taken the way the server takes it, with the span time
/// of each step.
struct Snapshot {
    checkpoint: ServerCheckpoint,
    bytes: usize,
    /// Snapshot, serialize, write.
    ms: [f64; 3],
}

fn snapshot(
    tr: &mut Tracer,
    engine: &DetectionEngine<fn(Ipv4Addr) -> bool>,
    applied: u64,
    path: &Path,
) -> Snapshot {
    let id = tr.open("checkpoint.snapshot");
    let checkpoint = ServerCheckpoint {
        exporters: BTreeMap::from([(EXPORTER_ID, applied)]),
        engine: engine.checkpoint(),
    };
    tr.close(id);
    let id2 = tr.open("checkpoint.serialize");
    let text = checkpoint.serialize();
    tr.close(id2);
    let id3 = tr.open("checkpoint.write");
    write_text_retained(path, &text, CHECKPOINT_RETAIN).expect("write checkpoint");
    tr.close(id3);
    Snapshot {
        checkpoint,
        bytes: text.len(),
        ms: [tr.get(id).ms(), tr.get(id2).ms(), tr.get(id3).ms()],
    }
}

/// Reads the newest snapshot back and revives an engine from it; checks
/// both against what was written. Returns the span time.
fn restore(tr: &mut Tracer, path: &Path, last: &ServerCheckpoint, tally: &mut Tally) -> f64 {
    let id = tr.open("checkpoint.restore");
    let text = fs::read_to_string(path).expect("read checkpoint");
    let sc = ServerCheckpoint::parse(&text).expect("parse checkpoint");
    let engine = DetectionEngine::restore(&sc.engine, internal as fn(Ipv4Addr) -> bool)
        .expect("restore engine");
    tr.close(id);
    tally.check(
        &sc == last && engine.checkpoint() == last.engine,
        "restored checkpoint equals the snapshot written",
    );
    tr.get(id).ms()
}

/// The service path's layers called directly: frame encode and decode,
/// then every flow through `DetectionEngine::push` (each push timed; a
/// push that closes windows is its own `stream.close` span), checkpoints
/// every [`CHECKPOINT_EVERY`] flows when `checkpoint` is set, `finish`.
/// Returns the pass root.
pub fn layers(
    tr: &mut Tracer,
    root_name: &'static str,
    flows: &[FlowRecord],
    refr: &Reference,
    checkpoint: Option<&Path>,
    m: &mut Metrics,
    tally: &mut Tally,
) -> usize {
    let root = tr.open(root_name);
    let buf = tr.span("frame.encode", || encode_all(flows));
    let decoded = tr.span("frame.decode", || decode_all(&buf));
    let decoded = decoded.unwrap_or_else(|e| {
        tally.check(false, &format!("frame decode: {e}"));
        Vec::new()
    });
    let mut engine = tr.span("stream.new", || {
        DetectionEngine::new(engine_config(), internal as fn(Ipv4Addr) -> bool)
            .expect("valid engine")
    });
    let mut push_ns: Vec<u64> = Vec::with_capacity(decoded.len());
    let mut close_ms = Vec::new();
    let mut windows = Vec::new();
    let mut held_max = 0;
    let mut late = 0u64;
    let mut snaps: Vec<Snapshot> = Vec::new();
    let mut seg = tr.open("stream.push");
    for (i, f) in decoded.iter().enumerate() {
        let a = Instant::now();
        let out = engine.push(*f);
        let b = Instant::now();
        push_ns.push((b - a).as_nanos() as u64);
        held_max = held_max.max(engine.held_flows());
        match out {
            Ok(ws) if !ws.is_empty() => {
                let id = tr.record("stream.close", a, b);
                close_ms.push(tr.get(id).ms());
                windows.extend(ws.iter().map(Verdict::of));
                tr.close(seg);
                seg = tr.open("stream.push");
            }
            Ok(_) => {}
            Err(_) => late += 1,
        }
        if let Some(path) = checkpoint {
            if (i as u64 + 1).is_multiple_of(CHECKPOINT_EVERY) {
                tr.close(seg);
                snaps.push(snapshot(tr, &engine, i as u64 + 1, path));
                seg = tr.open("stream.push");
            }
        }
    }
    tr.close(seg);
    let rest = tr.span("stream.finish", || engine.finish());
    windows.extend(rest.iter().map(Verdict::of));
    tr.close(root);

    tally.check(decoded.as_slice() == flows, "frame decode inverts encode");
    tally.check(
        windows == refr.windows,
        "in-process windows equal the reference",
    );
    m.set("frame.encode_ms", tr.total_ms(root, "frame.encode"));
    m.set("frame.decode_ms", tr.total_ms(root, "frame.decode"));
    m.set(
        "frame.bytes_per_flow",
        buf.len() as f64 / flows.len().max(1) as f64,
    );
    let push_us: Vec<f64> = push_ns.iter().map(|&n| n as f64 / 1e3).collect();
    m.set("stream.push_us_p50", median(&push_us));
    m.set("stream.close_ms_p50", median(&close_ms));
    m.set("stream.close_ms_max", quantile(&close_ms, 1.0));
    m.set("stream.windows", windows.len() as f64);
    m.set("stream.held_flows_max", held_max as f64);
    m.set("stream.late", late as f64);
    if let (Some(path), Some(last)) = (checkpoint, snaps.last()) {
        let step = |k: usize| median(&snaps.iter().map(|s| s.ms[k]).collect::<Vec<_>>());
        m.set("checkpoint.snapshot_ms", step(0));
        m.set("checkpoint.serialize_ms", step(1));
        m.set("checkpoint.write_ms", step(2));
        m.set(
            "checkpoint.bytes",
            median(&snaps.iter().map(|s| s.bytes as f64).collect::<Vec<_>>()),
        );
        m.set("checkpoint.count", snaps.len() as f64);
        m.set(
            "checkpoint.restore_ms",
            restore(tr, path, &last.checkpoint, tally),
        );
    }
    root
}

/// The same work as [`layers`] with no spans and no per-push timing: the
/// untraced side of the tracing-overhead comparison.
pub fn untraced(flows: &[FlowRecord], checkpoint: Option<&Path>) -> Duration {
    let t0 = Instant::now();
    let buf = encode_all(flows);
    let decoded = decode_all(&buf).expect("decode");
    let mut engine =
        DetectionEngine::new(engine_config(), internal as fn(Ipv4Addr) -> bool).expect("engine");
    for (i, f) in decoded.iter().enumerate() {
        let _ = std::hint::black_box(engine.push(*f));
        if let Some(path) = checkpoint {
            if (i as u64 + 1).is_multiple_of(CHECKPOINT_EVERY) {
                let snap = ServerCheckpoint {
                    exporters: BTreeMap::from([(EXPORTER_ID, i as u64 + 1)]),
                    engine: engine.checkpoint(),
                };
                write_text_retained(path, &snap.serialize(), CHECKPOINT_RETAIN)
                    .expect("write checkpoint");
            }
        }
    }
    std::hint::black_box(engine.finish());
    t0.elapsed()
}

/// The checkpoint layer on a workload whose pass takes none: one
/// snapshot of the engine halfway through `flows` (fed untimed), written
/// and restored, under its own root.
pub fn checkpoint_probe(
    tr: &mut Tracer,
    flows: &[FlowRecord],
    path: &Path,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let mut engine =
        DetectionEngine::new(engine_config(), internal as fn(Ipv4Addr) -> bool).expect("engine");
    let half = flows.len() / 2;
    for f in &flows[..half] {
        let _ = engine.push(*f);
    }
    let root = tr.open("probe.checkpoint");
    let snap = snapshot(tr, &engine, half as u64, path);
    let restore_ms = restore(tr, path, &snap.checkpoint, tally);
    tr.close(root);
    m.set("checkpoint.snapshot_ms", snap.ms[0]);
    m.set("checkpoint.serialize_ms", snap.ms[1]);
    m.set("checkpoint.write_ms", snap.ms[2]);
    m.set("checkpoint.restore_ms", restore_ms);
    m.set("checkpoint.bytes", snap.bytes as f64);
    m.set("checkpoint.count", 0.0);
}

/// The server layer: `Server::bind` and the `STATS` / `REPORT` round
/// trip after a short exporter session.
pub fn server_probe(tr: &mut Tracer, flows: &[FlowRecord], m: &mut Metrics, tally: &mut Tally) {
    const BINDS: usize = 5;
    const QUERIES: usize = 25;
    let cfg = server_config(None);
    let root = tr.open("probe.server");
    let mut bind_ms = Vec::new();
    for _ in 0..BINDS {
        let id = tr.open("server.bind");
        let server = Server::bind("127.0.0.1:0", cfg.clone(), internal).expect("bind");
        tr.close(id);
        bind_ms.push(tr.get(id).ms());
        let addr = server.local_addr();
        thread::scope(|s| {
            let run = s.spawn(move || server.run());
            let stopped = Query::connect(addr).and_then(|mut q| q.ask("SHUTDOWN"));
            tally.check(
                stopped.is_ok() && matches!(run.join(), Ok(Ok(()))),
                "server stops",
            );
        });
    }
    let mut query_ms = Vec::new();
    let session = with_server(&cfg, |addr, _| {
        let (mut s, _, _) = handshake(addr)?;
        let mut w = BufWriter::new(s.try_clone().map_err(|e| e.to_string())?);
        for (i, f) in flows.iter().enumerate() {
            frame::write_frame_v(
                &mut w,
                &Frame::Flow {
                    seq: i as u64,
                    flow: *f,
                },
                VERSION,
            )
            .map_err(|e| e.to_string())?;
        }
        w.flush().map_err(|e| e.to_string())?;
        drop(w);
        let applied = bye(&mut s)?;
        let mut q = Query::connect(addr)?;
        for _ in 0..QUERIES {
            for cmd in ["STATS", "REPORT"] {
                let id = tr.open("server.query");
                q.ask(cmd)?;
                tr.close(id);
                query_ms.push(tr.get(id).ms());
            }
        }
        Ok((applied, q.ask("STATS")?))
    });
    tr.close(root);
    match session {
        Ok((applied, stats)) => {
            tally.check(
                applied == flows.len() as u64,
                "probe session delivered every flow",
            );
            m.set(
                "server.frames_corrupt",
                kv(&stats[0], "frames_corrupt").map_or(f64::NAN, |v| v as f64),
            );
            m.set(
                "server.sessions_reaped",
                kv(&stats[0], "sessions_reaped").map_or(f64::NAN, |v| v as f64),
            );
        }
        Err(e) => tally.check(false, &format!("server probe: {e}")),
    }
    m.set("server.bind_ms", median(&bind_ms));
    m.set("server.query_ms", median(&query_ms));
}

/// Where a workload's checkpoints go.
pub fn checkpoint_path(scratch: &Path) -> PathBuf {
    scratch.join("checkpoints").join("server.ckpt")
}
