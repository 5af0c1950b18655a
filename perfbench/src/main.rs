//! peerwatch benchmark: end-to-end metrics of the batch CLI path and the
//! PWFS service path, and per-layer metrics from a separate traced run.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch_day|batch_large|stream_sliding|stream_durable|all> \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Every run prints its host block, each
//! metric with its unit and the error rate, writes the full record
//! (host, input provenance, metrics, traced-run report, spans) under
//! `.bench_out/`, and ends with one JSON line per workload:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! It exits non-zero when any output disagrees with its in-run reference.
//! See `perfbench/NOTES.md` for why each workload exists and what each
//! layer metric should move.

mod batch;
mod hostref;
mod inputs;
mod report;
mod stream;
mod trace;

use std::net::Ipv4Addr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use pw_netsim::AddressSpace;

use hostref::HostRef;
use inputs::{Input, InputSpec};
use report::{json_num, json_str, Host, Metrics, Samples, Tally};
use trace::Tracer;

/// End-to-end metrics every untraced run reports, with units. Wall
/// throughput and close latency are printed too but not listed: see
/// [`Samples::printed_lines`].
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("flows_per_ref", "flows/ref"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run reports, with units.
const PER_LAYER: &[(&str, &str)] = &[
    ("pass.ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("batch.pass_ms", "ms"),
    ("batch.pass_ms_1t", "ms"),
    ("csvio.parse_ms", "ms"),
    ("csvio.mb_per_s", "MB/s"),
    ("csvio.rows", "count"),
    ("csvio.row_errors", "count"),
    ("table.build_ms", "ms"),
    ("table.hosts", "count"),
    ("features.extract_ms", "ms"),
    ("features.extract_ms_1t", "ms"),
    ("features.profiles", "count"),
    ("features.bytes_per_host", "B"),
    ("reduction.ms", "ms"),
    ("reduction.kept", "count"),
    ("theta_vol.ms", "ms"),
    ("theta_vol.kept", "count"),
    ("theta_churn.ms", "ms"),
    ("theta_churn.kept", "count"),
    ("theta_hm.ms", "ms"),
    ("theta_hm.ms_1t", "ms"),
    ("theta_hm.hosts", "count"),
    ("theta_hm.pairs", "count"),
    ("theta_hm.hist_ms", "ms"),
    ("theta_hm.fill_ms", "ms"),
    ("theta_hm.linkage_ms", "ms"),
    ("theta_hm.cut_ms", "ms"),
    ("theta_hm.clusters", "count"),
    ("pipeline.report_ms", "ms"),
    ("frame.encode_ms", "ms"),
    ("frame.decode_ms", "ms"),
    ("frame.bytes_per_flow", "B"),
    ("stream.push_us_p50", "us"),
    ("stream.close_ms_p50", "ms"),
    ("stream.close_ms_max", "ms"),
    ("stream.windows", "count"),
    ("stream.held_flows_max", "count"),
    ("stream.late", "count"),
    ("checkpoint.snapshot_ms", "ms"),
    ("checkpoint.serialize_ms", "ms"),
    ("checkpoint.write_ms", "ms"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.count", "count"),
    ("checkpoint.restore_ms", "ms"),
    ("server.bind_ms", "ms"),
    ("server.query_ms", "ms"),
    ("server.frames_corrupt", "count"),
    ("server.sessions_reaped", "count"),
];

/// The default campus day (`CampusConfig::default()`, 1 000 background
/// hosts) with 13 Storm + 82 Nugache bots.
/// Untraced runs measure three days of the seed's campus: day-to-day
/// traffic varies as much as seed-to-seed, and spreading a run over
/// three days keeps its medians steady across seeds.
/// Each day is cut to its first [`DAY_FLOWS`] flows (4.2–5.9 h of its
/// 6 h window).
const DAY: InputSpec = InputSpec {
    name: "campus-day",
    n_background: None,
    days: 3,
    max_flows: Some(DAY_FLOWS),
    // ~6 MiB of task data: inside the shared L3, as the pass's hot data.
    ref_rows: 60_000,
};
/// Days hold 306k–424k flows (60 days of seeds 1–20). A pass's fixed
/// costs make a bigger day's flows cheaper, so with whole days the
/// per-flow figures followed each seed's day sizes; cut to one size,
/// every pass does the same amount of work.
const DAY_FLOWS: usize = 300_000;
/// The same generator at 12 000 background hosts: θ_hm's input stays
/// below the 8 192-host bucketed cutoff, so the exact path runs.
/// One day suffices: 12 000 hosts average out most day-to-day variation,
/// and a day takes ~15 s to generate.
const LARGE: InputSpec = InputSpec {
    name: "campus-12000",
    n_background: Some(12_000),
    days: 1,
    max_flows: None,
    // ~100 MiB of task data: beyond L3, as the pass's.
    ref_rows: 1_100_000,
};

/// Flows the stream-layer probes take from a batch workload's day (its
/// first flows in time order), keeping the traced run of the large day
/// inside its time budget.
const STREAM_PROBE_FLOWS: usize = 150_000;
/// Flows the server probe delivers before timing queries.
const SERVER_PROBE_FLOWS: usize = 20_000;
/// Repetitions of the traced pass (each followed by the same work
/// untraced): at least one, at most `PASS_REPS`, none started after
/// `PASS_BUDGET_S`.
const PASS_REPS: usize = 5;
const PASS_BUDGET_S: f64 = 25.0;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Route {
    Batch,
    Stream { durable: bool },
}

struct Workload {
    name: &'static str,
    input: InputSpec,
    route: Route,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "batch_day",
        input: DAY,
        route: Route::Batch,
    },
    Workload {
        name: "batch_large",
        input: LARGE,
        route: Route::Batch,
    },
    Workload {
        name: "stream_sliding",
        input: DAY,
        route: Route::Stream { durable: false },
    },
    Workload {
        name: "stream_durable",
        input: DAY,
        route: Route::Stream { durable: true },
    },
];

/// The campus's monitored subnets, from the generator's own address plan.
pub fn internal(ip: Ipv4Addr) -> bool {
    static CAMPUS: OnceLock<AddressSpace> = OnceLock::new();
    CAMPUS.get_or_init(AddressSpace::campus).is_internal(ip)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <batch_day|batch_large|stream_sliding|stream_durable|all> \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(value.parse().unwrap_or_else(|_| usage("bad --seconds")));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                });
            }
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds
            .filter(|&s| s > 0)
            .unwrap_or_else(|| usage("--seconds must be > 0")),
        trace: trace.unwrap_or(false),
    }
}

/// One workload run's outcome.
struct Outcome {
    metrics: Metrics,
    tally: Tally,
    /// Traced-run report lines (empty for untraced runs).
    report: Vec<String>,
    spans: Option<String>,
    /// Provenance of every input the run read.
    provenance: Vec<String>,
}

fn main() {
    let args = parse_args();
    let selected: Vec<&Workload> = if args.workload == "all" {
        WORKLOADS.iter().collect()
    } else {
        match WORKLOADS.iter().find(|w| w.name == args.workload) {
            Some(w) => vec![w],
            None => usage(&format!("unknown workload {:?}", args.workload)),
        }
    };
    let cache_dir = PathBuf::from(".bench_cache");
    prepare_inputs(&selected, &args, &cache_dir);
    let host = Host::probe();
    println!("host: {}", host.json());
    let out_dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| usage(&format!(".bench_out: {e}")));

    let mut all_ok = true;
    for w in selected {
        let scratch = out_dir.join(format!("scratch-{}-{}", w.name, std::process::id()));
        let o = if args.trace {
            let input = load_input(&w.input, args.seed, 0, &cache_dir);
            traced(w, &input, &host, &scratch)
        } else {
            untraced(
                w,
                args.seed,
                &cache_dir,
                &host,
                args.seconds as f64,
                &scratch,
            )
        };
        let _ = std::fs::remove_dir_all(&scratch);
        let names = if args.trace { PER_LAYER } else { END_TO_END };
        let mut tally = o.tally;
        let mut entries = Vec::new();
        for &(name, unit) in names {
            let v = o.metrics.get(name).unwrap_or(f64::NAN);
            tally.check(v.is_finite(), &format!("metric {name} measured"));
            println!(
                "{:<24} {:>16} {unit}",
                format!("{}.{name}", w.name),
                fmt_value(v)
            );
            entries.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(v),
                json_str(unit)
            ));
        }
        for extra in o
            .metrics
            .names()
            .filter(|n| !names.iter().any(|(k, _)| k == n))
        {
            tally.check(false, &format!("metric {extra} is not in the metric list"));
        }
        for line in &o.report {
            println!("{line}");
        }
        println!(
            "{}.error_rate {} ({} failed of {} checked operations)",
            w.name,
            fmt_value(tally.error_rate()),
            tally.failed,
            tally.attempted
        );
        let ok = tally.failed == 0;
        all_ok &= ok;
        let result = format!(
            "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.attempted,
            tally.failed,
            entries.join(", ")
        );
        let stem = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
        let record = format!(
            "{{\"workload\": {}, \"host\": {}, \"provenance\": [{}], \"seconds\": {}, \
             \"error_rate\": {}, \"report\": [{}], \"result\": {result}}}\n",
            json_str(w.name),
            host.json(),
            o.provenance.join(", "),
            args.seconds,
            json_num(tally.error_rate()),
            o.report
                .iter()
                .map(|l| json_str(l))
                .collect::<Vec<_>>()
                .join(", ")
        );
        write_out(&out_dir.join(format!("{stem}.json")), &record);
        if let Some(spans) = &o.spans {
            write_out(&out_dir.join(format!("{stem}.spans.tsv")), spans);
        }
        println!("{result}");
    }
    std::process::exit(i32::from(!all_ok));
}

/// Set for the fresh process that measures once [`prepare_inputs`] has
/// generated inputs.
const FRESH_ENV: &str = "PERFBENCH_INPUTS_READY";

/// Builds and caches every input the run reads, before anything is
/// measured. Generating leaves this process's heap holding memory the
/// allocator keeps: a pass's peak RSS then read 40% higher in some runs
/// than in runs that found their inputs cached. So when anything was
/// generated, the run replaces itself (`exec`, same process) with a fresh
/// copy that reads every input from the cache.
fn prepare_inputs(selected: &[&Workload], args: &Args, cache_dir: &Path) {
    if std::env::var_os(FRESH_ENV).is_some() {
        return;
    }
    let mut generated = false;
    for w in selected {
        let days = if args.trace { 1 } else { w.input.days };
        for day in 0..days {
            generated |= !inputs::load(&w.input, args.seed, day, cache_dir).from_cache;
        }
    }
    if !generated {
        return;
    }
    let err = match std::env::current_exe() {
        Ok(exe) => Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env(FRESH_ENV, "1")
            .exec(),
        Err(e) => e,
    };
    eprintln!("perfbench: cannot restart after building inputs ({err}); measuring in this process");
}

fn write_out(path: &Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn fmt_value(v: f64) -> String {
    if v.abs() >= 100.0 || v == 0.0 {
        format!("{v:.1}")
    } else if v.abs() >= 0.001 {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

/// Loads (or builds) one day's input and prints its provenance.
fn load_input(spec: &InputSpec, seed: u64, day: usize, cache_dir: &Path) -> Input {
    let input = inputs::load(spec, seed, day, cache_dir);
    println!("input {}: {}", spec.name, input.provenance_json(spec));
    println!(
        "input built in {:.3} s ({}; not timed)",
        input.build_s,
        if input.from_cache {
            "cache hit, digest verified"
        } else {
            "generated"
        }
    );
    input
}

fn parse_day(input: &Input, tally: &mut Tally) -> Vec<pw_flow::FlowRecord> {
    let (flows, errors) =
        pw_flow::csvio::read_flows_lossy(input.csv.as_slice()).expect("valid CSV header");
    tally.check(
        errors.is_empty() && flows.len() == input.flows,
        "set-up parse read every generated row",
    );
    flows
}

/// The end-to-end run: each of the workload's days in turn, an equal
/// share of `seconds` each, samples pooled over all of them. Only one
/// day's input is held at a time.
fn untraced(
    w: &Workload,
    seed: u64,
    cache_dir: &Path,
    host: &Host,
    seconds: f64,
    scratch: &Path,
) -> Outcome {
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let mut provenance = Vec::new();
    let host_ref = HostRef::new(w.input.ref_rows);
    let share = seconds / w.input.days as f64;
    for day in 0..w.input.days {
        let input = load_input(&w.input, seed, day, cache_dir);
        provenance.push(input.provenance_json(&w.input));
        match w.route {
            Route::Batch => batch::run(
                &input.csv,
                input.flows,
                host.nproc,
                share,
                &host_ref,
                &mut samples,
                &mut tally,
            ),
            Route::Stream { durable } => {
                let flows = parse_day(&input, &mut tally);
                drop(input);
                let ckpt = durable.then(|| stream::checkpoint_path(scratch));
                stream::run(
                    &flows,
                    ckpt.as_deref(),
                    share,
                    &host_ref,
                    &mut samples,
                    &mut tally,
                );
            }
        }
    }
    let mut metrics = Metrics::default();
    samples.metrics(&mut metrics);
    let report = samples.printed_lines(w.name, w.route != Route::Batch);
    Outcome {
        metrics,
        tally,
        report,
        spans: None,
        provenance,
    }
}

/// The traced run: every layer's public function called directly on the
/// workload's input, each call in a span. The workload's own path is the
/// pass; it is repeated, alternating with the same work untraced, so the
/// per-layer figures are medians and the tracing overhead compares like
/// with like. Layers the workload's path does not take are measured once
/// by probes under roots of their own, outside the pass and its shares.
fn traced(w: &Workload, input: &Input, host: &Host, scratch: &Path) -> Outcome {
    let threads = host.nproc;
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut tr = Tracer::new();
    let cfg = batch::detect_config();
    let is_batch = w.route == Route::Batch;
    let durable = w.route == (Route::Stream { durable: true });
    let ckpt = stream::checkpoint_path(scratch);
    std::fs::create_dir_all(ckpt.parent().expect("checkpoint directory"))
        .expect("create checkpoint directory");
    let pass_ckpt = durable.then_some(ckpt.as_path());

    let reference = batch::pass(&input.csv, &cfg, 1);
    tally.check(
        reference.row_errors == 0 && reference.rows == input.flows,
        "reference read every row",
    );
    let mut flows = parse_day(input, &mut tally);
    if is_batch {
        flows.truncate(STREAM_PROBE_FLOWS);
    }
    let refr = stream::reference(&flows);

    let mut reps = Vec::new();
    let mut roots = Vec::new();
    let mut untraced_ms = Vec::new();
    let t0 = std::time::Instant::now();
    while reps.is_empty() || (reps.len() < PASS_REPS && t0.elapsed().as_secs_f64() < PASS_BUDGET_S)
    {
        let mut rep = Metrics::default();
        roots.push(if is_batch {
            batch::layers(
                &mut tr,
                "pass",
                &input.csv,
                threads,
                &reference.suspects,
                "",
                &mut rep,
                &mut tally,
            )
        } else {
            stream::layers(
                &mut tr, "pass", &flows, &refr, pass_ckpt, &mut rep, &mut tally,
            )
        });
        untraced_ms.push(if is_batch {
            let p = batch::pass(&input.csv, &cfg, threads);
            tally.check(
                p.suspects == reference.suspects,
                "untraced pass suspects equal the reference",
            );
            report::ms(p.total)
        } else {
            report::ms(stream::untraced(&flows, pass_ckpt))
        });
        reps.push(rep);
    }

    if is_batch {
        stream::layers(
            &mut tr,
            "probe.stream",
            &flows,
            &refr,
            None,
            &mut m,
            &mut tally,
        );
    } else {
        batch::layers(
            &mut tr,
            "probe.batch",
            &input.csv,
            threads,
            &reference.suspects,
            "",
            &mut m,
            &mut tally,
        );
    }
    batch::layers(
        &mut tr,
        "probe.batch_1t",
        &input.csv,
        1,
        &reference.suspects,
        "_1t",
        &mut m,
        &mut tally,
    );
    if !durable {
        stream::checkpoint_probe(&mut tr, &flows, &ckpt, &mut m, &mut tally);
    }
    let probe_flows = &flows[..flows.len().min(SERVER_PROBE_FLOWS)];
    stream::server_probe(&mut tr, probe_flows, &mut m, &mut tally);

    m.set_medians(&reps);
    let traced_ms: Vec<f64> = roots.iter().map(|&r| tr.get(r).ms()).collect();
    let (pass_ms, base_ms) = (report::median(&traced_ms), report::median(&untraced_ms));
    m.set("pass.ms", pass_ms);
    m.set("trace.overhead_pct", (pass_ms / base_ms - 1.0) * 100.0);

    let pass_flows = if is_batch { input.flows } else { flows.len() };
    let total_ms: f64 = traced_ms.iter().sum();
    let mut shares = std::collections::BTreeMap::new();
    for &r in &roots {
        for (layer, ms) in tr.self_ms_by_layer(r) {
            *shares.entry(layer).or_insert(0.0) += ms;
        }
    }
    let mut shares: Vec<(&str, f64)> = shares.into_iter().collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut report = vec![format!(
        "traced pass of {} ({pass_flows} flows, threads={}), {} repetitions, \
         {total_ms:.1} ms in all; self time by layer:",
        w.name,
        if is_batch { threads } else { 1 },
        roots.len(),
    )];
    for (layer, self_ms) in &shares {
        report.push(format!(
            "  {layer:<12} {self_ms:>11.1} ms  {:>5.1}% of the {total_ms:.1} ms of passes",
            100.0 * self_ms / total_ms
        ));
    }
    report.push(format!(
        "tracing overhead: traced {:.0} flows/s vs untraced {:.0} flows/s = {:+.2}% \
         (base: untraced pass, median {base_ms:.1} ms of {})",
        pass_flows as f64 / (pass_ms / 1e3),
        pass_flows as f64 / (base_ms / 1e3),
        (pass_ms / base_ms - 1.0) * 100.0,
        untraced_ms.len()
    ));
    let get = |k: &str| m.get(k).unwrap_or(f64::NAN);
    report.push(format!(
        "single-thread baseline: batch layers {:.1} ms at threads=1 vs {:.1} ms at \
         threads={threads} = {:.2}x (base: threads=1)",
        get("batch.pass_ms_1t"),
        get("batch.pass_ms"),
        get("batch.pass_ms_1t") / get("batch.pass_ms")
    ));
    for (layer, key) in [
        ("features", "features.extract_ms"),
        ("theta_hm", "theta_hm.ms"),
    ] {
        let (a, b) = (get(key), get(&format!("{key}_1t")));
        report.push(format!(
            "  {layer}: {b:.1} ms at threads=1 vs {a:.1} ms = {:.2}x (base: threads=1)",
            b / a
        ));
    }
    report.push(if is_batch {
        format!(
            "probes outside the pass: stream layers over the first {} flows; one checkpoint \
             halfway through them; server bind/query",
            flows.len()
        )
    } else {
        format!(
            "probes outside the pass: batch layers over the same day; {}server bind/query",
            if durable {
                ""
            } else {
                "one checkpoint halfway through the day; "
            }
        )
    });
    Outcome {
        metrics: m,
        tally,
        report,
        spans: Some(tr.dump()),
        provenance: vec![input.provenance_json(&w.input)],
    }
}
