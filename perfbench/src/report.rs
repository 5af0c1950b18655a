//! Metric collection, order statistics, the host/provenance block and
//! the JSON written at the end of a run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;
use std::time::Duration;

/// Measurements by name. Units live with the metric lists in `main.rs`,
/// the one place that also fixes which names a run must report.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Sets every metric of `runs` to its median over them.
    pub fn set_medians(&mut self, runs: &[Metrics]) {
        let Some(first) = runs.first() else {
            return;
        };
        for name in first.0.keys() {
            let v: Vec<f64> = runs.iter().filter_map(|r| r.get(name)).collect();
            self.set(name, median(&v));
        }
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }
}

/// Raw end-to-end samples, pooled over every pass of every day a run
/// measures.
#[derive(Debug, Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    /// Per pass: flows per wall second.
    pub flows_per_s: Vec<f64>,
    /// Per pass: flows per run of the host reference task (see `hostref`).
    pub flows_per_ref: Vec<f64>,
    /// Every timed run of the host reference task, in ms.
    pub ref_ms: Vec<f64>,
    pub close_ms: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
}

impl Samples {
    /// Medians; `NaN` (reported as a failed measurement) where no pass
    /// produced a sample.
    pub fn metrics(&self, m: &mut Metrics) {
        m.set("setup_s", quantile_or_nan(&self.setup_s, 0.5));
        m.set("flows_per_ref", quantile_or_nan(&self.flows_per_ref, 0.5));
        m.set("peak_rss_mb", quantile_or_nan(&self.peak_rss_mb, 0.5));
    }

    /// Figures printed but not gated, with their sample counts.
    ///
    /// - Flows per wall second, and the host reference task's time, whose
    ///   product is the gated `flows_per_ref`. On a shared host wall
    ///   throughput swings with the neighbours: ten runs of `batch_day`
    ///   spread by 0.25 of their median within one set.
    /// - Close latency, p50 and (for stream runs, which time hundreds of
    ///   closes) p90. Passes with two busy threads on a shared 2-vCPU
    ///   host slow far more than single-threaded ones when a neighbour
    ///   takes a CPU, so between two sets of runs of the same code these
    ///   moved by 31–42%, more than the widest bound the gate allows.
    pub fn printed_lines(&self, workload: &str, with_p90: bool) -> Vec<String> {
        let mut lines = vec![
            format!(
                "{workload}.flows_per_s {:.1} 1/s over {} passes (printed, not gated)",
                quantile_or_nan(&self.flows_per_s, 0.5),
                self.flows_per_s.len()
            ),
            format!(
                "{workload}.ref_ms {:.3} ms over {} runs of the host reference task (printed, not gated)",
                quantile_or_nan(&self.ref_ms, 0.5),
                self.ref_ms.len()
            ),
            format!(
                "{workload}.close_ms_p50 {:.1} ms over {} closes (printed, not gated)",
                quantile_or_nan(&self.close_ms, 0.5),
                self.close_ms.len()
            ),
        ];
        if with_p90 {
            lines.push(format!(
                "{workload}.close_ms_p90 {:.1} ms over {} closes (printed, not gated)",
                quantile_or_nan(&self.close_ms, 0.9),
                self.close_ms.len()
            ));
        }
        lines
    }
}

fn quantile_or_nan(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        quantile(samples, q)
    }
}

/// Pass/fail accounting of every checked operation in a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one checked operation; prints why it failed when it did.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {what}");
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// FNV-1a 64 over `bytes`: the input digest recorded in provenance and
/// checked before a cached input is reused.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// `VmHWM` (peak resident set) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so the next
/// [`peak_rss_mb`] covers only what follows. Returns whether the kernel
/// accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Who measured: the host and the exact code that ran.
#[derive(Debug)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
    pub source_digest: String,
}

impl Host {
    pub fn probe() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Host {
            nproc,
            cpu_model,
            rustc: command_line("rustc", &["--version"]),
            git_commit: if std::path::Path::new(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"])
            } else {
                "unavailable".to_owned()
            },
            source_digest: source_digest(),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_commit\": {}, \
             \"source_digest\": {}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.rustc),
            json_str(&self.git_commit),
            json_str(&self.source_digest),
        )
    }
}

/// First line of a command's stdout, or `unavailable`. A checkout
/// without `.git` has no commit to name; the source digest covers it.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unavailable".to_owned())
}

/// FNV-1a over every Rust source and manifest of the program and of this
/// benchmark, in sorted path order: names the code that ran even where
/// the checkout is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.push("Cargo.lock".into());
    files.push("perfbench/Cargo.toml".into());
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        all.extend_from_slice(f.to_string_lossy().as_bytes());
        all.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("fnv1a64:{:016x} files={}", fnv1a64(&all), files.len())
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with every digit Rust prints for the value.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}
