//! The host reference task: a fixed piece of work, owned by the benchmark
//! and independent of the program, timed between passes so that each
//! pass's throughput can be stated in units of this host's speed.
//!
//! On a shared host the speed of allocation-, string- and hash-heavy code
//! swings by up to 2× over minutes with the neighbours' load, so flows per
//! wall second measure the neighbours as much as the program. The task
//! below does the same kind of work as the batch path (split CSV lines,
//! parse fields, allocate a string per row, aggregate rows per host in a
//! `HashMap`) on a fixed synthetic input, so it slows when the program
//! slows for reasons outside the program. A pass's throughput times the
//! task's mean time around that pass gives flows per reference task, a
//! figure that moves with the program and much less with the host.
//!
//! Which neighbours slow a pass depends on where its data lives. The
//! default day's pass (~125 MiB resident) slows when neighbours take the
//! shared L3 cache; the 12 000-host day's pass (~1 GiB) streams from DRAM
//! and hardly notices them. So each workload sizes the task's input to
//! put its working set at the same level of the memory hierarchy as the
//! pass it is set against: a few MiB for the default day, ~100 MiB for
//! the 12 000-host day.

use std::collections::HashMap;
use std::time::Instant;

/// Share of each pass's time spent timing the task right after it, so a
/// long pass is bracketed by as many samples as a short one per second.
const GAP_SHARE: f64 = 0.08;

pub struct HostRef {
    csv: Vec<u8>,
    rows: usize,
}

impl HostRef {
    /// Builds the task's input of `rows` rows: for a given size, the same
    /// bytes in every run and for every seed, so the unit does not depend
    /// on the workload's input.
    pub fn new(rows: u64) -> Self {
        let mut csv = Vec::new();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for i in 0..rows {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let host = (x >> 40) % 5_000;
            csv.extend_from_slice(
                format!(
                    "{},10.0.{}.{},{},{},{}\n",
                    1_000_000 + i * 7,
                    host % 256,
                    host / 256,
                    (x >> 20) % 100_000,
                    (x >> 8) % 65_536,
                    (x >> 3) % 1_000_000
                )
                .as_bytes(),
            );
        }
        Self {
            csv,
            rows: rows as usize,
        }
    }

    /// One run of the task; returns its wall time in seconds.
    fn once(&self) -> f64 {
        let t0 = Instant::now();
        let mut rows: Vec<(u64, String, u64, u64, u64)> = Vec::with_capacity(self.rows);
        for line in self.csv.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            let text = std::str::from_utf8(line).expect("ASCII input");
            let mut f = text.split(',');
            let ts = f.next().and_then(|v| v.parse().ok()).unwrap_or(0);
            let host = f.next().unwrap_or_default().to_owned();
            let mut num = || -> u64 { f.next().and_then(|v| v.parse().ok()).unwrap_or(0) };
            rows.push((ts, host, num(), num(), num()));
        }
        let mut per_host: HashMap<&str, (u64, u64)> = HashMap::new();
        for (_, host, _, _, bytes) in &rows {
            let e = per_host.entry(host.as_str()).or_default();
            e.0 += bytes;
            e.1 += 1;
        }
        std::hint::black_box(per_host.len());
        t0.elapsed().as_secs_f64()
    }

    /// Times the task, at least once, until [`GAP_SHARE`] of `pass_s` has
    /// been spent on it. Returns the mean time of one run, in seconds, and
    /// appends each run's time to `samples_ms`.
    pub fn gap(&self, pass_s: f64, samples_ms: &mut Vec<f64>) -> f64 {
        let budget = GAP_SHARE * pass_s;
        let (mut spent, mut runs) = (0.0, 0u32);
        while runs == 0 || spent < budget {
            let t = self.once();
            samples_ms.push(t * 1e3);
            spent += t;
            runs += 1;
        }
        spent / f64::from(runs)
    }
}

/// Flows per reference task for one pass: its throughput (`flows` over
/// `pass_s` seconds) times the task's mean time in the gaps just before
/// and just after it.
pub fn flows_per_ref(flows: usize, pass_s: f64, before_s: f64, after_s: f64) -> f64 {
    flows as f64 / pass_s * (before_s + after_s) / 2.0
}
