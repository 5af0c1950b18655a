//! Workload inputs: synthetic campus days built from the seed exactly as
//! `gen-campus --seed <seed> --day <day>` builds them, rendered to CSV bytes.
//!
//! Inputs are built before any timing and may be cached on disk by
//! (input, seed, day). A cached file is used only when its manifest names
//! the same generator configuration and seed and the bytes still hash to
//! the recorded digest; anything else is regenerated.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use pw_botnet::{generate_nugache_trace, generate_storm_trace, NugacheConfig, StormConfig};
use pw_data::{build_day, overlay_bots, CampusConfig};
use pw_flow::csvio::write_flows;

use crate::report::{fnv1a64, json_str};

/// Bots implanted into every generated day (the full-size complement
/// `gen-campus` uses).
const N_STORM: usize = 13;
const N_NUGACHE: usize = 82;

/// Cache budget: least recently written inputs are evicted beyond it.
const CACHE_CAP_BYTES: u64 = 3 << 30;

/// Which generated days a workload reads.
#[derive(Debug, Clone, Copy)]
pub struct InputSpec {
    /// Cache-file stem.
    pub name: &'static str,
    /// Background hosts; `None` keeps the `CampusConfig` default.
    pub n_background: Option<usize>,
    /// Days `0..days` of the seed's campus an untraced run measures, an
    /// equal share of its time each (the traced run uses day 0).
    pub days: usize,
    /// The program sees at most this many flows of each day: the first
    /// ones in the file, which is in start-time order. `None` keeps the
    /// whole day.
    pub max_flows: Option<usize>,
    /// Rows of the host reference task set against each pass: enough to
    /// put its working set where the pass's is (see `hostref`).
    pub ref_rows: u64,
}

/// A generated day, ready to feed the program.
#[derive(Debug)]
pub struct Input {
    /// The bytes the program sees: the header and the first `flows` rows
    /// of the generated day.
    pub csv: Vec<u8>,
    pub flows: usize,
    /// Flow count, byte count and digest of the whole generated day.
    pub day_flows: usize,
    pub day_bytes: usize,
    pub digest: u64,
    pub seed: u64,
    pub day: usize,
    /// Every generator parameter, as the generator's own `Debug` output.
    pub generator: String,
    pub from_cache: bool,
    pub build_s: f64,
}

impl Input {
    pub fn provenance_json(&self, spec: &InputSpec) -> String {
        format!(
            "{{\"input\": {}, \"seed\": {}, \"day\": {}, \"generator\": {}, \
             \"csv_bytes\": {}, \"csv_fnv1a64\": \"{:016x}\", \"flows\": {}, \"from_cache\": {}, \
             \"used_flows\": {}, \"used_bytes\": {}, \"used_fnv1a64\": \"{:016x}\"}}",
            json_str(spec.name),
            self.seed,
            self.day,
            json_str(&self.generator),
            self.day_bytes,
            self.digest,
            self.day_flows,
            self.from_cache,
            self.flows,
            self.csv.len(),
            fnv1a64(&self.csv)
        )
    }
}

impl Input {
    /// Cuts the input to its header and first `max` rows, when the day
    /// has more.
    fn keep_prefix(&mut self, max: Option<usize>) {
        let Some(max) = max.filter(|&m| m < self.flows) else {
            return;
        };
        // Line ends: the header's, then one per row.
        let end = self
            .csv
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .nth(max)
            .map_or(self.csv.len(), |(i, _)| i + 1);
        self.csv.truncate(end);
        self.csv.shrink_to_fit();
        self.flows = max;
    }
}

fn configs(spec: &InputSpec, seed: u64, day: usize) -> (CampusConfig, StormConfig, NugacheConfig) {
    let mut campus = CampusConfig {
        seed,
        ..CampusConfig::default()
    };
    if let Some(n) = spec.n_background {
        campus.n_background = n;
    }
    let storm = StormConfig {
        duration: campus.duration,
        day: day as u64,
        n_bots: N_STORM,
        ..StormConfig::default()
    };
    let nugache = NugacheConfig {
        duration: campus.duration,
        n_bots: N_NUGACHE,
        ..NugacheConfig::default()
    };
    (campus, storm, nugache)
}

/// One day of the campus plus bots, seeded the way
/// `gen-campus --seed <seed> --day <day>` seeds it.
fn generate(spec: &InputSpec, seed: u64, day: usize) -> (Vec<u8>, usize) {
    let (campus, storm_cfg, nugache_cfg) = configs(spec, seed, day);
    let d = day as u64;
    let dataset = build_day(&campus, day);
    let storm = generate_storm_trace(&storm_cfg, seed ^ 0x5701 ^ d);
    let nugache = generate_nugache_trace(&nugache_cfg, seed ^ 0x4106 ^ d);
    let overlaid = overlay_bots(&dataset, &[&storm, &nugache], seed ^ d);
    drop(dataset);
    let mut csv = Vec::with_capacity(overlaid.flows.len() * 112);
    write_flows(&mut csv, &overlaid.flows).expect("writing CSV into memory cannot fail");
    (csv, overlaid.flows.len())
}

fn manifest_text(generator: &str, seed: u64, digest: u64, flows: usize, bytes: usize) -> String {
    format!(
        "generator_fnv1a64={:016x}\nseed={seed}\ncsv_fnv1a64={digest:016x}\nflows={flows}\nbytes={bytes}\n",
        fnv1a64(generator.as_bytes())
    )
}

/// Loads the day from the cache when its manifest and digest match,
/// otherwise generates it (and caches it).
pub fn load(spec: &InputSpec, seed: u64, day: usize, cache_dir: &Path) -> Input {
    let t0 = Instant::now();
    let (campus, storm, nugache) = configs(spec, seed, day);
    let generator = format!("{campus:?}; day {day}; {storm:?}; {nugache:?}");
    let csv_path = cache_dir.join(format!("{}-{seed}-d{day}.csv", spec.name));
    let meta_path = cache_dir.join(format!("{}-{seed}-d{day}.meta", spec.name));

    if let (Ok(meta), Ok(csv)) = (fs::read_to_string(&meta_path), fs::read(&csv_path)) {
        let digest = fnv1a64(&csv);
        let flows = meta
            .lines()
            .find_map(|l| l.strip_prefix("flows="))
            .and_then(|v| v.parse().ok());
        if let Some(flows) = flows {
            if meta == manifest_text(&generator, seed, digest, flows, csv.len()) {
                let mut input = Input {
                    day_flows: flows,
                    day_bytes: csv.len(),
                    csv,
                    flows,
                    digest,
                    seed,
                    day,
                    generator,
                    from_cache: true,
                    build_s: 0.0,
                };
                input.keep_prefix(spec.max_flows);
                input.build_s = t0.elapsed().as_secs_f64();
                return input;
            }
        }
        eprintln!(
            "perfbench: cached input {} does not match its manifest; regenerating",
            csv_path.display()
        );
    }

    let (csv, flows) = generate(spec, seed, day);
    let digest = fnv1a64(&csv);
    if let Err(e) = store(
        cache_dir,
        &csv_path,
        &meta_path,
        &csv,
        &manifest_text(&generator, seed, digest, flows, csv.len()),
    ) {
        eprintln!("perfbench: not caching input: {e}");
    }
    let mut input = Input {
        day_flows: flows,
        day_bytes: csv.len(),
        csv,
        flows,
        digest,
        seed,
        day,
        generator,
        from_cache: false,
        build_s: 0.0,
    };
    input.keep_prefix(spec.max_flows);
    input.build_s = t0.elapsed().as_secs_f64();
    input
}

fn store(
    dir: &Path,
    csv_path: &Path,
    meta_path: &Path,
    csv: &[u8],
    meta: &str,
) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    evict(dir, csv.len() as u64)?;
    let tmp = csv_path.with_extension("csv.tmp");
    // Synced before the timed passes start, so no write-back of hundreds
    // of megabytes runs underneath them.
    let mut f = fs::File::create(&tmp)?;
    f.write_all(csv)?;
    f.sync_all()?;
    fs::rename(&tmp, csv_path)?;
    fs::write(meta_path, meta)
}

/// Deletes the oldest cached inputs until `incoming` more bytes fit the
/// cache budget.
fn evict(dir: &Path, incoming: u64) -> std::io::Result<()> {
    let mut entries: Vec<(std::time::SystemTime, u64, PathBuf)> = Vec::new();
    for e in fs::read_dir(dir)?.flatten() {
        let p = e.path();
        if p.extension().is_some_and(|x| x == "csv") {
            let md = e.metadata()?;
            entries.push((md.modified()?, md.len(), p));
        }
    }
    entries.sort();
    let mut total: u64 = entries.iter().map(|e| e.1).sum::<u64>() + incoming;
    for (_, len, p) in entries {
        if total <= CACHE_CAP_BYTES {
            break;
        }
        fs::remove_file(&p)?;
        let _ = fs::remove_file(p.with_extension("meta"));
        total -= len;
    }
    Ok(())
}
