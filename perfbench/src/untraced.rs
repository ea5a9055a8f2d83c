//! The end-to-end run (tracing off): spec file → artefact on disk through
//! `apc_cli::execute`, timed against the reference kernel, with set-up
//! (parse + plan) timed in the same iterations and every artefact checked.

use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use apc_cli::runner::plan_spec;
use apc_cli::spec::ExperimentSpec;

use crate::checks::check_artefact;
use crate::host;
use crate::kernel::RefKernel;
use crate::workload::{Scale, Workload};

/// Set-up repetitions per iteration (their samples all enter the median).
const SETUP_REPS: usize = 10;
/// Iterations made even when `--seconds` runs out first.
const MIN_ITERATIONS: usize = 3;

/// What the end-to-end run measured.
pub struct EndToEnd {
    /// Spec → artefact wall seconds, one per iteration.
    pub wall_s: Vec<f64>,
    /// Reference-kernel seconds taken just before each iteration.
    pub ref_s: Vec<f64>,
    /// Parse + plan seconds, `SETUP_REPS` per iteration.
    pub setup_s: Vec<f64>,
    /// Peak RSS over the iterations less the reference kernel's working
    /// sets, MiB.
    pub peak_rss_mb: f64,
    /// Whether the peak mark could be reset before the iterations.
    pub rss_reset: bool,
    /// Iterations made.
    pub attempted: usize,
    /// Iterations whose artefact failed a check (or whose run errored).
    pub failed: usize,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl EndToEnd {
    /// Counts `iterations` iterations as failed when `failures` is not empty.
    fn record(&mut self, failures: Vec<String>, iterations: usize) {
        if !failures.is_empty() {
            self.failed += iterations;
            self.failures.extend(failures.into_iter().take(3));
        }
    }

    /// Per-iteration wall time over reference-kernel time.
    pub fn wall_rel(&self) -> Vec<f64> {
        self.wall_s
            .iter()
            .zip(&self.ref_s)
            .map(|(w, r)| w / r)
            .collect()
    }
}

/// Runs `workload` for about `seconds`, writing its spec and artefact in
/// `dir`.
pub fn run(workload: Workload, seed: u64, seconds: f64, scale: Scale, dir: &Path) -> EndToEnd {
    let csv = workload.is_csv();
    let spec_text = workload.spec(seed, scale, false);
    let spec_path = dir.join("spec.toml");
    let out_path = dir.join(if csv { "artefact.csv" } else { "artefact.json" });
    fs::write(&spec_path, &spec_text).expect("the output directory is writable");
    let args = workload.cli_args(
        spec_path.to_str().expect("UTF-8 path"),
        out_path.to_str().expect("UTF-8 path"),
    );

    let (shape, ops) = workload.kernel();
    let mut kernel = RefKernel::new(shape, ops);
    kernel.time();
    let mut e2e = EndToEnd {
        wall_s: Vec::new(),
        ref_s: Vec::new(),
        setup_s: Vec::new(),
        peak_rss_mb: 0.0,
        rss_reset: host::reset_peak_rss(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let mut first: Option<Vec<u8>> = None;
    // Iterations whose artefact repeated the first one byte for byte: they
    // share its verdict, which is taken once the clock has stopped.
    let mut repeats = 0;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while e2e.attempted < MIN_ITERATIONS || Instant::now() < deadline {
        e2e.ref_s.push(kernel.time());
        setup(&spec_text, &mut e2e.setup_s);
        let _ = fs::remove_file(&out_path);
        let start = Instant::now();
        let result = apc_cli::execute(&args);
        e2e.wall_s.push(start.elapsed().as_secs_f64());
        e2e.attempted += 1;
        let failures = match (result.map(|_| fs::read(&out_path)), &first) {
            (Err(e), _) => vec![format!("apc-cli failed: {e}")],
            (Ok(Err(e)), _) => vec![format!("cannot read the artefact: {e}")],
            (Ok(Ok(bytes)), None) => {
                first = Some(bytes);
                repeats += 1;
                Vec::new()
            }
            (Ok(Ok(bytes)), Some(first)) if bytes == *first => {
                repeats += 1;
                Vec::new()
            }
            (Ok(Ok(bytes)), Some(_)) => {
                let mut failures = check_artefact(&bytes, csv);
                failures.push("artefact differs from the first iteration's".to_owned());
                failures
            }
        };
        e2e.record(failures, 1);
    }
    // The kernel's working sets are resident throughout; they are the
    // yardstick's, not the workload's.
    e2e.peak_rss_mb = host::peak_rss_mb().map_or(f64::NAN, |mb| mb - kernel.footprint_mb());
    if let Some(first) = first {
        e2e.record(check_artefact(&first, csv), repeats);
    }
    e2e
}

/// Times parse + plan of `spec_text` `SETUP_REPS` times, after one untimed
/// warm-up so the samples measure the work rather than cold caches.
fn setup(spec_text: &str, samples: &mut Vec<f64>) {
    for rep in 0..=SETUP_REPS {
        let start = Instant::now();
        let plan = ExperimentSpec::parse(black_box(spec_text)).map(|spec| plan_spec(&spec, None));
        let elapsed = start.elapsed().as_secs_f64();
        drop(black_box(plan));
        if rep > 0 {
            samples.push(elapsed);
        }
    }
}
