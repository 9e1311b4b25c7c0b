//! The end-to-end pass: the workload's batch, repeated for the run's time
//! budget with tracing and allocation counting off, its timings scaled by
//! the host-speed calibration.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use wmn_netsim::{run, RunResult, Scenario};
use wmn_sim::SimDuration;

use crate::calib::Calibrator;
use crate::checks::{check_batch, check_run, check_same, digest, frames_on_air};
use crate::clock::process_cpu_seconds;
use crate::report::{Metric, Outcome};
use crate::stats::{describe, trimmed_mean};
use crate::workloads::{jobs, Job, WorkloadId};

/// Batches every run measures, however short its time budget.
const MIN_BATCHES: usize = 3;

/// Host times of one job inside one batch: process CPU seconds for each
/// step, and wall seconds for the whole job.
struct JobTimes {
    materialise: f64,
    build: f64,
    run: f64,
    wall: f64,
}

/// Runs `scenario`, turning a panic into an error.
pub fn run_caught(scenario: &Scenario) -> Result<RunResult, String> {
    catch_unwind(AssertUnwindSafe(|| run(scenario))).map_err(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        format!("{}: panicked: {msg}", scenario.name)
    })
}

/// The scenario with no simulated time: running it costs exactly the build.
pub fn zero_duration(scenario: &Scenario) -> Scenario {
    Scenario { duration: SimDuration::from_nanos(0), ..scenario.clone() }
}

/// Times one job: materialisation, a zero-duration run (the build), and
/// the full run.
fn time_job(job: &Job) -> (JobTimes, Result<RunResult, String>) {
    let wall = Instant::now();
    let start = process_cpu_seconds();
    let scenario = job.materialise();
    let materialised = process_cpu_seconds();
    let empty = zero_duration(&scenario);
    let built = run_caught(&empty);
    let ready = process_cpu_seconds();
    let result = run_caught(&scenario);
    let done = process_cpu_seconds();
    let times = JobTimes {
        materialise: materialised - start,
        build: ready - materialised,
        run: done - ready,
        wall: wall.elapsed().as_secs_f64(),
    };
    (times, built.and(result))
}

/// Runs and checks one job. A result that fails a check is still kept, so
/// the timed runs can be compared with it.
fn reference_run(
    workload: WorkloadId,
    job: &Job,
    scenario: &Scenario,
) -> (Option<RunResult>, Option<String>) {
    match run_caught(scenario) {
        Ok(result) => {
            let error = check_run(workload, &result).err().map(|e| format!("{}: {e}", job.label));
            (Some(result), error)
        }
        Err(e) => (None, Some(e)),
    }
}

/// Peak resident set of this process, MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs the end-to-end pass for `budget` and returns its outcome.
pub fn measure(workload: WorkloadId, seed: u64, budget: Duration) -> Outcome {
    let jobs = jobs(workload, seed);

    // Warm-up: one untimed pass over the batch, so lazy set-up and cold
    // caches do not land in the first sample. It also fixes the reference
    // results every timed batch must reproduce.
    let mut failures: Vec<String> = Vec::new();
    let mut reference: Vec<Option<RunResult>> = Vec::new();
    let mut bad: Vec<bool> = Vec::new();
    let mut sim_seconds = 0.0;
    for job in &jobs {
        let scenario = job.materialise();
        sim_seconds += scenario.duration.as_nanos() as f64 / 1e9;
        let (result, error) = reference_run(workload, job, &scenario);
        bad.push(error.is_some());
        failures.extend(error);
        reference.push(result);
    }
    if !bad.contains(&true) {
        let results: Vec<RunResult> = reference.iter().flatten().cloned().collect();
        if let Err(e) = check_batch(workload, &jobs, &results) {
            failures.push(e);
            bad.fill(true);
        }
    }
    let frames: u64 = reference.iter().flatten().map(frames_on_air).sum();

    let mut run_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut wall_s = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut calib = Calibrator::new();
    let mut measured = 0.0;
    let start = Instant::now();
    while run_s.len() < MIN_BATCHES || start.elapsed() < budget {
        let (mut run_total, mut setup_total, mut wall_total) = (0.0, 0.0, 0.0);
        for ((job, want), &bad) in jobs.iter().zip(&reference).zip(&bad) {
            let (times, got) = time_job(job);
            attempted += 1;
            let verdict = got.and_then(|got| match want {
                Some(want) => check_same(&job.label, want, &got),
                None => Err(format!("{}: no reference result", job.label)),
            });
            // A run that reproduces a result which failed its checks fails
            // too.
            if verdict.is_err() || bad {
                failed += 1;
            }
            if let Err(e) = verdict {
                if failures.len() < 8 {
                    failures.push(e);
                }
            }
            run_total += times.materialise + times.run;
            setup_total += times.materialise + times.build;
            wall_total += times.wall;
            measured += times.materialise + times.build + times.run;
            calib.keep_up(measured);
        }
        run_s.push(run_total);
        setup_s.push(setup_total);
        wall_s.push(wall_total);
    }
    calib.fill();

    // Each timing is the trimmed mean over the batches (see
    // `stats::trimmed_mean`), in seconds of the host the benchmark was
    // tuned on; the report adds the batches' median and tail.
    let scale = calib.scale();
    let scaled = |t: &[f64]| -> Vec<f64> { t.iter().map(|x| x * scale).collect() };
    let loop_s: Vec<f64> = run_s.iter().zip(&setup_s).map(|(r, s)| (r - s).max(1e-9)).collect();
    let [run, setup, looped] = [&run_s, &setup_s, &loop_s].map(|t| trimmed_mean(t) * scale);
    let sim_rate = sim_seconds / looped;
    let us_per_frame = looped * 1e6 / frames.max(1) as f64;

    let mut lines = vec![
        format!(
            "workload {} seed {seed}: {} runs per batch, {:.3} simulated s per batch, \
             {frames} frames on air per batch",
            workload.name(),
            jobs.len(),
            sim_seconds
        ),
        format!(
            "calibration: chunk {:.6} s (trimmed mean of {}), scale {scale:.4}",
            calib.chunk_s(),
            calib.chunks()
        ),
        format!("run_s: {run:.6} s, setup_s: {setup:.6} s, loop: {looped:.6} s (scaled)"),
        format!("sim_rate: {sim_rate:.6} sim-s/s, host_us_per_frame: {us_per_frame:.6} us"),
        describe("run_s of a batch", "s", &scaled(&run_s)),
        describe("setup_s of a batch", "s", &scaled(&setup_s)),
        describe("wall time of a batch (materialise, build and run)", "s", &wall_s),
    ];
    for (job, result) in jobs.iter().zip(&reference) {
        if let Some(r) = result {
            lines.push(format!("digest {} {:016x}", job.label, digest(r)));
        }
    }
    let rss = peak_rss_mb().unwrap_or(f64::NAN);
    lines.push(format!("peak_rss_mb: {rss:.3} MiB"));
    lines.push(format!(
        "error_rate: {:.6} ({failed} of {attempted} runs failed a check or panicked)",
        failed as f64 / attempted.max(1) as f64
    ));
    lines.extend(failures.iter().map(|f| format!("FAILED {f}")));

    Outcome {
        lines,
        attempted,
        failed,
        metrics: vec![
            Metric::new("run_s", run, "s"),
            Metric::new("setup_s", setup, "s"),
            Metric::new("sim_rate", sim_rate, "sim-s/s"),
            Metric::new("host_us_per_frame", us_per_frame, "us"),
            Metric::new("peak_rss_mb", rss, "MiB"),
        ],
    }
}
