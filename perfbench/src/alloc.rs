//! The allocation pass of a traced run, built with the `count` feature so
//! `wmn_alloc`'s counting allocator and phase scopes are live.
//!
//! `wmn_alloc::measure` reads process-wide counters, so this pass runs
//! nothing but the one simulation it measures, on one thread: a sharded
//! scenario runs as its single-loop twin, whose runner also carries the
//! phase scopes that the sharded engine lacks.

use wmn_alloc::{phase_totals, Phase};
use wmn_netsim::Scenario;

use crate::checks::{check_run, digest, frames_on_air};
use crate::e2e::run_caught;
use crate::report::{Metric, Outcome};
use crate::workloads::{jobs, WorkloadId};

/// Counts the allocations of one run of every job in the batch.
pub fn measure(workload: WorkloadId, seed: u64) -> Outcome {
    let jobs = jobs(workload, seed);
    let (mut frames, mut allocs, mut peak) = (0u64, 0u64, 0u64);
    let mut phases = [0u64; Phase::COUNT];
    let mut lines = Vec::new();
    let mut failed = 0u64;
    for job in &jobs {
        let scenario = Scenario { shards: None, ..job.materialise() };
        let before = phase_totals();
        let (result, stats) = wmn_alloc::measure(|| run_caught(&scenario));
        let after = phase_totals();
        match result.and_then(|r| check_run(workload, &r).map(|()| r)) {
            Ok(r) => {
                lines.push(format!("digest {} {:016x}", job.label, digest(&r)));
                frames += frames_on_air(&r);
            }
            Err(e) => {
                failed += 1;
                lines.push(format!("FAILED {}: {e}", job.label));
            }
        }
        allocs += stats.allocs;
        peak = peak.max(stats.peak_bytes_in_use);
        for (total, (a, b)) in phases.iter_mut().zip(after.iter().zip(&before)) {
            *total += a.allocs - b.allocs;
        }
    }
    let per_frame = |n: u64| n as f64 / frames.max(1) as f64;
    let metrics = vec![
        Metric::new("alloc.per_frame", per_frame(allocs), "1/frame"),
        Metric::new("alloc.tx_path", per_frame(phases[Phase::TxPath as usize]), "1/frame"),
        Metric::new("alloc.queue", per_frame(phases[Phase::Queue as usize]), "1/frame"),
        Metric::new("alloc.event_loop", per_frame(phases[Phase::EventLoop as usize]), "1/frame"),
        Metric::new("alloc.peak_mb", peak as f64 / (1024.0 * 1024.0), "MiB"),
    ];
    lines.extend(metrics.iter().map(Metric::describe));
    Outcome { lines, attempted: jobs.len() as u64, failed, metrics }
}
