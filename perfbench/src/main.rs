//! The benchmark's measuring program; `run.py` builds and drives it.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --pass <e2e|layers|alloc> [--spans <file>]
//! ```
//!
//! `e2e` prints the end-to-end metrics, `layers` the per-layer timings,
//! counts and shares (writing its spans to `--spans`), and `alloc` the
//! allocation counts, which need a build with the `count` feature. Each
//! pass prints a report and then, as its last line, one JSON result.

#[cfg(feature = "count")]
mod alloc;
mod calib;
mod checks;
mod clock;
mod e2e;
mod layers;
mod report;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use workloads::WorkloadId;

#[cfg(feature = "count")]
#[global_allocator]
static ALLOC: wmn_alloc::CountingAlloc = wmn_alloc::CountingAlloc;

/// Parsed command line.
struct Args {
    workload: WorkloadId,
    seed: u64,
    seconds: u64,
    pass: String,
    spans: String,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut pass, mut spans) = (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadId::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value:?}"))?)
            }
            "--pass" => pass = Some(value),
            "--spans" => spans = Some(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        pass: pass.unwrap_or_else(|| "e2e".into()),
        spans: spans.unwrap_or_else(|| "spans.json".into()),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Panics inside a run are caught and counted; keep their messages off
    // the report.
    std::panic::set_hook(Box::new(|info| eprintln!("perfbench: run panicked: {info}")));
    let budget = Duration::from_secs(args.seconds);
    let outcome = match args.pass.as_str() {
        "e2e" => e2e::measure(args.workload, args.seed, budget),
        "layers" => layers::measure(args.workload, args.seed, budget, &args.spans),
        #[cfg(feature = "count")]
        "alloc" => alloc::measure(args.workload, args.seed),
        other => {
            eprintln!("perfbench: pass {other:?} is not available in this build");
            return ExitCode::from(2);
        }
    };
    outcome.print();
    ExitCode::SUCCESS
}
