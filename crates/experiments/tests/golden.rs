//! Golden regression tests for experiment outputs.
//!
//! Each figure/table test renders at a small fixed configuration
//! (120 simulated ms, seeds {1, 2}) and compares it byte-for-byte with a
//! snapshot taken when the parallel grid engine landed; the sweep test runs
//! a built-in scengen sweep at its own configuration. A mismatch means a
//! refactor changed the simulation's numbers — if the change is intended
//! (e.g. a physics or MAC fix), update the snapshot string in the failing
//! test *and say so in the commit*; if not, it just caught a regression
//! tier-1 would otherwise miss.
//!
//! The snapshot values are engine-independent: `run_grid` guarantees
//! bit-identical results for any `RIPPLE_JOBS`, so a worker-count change
//! can never move them. They are *not* guaranteed bit-identical across
//! platforms — the sim's math uses libm functions (`ln`, `powf`, `cos`)
//! whose last-ulp behaviour varies by OS/arch — so a mismatch on a new
//! platform with no code change means a rounding boundary, not a bug;
//! CI pins x86-64 Linux.

use wmn_experiments as exp;
use wmn_experiments::ExpConfig;
use wmn_sim::SimDuration;

/// The pinned snapshot configuration. Changing it invalidates every golden
/// string below, so don't.
fn golden_cfg() -> ExpConfig {
    ExpConfig::custom(SimDuration::from_millis(120), vec![1, 2])
}

/// Diff-friendly assertion: on mismatch, print the full actual rendering so
/// the snapshot can be updated by copy-paste.
fn assert_golden(actual: &str, expected: &str, what: &str) {
    assert_eq!(
        actual.trim_end(),
        expected.trim_end(),
        "\n== {what} diverged from its golden snapshot ==\n\
         -- actual --\n{actual}\n-- end actual --\n"
    );
}

#[test]
fn fig3_route0_matches_snapshot() {
    let tables = exp::fig3::generate(1e-6, &golden_cfg());
    assert_golden(&tables[0].to_string(), GOLDEN_FIG3_ROUTE0, "fig3 ROUTE0");
}

#[test]
fn fig6_regular_matches_snapshot() {
    let table = exp::fig6::generate_regular(&golden_cfg());
    assert_golden(&table.to_string(), GOLDEN_FIG6_REGULAR, "fig6(a)");
}

/// The refresh-enabled mobility sweep (12-station 5 m grid, drift and
/// waypoint walkers, 50 ms min-ETX refresh) at its own built-in
/// configuration. CI's determinism steps only compare this grid across
/// worker and shard counts; this snapshot pins its table against a fixed
/// reference, so a change to the link-state refresh or the route
/// computation that alters the simulated traffic shows up here. The grid's equal spacing makes many paths tie on
/// ETX, which exercises Dijkstra's lowest-index tie-break.
#[test]
fn mobility_refresh_sweep_matches_snapshot() {
    let spec = wmn_scengen::SweepSpec::ci_mobility_refresh();
    let outcome = exp::sweep::run_sweep(&spec, 1).expect("builtin sweep runs");
    assert_golden(&outcome.table.to_string(), GOLDEN_SWEEP_MOBILITY_REFRESH, "ci-mobility-refresh");
}

#[test]
fn table3_matches_snapshot() {
    let tables = exp::table3::generate(&golden_cfg());
    assert_golden(&tables[0].to_string(), GOLDEN_TABLE3_BER1E5, "table3 BER 1e-5");
    assert_golden(&tables[1].to_string(), GOLDEN_TABLE3_BER1E6, "table3 BER 1e-6");
}

const GOLDEN_FIG3_ROUTE0: &str = "\
### Fig. 3 (ROUTE0) — total TCP throughput (Mbps), BER 1e-6
| scheme | flow 1 | flows 1+2 | flows 1+2+3 |
|--------|--------|-----------|-------------|
| S      | 0.07   | 0.73      | 1.77        |
| D      | 7.97   | 7.87      | 8.03        |
| R1     | 11.57  | 8.17      | 13.23       |
| A      | 38.07  | 32.03     | 33.77       |
| R16    | 56.80  | 56.37     | 57.57       |";

const GOLDEN_FIG6_REGULAR: &str = "\
### Fig. 6(a) — single cell, total TCP throughput (Mbps) vs #flows
| scheme | 2 flows | 4 flows | 6 flows | 8 flows | 10 flows |
|--------|---------|---------|---------|---------|----------|
| DCF    | 27.37   | 30.10   | 32.07   | 31.93   | 31.53    |
| AFR    | 126.07  | 120.70  | 120.83  | 114.57  | 113.30   |
| RIPPLE | 127.73  | 121.47  | 124.60  | 117.70  | 114.77   |";

const GOLDEN_TABLE3_BER1E5: &str = "\
### Table III — VoIP MoS, 6 Mbps, BER 1e-5
| scheme | flows 1..10 | flows 1..20 | flows 1..30 |
|--------|-------------|-------------|-------------|
| DCF    | 4.02        | 2.42        | 2.12        |
| AFR    | 4.02        | 2.89        | 2.14        |
| RIPPLE | 4.03        | 4.02        | 3.89        |";

const GOLDEN_TABLE3_BER1E6: &str = "\
### Table III — VoIP MoS, 6 Mbps, BER 1e-6
| scheme | flows 1..10 | flows 1..20 | flows 1..30 |
|--------|-------------|-------------|-------------|
| DCF    | 4.02        | 2.45        | 2.17        |
| AFR    | 4.02        | 3.15        | 2.14        |
| RIPPLE | 4.03        | 4.02        | 3.40        |";

const GOLDEN_SWEEP_MOBILITY_REFRESH: &str = "\
### Sweep ci-mobility-refresh — seed-averaged throughput over 12 runs (6 scenarios × 2 seeds)
| scenario                                                            | nodes | flows | total Mbps | worst flow Mbps | mean MoS |
|---------------------------------------------------------------------|-------|-------|------------|-----------------|----------|
| ci-mobility-refresh-grid4x3-f1w0v1c0-far-pairs-DCF-t1               | 12    | 2     | 7.74       | 0.10            | 4.02     |
| ci-mobility-refresh-grid4x3-f1w0v1c0-far-pairs-DCF-t1-mdrift2       | 12    | 2     | 7.94       | 0.10            | 4.03     |
| ci-mobility-refresh-grid4x3-f1w0v1c0-far-pairs-DCF-t1-mwp3x2        | 12    | 2     | 8.06       | 0.10            | 4.02     |
| ci-mobility-refresh-grid4x3-f1w0v1c0-far-pairs-RIPPLE-16-t1         | 12    | 2     | 46.92      | 0.10            | 4.03     |
| ci-mobility-refresh-grid4x3-f1w0v1c0-far-pairs-RIPPLE-16-t1-mdrift2 | 12    | 2     | 48.08      | 0.10            | 4.03     |
| ci-mobility-refresh-grid4x3-f1w0v1c0-far-pairs-RIPPLE-16-t1-mwp3x2  | 12    | 2     | 48.94      | 0.10            | 4.03     |";
