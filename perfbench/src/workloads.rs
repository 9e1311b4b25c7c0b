//! The four workloads, each a closed batch of scenarios built from a seed.
//!
//! A workload is a list of [`Job`]s that one process runs back to back.
//! The seed is the only input: the same seed yields the same jobs, bit for
//! bit. Each job keeps the recipe it is materialised from, so the harness
//! can time materialisation as part of what a researcher waits for.

use wmn_netsim::{FlowSpec, MotionPlan, Scenario, Scheme, Workload as App};
use wmn_phy::PhyParams;
use wmn_scengen::{MobilitySpec, PairPolicy, PhyPreset, ScenarioSpec, TopologySpec, TrafficMix};
use wmn_sim::SimDuration;
use wmn_topology::collision;
use wmn_traffic::CbrModel;

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    /// Table III's 30-call column under DCF, AFR-16 and RIPPLE-16.
    VoipTable3,
    /// Fig. 6(b)-class bulk TCP against five hidden CBR senders.
    HiddenFtp,
    /// A 256-station grid with drift mobility and live route refresh.
    MeshMobile,
    /// The 1024-station campus preset on the sharded engine at 1 shard.
    Campus1kShard1,
}

impl WorkloadId {
    /// Every workload.
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::VoipTable3,
        WorkloadId::HiddenFtp,
        WorkloadId::MeshMobile,
        WorkloadId::Campus1kShard1,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::VoipTable3 => "voip_table3",
            WorkloadId::HiddenFtp => "hidden_ftp",
            WorkloadId::MeshMobile => "mesh_mobile",
            WorkloadId::Campus1kShard1 => "campus1k_shard1",
        }
    }

    /// Parses [`WorkloadId::name`].
    pub fn from_name(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether every job runs on the single-loop engine, so the whole
    /// workload is single-threaded.
    pub fn is_legacy(self) -> bool {
        self != WorkloadId::Campus1kShard1
    }

    /// Independent runs per scheme in one batch. A batch sums several run
    /// seeds so that its cost varies less from one workload seed to the
    /// next.
    pub fn runs_per_batch(self) -> u64 {
        match self {
            WorkloadId::VoipTable3 => 4,
            WorkloadId::HiddenFtp => 4,
            WorkloadId::MeshMobile => 20,
            WorkloadId::Campus1kShard1 => 4,
        }
    }

    /// The master seeds of one batch: `runs_per_batch` consecutive values,
    /// so distinct workload seeds never share a run.
    pub fn run_seeds(self, seed: u64) -> impl Iterator<Item = u64> {
        let k = self.runs_per_batch();
        (0..k).map(move |i| seed.wrapping_mul(k).wrapping_add(i))
    }
}

/// How a job's scenario is produced.
#[derive(Clone, Debug)]
pub enum Recipe {
    /// A generated scenario: materialisation runs `wmn_scengen` on `spec`,
    /// whose seed fixes the layout (placement, endpoints, motion); the run's
    /// master seed is then set to `run_seed`.
    Spec {
        /// The recipe, carrying the layout seed.
        spec: ScenarioSpec,
        /// Master seed of every in-run random stream.
        run_seed: u64,
    },
    /// A hand-built paper scenario: materialisation is a copy.
    Built(Scenario),
}

/// One scenario of a workload's batch.
#[derive(Clone, Debug)]
pub struct Job {
    /// Short label for reports and spans: the scheme or preset, and the
    /// run seed.
    pub label: String,
    /// The scheme label the MoS-order check groups by.
    pub scheme: &'static str,
    /// What to materialise.
    pub recipe: Recipe,
}

impl Job {
    /// Expands the recipe into a runnable scenario.
    ///
    /// # Panics
    ///
    /// Panics if a generated spec does not materialise; the workload
    /// definitions below are fixed, so that is a bug in this file.
    pub fn materialise(&self) -> Scenario {
        match &self.recipe {
            Recipe::Spec { spec, run_seed } => {
                let mut scenario = spec.materialise().expect("benchmark spec materialises");
                scenario.seed = *run_seed;
                scenario
            }
            Recipe::Built(scenario) => scenario.clone(),
        }
    }
}

/// Layout seed of the generated workloads. Their placement, flow endpoints
/// and motion stay fixed across workload seeds: on `campus-1k` the layout
/// alone moves the cost of a run by up to 6x, far more than any change this
/// benchmark is meant to resolve. It is the `campus-1k` preset's own seed.
pub const LAYOUT_SEED: u64 = 1;
/// Simulated length of each `voip_table3` run.
pub const VOIP_DURATION: SimDuration = SimDuration::from_millis(4_000);
/// Simulated length of each `hidden_ftp` run.
pub const HIDDEN_DURATION: SimDuration = SimDuration::from_millis(4_000);
/// Simulated length of each `mesh_mobile` run, milliseconds.
pub const MESH_DURATION_MS: u64 = 1_000;
/// Route-refresh period of `mesh_mobile`, milliseconds.
pub const MESH_REFRESH_MS: u64 = 50;
/// Simulated length of each `campus1k_shard1` run, milliseconds.
pub const CAMPUS_DURATION_MS: u64 = 1_000;
/// The shard count of `campus1k_shard1`. At two shards the engine syncs its
/// threads at every nanosecond-wide window, and on a host whose virtual
/// CPUs are shared that cost swings by 2-3x with the neighbours' load, so
/// two shards are timed only in the traced pass (`netsim.shard_ratio`).
pub const CAMPUS_SHARDS: u32 = 1;

/// Builds the batch of `workload` for `seed`.
pub fn jobs(workload: WorkloadId, seed: u64) -> Vec<Job> {
    let spec_jobs = |label: &str, scheme: &'static str, spec: ScenarioSpec| -> Vec<Job> {
        workload
            .run_seeds(seed)
            .map(|run_seed| Job {
                label: format!("{label}/s{run_seed}"),
                scheme,
                recipe: Recipe::Spec { spec: spec.clone(), run_seed },
            })
            .collect()
    };
    match workload {
        WorkloadId::VoipTable3 => voip_table3(seed),
        WorkloadId::HiddenFtp => workload
            .run_seeds(seed)
            .map(|run_seed| Job {
                label: format!("RIPPLE-16/s{run_seed}"),
                scheme: "RIPPLE-16",
                recipe: Recipe::Built(hidden_ftp(run_seed, HIDDEN_DURATION)),
            })
            .collect(),
        WorkloadId::MeshMobile => spec_jobs("grid256", "RIPPLE-16", mesh_mobile()),
        WorkloadId::Campus1kShard1 => spec_jobs("campus-1k", "RIPPLE-16", campus1k()),
    }
}

/// Table III's 30-call column: the Fig. 1 topology, 30 VoIP calls over
/// ROUTE0, 6 Mbps PHY at BER 1e-5, under DCF, AFR-16 and RIPPLE-16.
fn voip_table3(seed: u64) -> Vec<Job> {
    let topo = wmn_topology::fig1::topology();
    let params = PhyParams::paper_6().with_ber(1e-5);
    let mut jobs = Vec::new();
    for scheme in [
        Scheme::Dcf { aggregation: 1 },
        Scheme::Dcf { aggregation: 16 },
        Scheme::Ripple { aggregation: 16 },
    ] {
        for run_seed in WorkloadId::VoipTable3.run_seeds(seed) {
            jobs.push(Job {
                label: format!("{}/s{run_seed}", scheme.label()),
                scheme: scheme.label(),
                recipe: Recipe::Built(Scenario {
                    name: format!("voip_table3-{}", scheme.label()),
                    params: params.clone(),
                    positions: topo.positions.clone(),
                    scheme,
                    flows: wmn_experiments::table3::voip_flows(30),
                    duration: VOIP_DURATION,
                    seed: run_seed,
                    max_forwarders: 5,
                    motion: MotionPlan::default(),
                    route_refresh: None,
                    shards: None,
                }),
            });
        }
    }
    jobs
}

/// The bench suite's fig-6(b)-class scenario (`wmn_bench::fig6_class_scenario`
/// with five hidden senders), rebuilt here because linking `wmn_bench`
/// turns on allocation counting. A test pins the two equal.
pub fn hidden_ftp(seed: u64, duration: SimDuration) -> Scenario {
    const HIDDEN: usize = 5;
    let topo = collision::hidden_terminals(HIDDEN);
    let mut flows = vec![FlowSpec { path: collision::hidden_main_path(), workload: App::Ftp }];
    for k in 0..HIDDEN {
        let (s, d) = collision::hidden_flow_endpoints(k);
        flows.push(FlowSpec { path: vec![s, d], workload: App::Cbr(CbrModel::heavy()) });
    }
    Scenario {
        name: format!("bench-fig6b-{HIDDEN}"),
        params: PhyParams::paper_216(),
        positions: topo.positions,
        scheme: Scheme::Ripple { aggregation: 16 },
        flows,
        duration,
        seed,
        max_forwarders: 5,
        motion: MotionPlan::default(),
        route_refresh: None,
        shards: None,
    }
}

/// A 16×16 grid at 5 m with 1 FTP, 2 web and 8 VoIP flows between random
/// pairs, every station drifting at up to 2 m/s (50 ms tick) and routes
/// refreshed every 50 ms, RIPPLE-16 at BER 1e-5 on the legacy engine.
fn mesh_mobile() -> ScenarioSpec {
    ScenarioSpec {
        name: "mesh_mobile".into(),
        topology: TopologySpec::Grid { cols: 16, rows: 16, spacing_m: 5.0 },
        mix: TrafficMix { ftp: 1, web: 2, voip: 8, cbr: 0, pairing: PairPolicy::Random },
        scheme: Scheme::Ripple { aggregation: 16 },
        phy: PhyPreset::Mbps216,
        ber: Some(1e-5),
        duration_ms: MESH_DURATION_MS,
        seed: LAYOUT_SEED,
        max_forwarders: 5,
        mobility: MobilitySpec::Drift { max_speed_mps: 2.0 },
        route_refresh_ms: Some(MESH_REFRESH_MS),
        shards: None,
    }
}

/// The `campus-1k` preset on the sharded engine at one shard.
fn campus1k() -> ScenarioSpec {
    ScenarioSpec {
        duration_ms: CAMPUS_DURATION_MS,
        seed: LAYOUT_SEED,
        shards: Some(CAMPUS_SHARDS),
        ..ScenarioSpec::campus_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_materialises_valid_deterministic_scenarios() {
        for workload in WorkloadId::ALL {
            for seed in [0, 1, 7, 12_345] {
                let batch = jobs(workload, seed);
                let again = jobs(workload, seed);
                assert!(!batch.is_empty());
                for (job, twin) in batch.iter().zip(&again) {
                    let scenario = job.materialise();
                    assert_eq!(scenario.validate(), Ok(()), "{} seed {seed}", job.label);
                    assert_eq!(
                        format!("{scenario:?}"),
                        format!("{:?}", twin.materialise()),
                        "{} seed {seed} is not deterministic",
                        job.label
                    );
                }
            }
        }
    }

    #[test]
    fn workload_seeds_select_disjoint_runs() {
        for workload in WorkloadId::ALL {
            let a: Vec<u64> = workload.run_seeds(3).collect();
            let b: Vec<u64> = workload.run_seeds(4).collect();
            assert_eq!(a.len() as u64, workload.runs_per_batch());
            assert!(a.iter().all(|s| !b.contains(s)), "{}", workload.name());
            let seeds: Vec<u64> = jobs(workload, 3).iter().map(|j| j.materialise().seed).collect();
            assert!(seeds.iter().all(|s| a.contains(s)), "{}", workload.name());
        }
    }

    #[test]
    fn generated_workloads_keep_their_layout_across_seeds() {
        for workload in [WorkloadId::MeshMobile, WorkloadId::Campus1kShard1] {
            let a = jobs(workload, 0)[0].materialise();
            let b = jobs(workload, 9)[0].materialise();
            assert_eq!(a.positions, b.positions);
            assert_eq!(format!("{:?}", a.flows), format!("{:?}", b.flows));
            assert_ne!(a.seed, b.seed);
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in WorkloadId::ALL {
            assert_eq!(WorkloadId::from_name(workload.name()), Some(workload));
        }
        assert_eq!(WorkloadId::from_name("nope"), None);
    }

    #[test]
    fn hidden_ftp_is_the_bench_suite_scenario() {
        let ours = hidden_ftp(0, HIDDEN_DURATION);
        let suite = wmn_bench::fig6_class_scenario(5, HIDDEN_DURATION);
        assert_eq!(format!("{ours:?}"), format!("{suite:?}"));
    }
}
