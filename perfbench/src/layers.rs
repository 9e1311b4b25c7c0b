//! The traced pass: per-layer timings, counts and shares, with one span per
//! call the benchmark makes into a layer.
//!
//! A `*_ns` timing replays the layer's public function on the workload's
//! own inputs: its medium, flows, motion, BER and the frame shapes its run
//! put on the air. A count comes from the run's `RunResult` or from the
//! `run_traced` timeline. A share is a timing times its count over the
//! event-loop time of the untraced run. The sharded engine has no trace
//! hook, so `campus1k_shard1` takes its timeline (frame shapes, decode and
//! route-change counts) from the same scenario on the single-loop engine.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wmn_mac::frame::{AckFrame, DataFrame, Frame, LinkDst, NetHeader, Packet, Proto, Subframe};
use wmn_mac::FramePool;
use wmn_netsim::stack::decode::decode_frame;
use wmn_netsim::{run_traced, FrameKind, RunResult, Scenario, Trace, TraceKind};
use wmn_phy::{BerModel, Medium, Position};
use wmn_routing::LinkGraph;
use wmn_sim::{EventQueue, FlowId, NodeId, SimDuration, SimTime, StreamRng};

use crate::checks::{check_batch, check_run, check_same, digest, frames_on_air};
use crate::e2e::{run_caught, zero_duration};
use crate::report::{Metric, Outcome};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{jobs, Job, WorkloadId};

/// Host time each replay loop runs for.
const REPLAY_BUDGET: Duration = Duration::from_millis(40);
/// Repetitions of each set-up step (materialise, medium build, build).
const SETUP_REPS: usize = 3;
/// Timed rounds of the full runs per job, however short the budget.
const MIN_ROUNDS: usize = 2;
/// Simulated length of the one- and two-shard comparison. Two shards sync
/// their threads at every nanosecond-wide window, which makes them tens of
/// times slower than one, so the comparison runs a cut of the scenario.
const SHARD_PROBE: SimDuration = SimDuration::from_millis(10);

/// Calls `step(i)` for `i = 0, 1, …` until [`REPLAY_BUDGET`] has passed
/// and returns the mean host nanoseconds per call. The clock is read after
/// batches that double in size, so a call of tens of nanoseconds is not
/// swamped by the clock and a call of 100 ms does not run 64 times.
fn replay(mut step: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    let (mut calls, mut batch) = (0usize, 1usize);
    loop {
        for _ in 0..batch {
            step(calls);
            calls += 1;
        }
        if start.elapsed() >= REPLAY_BUDGET {
            break;
        }
        batch = (batch * 2).min(4096);
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// A layer's replayed cost per call and how many calls the run made.
#[derive(Clone, Copy)]
struct Cost {
    ns: f64,
    calls: u64,
}

/// Everything measured on one job.
struct JobLayers {
    materialise_s: f64,
    medium_build_s: f64,
    build_s: f64,
    loop_s: f64,
    /// Loop time of the traced timeline run.
    traced_loop_s: f64,
    /// Loop time of the timeline's scenario untraced, on the same engine.
    untraced_timeline_loop_s: f64,
    /// Loop times of the scenario cut to [`SHARD_PROBE`] at one and at two
    /// shards (sharded workloads only).
    shard_probe_loops_s: Option<(f64, f64)>,
    plan: Cost,
    refresh: Cost,
    routing: Cost,
    decode: Cost,
    queue_ns: f64,
    route_changes: u64,
    result: RunResult,
}

/// Times `f` `reps` times inside spans named `name`; returns the last
/// value and the median seconds.
fn timed<T>(rec: &mut Recorder, name: &str, reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (value, s) = rec.span(name, |_| f());
        secs.push(s);
        last = Some(value);
    }
    (last.expect("reps >= 1"), median(&secs))
}

/// Every station that starts a transmission in the scenario's flows: the
/// sources and relays, each once.
fn transmitters(scenario: &Scenario) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = scenario.flows.iter().flat_map(|f| f.path.clone()).collect();
    nodes.sort_by_key(|n| n.index());
    nodes.dedup();
    nodes
}

/// Replays the run's mobility ticks and route-refresh passes on the
/// scenario's medium, timing `Medium::update_node_position` and the
/// `LinkGraph` + min-ETX pass separately. A static scenario makes no such
/// calls; its per-call costs are measured on small moves of its stations
/// and on passes over its fixed link state.
fn replay_motion(scenario: &Scenario, rec: &mut Recorder) -> (Cost, Cost) {
    let medium = || Medium::new(scenario.params.clone(), scenario.positions.clone());
    let endpoints: Vec<(NodeId, NodeId)> =
        scenario.flows.iter().map(|f| (f.src(), f.dst())).collect();
    let pass = |medium: &Medium| {
        let graph = LinkGraph::try_from_medium(medium).expect("link state is finite");
        for &(src, dst) in &endpoints {
            black_box(graph.shortest_path(src, dst));
        }
    };
    let end = scenario.duration.as_nanos();
    let mobile = !scenario.motion.is_static();
    let tick = scenario.motion.tick.as_nanos();
    let refresh_every = scenario.route_refresh.map(SimDuration::as_nanos);

    let (refresh, _) = rec.span("replay.phy.refresh", |_| {
        if !mobile {
            let mut medium = medium();
            let n = medium.node_count();
            let ns = replay(|i| {
                let node = NodeId::new((i % n) as u32);
                let p = scenario.positions[node.index()];
                let dx = if (i / n) % 2 == 0 { 0.5 } else { 0.0 };
                medium.update_node_position(node, Position::new(p.x + dx, p.y));
            });
            return Cost { ns, calls: 0 };
        }
        let mut replica = medium();
        let (mut calls, mut nanos) = (0u64, 0u128);
        let mut t = tick;
        while t <= end {
            let now = SimTime::from_nanos(t);
            for (i, path) in scenario.motion.paths.iter().enumerate() {
                if path.is_static() {
                    continue;
                }
                let node = NodeId::new(i as u32);
                let pos = path.position_at(scenario.positions[i], now);
                if pos == replica.position(node) {
                    continue;
                }
                let start = Instant::now();
                replica.update_node_position(node, pos);
                nanos += start.elapsed().as_nanos();
                calls += 1;
            }
            t += tick;
        }
        Cost { ns: nanos as f64 / calls.max(1) as f64, calls }
    });

    let (routing, _) = rec.span("replay.routing.pass", |_| match refresh_every {
        None => {
            let medium = medium();
            Cost { ns: replay(|_| pass(&medium)), calls: 0 }
        }
        Some(every) => {
            let mut replica = medium();
            let (mut calls, mut nanos) = (0u64, 0u128);
            let mut t = every;
            while t <= end {
                let now = SimTime::from_nanos(t);
                for (i, path) in scenario.motion.paths.iter().enumerate() {
                    if !path.is_static() {
                        let pos = path.position_at(scenario.positions[i], now);
                        replica.update_node_position(NodeId::new(i as u32), pos);
                    }
                }
                let start = Instant::now();
                pass(&replica);
                nanos += start.elapsed().as_nanos();
                calls += 1;
                t += every;
            }
            Cost { ns: nanos as f64 / calls.max(1) as f64, calls }
        }
    });
    (refresh, routing)
}

/// A frame of the given shape: `subframes` subframes sharing `wire_bytes`
/// (data), or a bare ACK.
fn frame_of_shape(pool: &FramePool, kind: FrameKind, subframes: usize, wire_bytes: u32) -> Frame {
    let (flow, src, dst) = (FlowId::new(0), NodeId::new(0), NodeId::new(1));
    match kind {
        FrameKind::Ack => Frame::Ack(AckFrame {
            transmitter: dst,
            to: src,
            flow,
            frame_seq: 0,
            acked_seqs: Default::default(),
            relay_list: Default::default(),
        }),
        FrameKind::Data => {
            let per = wire_bytes / subframes.max(1) as u32;
            let header = NetHeader { flow, src, dst, proto: Proto::Udp, wire_bytes: per };
            let mut list = pool.mint_subframes();
            for seq in 0..subframes as u32 {
                list.push(Subframe {
                    seq,
                    packet: Packet::new(header, pool.mint_body(&[0u8; 16])),
                    corrupted: false,
                });
            }
            Frame::Data(DataFrame {
                transmitter: src,
                link_dst: LinkDst::Unicast(dst),
                flow,
                src,
                dst,
                frame_seq: 0,
                subframes: list,
                retry: 0,
            })
        }
    }
}

/// Replays the run's decodes: one `decode_frame` per `Decoded` event of the
/// timeline, on a frame shaped like the transmission it decoded, at the
/// scenario's BER.
fn replay_decode(scenario: &Scenario, trace: &Trace) -> Cost {
    let mut shapes: HashMap<(u32, bool, u64), (usize, u32)> = HashMap::new();
    for ev in &trace.events {
        if let TraceKind::TxStart { kind, frame_seq, subframes, wire_bytes, .. } = ev.kind {
            shapes.insert(
                (ev.node.index() as u32, kind == FrameKind::Data, frame_seq),
                (subframes, wire_bytes),
            );
        }
    }
    let pool = FramePool::default();
    let mut frames: Vec<Arc<Frame>> = Vec::new();
    let mut decodes = 0u64;
    for ev in &trace.events {
        if let TraceKind::Decoded { kind, from, frame_seq, .. } = ev.kind {
            decodes += 1;
            if frames.len() < 4096 {
                let key = (from.index() as u32, kind == FrameKind::Data, frame_seq);
                let (subframes, bytes) = shapes.get(&key).copied().unwrap_or((1, 0));
                frames.push(Arc::new(frame_of_shape(&pool, kind, subframes, bytes)));
            }
        }
    }
    if frames.is_empty() {
        frames.push(Arc::new(frame_of_shape(&pool, FrameKind::Data, 1, 1000)));
    }
    let ber = BerModel::new(scenario.params.ber);
    let mut rng = StreamRng::derive(scenario.seed, "perfbench/decode");
    let ns = replay(|i| {
        black_box(decode_frame(&ber, &mut rng, &frames[i % frames.len()]));
    });
    Cost { ns, calls: decodes }
}

/// Host nanoseconds per schedule + pop pair on an `EventQueue` holding a
/// frontier of four events per station, the runner's pre-sized steady
/// state.
fn replay_queue(stations: usize) -> f64 {
    let frontier = 4 * stations as u64;
    let mut queue = EventQueue::with_capacity(frontier as usize);
    for i in 0..frontier {
        queue.schedule(SimTime::from_nanos(i * 97 % 10_000), i);
    }
    replay(|i| {
        let (_, e) = queue.pop().expect("the frontier never empties");
        queue.schedule_in(SimDuration::from_nanos((i as u64 * 7_919) % 10_000), black_box(e));
    })
}

/// Runs the scenario cut to [`SHARD_PROBE`] at one and at two shards,
/// checks the two results are bit-identical (the engine's k-invariance
/// contract) and returns the two loop times.
fn shard_probe(scenario: &Scenario, rec: &mut Recorder) -> Result<(f64, f64), String> {
    let mut loops = [0.0; 2];
    let mut results = Vec::new();
    for (i, k) in [1u32, 2].into_iter().enumerate() {
        let probe = Scenario { duration: SHARD_PROBE, shards: Some(k), ..scenario.clone() };
        let empty = zero_duration(&probe);
        let (_, build) = rec.span(&format!("netsim.build_{k}_shards"), |_| run_caught(&empty));
        let (result, run) = rec.span(&format!("netsim.run_{k}_shards"), |_| run_caught(&probe));
        loops[i] = (run - build).max(1e-9);
        results.push(result?);
    }
    check_same("2 shards vs 1 shard", &results[0], &results[1])?;
    Ok((loops[0], loops[1]))
}

/// Measures one job. Fails with the first check it breaks.
fn measure_job(
    workload: WorkloadId,
    job: &Job,
    budget: Duration,
    rec: &mut Recorder,
) -> Result<JobLayers, String> {
    let (scenario, materialise_s) =
        timed(rec, "scengen.materialise", SETUP_REPS, || job.materialise());
    let ((), medium_build_s) = timed(rec, "phy.medium_build", SETUP_REPS, || {
        black_box(Medium::new(scenario.params.clone(), scenario.positions.clone()));
    });
    let empty = zero_duration(&scenario);
    let (_, build_s) = timed(rec, "netsim.build", SETUP_REPS, || run_caught(&empty));

    let mut run = Vec::new();
    let mut first: Option<RunResult> = None;
    let start = Instant::now();
    while run.len() < MIN_ROUNDS || start.elapsed() < budget {
        let (result, s) = rec.span("netsim.run", |_| run_caught(&scenario));
        run.push(s);
        let result = result?;
        match &first {
            Some(first) => check_same("repeat run", first, &result)?,
            None => {
                check_run(workload, &result)?;
                first = Some(result);
            }
        }
    }
    let loop_s = (median(&run) - build_s).max(1e-9);
    let result = first.expect("at least one round");

    // The timeline: the scenario itself on the single-loop engine, or its
    // single-loop twin for a sharded scenario, whose untraced loop time is
    // then the base of the tracing overhead.
    let legacy = Scenario { shards: None, ..scenario.clone() };
    let ((timeline_result, trace), traced_s) =
        rec.span("netsim.run_traced", |_| run_traced(&legacy));
    let untraced_timeline_loop_s = if scenario.shards.is_none() {
        check_same("traced vs untraced", &result, &timeline_result)?;
        loop_s
    } else {
        let (untraced, s) = rec.span("netsim.run_single_loop", |_| run_caught(&legacy));
        check_same("single loop traced vs untraced", &timeline_result, &untraced?)?;
        (s - build_s).max(1e-9)
    };
    let shard_probe_loops_s = match scenario.shards {
        None => None,
        Some(_) => Some(shard_probe(&scenario, rec)?),
    };

    let frames = frames_on_air(&result);
    let transmitters = transmitters(&scenario);
    let (plan, _) = rec.span("replay.phy.plan", |_| {
        let medium = Medium::new(scenario.params.clone(), scenario.positions.clone());
        let mut rng = StreamRng::derive(scenario.seed, "perfbench/plan");
        let mut scratch = Vec::new();
        let ns = replay(|i| {
            let from = transmitters[i % transmitters.len()];
            medium.plan_transmission_into(from, &mut rng, &mut scratch);
            black_box(&scratch);
        });
        Cost { ns, calls: frames }
    });
    let (refresh, routing) = replay_motion(&scenario, rec);
    let (decode, _) = rec.span("replay.netsim.decode", |_| replay_decode(&scenario, &trace));
    let (queue_ns, _) = rec.span("replay.sim.queue", |_| replay_queue(scenario.positions.len()));
    let route_changes =
        trace.events.iter().filter(|e| matches!(e.kind, TraceKind::RouteChange { .. })).count();
    Ok(JobLayers {
        materialise_s,
        medium_build_s,
        build_s,
        loop_s,
        traced_loop_s: (traced_s - build_s).max(1e-9),
        untraced_timeline_loop_s,
        shard_probe_loops_s,
        plan,
        refresh,
        routing,
        decode,
        queue_ns,
        route_changes: route_changes as u64,
        result,
    })
}

/// Runs the traced pass and writes its spans to `spans_path`.
pub fn measure(workload: WorkloadId, seed: u64, budget: Duration, spans_path: &str) -> Outcome {
    let jobs = jobs(workload, seed);
    let per_job = budget / jobs.len() as u32;
    let mut rec = Recorder::new();
    let mut failures = Vec::new();
    let (measured, _) = rec.span(workload.name(), |rec| {
        jobs.iter()
            .map(|job| {
                let (measured, _) =
                    rec.span(&job.label, |rec| measure_job(workload, job, per_job, rec));
                measured.map_err(|e| failures.push(format!("{}: {e}", job.label))).ok()
            })
            .collect::<Vec<_>>()
    });
    let attempted = jobs.len() as u64;
    let mut lines: Vec<String> = jobs
        .iter()
        .zip(&measured)
        .filter_map(|(job, m)| {
            m.as_ref().map(|m| format!("digest {} {:016x}", job.label, digest(&m.result)))
        })
        .collect();
    let measured: Vec<JobLayers> = measured.into_iter().flatten().collect();
    let mut failed = attempted - measured.len() as u64;
    if failed == 0 {
        let results: Vec<RunResult> = measured.iter().map(|m| m.result.clone()).collect();
        if let Err(e) = check_batch(workload, &jobs, &results) {
            failures.push(e);
            failed = attempted;
        }
    }
    if let Err(e) = std::fs::write(spans_path, rec.to_json()) {
        failures.push(format!("writing {spans_path}: {e}"));
        failed = attempted;
    }
    lines.push(format!("spans written to {spans_path}"));
    lines.extend(failures.iter().map(|f| format!("FAILED {f}")));
    if measured.is_empty() {
        return Outcome { lines, attempted, failed, metrics: vec![] };
    }
    let metrics = per_layer_metrics(workload, &measured);
    for m in &metrics {
        lines.push(m.describe());
    }
    Outcome { lines, attempted, failed, metrics }
}

/// Aggregates the batch into the per-layer metrics.
fn per_layer_metrics(workload: WorkloadId, measured: &[JobLayers]) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&JobLayers) -> f64| measured.iter().map(f).sum::<f64>();
    let loop_s = sum(&|m| m.loop_s);
    let cost = |f: &dyn Fn(&JobLayers) -> Cost| {
        let calls = measured.iter().map(|m| f(m).calls).sum::<u64>();
        let busy_ns = measured.iter().map(|m| f(m).ns * f(m).calls as f64).sum::<f64>();
        let ns = measured.iter().map(|m| f(m).ns).sum::<f64>() / measured.len() as f64;
        (ns, calls, busy_ns / 1e9 / loop_s)
    };
    let (plan_ns, plans, plan_share) = cost(&|m| m.plan);
    let (refresh_ns, _, refresh_share) = cost(&|m| m.refresh);
    let (pass_ns, passes, routing_share) = cost(&|m| m.routing);
    let (decode_ns, decodes, decode_share) = cost(&|m| m.decode);
    let stats = || measured.iter().flat_map(|m| &m.result.mac_stats);
    let count = |f: &dyn Fn(&wmn_mac::MacStats) -> u64| stats().map(f).sum::<u64>() as f64;
    let tcp = || measured.iter().flat_map(|m| &m.result.flows).filter_map(|f| f.tcp);
    let voip: Vec<(f64, f64)> = measured
        .iter()
        .flat_map(|m| &m.result.flows)
        .filter_map(|f| f.voip.map(|v| (v.mos, v.loss_fraction)))
        .collect();
    let voip_mean =
        |f: &dyn Fn(&(f64, f64)) -> f64| voip.iter().map(f).sum::<f64>() / voip.len().max(1) as f64;
    let shard_ratio = if workload.is_legacy() {
        1.0
    } else {
        let probes = || measured.iter().filter_map(|m| m.shard_probe_loops_s);
        probes().map(|p| p.1).sum::<f64>() / probes().map(|p| p.0).sum::<f64>()
    };
    let data = count(&|s| s.data_frames_sent);
    vec![
        Metric::new("scengen.materialise_s", sum(&|m| m.materialise_s), "s"),
        Metric::new("phy.medium_build_s", sum(&|m| m.medium_build_s), "s"),
        Metric::new("netsim.build_s", sum(&|m| m.build_s), "s"),
        Metric::new("phy.plan_ns", plan_ns, "ns"),
        Metric::new("phy.plans", plans as f64, "count"),
        Metric::new("phy.plan_share", plan_share, "fraction"),
        Metric::new("phy.refresh_ns", refresh_ns, "ns"),
        Metric::new("phy.refresh_share", refresh_share, "fraction"),
        Metric::new("routing.pass_ns", pass_ns, "ns"),
        Metric::new("routing.passes", passes as f64, "count"),
        Metric::new("routing.share", routing_share, "fraction"),
        Metric::new(
            "routing.route_changes",
            measured.iter().map(|m| m.route_changes).sum::<u64>() as f64,
            "count",
        ),
        Metric::new("netsim.decode_ns", decode_ns, "ns"),
        Metric::new("netsim.decodes", decodes as f64, "count"),
        Metric::new("netsim.decode_share", decode_share, "fraction"),
        Metric::new("netsim.shard_ratio", shard_ratio, "ratio"),
        Metric::new("sim.queue_ns", sum(&|m| m.queue_ns) / measured.len() as f64, "ns"),
        Metric::new(
            "netsim.unattributed_share",
            1.0 - plan_share - refresh_share - routing_share - decode_share,
            "fraction",
        ),
        Metric::new("mac.data_frames", data, "count"),
        Metric::new("mac.ack_frames", count(&|s| s.ack_frames_sent), "count"),
        Metric::new("mac.ack_ratio", count(&|s| s.acks_received) / data.max(1.0), "ratio"),
        Metric::new("mac.timeouts", count(&|s| s.timeouts), "count"),
        Metric::new("mac.queue_drops", count(&|s| s.drops_queue_full), "count"),
        Metric::new("mac.retry_drops", count(&|s| s.drops_retry_limit), "count"),
        Metric::new(
            "transport.tcp_retransmits",
            tcp().map(|t| t.retransmits).sum::<u64>() as f64,
            "count",
        ),
        Metric::new(
            "transport.tcp_timeouts",
            tcp().map(|t| t.timeouts).sum::<u64>() as f64,
            "count",
        ),
        Metric::new(
            "flow.goodput_mbps",
            sum(&|m| m.result.total_throughput_mbps) / measured.len() as f64,
            "Mbps",
        ),
        Metric::new("flow.voip_mos_mean", voip_mean(&|v| v.0), "MoS"),
        Metric::new("flow.voip_loss_mean", voip_mean(&|v| v.1), "fraction"),
        Metric::new(
            "netsim.trace_overhead",
            sum(&|m| m.traced_loop_s) / sum(&|m| m.untraced_timeline_loop_s),
            "ratio",
        ),
    ]
}
