//! `bench_suite` — the repo's measured performance trajectory.
//!
//! Times the transmission planner (cached link-state matrix vs the
//! pre-refactor naive computation, on a dense and a sparse grid), the
//! mobility link-state refresh (incremental one-node update vs a full
//! matrix rebuild — the incremental path must win, and the suite asserts
//! it), a full live route-refresh pass (`LinkGraph` snapshot + per-flow
//! min-ETX Dijkstra — the budget behind the `route_refresh` knob), event
//! queue churn under the simulator's interleaved access
//! pattern, a fig-6(b)-class end-to-end run in both its static and
//! moving-relay variants, and the 1024-station campus preset on the
//! sharded conservative engine at 1 vs 4 shards (result bit-equality
//! asserted, ratio tracked), then writes the numbers as
//! `BENCH_<name>.json` in the current directory — the same hand-rolled
//! JSON style as the `target/repro` reports, so trajectories can be
//! tracked across commits with `jq`.
//!
//! ```text
//! bench_suite [--quick] [--name suite] [--out PATH]      # measure and write
//! bench_suite --validate PATH [--expect-keys REF] [--alloc-budget REF]
//! ```
//!
//! The binary installs [`wmn_alloc::CountingAlloc`], so the zero-copy
//! frame benches also report allocator pressure: `clean_decode_16sub`
//! asserts zero allocations per clean decode outright, and the fig-6-class
//! runs report `allocs_per_frame`/`peak_bytes`, gated in CI against the
//! committed `ci/alloc_budget.json` via `--alloc-budget` (the allocation
//! analogue of `--expect-keys`).
//!
//! `--quick` is the CI smoke profile: same workloads, fewer repetitions.
//! Absolute numbers vary with the host; the cached-vs-naive *ratio* is the
//! tracked signal. CI runs `--quick` and then `--validate` so a malformed
//! report fails the job; `--expect-keys` additionally pins the *key set*
//! (bench names + speedup keys) to the committed `BENCH_suite.json`, so
//! silently dropping or renaming a bench fails the smoke job while timing
//! thresholds stay deliberately ungated — container speed varies.

use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use wmn_bench::{
    campus_scale_scenario, fig6_class_mobile_scenario, fig6_class_scenario, grid_positions,
    naive_plan_reference,
};
use wmn_exec::json::{parse, Value};
use wmn_mac::frame::{DataFrame, Frame, LinkDst, NetHeader, Packet, Proto, RouteInfo, Subframe};
use wmn_mac::{FramePool, IfQueue};
use wmn_netsim::run;
use wmn_netsim::stack::decode::decode_frame;
use wmn_phy::{BerModel, Medium, PhyParams, Position};
use wmn_routing::LinkGraph;
use wmn_sim::{EventQueue, FlowId, NodeId, SimDuration, SimTime, StreamRng};

/// The whole suite runs under the counting allocator, so any bench can
/// report allocator activity alongside its timing. Counting is a few
/// relaxed atomics per call — noise next to the syscalls and cache misses
/// the timings absorb anyway, and identical for every bench.
#[global_allocator]
static ALLOC: wmn_alloc::CountingAlloc = wmn_alloc::CountingAlloc;

struct Profile {
    label: &'static str,
    /// Planner calls on the dense 6×6 grid.
    dense_reps: u64,
    /// Planner calls on the sparse 16×16 grid.
    sparse_reps: u64,
    /// Node moves for the link-state refresh pair (incremental vs full
    /// rebuild) on the 16×16 grid.
    refresh_reps: u64,
    /// Full route-refresh passes (live `LinkGraph` snapshot + per-flow
    /// min-ETX Dijkstra) on the 16×16 grid.
    route_refresh_reps: u64,
    /// Event-queue schedule/pop operations.
    queue_ops: u64,
    /// Saturated interface-queue batch/refill cycles.
    ifq_ops: u64,
    /// Clean-channel decode calls on one pooled 16-subframe frame.
    decode_reps: u64,
    /// Simulated duration of the end-to-end runs (static and mobile).
    e2e_duration: SimDuration,
    /// Simulated duration of the 1024-station sharded-engine probe.
    campus_duration: SimDuration,
}

const QUICK: Profile = Profile {
    label: "quick",
    dense_reps: 20_000,
    sparse_reps: 2_000,
    refresh_reps: 200,
    route_refresh_reps: 50,
    queue_ops: 200_000,
    ifq_ops: 20_000,
    decode_reps: 100_000,
    e2e_duration: SimDuration::from_millis(300),
    campus_duration: SimDuration::from_millis(5),
};

const FULL: Profile = Profile {
    label: "full",
    dense_reps: 200_000,
    sparse_reps: 20_000,
    refresh_reps: 2_000,
    route_refresh_reps: 500,
    queue_ops: 2_000_000,
    ifq_ops: 200_000,
    decode_reps: 1_000_000,
    e2e_duration: SimDuration::from_millis(2_000),
    campus_duration: SimDuration::from_millis(40),
};

/// One measured benchmark, as it appears in the report's `benches` array.
struct Bench {
    name: String,
    reps: u64,
    ns_per_op: f64,
    /// Extra observed quantities (plan counts, delivered bytes, …) that make
    /// the number auditable.
    extras: Vec<(&'static str, Value)>,
}

impl Bench {
    fn to_value(&self) -> Value {
        let mut v = Value::obj()
            .with("name", self.name.as_str())
            .with("reps", self.reps)
            .with("ns_per_op", self.ns_per_op);
        for (k, extra) in &self.extras {
            v = v.with(k, extra.clone());
        }
        v
    }
}

/// Times `reps` planner calls, rotating the transmitter across the grid.
/// Returns (ns/op, total planned receptions) — the latter doubles as the
/// cross-check that both planner implementations did identical work.
fn time_planner(medium: &Medium, reps: u64, cached: bool) -> (f64, u64) {
    let n = medium.node_count() as u64;
    let mut rng = StreamRng::derive(99, "bench/planner");
    let mut scratch = Vec::new();
    let mut plans_total = 0u64;
    let start = Instant::now();
    for i in 0..reps {
        let from = NodeId::new((i % n) as u32);
        if cached {
            medium.plan_transmission_into(from, &mut rng, &mut scratch);
            plans_total += scratch.len() as u64;
            black_box(&scratch);
        } else {
            let plans = naive_plan_reference(medium, from, &mut rng);
            plans_total += plans.len() as u64;
            black_box(&plans);
        }
    }
    (start.elapsed().as_nanos() as f64 / reps as f64, plans_total)
}

/// Planner pair (cached + naive) on one grid, with the work cross-check.
fn planner_pair(side: usize, spacing: f64, reps: u64, benches: &mut Vec<Bench>) -> f64 {
    let medium = Medium::new(PhyParams::paper_216(), grid_positions(side, spacing));
    let nodes = side * side;
    let (cached_ns, cached_plans) = time_planner(&medium, reps, true);
    let (naive_ns, naive_plans) = time_planner(&medium, reps, false);
    assert_eq!(
        cached_plans, naive_plans,
        "cached and naive planners disagree on grid {side}x{side} — benchmark invalid"
    );
    for (kind, ns, plans) in [("cached", cached_ns, cached_plans), ("naive", naive_ns, naive_plans)]
    {
        benches.push(Bench {
            name: format!("plan_transmission_{kind}_grid{nodes}"),
            reps,
            ns_per_op: ns,
            extras: vec![("plans_total", Value::Uint(plans))],
        });
    }
    naive_ns / cached_ns
}

/// One node pacing across the campus-scale grid, applied either through
/// `Medium::update_node_position` (the mobile runner's O(n) refresh of the
/// node's pairs) or by rebuilding the whole n² matrix — the cost a mobility tick
/// would pay without the incremental path. Both sides visit the identical
/// position sequence; the refreshed matrix is pinned bit-identical to the
/// rebuilt one by `wmn_phy`'s test suite.
fn time_link_refresh(side: usize, spacing: f64, reps: u64, incremental: bool) -> f64 {
    let params = PhyParams::paper_216();
    let positions = grid_positions(side, spacing);
    let mover = NodeId::new(0);
    let mut medium = Medium::new(params.clone(), positions.clone());
    let start = Instant::now();
    for i in 0..reps {
        // A deterministic diagonal walk, wrapping inside the deployment.
        let step = (i % 128) as f64;
        let pos = Position::new(step * 3.0, step * 1.5);
        if incremental {
            medium.update_node_position(mover, pos);
            black_box(&medium);
        } else {
            let mut moved = positions.clone();
            moved[mover.index()] = pos;
            let rebuilt = Medium::new(params.clone(), moved);
            black_box(&rebuilt);
        }
    }
    start.elapsed().as_nanos() as f64 / reps as f64
}

/// One full live route-refresh pass, as the runner's `RouteRefresh` event
/// pays it: snapshot the medium's current link state into a [`LinkGraph`]
/// and rerun min-ETX Dijkstra for every flow endpoint pair. The mover keeps
/// the link state changing between passes so the snapshot is never a cached
/// no-op. Returns (ns/pass, paths found) — the latter pins the workload as
/// "every flow actually routed".
fn time_route_refresh(side: usize, spacing: f64, reps: u64, flows: usize) -> (f64, u64) {
    let mut medium = Medium::new(PhyParams::paper_216(), grid_positions(side, spacing));
    let n = side * side;
    // Corner-to-corner and edge-to-edge endpoint pairs, one per flow.
    let endpoints: Vec<(NodeId, NodeId)> = (0..flows)
        .map(|f| (NodeId::new((f * side) as u32), NodeId::new((n - 1 - f) as u32)))
        .collect();
    let mover = NodeId::new((n / 2) as u32);
    let mut paths_found = 0u64;
    let start = Instant::now();
    for i in 0..reps {
        // A diagonal walk that stays inside the deployment footprint.
        let step = (i % 128) as f64;
        medium.update_node_position(mover, Position::new(step * 0.5, step * 0.25));
        let graph = LinkGraph::try_from_medium(&medium).expect("grid link state is finite");
        for &(src, dst) in &endpoints {
            if let Some(path) = graph.shortest_path(src, dst) {
                paths_found += 1;
                black_box(&path);
            }
        }
    }
    (start.elapsed().as_nanos() as f64 / reps as f64, paths_found)
}

/// The zero-copy decode fast path under the counting allocator: one pooled
/// 16-subframe broadcast frame, decoded `reps` times over a clean channel
/// (BER 0 ⇒ every survival draw passes, so every decode takes the shared
/// fast path). Returns (ns/op, allocator stats of the measured region);
/// the caller asserts the headline claim — **zero** allocations per clean
/// decode — so a regression fails the suite rather than drifting a number.
fn time_clean_decode(reps: u64) -> (f64, wmn_alloc::AllocStats) {
    let pool = FramePool::default();
    let header = NetHeader {
        flow: FlowId::new(0),
        src: NodeId::new(0),
        dst: NodeId::new(3),
        proto: Proto::Tcp,
        wire_bytes: 1000,
    };
    let mut subframes = pool.mint_subframes();
    for seq in 0..16 {
        subframes.push(Subframe {
            seq,
            packet: Packet::new(header, pool.mint_body(&[0u8; 18])),
            corrupted: false,
        });
    }
    let frame = Arc::new(Frame::Data(DataFrame {
        transmitter: NodeId::new(0),
        link_dst: LinkDst::Unicast(NodeId::new(1)),
        flow: FlowId::new(0),
        src: NodeId::new(0),
        dst: NodeId::new(3),
        frame_seq: 0,
        subframes,
        retry: 0,
    }));
    let ber = BerModel::new(0.0);
    let mut rng = StreamRng::derive(7, "bench/decode");
    let start = Instant::now();
    let (decoded, stats) = wmn_alloc::measure(|| {
        let mut decoded = 0u64;
        for _ in 0..reps {
            if let Some(rx) = decode_frame(&ber, &mut rng, &frame) {
                decoded += 1;
                black_box(&rx);
            }
        }
        decoded
    });
    let ns = start.elapsed().as_nanos() as f64 / reps as f64;
    assert_eq!(decoded, reps, "BER 0 must decode every frame");
    (ns, stats)
}

/// The saturated interface-queue cycle the aggregation path drives: a full
/// `Sq` where every "transmission" pulls a route-matched batch into a
/// pooled slot and the packets are re-enqueued (the refill a saturated
/// sender performs). After one warm-up cycle the deque, the batch slot and
/// the packet bodies are all at steady-state capacity, so the measured
/// region must be allocation-free — the pooled-slot claim, asserted.
fn time_saturated_queue(ops: u64) -> (f64, wmn_alloc::AllocStats) {
    let header = NetHeader {
        flow: FlowId::new(0),
        src: NodeId::new(0),
        dst: NodeId::new(9),
        proto: Proto::Udp,
        wire_bytes: 1000,
    };
    let route = RouteInfo::NextHop(NodeId::new(1));
    let mut q = IfQueue::new(50);
    for _ in 0..50 {
        assert!(q.push(Packet::new(header, vec![]), route.clone()).is_none());
    }
    let cycle = |q: &mut IfQueue| {
        let mut batch = q.pop_batch_matching_head(16, u32::MAX);
        for qp in batch.drain(..) {
            assert!(q.push(qp.packet, qp.route).is_none(), "refill must fit");
        }
    };
    // Warm-up: let the batch slot grow to its 16-packet capacity.
    for _ in 0..4 {
        cycle(&mut q);
    }
    let start = Instant::now();
    let ((), stats) = wmn_alloc::measure(|| {
        for _ in 0..ops {
            cycle(&mut q);
        }
    });
    let ns = start.elapsed().as_nanos() as f64 / ops as f64;
    assert_eq!(q.len(), 50, "every batch is fully re-enqueued");
    (ns, stats)
}

/// Event-queue churn under the simulator's steady-state pattern: a bounded
/// frontier where every pop schedules a successor at or near "now".
fn time_event_queue(ops: u64) -> f64 {
    let mut q = EventQueue::with_capacity(64);
    for i in 0..64u64 {
        q.schedule(SimTime::from_nanos(i / 4), i);
    }
    let mut sum = 0u64;
    let start = Instant::now();
    for i in 64..ops {
        let (_, e) = q.pop().expect("frontier never empties");
        sum = sum.wrapping_add(e);
        q.schedule_in(SimDuration::from_nanos(i % 3), i);
    }
    while let Some((_, e)) = q.pop() {
        sum = sum.wrapping_add(e);
    }
    black_box(sum);
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// The recycled-node claim on the future-event list: the same interleaved
/// frontier as [`time_event_queue`], but measured under the counting
/// allocator with the heap pre-sized to the frontier. Pops hand their
/// storage straight back to the pushes, so the steady state must be
/// allocation-free.
fn time_event_churn_recycled(ops: u64) -> (f64, wmn_alloc::AllocStats) {
    let mut q = EventQueue::with_capacity(64);
    for i in 0..64u64 {
        q.schedule(SimTime::from_nanos(i / 4), i);
    }
    let mut sum = 0u64;
    let start = Instant::now();
    let ((), stats) = wmn_alloc::measure(|| {
        for i in 64..ops {
            let (_, e) = q.pop().expect("frontier never empties");
            sum = sum.wrapping_add(e);
            q.schedule_in(SimDuration::from_nanos(i % 3), i);
        }
    });
    let ns = start.elapsed().as_nanos() as f64 / ops as f64;
    black_box(sum);
    (ns, stats)
}

fn run_suite(profile: &Profile) -> Value {
    let mut benches = Vec::new();

    // 1. Planner, dense grid: every pair is draw-dependent, so the win is
    //    the precomputed geometry/path loss and the scratch buffer.
    let dense_speedup = planner_pair(6, 5.0, profile.dense_reps, &mut benches);
    // 2. Planner, campus-scale grid: pairs beyond ~417 m are never-sensed,
    //    so the cached planner additionally skips the Box–Muller
    //    transcendentals for them.
    let sparse_speedup = planner_pair(16, 40.0, profile.sparse_reps, &mut benches);

    // 3. Link-state refresh for one moved node: the mobile runner's
    //    incremental per-node path vs a full matrix rebuild. This is the
    //    perf claim behind per-tick mobility on large placements, so the
    //    suite *asserts* the incremental path wins (O(n) vs O(n²) — a
    //    regression here means the fast path broke, not a noisy host).
    let incremental_ns = time_link_refresh(16, 40.0, profile.refresh_reps, true);
    let full_ns = time_link_refresh(16, 40.0, profile.refresh_reps, false);
    let refresh_speedup = full_ns / incremental_ns;
    assert!(
        refresh_speedup > 1.0,
        "incremental link refresh ({incremental_ns:.0} ns) must beat a full rebuild \
         ({full_ns:.0} ns)"
    );
    for (kind, ns) in [("incremental", incremental_ns), ("full", full_ns)] {
        benches.push(Bench {
            name: format!("link_refresh_{kind}_grid256"),
            reps: profile.refresh_reps,
            ns_per_op: ns,
            extras: vec![],
        });
    }

    // 4. Live route refresh: the cost a `RouteRefresh` event pays on a
    //    256-node grid — one LinkGraph snapshot of the live medium plus a
    //    min-ETX Dijkstra per flow. 5 m spacing keeps every neighbour link
    //    above the ETX usability floor so all flows really route (the 40 m
    //    campus grid is link-dead at this PHY: p(40 m) ≈ 6e-5 < 0.05). This
    //    is the budget behind choosing `route_refresh_ms`: the interval
    //    should dwarf this number.
    let (route_refresh_ns, paths_found) =
        time_route_refresh(16, 5.0, profile.route_refresh_reps, 4);
    assert_eq!(
        paths_found,
        profile.route_refresh_reps * 4,
        "route-refresh bench: every flow must route on every pass"
    );
    benches.push(Bench {
        name: "route_refresh_pass_grid256_flows4".into(),
        reps: profile.route_refresh_reps,
        ns_per_op: route_refresh_ns,
        extras: vec![("paths_found", Value::Uint(paths_found))],
    });

    // 5. Event-queue churn.
    benches.push(Bench {
        name: "event_queue_interleaved".into(),
        reps: profile.queue_ops,
        ns_per_op: time_event_queue(profile.queue_ops),
        extras: vec![],
    });

    // 5a. The two steady-state zero-allocation claims, asserted outright:
    //     a saturated interface queue cycling pooled batch slots, and the
    //     recycled future-event list. Like `clean_decode_16sub`, a single
    //     allocation per op here is a regression, not noise.
    let (ifq_ns, ifq_alloc) = time_saturated_queue(profile.ifq_ops);
    assert_eq!(
        ifq_alloc.allocs, 0,
        "saturated queue cycle must be allocation-free ({} allocs over {} cycles)",
        ifq_alloc.allocs, profile.ifq_ops
    );
    benches.push(Bench {
        name: "saturated_queue_enqueue".into(),
        reps: profile.ifq_ops,
        ns_per_op: ifq_ns,
        extras: vec![(
            "allocs_per_op",
            Value::from(ifq_alloc.allocs as f64 / profile.ifq_ops as f64),
        )],
    });
    let (churn_ns, churn_alloc) = time_event_churn_recycled(profile.queue_ops);
    assert_eq!(
        churn_alloc.allocs, 0,
        "recycled event churn must be allocation-free ({} allocs over {} ops)",
        churn_alloc.allocs, profile.queue_ops
    );
    benches.push(Bench {
        name: "event_churn_recycled".into(),
        reps: profile.queue_ops,
        ns_per_op: churn_ns,
        extras: vec![(
            "allocs_per_op",
            Value::from(churn_alloc.allocs as f64 / profile.queue_ops as f64),
        )],
    });

    // 5b. The zero-copy decode fast path. Clean decodes are an `Arc`
    //     refcount bump, so the suite *asserts* zero allocations per op —
    //     the allocation-budget gate then pins the same number in CI.
    let (decode_ns, decode_alloc) = time_clean_decode(profile.decode_reps);
    assert_eq!(
        decode_alloc.allocs, 0,
        "clean decode must be allocation-free ({} allocs over {} decodes)",
        decode_alloc.allocs, profile.decode_reps
    );
    benches.push(Bench {
        name: "clean_decode_16sub".into(),
        reps: profile.decode_reps,
        ns_per_op: decode_ns,
        extras: vec![
            ("allocs_per_op", Value::from(decode_alloc.allocs as f64 / profile.decode_reps as f64)),
            ("bytes_allocated", Value::Uint(decode_alloc.bytes_allocated)),
        ],
    });

    // 6. End-to-end fig-6(b)-class runs (RIPPLE-16 + 5 hidden CBR senders):
    //    the static original and the mobile variant whose relays pace
    //    laterally on a 10 ms tick, exercising the incremental refresh
    //    inside the heaviest fan-out workload.
    for (name, scenario) in [
        ("fig6_class_end_to_end", fig6_class_scenario(5, profile.e2e_duration)),
        ("fig6_class_mobile_end_to_end", fig6_class_mobile_scenario(5, profile.e2e_duration)),
    ] {
        let phases_before = wmn_alloc::phase_totals();
        let start = Instant::now();
        let (result, alloc) = wmn_alloc::measure(|| run(&scenario));
        let wall = start.elapsed();
        let phases_after = wmn_alloc::phase_totals();
        assert!(result.flows[0].delivered_bytes > 0, "{name}: run made no progress");
        // Allocation pressure per frame on the air (data + ACK): the
        // pooled-buffer path's tracked signal, gated by the committed
        // `ci/alloc_budget.json` in the smoke job.
        let frames: u64 =
            result.mac_stats.iter().map(|s| s.data_frames_sent + s.ack_frames_sent).sum();
        assert!(frames > 0, "{name}: no frames transmitted");
        // Phase attribution of the run's allocations: the runner's scoped
        // guards charge hot-loop traffic to tx-path / queue / event-loop,
        // leaving scenario build and result collection unattributed. The
        // itemisation names the next ratchet target instead of reporting
        // one opaque total.
        let mut extras = vec![
            ("sim_millis", Value::Uint(profile.e2e_duration.as_nanos() / 1_000_000)),
            ("delivered_bytes", Value::Uint(result.flows[0].delivered_bytes)),
            ("frames_sent", Value::Uint(frames)),
            ("allocs_per_frame", Value::from(alloc.allocs as f64 / frames as f64)),
            ("peak_bytes", Value::Uint(alloc.peak_bytes_in_use)),
        ];
        let mut attributed = 0u64;
        for (phase, key) in [
            (wmn_alloc::Phase::TxPath, "allocs_tx_path"),
            (wmn_alloc::Phase::Queue, "allocs_queue"),
            (wmn_alloc::Phase::EventLoop, "allocs_event_loop"),
        ] {
            let delta = phases_after[phase as usize].allocs - phases_before[phase as usize].allocs;
            attributed += delta;
            extras.push((key, Value::Uint(delta)));
        }
        extras.push((
            "alloc_attribution",
            Value::from(if alloc.allocs > 0 {
                attributed as f64 / alloc.allocs as f64
            } else {
                1.0
            }),
        ));
        benches.push(Bench {
            name: name.into(),
            reps: 1,
            ns_per_op: wall.as_nanos() as f64,
            extras,
        });
    }

    // 7. The sharded conservative engine on the campus-1k preset: the same
    //    1024-station run at 1 and 4 shards. Bit-equality of the two results
    //    is *asserted* (the engine's k-invariance contract), so the ratio
    //    really compares two computations of the same answer. The ratio is
    //    tracked, not gated: conservative lookahead on this PHY is the radio
    //    propagation delay (tens of ns), so on few-core or oversubscribed
    //    hosts a ratio *below 1* (4 shards slower than 1 — window/merge
    //    overhead with no cores to hide it) is the expected reading, not a
    //    regression — the number exists to show the trajectory as windows
    //    widen, not to claim a speed-up.
    let mut campus_results = Vec::new();
    let mut campus_ns = Vec::new();
    for shards in [1u32, 4] {
        let scenario = campus_scale_scenario(profile.campus_duration, shards);
        let start = Instant::now();
        let result = run(&scenario);
        let wall = start.elapsed();
        let delivered: u64 = result.flows.iter().map(|f| f.delivered_bytes).sum();
        benches.push(Bench {
            name: format!("campus1024_shard{shards}_end_to_end"),
            reps: 1,
            ns_per_op: wall.as_nanos() as f64,
            extras: vec![
                ("sim_millis", Value::Uint(profile.campus_duration.as_nanos() / 1_000_000)),
                ("delivered_bytes", Value::Uint(delivered)),
            ],
        });
        campus_results.push(result);
        campus_ns.push(wall.as_nanos() as f64);
    }
    assert_eq!(
        campus_results[0], campus_results[1],
        "campus-1k: 4 shards must be bit-identical to 1 shard — benchmark invalid"
    );
    let campus_speedup = campus_ns[0] / campus_ns[1];

    Value::obj()
        .with("artefact", "bench_suite")
        .with("profile", profile.label)
        .with("benches", Value::Arr(benches.iter().map(Bench::to_value).collect()))
        .with(
            "speedup",
            Value::obj()
                .with("plan_transmission_grid36", dense_speedup)
                .with("plan_transmission_grid256", sparse_speedup)
                .with("link_refresh_grid256", refresh_speedup)
                .with("campus1024_shard4_vs_shard1", campus_speedup),
        )
}

/// The stable identity of a report: sorted bench names plus (prefixed)
/// speedup keys. This is what `--expect-keys` compares — a bench renamed,
/// dropped, or added without refreshing the committed reference is drift
/// the smoke job should catch, while timings stay ungated.
fn key_set(doc: &Value) -> Vec<String> {
    let mut keys: Vec<String> = doc
        .get("benches")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|b| b.get("name").and_then(Value::as_str))
        .map(str::to_string)
        .collect();
    if let Some(Value::Obj(pairs)) = doc.get("speedup") {
        keys.extend(pairs.iter().map(|(k, _)| format!("speedup/{k}")));
    }
    keys.sort();
    keys
}

/// Compares the key sets of a measured report and the committed reference,
/// returning a human-readable diff on mismatch.
fn check_expected_keys(measured: &Value, reference: &Value) -> Result<(), String> {
    let got = key_set(measured);
    let want = key_set(reference);
    if got == want {
        return Ok(());
    }
    let missing: Vec<&String> = want.iter().filter(|k| !got.contains(k)).collect();
    let extra: Vec<&String> = got.iter().filter(|k| !want.contains(k)).collect();
    Err(format!(
        "bench key set drifted from the committed reference \
         (missing: {missing:?}, unexpected: {extra:?}) — if the suite \
         changed on purpose, regenerate the committed report"
    ))
}

/// Enforces the committed allocation budget against a measured report: for
/// every budget entry the named bench must exist, expose the metric, and
/// measure at or below `max`. The analogue of `--expect-keys` for
/// allocation pressure — a frame path that starts allocating again fails
/// the smoke job, while improvements pass silently (ratcheting the budget
/// down means regenerating `ci/alloc_budget.json`).
fn check_alloc_budget(measured: &Value, budget: &Value) -> Result<(), String> {
    if budget.get("artefact").and_then(Value::as_str) != Some("alloc_budget") {
        return Err("budget artefact must be \"alloc_budget\"".into());
    }
    let entries = budget
        .get("budgets")
        .and_then(Value::as_arr)
        .ok_or_else(|| "budgets must be an array".to_string())?;
    if entries.is_empty() {
        return Err("budgets must be non-empty".into());
    }
    let benches = measured.get("benches").and_then(Value::as_arr).unwrap_or(&[]);
    for entry in entries {
        let name = entry
            .get("bench")
            .and_then(Value::as_str)
            .ok_or_else(|| "every budget entry needs a bench name".to_string())?;
        let metric = entry
            .get("metric")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("budget for {name:?}: metric must be a string"))?;
        let max = entry
            .get("max")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("budget for {name:?}: max must be numeric"))?;
        let bench = benches
            .iter()
            .find(|b| b.get("name").and_then(Value::as_str) == Some(name))
            .ok_or_else(|| format!("alloc budget names bench {name:?}, absent from the report"))?;
        let got = bench
            .get(metric)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("bench {name:?} does not report {metric:?}"))?;
        if !got.is_finite() || got > max {
            return Err(format!(
                "bench {name:?}: {metric} = {got} exceeds the committed budget {max} — \
                 a frame-path allocation regression (or regenerate ci/alloc_budget.json \
                 if the change is intentional)"
            ));
        }
    }
    Ok(())
}

/// Schema check for a written report. This is the CI gate against malformed
/// output; it deliberately does not gate on timing values beyond "positive
/// and finite" (container speed varies).
fn validate(doc: &Value) -> Result<(), String> {
    if doc.get("artefact").and_then(Value::as_str) != Some("bench_suite") {
        return Err("artefact must be \"bench_suite\"".into());
    }
    match doc.get("profile").and_then(Value::as_str) {
        Some("quick" | "full") => {}
        other => return Err(format!("profile must be \"quick\" or \"full\", got {other:?}")),
    }
    let benches = doc
        .get("benches")
        .and_then(Value::as_arr)
        .ok_or_else(|| "benches must be an array".to_string())?;
    if benches.is_empty() {
        return Err("benches must be non-empty".into());
    }
    for bench in benches {
        let name = bench
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| "every bench needs a string name".to_string())?;
        if bench.get("reps").and_then(Value::as_u64).unwrap_or(0) == 0 {
            return Err(format!("bench {name:?}: reps must be a positive integer"));
        }
        let ns = bench
            .get("ns_per_op")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("bench {name:?}: ns_per_op must be numeric"))?;
        if !ns.is_finite() || ns <= 0.0 {
            return Err(format!("bench {name:?}: ns_per_op must be finite and positive"));
        }
    }
    let speedup = doc.get("speedup").ok_or_else(|| "speedup object missing".to_string())?;
    let Value::Obj(pairs) = speedup else { return Err("speedup must be an object".into()) };
    if pairs.is_empty() {
        return Err("speedup must be non-empty".into());
    }
    for (key, v) in pairs {
        let x = v.as_f64().ok_or_else(|| format!("speedup {key:?} must be numeric"))?;
        if !x.is_finite() || x <= 0.0 {
            return Err(format!("speedup {key:?} must be finite and positive, got {x}"));
        }
    }
    Ok(())
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_suite [--quick] [--name NAME] [--out PATH]\n\
         \x20      bench_suite --validate PATH [--expect-keys REF] [--alloc-budget REF]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut name = String::from("suite");
    let mut out: Option<String> = None;
    let mut validate_path: Option<String> = None;
    let mut expect_keys: Option<String> = None;
    let mut alloc_budget: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--name" => name = args.next().unwrap_or_else(|| usage()),
            "--out" => out = Some(args.next().unwrap_or_else(|| usage())),
            "--validate" => validate_path = Some(args.next().unwrap_or_else(|| usage())),
            "--expect-keys" => expect_keys = Some(args.next().unwrap_or_else(|| usage())),
            "--alloc-budget" => alloc_budget = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    if (expect_keys.is_some() || alloc_budget.is_some()) && validate_path.is_none() {
        usage();
    }

    if let Some(path) = validate_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("bench_suite: cannot read {path}: {err}");
                return ExitCode::FAILURE;
            }
        };
        let verdict = parse(&text).and_then(|doc| {
            validate(&doc)?;
            if let Some(ref_path) = &expect_keys {
                let ref_text = std::fs::read_to_string(ref_path)
                    .map_err(|err| format!("cannot read key reference {ref_path}: {err}"))?;
                check_expected_keys(&doc, &parse(&ref_text)?)?;
            }
            if let Some(budget_path) = &alloc_budget {
                let budget_text = std::fs::read_to_string(budget_path)
                    .map_err(|err| format!("cannot read alloc budget {budget_path}: {err}"))?;
                check_alloc_budget(&doc, &parse(&budget_text)?)?;
            }
            Ok(())
        });
        return match verdict {
            Ok(()) => {
                println!("bench_suite: {path} is well-formed");
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("bench_suite: {path} is malformed: {msg}");
                ExitCode::FAILURE
            }
        };
    }

    let profile = if quick { &QUICK } else { &FULL };
    let doc = run_suite(profile);
    validate(&doc).expect("freshly measured report must be well-formed");

    let path = out.unwrap_or_else(|| format!("BENCH_{name}.json"));
    // Checked emission: a non-finite timing (host clock misbehaving badly
    // enough to produce NaN/inf) must fail the run, not serialise as `null`.
    let text = match doc.to_json_string() {
        Ok(text) => text,
        Err(err) => {
            eprintln!("bench_suite: report is not serialisable: {err}");
            return ExitCode::FAILURE;
        }
    };
    std::fs::write(&path, format!("{text}\n")).expect("report path must be writable");

    // Human summary: the tracked ratios plus each raw number.
    if let Some(Value::Obj(pairs)) = doc.get("speedup") {
        for (key, v) in pairs {
            println!("{key}: {:.2}x speedup", v.as_f64().unwrap_or(f64::NAN));
        }
    }
    for bench in doc.get("benches").and_then(Value::as_arr).unwrap_or(&[]) {
        let name = bench.get("name").and_then(Value::as_str).unwrap_or("?");
        let ns = bench.get("ns_per_op").and_then(Value::as_f64).unwrap_or(f64::NAN);
        println!("{name}: {ns:.0} ns/op");
    }
    println!("wrote {path} ({} profile)", profile.label);
    ExitCode::SUCCESS
}
