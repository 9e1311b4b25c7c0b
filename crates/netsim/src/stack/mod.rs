//! The layered node stack and its thin orchestrating `Runner`.
//!
//! Where a single 950-line monolith used to own every piece of per-node and
//! per-flow state, the stack is now four layers with typed seams, mirroring
//! the protocol stack the paper describes:
//!
//! * [`phy_io`] — the shared medium, per-station receivers, the in-flight
//!   transmission fan-outs (two queued events per transmission, not two
//!   per receiver), bit errors, and station mobility;
//! * [`mac_engine`] — one [`wmn_mac::MacEntity`] per station, built through
//!   the [`wmn_mac::MacScheme`] factory trait (enum-dispatched by
//!   [`Scheme`](crate::Scheme), so the runner never names a concrete MAC);
//! * [`net_layer`] — per-flow forward/reverse routing tables;
//! * [`flow_layer`] — transport endpoints and workload generators per flow.
//!
//! The `Runner` owns the event queue and the clock and interprets each
//! layer's outputs against the others: MAC actions become transmissions,
//! timers and deliveries; transport actions become enqueues and RTO timers;
//! mobility ticks re-sample trajectories into the medium's incremental
//! link-state refresh. Layer state is only ever touched through the layer's
//! own interface, which is what makes per-layer change (a new MAC scheme, a
//! new mobility model, per-node parallelism some day) local.
//!
//! # Determinism
//!
//! The decomposition is behaviour-preserving by construction: every RNG
//! stream keeps its label and consumption order, every event is scheduled
//! in the same sequence, and a static [`MotionPlan`](wmn_topology::MotionPlan)
//! schedules no mobility ticks at all — so static-mobility runs are
//! byte-identical to the pre-stack runner (pinned by the golden snapshots,
//! the sweep determinism suite, and the committed CI baseline).

pub mod decode;
pub mod flow_layer;
pub mod mac_engine;
pub mod net_layer;
pub mod phy_io;
pub mod shard;

use wmn_mac::frame::{Frame, NetHeader, Packet, Proto, RouteInfo};
use wmn_mac::{ActionSink, FramePool, MacAction, RateClass, TimerToken};
use wmn_phy::medium::BusyTransition;
use wmn_phy::ArrivalOutcome;
use wmn_routing::LinkGraph;
use wmn_sim::{EventQueue, FlowId, NodeId, RngDirectory, SimDuration, SimTime};
use wmn_transport::{TcpAction, TcpSegment, UdpDatagram};

use crate::scenario::{Scenario, Workload};
use crate::trace::{FrameKind, Trace, TraceEvent, TraceKind};
use flow_layer::FlowLayer;
use mac_engine::MacEngine;
use net_layer::NetLayer;
use phy_io::{Cursor, PhyIo};

/// TCP-specific per-flow results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TcpFlowResult {
    /// Data segments that arrived at the receiver (incl. duplicates).
    pub segments_arrived: u64,
    /// Arrivals out of order (the paper's re-ordering count).
    pub reordered_arrivals: u64,
    /// Sender retransmissions.
    pub retransmits: u64,
    /// Sender RTO expirations.
    pub timeouts: u64,
}

impl TcpFlowResult {
    /// Fraction of arrivals that were out of order.
    pub fn reorder_fraction(&self) -> f64 {
        if self.segments_arrived == 0 {
            return 0.0;
        }
        self.reordered_arrivals as f64 / self.segments_arrived as f64
    }
}

/// VoIP-specific per-flow results. `PartialEq` compares the `f64` fields
/// exactly — that is the point: the executor's determinism tests assert
/// bit-identical results across worker counts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VoipFlowResult {
    /// Datagrams handed to the MAC at the source.
    pub sent: u64,
    /// Distinct datagrams that arrived.
    pub received: u64,
    /// Combined loss: network losses plus late (> 52 ms) arrivals.
    pub loss_fraction: f64,
    /// Mean one-way delay of on-time datagrams.
    pub mean_delay: SimDuration,
    /// 95th-percentile one-way delay (all received datagrams). A p95 near
    /// the 52 ms budget signals imminent late-loss.
    pub p95_delay: SimDuration,
    /// Mean inter-arrival jitter of the delay series.
    pub jitter: SimDuration,
    /// Mean opinion score per the paper's R-factor model.
    pub mos: f64,
}

/// Results for one flow of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowResult {
    /// The flow id (index into the scenario's flow list).
    pub flow: FlowId,
    /// Application-level bytes delivered in order.
    pub delivered_bytes: u64,
    /// Delivered bytes over the scenario duration, Mbps.
    pub throughput_mbps: f64,
    /// TCP details, if the workload was TCP.
    pub tcp: Option<TcpFlowResult>,
    /// VoIP details, if the workload was VoIP.
    pub voip: Option<VoipFlowResult>,
}

/// Results of one complete run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Per-flow results, in scenario order.
    pub flows: Vec<FlowResult>,
    /// Sum of per-flow throughput, Mbps.
    pub total_throughput_mbps: f64,
    /// Per-station MAC statistics (frames sent/received, timeouts, drops).
    pub mac_stats: Vec<wmn_mac::MacStats>,
}

/// The simulation's event vocabulary, dispatched by the [`Runner`].
#[derive(Debug)]
pub(crate) enum Event {
    TxEnd {
        node: NodeId,
    },
    /// The start cursor of fan-out `fan` (see [`phy_io::FanSlab`]): the
    /// next reception of a transmission begins.
    RxStart {
        fan: u32,
    },
    /// The end cursor of fan-out `fan`: the next reception ends.
    RxEnd {
        fan: u32,
    },
    MacTimer {
        node: NodeId,
        token: TimerToken,
    },
    TcpRto {
        flow: FlowId,
        generation: u64,
    },
    FlowStart {
        flow: FlowId,
    },
    UdpSend {
        flow: FlowId,
    },
    WebStart {
        flow: FlowId,
    },
    /// Re-sample every moving node's trajectory and refresh the medium.
    /// Never scheduled for static motion plans.
    MobilityTick,
    /// Recompute every flow's min-ETX route from the medium's current link
    /// state. Never scheduled unless [`Scenario::route_refresh`] is set.
    RouteRefresh,
}

/// Executes a scenario to completion and returns per-flow results.
///
/// # Engines
///
/// [`Scenario::shards`] selects the engine: `None` runs the single-loop
/// runner below (the legacy schedule every committed baseline pins);
/// `Some(k)` runs the conservative sharded engine ([`shard`]), whose
/// results are bit-identical for every `k ≥ 1` but deliberately *not*
/// byte-identical to the legacy engine (per-entity RNG streams — see the
/// [`shard`] module docs for the contract).
///
/// # Thread safety
///
/// `run` is a pure function of `scenario`: the entire simulation world — MAC state
/// machines, receivers, medium, event queue, and every RNG stream — is built
/// from the scenario's master seed via [`RngDirectory`] and dropped before
/// returning. There are no globals, no interior mutability shared between
/// runs, and no ambient randomness, so concurrent `run` calls on different
/// scenarios (or different seeds of the same scenario) are independent.
/// [`Scenario`] and [`RunResult`] are `Send` (enforced below at compile
/// time), which is what lets `wmn_exec` move runs onto worker threads.
///
/// # Panics
///
/// Panics on malformed scenarios (empty paths, node ids out of range,
/// opportunistic schemes with single-node paths, …) — these are programming
/// errors in experiment definitions, not runtime conditions.
pub fn run(scenario: &Scenario) -> RunResult {
    if let Some(shards) = scenario.shards {
        return shard::run_sharded(scenario, shards);
    }
    let mut runner = Runner::build(scenario);
    runner.run_loop();
    runner.results(scenario)
}

// Compile-time audit for the parallel executor: a scenario must be movable
// to a worker thread and its result movable back. If a future change smuggles
// an `Rc`/raw pointer into either type, this fails to compile instead of
// failing at the `wmn_exec` call site.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Scenario>();
    assert_send::<RunResult>();
};

/// Like [`run`], but also returns the full event [`Trace`] of the run.
/// Tracing costs memory proportional to the number of transmissions; use
/// short durations.
pub fn run_traced(scenario: &Scenario) -> (RunResult, Trace) {
    let mut runner = Runner::build(scenario);
    runner.trace = Some(Trace::default());
    runner.run_loop();
    let trace = runner.trace.take().expect("installed above");
    (runner.results(scenario), trace)
}

/// The thin orchestrator: owns the queue, the clock, and the four layers,
/// and interprets each layer's actions against the others.
struct Runner {
    end: SimTime,
    phy: PhyIo,
    macs: MacEngine,
    net: NetLayer,
    flows: FlowLayer,
    queue: EventQueue<Event>,
    /// Live routing period, if the scenario enables refresh.
    route_refresh: Option<SimDuration>,
    /// Recycler for transport packet bodies: once warm, minting a TCP
    /// segment or UDP datagram body reuses a retired buffer instead of
    /// allocating.
    pool: FramePool,
    trace: Option<Trace>,
}

impl Runner {
    fn build(scenario: &Scenario) -> Runner {
        if let Err(msg) = scenario.validate() {
            panic!("malformed scenario: {msg}");
        }
        let dir = RngDirectory::new(scenario.seed);
        let macs =
            MacEngine::build(&scenario.scheme, &scenario.params, scenario.positions.len(), &dir);
        let net = NetLayer::build(scenario);
        let flows = FlowLayer::build(scenario, &dir);
        let mut queue = flows.initial_queue(scenario, &dir);
        // Pre-size the per-station schedule burst: in steady state each
        // station keeps a backoff timer, a TxEnd and in-flight deliveries
        // pending at once, so the heap warms up here instead of growing
        // inside the hot loop.
        queue.reserve(scenario.positions.len() * 4);
        let phy = PhyIo::build(scenario, &dir);
        if phy.is_mobile() {
            // First re-sample one tick in: t = 0 is the placement itself.
            queue.schedule_in(phy.motion_tick(), Event::MobilityTick);
        }
        if let Some(interval) = scenario.route_refresh {
            // First refresh one interval in: the build-time tables *are* the
            // min-ETX routes over the t = 0 placement.
            queue.schedule_in(interval, Event::RouteRefresh);
        }
        Runner {
            end: SimTime::ZERO + scenario.duration,
            phy,
            macs,
            net,
            flows,
            queue,
            route_refresh: scenario.route_refresh,
            pool: FramePool::default(),
            trace: None,
        }
    }

    /// The simulation clock. There is exactly one: the event queue's notion
    /// of "now" (the instant of the most recently popped event), so handlers
    /// and `schedule_in` can never drift apart.
    fn now(&self) -> SimTime {
        self.queue.now()
    }

    fn record(&mut self, node: NodeId, kind: TraceKind) {
        let at = self.now();
        if let Some(trace) = self.trace.as_mut() {
            trace.events.push(TraceEvent { at, node, kind });
        }
    }

    fn run_loop(&mut self) {
        // Phase attribution for the counting allocator: everything in the
        // loop is event-loop churn unless a nested scope (tx-path, queue)
        // claims it. No-op outside `wmn_alloc/count` builds.
        let _phase = wmn_alloc::phase_scope(wmn_alloc::Phase::EventLoop);
        while let Some((t, event)) = self.queue.pop() {
            if t > self.end {
                break;
            }
            self.dispatch(event);
        }
    }

    fn dispatch(&mut self, event: Event) {
        let now = self.now();
        match event {
            Event::TxEnd { node } => {
                self.record(node, TraceKind::TxEnd);
                let mut sink = self.macs.take_sink();
                self.macs.node(node).on_tx_end(now, &mut sink);
                self.apply_mac_actions(node, &mut sink);
                self.macs.park_sink(sink);
                if let Some(BusyTransition::BecameIdle) = self.phy.receiver(node).on_tx_end(now) {
                    let mut sink = self.macs.take_sink();
                    self.macs.node(node).on_idle(now, &mut sink);
                    self.apply_mac_actions(node, &mut sink);
                    self.macs.park_sink(sink);
                }
            }
            Event::RxStart { fan } => {
                let a = self.phy.next_arrival(fan, Cursor::Start, &mut self.queue);
                let node = a.node;
                if let Some(BusyTransition::BecameBusy) =
                    self.phy.receiver(node).on_arrival_start(a.id, a.decodable, a.power_dbm, now)
                {
                    let mut sink = self.macs.take_sink();
                    self.macs.node(node).on_busy(now, &mut sink);
                    self.apply_mac_actions(node, &mut sink);
                    self.macs.park_sink(sink);
                }
            }
            Event::RxEnd { fan } => {
                let a = self.phy.next_arrival(fan, Cursor::End, &mut self.queue);
                let node = a.node;
                let (outcome, transition) = self.phy.receiver(node).on_arrival_end(a.id, now);
                // Idle first so relay waits measure from the channel edge.
                if let Some(BusyTransition::BecameIdle) = transition {
                    let mut sink = self.macs.take_sink();
                    self.macs.node(node).on_idle(now, &mut sink);
                    self.apply_mac_actions(node, &mut sink);
                    self.macs.park_sink(sink);
                }
                if outcome == ArrivalOutcome::Clean && a.decodable {
                    if let Some(frame) = self.phy.apply_bit_errors(fan) {
                        if self.trace.is_some() {
                            let (kind, flow, frame_seq) = match &*frame {
                                Frame::Data(d) => (FrameKind::Data, d.flow, d.frame_seq),
                                Frame::Ack(a) => (FrameKind::Ack, a.flow, a.frame_seq),
                            };
                            self.record(
                                node,
                                TraceKind::Decoded {
                                    kind,
                                    from: frame.transmitter(),
                                    flow,
                                    frame_seq,
                                },
                            );
                        }
                        let mut sink = self.macs.take_sink();
                        self.macs.node(node).on_frame_rx(frame, now, &mut sink);
                        self.apply_mac_actions(node, &mut sink);
                        self.macs.park_sink(sink);
                    }
                }
                self.phy.release_fan(fan);
            }
            Event::MacTimer { node, token } => {
                let mut sink = self.macs.take_sink();
                self.macs.node(node).on_timer(token, now, &mut sink);
                self.apply_mac_actions(node, &mut sink);
                self.macs.park_sink(sink);
            }
            Event::TcpRto { flow, generation } => {
                let actions = self
                    .flows
                    .flow_mut(flow)
                    .tcp_tx
                    .as_mut()
                    .map(|tx| tx.on_rto(generation, now))
                    .unwrap_or_default();
                self.apply_tcp_sender_actions(flow, actions);
            }
            Event::FlowStart { flow } => self.start_flow(flow),
            Event::UdpSend { flow } => self.udp_send(flow),
            Event::WebStart { flow } => self.web_next_transfer(flow),
            Event::MobilityTick => {
                self.phy.advance_positions(now);
                let tick = self.phy.motion_tick();
                if now + tick <= self.end {
                    self.queue.schedule_in(tick, Event::MobilityTick);
                }
            }
            Event::RouteRefresh => {
                self.refresh_routes();
                let interval = self.route_refresh.expect("scheduled only when set");
                if now + interval <= self.end {
                    self.queue.schedule_in(interval, Event::RouteRefresh);
                }
            }
        }
    }

    /// One live routing pass: rebuild the link graph from the medium's
    /// current state and let the network layer re-derive its tables. The
    /// pass consumes no RNG; the analytic delivery model cannot produce a
    /// non-finite probability from finite positions, so graph construction
    /// only fails on a corrupted medium — in which case the last-known-good
    /// routes stay in force, same as a transient partition.
    fn refresh_routes(&mut self) {
        let Ok(graph) = LinkGraph::try_from_medium(self.phy.medium()) else {
            return;
        };
        let changed = self.net.refresh(&graph);
        if self.trace.is_some() {
            for flow in changed {
                let path = self.net.path(flow).to_vec();
                let src = path[0];
                self.record(src, TraceKind::RouteChange { flow, path });
            }
        }
    }

    fn apply_mac_actions(&mut self, node: NodeId, sink: &mut ActionSink) {
        while let Some(action) = sink.pop() {
            match action {
                MacAction::StartTx { frame, rate } => self.start_transmission(node, frame, rate),
                MacAction::SetTimer { delay, token } => {
                    self.queue.schedule_in(delay, Event::MacTimer { node, token });
                }
                MacAction::Deliver { packet } => self.handle_delivery(node, packet),
                MacAction::Drop { packet, reason } => {
                    // End-to-end recovery (TCP retransmission / VoIP loss
                    // accounting) covers MAC drops; the trace just records
                    // the loss for the packet-level pipeline.
                    self.record(node, TraceKind::Drop { flow: packet.header.flow, reason });
                }
            }
        }
    }

    fn start_transmission(&mut self, node: NodeId, frame: Frame, rate: RateClass) {
        let _phase = wmn_alloc::phase_scope(wmn_alloc::Phase::TxPath);
        if self.trace.is_some() {
            let (kind, flow, frame_seq, subframes) = match &frame {
                Frame::Data(d) => (FrameKind::Data, d.flow, d.frame_seq, d.subframes.len()),
                Frame::Ack(a) => (FrameKind::Ack, a.flow, a.frame_seq, 0),
            };
            let wire_bytes = frame.wire_bytes();
            self.record(node, TraceKind::TxStart { kind, flow, frame_seq, subframes, wire_bytes });
        }
        let params = self.phy.params();
        let rate = match rate {
            RateClass::Data => params.data_rate,
            RateClass::Basic => params.basic_rate,
        };
        let airtime = params.airtime(rate, frame.wire_bytes());
        let now = self.now();
        if let Some(BusyTransition::BecameBusy) = self.phy.receiver(node).on_tx_start(now) {
            let mut sink = self.macs.take_sink();
            self.macs.node(node).on_busy(now, &mut sink);
            self.apply_mac_actions(node, &mut sink);
            self.macs.park_sink(sink);
        }
        self.queue.schedule_in(airtime, Event::TxEnd { node });
        self.phy.broadcast(node, frame, airtime, &mut self.queue);
    }

    fn handle_delivery(&mut self, node: NodeId, packet: Packet) {
        let _phase = wmn_alloc::phase_scope(wmn_alloc::Phase::Queue);
        let flow_id = packet.header.flow;
        let spec_src = self.flows.flow(flow_id).spec.src();
        let spec_dst = self.flows.flow(flow_id).spec.dst();
        let forward = packet.header.src == spec_src;

        if packet.header.dst == node {
            // Reached a transport endpoint.
            if node == spec_dst && forward {
                self.record(node, TraceKind::Delivered { flow: flow_id });
                self.deliver_at_destination(flow_id, packet);
            } else if node == spec_src && !forward {
                self.deliver_at_source(flow_id, packet);
            }
            return;
        }
        // Intermediate hop (predetermined routing only): forward along.
        if let Some(route) = self.net.route(flow_id, node, forward) {
            if self.trace.is_some() {
                if let RouteInfo::NextHop(next_hop) = &route {
                    let next_hop = *next_hop;
                    self.record(node, TraceKind::Forward { flow: flow_id, next_hop });
                }
            }
            let now = self.now();
            let mut sink = self.macs.take_sink();
            self.macs.node(node).on_enqueue(packet, route, now, &mut sink);
            self.apply_mac_actions(node, &mut sink);
            self.macs.park_sink(sink);
        }
    }

    fn deliver_at_destination(&mut self, flow_id: FlowId, packet: Packet) {
        let now = self.now();
        match packet.header.proto {
            Proto::Tcp => {
                let actions = {
                    let flow = self.flows.flow_mut(flow_id);
                    let Some(rx) = flow.tcp_rx.as_mut() else { return };
                    match TcpSegment::decode(&packet.body) {
                        Some(TcpSegment::Data { seq, ts, retx }) => rx.on_data(seq, ts, retx),
                        _ => return,
                    }
                };
                self.apply_tcp_receiver_actions(flow_id, actions);
            }
            Proto::Udp => {
                let flow = self.flows.flow_mut(flow_id);
                if let Some(dg) = UdpDatagram::decode(&packet.body) {
                    flow.udp_sink.on_datagram(dg, packet.header.wire_bytes, now);
                }
            }
        }
    }

    fn deliver_at_source(&mut self, flow_id: FlowId, packet: Packet) {
        let now = self.now();
        let actions = {
            let flow = self.flows.flow_mut(flow_id);
            let Some(tx) = flow.tcp_tx.as_mut() else { return };
            match TcpSegment::decode(&packet.body) {
                Some(TcpSegment::Ack { cum_ack, ts_echo }) => tx.on_ack(cum_ack, ts_echo, now),
                _ => return,
            }
        };
        self.apply_tcp_sender_actions(flow_id, actions);
    }

    fn apply_tcp_sender_actions(&mut self, flow_id: FlowId, actions: Vec<TcpAction>) {
        for action in actions {
            match action {
                TcpAction::Send { segment, wire_bytes } => {
                    self.enqueue_transport_packet(flow_id, segment, wire_bytes, true);
                }
                TcpAction::SetRtoTimer { delay, generation } => {
                    self.queue.schedule_in(delay, Event::TcpRto { flow: flow_id, generation });
                }
                TcpAction::SendComplete => {
                    // Web workload: think, then start the next transfer.
                    let off = {
                        let flow = self.flows.flow_mut(flow_id);
                        match (&flow.spec.workload, flow.web_rng.as_mut()) {
                            (Workload::Web(model), Some(rng)) => Some(model.draw_off_period(rng)),
                            _ => None,
                        }
                    };
                    if let Some(off) = off {
                        self.queue.schedule_in(off, Event::WebStart { flow: flow_id });
                    }
                }
            }
        }
    }

    fn apply_tcp_receiver_actions(&mut self, flow_id: FlowId, actions: Vec<TcpAction>) {
        for action in actions {
            if let TcpAction::Send { segment, wire_bytes } = action {
                self.enqueue_transport_packet(flow_id, segment, wire_bytes, false);
            }
        }
    }

    fn enqueue_transport_packet(
        &mut self,
        flow_id: FlowId,
        segment: TcpSegment,
        wire_bytes: u32,
        forward: bool,
    ) {
        let _phase = wmn_alloc::phase_scope(wmn_alloc::Phase::Queue);
        let spec = &self.flows.flow(flow_id).spec;
        let (src, dst) = if forward { (spec.src(), spec.dst()) } else { (spec.dst(), spec.src()) };
        let Some(route) = self.net.route(flow_id, src, forward) else { return };
        let packet = Packet::new(
            NetHeader { flow: flow_id, src, dst, proto: Proto::Tcp, wire_bytes },
            self.pool.mint_body_with(|out| segment.encode_into(out)),
        );
        let now = self.now();
        let mut sink = self.macs.take_sink();
        self.macs.node(src).on_enqueue(packet, route, now, &mut sink);
        self.apply_mac_actions(src, &mut sink);
        self.macs.park_sink(sink);
    }

    fn start_flow(&mut self, flow_id: FlowId) {
        let now = self.now();
        match self.flows.flow(flow_id).spec.workload.clone() {
            Workload::Ftp => {
                let actions = self
                    .flows
                    .flow_mut(flow_id)
                    .tcp_tx
                    .as_mut()
                    .map(|tx| tx.start_unlimited(now))
                    .unwrap_or_default();
                self.apply_tcp_sender_actions(flow_id, actions);
            }
            Workload::Web(_) => self.web_next_transfer(flow_id),
            _ => {}
        }
    }

    fn web_next_transfer(&mut self, flow_id: FlowId) {
        let now = self.now();
        let actions = {
            let flow = self.flows.flow_mut(flow_id);
            let Workload::Web(model) = flow.spec.workload else { return };
            let Some(rng) = flow.web_rng.as_mut() else { return };
            let segments = model.draw_transfer_segments(rng);
            flow.tcp_tx.as_mut().map(|tx| tx.request_send(segments, now)).unwrap_or_default()
        };
        self.apply_tcp_sender_actions(flow_id, actions);
    }

    fn udp_send(&mut self, flow_id: FlowId) {
        let now = self.now();
        let (bytes, next) = match self.flows.flow(flow_id).spec.workload {
            Workload::Voip(wmn_traffic::VoipModel { packet_bytes, .. }) => (packet_bytes, None),
            Workload::Cbr(wmn_traffic::CbrModel { packet_bytes, interval }) => {
                (packet_bytes, Some(interval))
            }
            _ => return,
        };
        let src = self.flows.flow(flow_id).spec.src();
        let dst = self.flows.flow(flow_id).spec.dst();
        // Route lookup precedes the counter bumps: a (hypothetical)
        // source without a forward route sends nothing and counts nothing.
        let Some(route) = self.net.route(flow_id, src, true) else { return };
        let packet = {
            let flow = self.flows.flow_mut(flow_id);
            let dg = UdpDatagram { seq: flow.udp_seq, sent_at_ns: now.as_nanos() };
            flow.udp_seq += 1;
            flow.udp_sent += 1;
            Packet::new(
                NetHeader { flow: flow_id, src, dst, proto: Proto::Udp, wire_bytes: bytes },
                self.pool.mint_body_with(|out| dg.encode_into(out)),
            )
        };
        let mut sink = self.macs.take_sink();
        self.macs.node(src).on_enqueue(packet, route, now, &mut sink);
        self.apply_mac_actions(src, &mut sink);
        self.macs.park_sink(sink);
        if let Some(interval) = next {
            if now + interval <= self.end {
                self.queue.schedule_in(interval, Event::UdpSend { flow: flow_id });
            }
        }
    }

    fn results(&self, scenario: &Scenario) -> RunResult {
        let flows = self.flows.results(scenario);
        let total = flows.iter().map(|f| f.throughput_mbps).sum();
        RunResult { flows, total_throughput_mbps: total, mac_stats: self.macs.stats() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{FlowSpec, Scheme};
    use wmn_phy::{PhyParams, Position};
    use wmn_topology::{MotionPlan, NodePath, Waypoint};

    fn line_positions(n: usize) -> Vec<Position> {
        (0..n).map(|i| Position::new(i as f64 * 5.0, 0.0)).collect()
    }

    fn ftp_scenario(scheme: Scheme, path: Vec<u32>, positions: Vec<Position>) -> Scenario {
        Scenario {
            name: "test".into(),
            params: PhyParams::paper_216(),
            positions,
            scheme,
            flows: vec![FlowSpec {
                path: path.into_iter().map(NodeId::new).collect(),
                workload: Workload::Ftp,
            }],
            duration: SimDuration::from_millis(200),
            seed: 42,
            max_forwarders: 5,
            motion: MotionPlan::default(),
            route_refresh: None,
            shards: None,
        }
    }

    #[test]
    fn dcf_single_hop_delivers() {
        let s = ftp_scenario(Scheme::Dcf { aggregation: 1 }, vec![0, 1], line_positions(2));
        let r = run(&s);
        assert!(r.flows[0].delivered_bytes > 100_000, "got {}", r.flows[0].delivered_bytes);
        assert!(r.flows[0].throughput_mbps > 4.0, "got {}", r.flows[0].throughput_mbps);
        let tcp = r.flows[0].tcp.unwrap();
        assert_eq!(tcp.reordered_arrivals, 0, "DCF stop-and-wait never reorders");
    }

    #[test]
    fn dcf_multihop_beats_lossy_direct() {
        // The paper's premise: direct 0->3 (15 m) collapses, the 3-hop
        // route thrives (0.76 vs 7.04 Mbps in the paper).
        let direct =
            run(&ftp_scenario(Scheme::Dcf { aggregation: 1 }, vec![0, 3], line_positions(4)));
        let routed =
            run(&ftp_scenario(Scheme::Dcf { aggregation: 1 }, vec![0, 1, 2, 3], line_positions(4)));
        let (d, r) = (direct.flows[0].throughput_mbps, routed.flows[0].throughput_mbps);
        assert!(r > 2.0 * d, "multihop {r} must dominate direct {d}");
        assert!(r > 3.0, "3-hop DCF should sustain a few Mbps, got {r}");
    }

    #[test]
    fn afr_aggregation_beats_plain_dcf() {
        let dcf =
            run(&ftp_scenario(Scheme::Dcf { aggregation: 1 }, vec![0, 1, 2, 3], line_positions(4)));
        let afr = run(&ftp_scenario(
            Scheme::Dcf { aggregation: 16 },
            vec![0, 1, 2, 3],
            line_positions(4),
        ));
        assert!(
            afr.flows[0].throughput_mbps > 1.3 * dcf.flows[0].throughput_mbps,
            "AFR {} must clearly beat DCF {}",
            afr.flows[0].throughput_mbps,
            dcf.flows[0].throughput_mbps
        );
    }

    #[test]
    fn ripple_delivers_in_order_and_beats_dcf() {
        let dcf =
            run(&ftp_scenario(Scheme::Dcf { aggregation: 1 }, vec![0, 1, 2, 3], line_positions(4)));
        let r16 = run(&ftp_scenario(
            Scheme::Ripple { aggregation: 16 },
            vec![0, 1, 2, 3],
            line_positions(4),
        ));
        let tcp = r16.flows[0].tcp.unwrap();
        assert_eq!(tcp.reordered_arrivals, 0, "RIPPLE must not reorder");
        assert!(
            r16.flows[0].throughput_mbps > dcf.flows[0].throughput_mbps,
            "RIPPLE-16 {} must beat DCF {}",
            r16.flows[0].throughput_mbps,
            dcf.flows[0].throughput_mbps
        );
    }

    #[test]
    fn ripple_without_aggregation_still_delivers() {
        let r1 = run(&ftp_scenario(
            Scheme::Ripple { aggregation: 1 },
            vec![0, 1, 2, 3],
            line_positions(4),
        ));
        assert!(r1.flows[0].throughput_mbps > 2.0, "got {}", r1.flows[0].throughput_mbps);
        assert_eq!(r1.flows[0].tcp.unwrap().reordered_arrivals, 0);
    }

    #[test]
    fn preexor_delivers_but_reorders() {
        let pre = run(&ftp_scenario(Scheme::PreExor, vec![0, 1, 2, 3], line_positions(4)));
        assert!(pre.flows[0].delivered_bytes > 50_000, "got {}", pre.flows[0].delivered_bytes);
        let tcp = pre.flows[0].tcp.unwrap();
        assert!(
            tcp.reordered_arrivals > 0,
            "opportunistic relaying with per-hop caching must reorder some packets"
        );
    }

    #[test]
    fn mcexor_delivers() {
        let mce = run(&ftp_scenario(Scheme::McExor, vec![0, 1, 2, 3], line_positions(4)));
        assert!(mce.flows[0].delivered_bytes > 50_000, "got {}", mce.flows[0].delivered_bytes);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let s =
            ftp_scenario(Scheme::Ripple { aggregation: 16 }, vec![0, 1, 2, 3], line_positions(4));
        let a = run(&s);
        let b = run(&s);
        assert_eq!(a.flows[0].delivered_bytes, b.flows[0].delivered_bytes);
        let mut s2 = s;
        s2.seed = 43;
        let c = run(&s2);
        assert_ne!(
            a.flows[0].delivered_bytes, c.flows[0].delivered_bytes,
            "different seeds should explore different sample paths"
        );
    }

    #[test]
    fn voip_flow_reports_mos() {
        let mut s =
            ftp_scenario(Scheme::Ripple { aggregation: 16 }, vec![0, 1, 2, 3], line_positions(4));
        s.flows[0].workload = Workload::Voip(wmn_traffic::VoipModel::paper());
        s.duration = SimDuration::from_millis(500);
        let r = run(&s);
        let v = r.flows[0].voip.expect("voip result");
        assert!(v.sent > 0);
        assert!(v.received > 0, "voice packets must get through");
        assert!(v.mos > 3.0, "a lone VoIP call on a clean mesh should be good: {}", v.mos);
    }

    #[test]
    fn cbr_saturates_and_delivers() {
        let mut s = ftp_scenario(Scheme::Dcf { aggregation: 1 }, vec![0, 1], line_positions(2));
        s.flows[0].workload = Workload::Cbr(wmn_traffic::CbrModel::saturating());
        let r = run(&s);
        assert!(r.flows[0].throughput_mbps > 10.0, "got {}", r.flows[0].throughput_mbps);
    }

    #[test]
    fn web_flow_transfers_data() {
        let mut s = ftp_scenario(Scheme::Dcf { aggregation: 16 }, vec![0, 1, 2], line_positions(3));
        s.flows[0].workload = Workload::Web(wmn_traffic::WebModel::paper());
        s.duration = SimDuration::from_millis(800);
        let r = run(&s);
        assert!(r.flows[0].delivered_bytes > 0, "web transfers must complete");
    }

    #[test]
    fn explicitly_static_motion_is_bit_identical_to_default() {
        // The runner must not consume RNG, schedule ticks, or perturb
        // anything for a plan that is structurally present but never moves.
        let base =
            ftp_scenario(Scheme::Ripple { aggregation: 16 }, vec![0, 1, 2, 3], line_positions(4));
        let mut explicit = base.clone();
        explicit.motion = MotionPlan { paths: vec![NodePath::Static; 4], ..MotionPlan::default() };
        let mut zero_drift = base.clone();
        zero_drift.motion = MotionPlan {
            paths: vec![NodePath::Drift { vx_mps: 0.0, vy_mps: 0.0 }; 4],
            ..MotionPlan::default()
        };
        let a = run(&base);
        assert_eq!(a, run(&explicit), "explicit static paths must change nothing");
        assert_eq!(a, run(&zero_drift), "zero-velocity drift is static");
    }

    #[test]
    fn departing_node_starves_the_flow() {
        // A 2-node FTP flow whose receiver drifts away at 60 m/s: the link
        // dies mid-run, so a mobile run must deliver strictly less than the
        // static one — and still complete without panicking.
        let base = ftp_scenario(Scheme::Dcf { aggregation: 1 }, vec![0, 1], line_positions(2));
        let mut mobile = base.clone();
        mobile.duration = SimDuration::from_millis(400);
        let mut static_long = base;
        static_long.duration = SimDuration::from_millis(400);
        mobile.motion = MotionPlan {
            paths: vec![NodePath::Static, NodePath::Drift { vx_mps: 60.0, vy_mps: 0.0 }],
            tick: SimDuration::from_millis(10),
        };
        let moving = run(&mobile);
        let parked = run(&static_long);
        assert!(
            moving.flows[0].delivered_bytes < parked.flows[0].delivered_bytes / 2,
            "a departing receiver must starve the flow: mobile {} vs static {}",
            moving.flows[0].delivered_bytes,
            parked.flows[0].delivered_bytes
        );
        assert!(moving.flows[0].delivered_bytes > 0, "the early, close-range phase delivers");
    }

    #[test]
    fn waypoint_node_returns_and_recovers() {
        // A saturating CBR sender towards a receiver that walks out to
        // 100 m and (in one variant) back: datagrams flow again as soon as
        // the link returns, so the round trip must deliver strictly more
        // than staying away.
        let positions = line_positions(2);
        let away = MotionPlan {
            paths: vec![
                NodePath::Static,
                NodePath::Waypoints(vec![Waypoint {
                    at: SimTime::from_millis(100),
                    pos: Position::new(100.0, 0.0),
                }]),
            ],
            tick: SimDuration::from_millis(10),
        };
        let round_trip = MotionPlan {
            paths: vec![
                NodePath::Static,
                NodePath::Waypoints(vec![
                    Waypoint { at: SimTime::from_millis(100), pos: Position::new(100.0, 0.0) },
                    Waypoint { at: SimTime::from_millis(200), pos: Position::new(5.0, 0.0) },
                ]),
            ],
            tick: SimDuration::from_millis(10),
        };
        let mut gone = ftp_scenario(Scheme::Dcf { aggregation: 1 }, vec![0, 1], positions);
        gone.flows[0].workload = Workload::Cbr(wmn_traffic::CbrModel::saturating());
        gone.duration = SimDuration::from_millis(400);
        let mut back = gone.clone();
        gone.motion = away;
        back.motion = round_trip;
        let gone_r = run(&gone);
        let back_r = run(&back);
        assert!(
            back_r.flows[0].delivered_bytes > gone_r.flows[0].delivered_bytes,
            "returning to range must recover throughput: back {} vs gone {}",
            back_r.flows[0].delivered_bytes,
            gone_r.flows[0].delivered_bytes
        );
        assert!(gone_r.flows[0].delivered_bytes > 0, "the in-range phase delivers");
    }

    #[test]
    fn mobility_ticks_track_positions() {
        let mut s = ftp_scenario(Scheme::Dcf { aggregation: 1 }, vec![0, 1], line_positions(2));
        s.motion = MotionPlan {
            paths: vec![NodePath::Static, NodePath::Drift { vx_mps: 10.0, vy_mps: 0.0 }],
            tick: SimDuration::from_millis(50),
        };
        s.duration = SimDuration::from_millis(200);
        let mut runner = Runner::build(&s);
        runner.run_loop();
        let p = runner.phy.position(NodeId::new(1));
        // 200 ms at 10 m/s from x = 5: the last tick at or before the end
        // leaves the node at x = 7 (t = 200 ms).
        assert!((p.x - 7.0).abs() < 1e-9, "got {p}");
        assert_eq!(runner.phy.position(NodeId::new(0)), Position::new(0.0, 0.0));
    }

    #[test]
    fn route_refresh_on_static_topology_is_bit_identical() {
        // Over an unmoved placement the live link graph equals the
        // build-time one, so every refresh pass is a no-op: same results,
        // no RouteChange events, for any interval.
        let base =
            ftp_scenario(Scheme::Ripple { aggregation: 16 }, vec![0, 1, 2, 3], line_positions(4));
        for interval_ms in [1, 10, 37, 150] {
            let mut refreshed = base.clone();
            refreshed.route_refresh = Some(SimDuration::from_millis(interval_ms));
            let (r, trace) = run_traced(&refreshed);
            assert_eq!(run(&base), r, "refresh every {interval_ms} ms must change nothing");
            assert!(trace.route_changes(FlowId::new(0)).is_empty());
        }
    }

    #[test]
    fn route_refresh_rescues_a_drifting_relay() {
        // A line 0-(5,0)-(10,0)-(15,0) with a spare relay at (5,3). The
        // flow's relay (node 1) drifts away; the frozen table keeps talking
        // to the departed node forever, while a live refresh re-routes
        // through the spare and keeps the flow alive.
        let mut positions = line_positions(4);
        positions.push(Position::new(5.0, 3.0));
        let mut stale = ftp_scenario(Scheme::Dcf { aggregation: 1 }, vec![0, 1, 2, 3], positions);
        // CBR rather than FTP: each datagram looks the route up at send
        // time, so the rescue shows up as raw delivered bytes instead of
        // being masked by TCP's in-order wedge on a segment that died in a
        // stale-routed MAC queue.
        stale.flows[0].workload = Workload::Cbr(wmn_traffic::CbrModel {
            packet_bytes: 1000,
            interval: SimDuration::from_millis(2),
        });
        stale.duration = SimDuration::from_millis(400);
        stale.motion = MotionPlan {
            paths: vec![
                NodePath::Static,
                NodePath::Drift { vx_mps: 0.0, vy_mps: 60.0 },
                NodePath::Static,
                NodePath::Static,
                NodePath::Static,
            ],
            tick: SimDuration::from_millis(10),
        };
        let mut live = stale.clone();
        live.route_refresh = Some(SimDuration::from_millis(50));
        let (live_r, trace) = run_traced(&live);
        let stale_r = run(&stale);
        let changes = trace.route_changes(FlowId::new(0));
        assert!(!changes.is_empty(), "the drift must trigger a re-route");
        let (_, last_path) = changes.last().expect("non-empty");
        assert!(
            last_path.contains(&NodeId::new(4)),
            "the final route must use the spare relay, got {last_path:?}"
        );
        assert!(
            live_r.flows[0].delivered_bytes > stale_r.flows[0].delivered_bytes,
            "live refresh {} must beat the frozen route {}",
            live_r.flows[0].delivered_bytes,
            stale_r.flows[0].delivered_bytes
        );
    }

    #[test]
    #[should_panic(expected = "malformed scenario")]
    fn malformed_motion_plans_are_rejected() {
        let mut s = ftp_scenario(Scheme::Dcf { aggregation: 1 }, vec![0, 1], line_positions(2));
        s.motion = MotionPlan {
            paths: vec![NodePath::Static; 3], // 3 paths, 2 stations
            ..MotionPlan::default()
        };
        let _ = run(&s);
    }
}
