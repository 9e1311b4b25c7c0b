//! One shard's worker: the per-shard slice of the simulation world and the
//! event-dispatch mirror it runs inside conservative windows.
//!
//! # Replicate everything, own a subset
//!
//! Every worker builds the *full* per-entity state vectors — one MAC per
//! station, one transport endpoint set per flow, one receiver per station —
//! from the same [`RngDirectory`] derivations, then only ever touches the
//! entries it owns: the stations its shard was assigned and the flows whose
//! source station it owns (sender-side halves) or whose destination it owns
//! (receiver-side halves). Building is derivation-only (no stream is
//! advanced by construction), so replication costs memory but never
//! perturbs a single random draw. The payoff is that no per-entity state is
//! ever shared: the only cross-shard channels are the read-locked
//! [`Medium`]/[`NetLayer`] snapshots (written exclusively by the
//! coordinator, between windows) and the [`CrossShardFan`] records
//! exchanged at window boundaries.
//!
//! # Fan-outs
//!
//! A transmission reaches its receivers through fan-outs
//! ([`FanSlab`]): the transmitting worker plans the receptions once,
//! reserves the two keys per receiver a per-arrival schedule would have
//! minted, and groups the receivers by owning shard. Its own group becomes
//! a local fan-out; every other group travels as one [`CrossShardFan`] and
//! becomes a fan-out of the receiving shard. Either way a fan-out keeps two
//! events queued, `RxStart`/`RxEnd` at its cursors' heads, whatever its
//! number of receivers.
//!
//! # Determinism
//!
//! Every event a worker schedules carries a content-derived [`EventKey`]
//! minted from the origin entity's own counter, so the per-shard
//! [`KeyedEventQueue`]s pop in the `(time, key)` order a single global
//! keyed loop would use — the bit-identity contract between shard counts.
//! Randomness is consumed from per-entity streams only: `shard/medium/<tx>`
//! for a transmitter's shadowing draws, `shard/ber/<rx>` for a receiver's
//! bit errors, and the per-entity `mac/<i>`, `web/<i>`, `voip/<i>` streams
//! the layers already own. A stream's consumption order then depends only
//! on its entity's own event order, which the keyed schedule fixes
//! independently of the shard count.

use std::sync::{Arc, RwLock};

use wmn_mac::frame::{Frame, NetHeader, Packet, Proto, RouteInfo, RxFrame};
use wmn_mac::{ActionSink, FramePool, MacAction, MacStats, RateClass};
use wmn_phy::medium::BusyTransition;
use wmn_phy::{ArrivalOutcome, BerModel, Medium, PhyParams, Receiver, RxPlan};
use wmn_sim::{
    EventKey, FlowId, KeyedEventQueue, NodeId, RngDirectory, SimDuration, SimTime, StreamRng,
};
use wmn_transport::{TcpAction, TcpSegment, UdpDatagram};

use crate::scenario::{Scenario, Workload};
use crate::stack::flow_layer::{FlowLayer, FlowRt};
use crate::stack::mac_engine::MacEngine;
use crate::stack::net_layer::NetLayer;
use crate::stack::phy_io::{Arrival, Cursor, FanEntry, FanOrigin, FanSlab, Head};
use crate::stack::Event;

/// Key lane for events originated by a station (TxEnd, Rx*, MacTimer).
const KIND_NODE: u32 = 0;
/// Key lane for events originated by a flow (FlowStart, UdpSend, WebStart,
/// TcpRto).
const KIND_FLOW: u32 = 1;

/// The key of a reception event: sequence number `seq` of the
/// transmitter's station lane, one of the block the transmission reserved.
/// Every RxStart/RxEnd key of either fan-out kind is minted here.
fn arrival_key(head: Head) -> EventKey {
    EventKey::new(KIND_NODE, head.from.index() as u32, head.seq)
}

/// One transmission's receivers on another shard, grouped into one record.
/// The transmitting worker plans the receptions (times, power,
/// decodability) and reserves their keys on its own lane, so the receiving
/// worker schedules the exact `(time, key)` pairs a single-shard run uses;
/// only the fan-out slot is local.
pub(crate) struct CrossShardFan {
    /// The shard owning every receiver of the record.
    pub(crate) dst_shard: u32,
    /// The transmission, with its shared frame handle.
    origin: FanOrigin,
    /// The receivers, in plan order.
    entries: Vec<FanEntry>,
    /// The emitting shard, for the boundary merge's audit order.
    pub(crate) src_shard: u32,
    /// The emitting worker's running emission counter, ditto.
    pub(crate) emit_seq: u64,
}

impl CrossShardFan {
    /// The `(time, key)` of the record's earliest RxStart — what the
    /// receiving shard's pending view must see.
    pub(crate) fn first_start(&self) -> (SimTime, EventKey) {
        self.entries
            .iter()
            .map(|e| e.head(&self.origin, Cursor::Start))
            .map(|head| (head.at, arrival_key(head)))
            .min()
            .expect("a cross-shard fan-out has receivers")
    }
}

/// What a worker hands back after each round: the frames it emitted across
/// the boundary and its next pending `(time, key)`.
#[derive(Default)]
pub(crate) struct WindowReport {
    /// Cross-shard fan-outs emitted this round.
    pub(crate) outbox: Vec<CrossShardFan>,
    /// Earliest pending event after the round, `None` when drained.
    pub(crate) next: Option<(SimTime, EventKey)>,
}

/// A coordinator instruction for one round.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Command {
    /// Process every owned event strictly before `horizon`.
    Window {
        /// The conservative horizon of this window.
        horizon: SimTime,
    },
    /// Zero-lookahead serial round: the named shard processes exactly one
    /// event (the global `(time, key)` minimum); everyone else only drains
    /// their mailbox.
    Step {
        /// The shard holding the globally minimal event.
        shard: u32,
    },
    /// Shut down and return the worker state for the results merge.
    Stop,
}

/// One shard's worker state (see the module docs for the ownership model).
pub(crate) struct ShardWorker {
    pub(super) shard: u32,
    end: SimTime,
    owner: Arc<Vec<u32>>,
    flow_owner: Arc<Vec<u32>>,
    medium: Arc<RwLock<Medium>>,
    net: Arc<RwLock<NetLayer>>,
    queue: KeyedEventQueue<Event>,
    pub(super) macs: MacEngine,
    pub(super) flows: FlowLayer,
    receivers: Vec<Receiver>,
    /// Fan-outs whose receivers this shard owns (see [`FanSlab`]).
    fans: FanSlab,
    plan_scratch: Vec<RxPlan>,
    /// Per-shard buffers a transmission's receivers are grouped into.
    fill: Vec<Vec<FanEntry>>,
    /// Empty entry buffers for outgoing [`CrossShardFan`]s, refilled by the
    /// buffers incoming ones leave behind.
    spare: Vec<Vec<FanEntry>>,
    ber: BerModel,
    params: PhyParams,
    /// Per-transmitter shadowing streams (`shard/medium/<tx>`); only the
    /// owned stations' streams are ever advanced.
    medium_rngs: Vec<StreamRng>,
    /// Per-receiver bit-error streams (`shard/ber/<rx>`), ditto.
    ber_rngs: Vec<StreamRng>,
    /// Per-station key counters (lane `KIND_NODE`).
    node_seq: Vec<u64>,
    /// Per-flow key counters (lane `KIND_FLOW`), advanced by the source
    /// shard only.
    flow_seq: Vec<u64>,
    outbox: Vec<CrossShardFan>,
    emit_seq: u64,
    /// Recycler for the transport packet bodies this shard's flows mint
    /// (shard-local, so recycling order stays shard-count-invariant for
    /// the buffers themselves and invisible to results either way).
    pool: FramePool,
}

impl ShardWorker {
    /// Builds one shard's worker from a validated scenario. Seeds the
    /// per-shard queue with the arrival processes of the flows this shard
    /// owns, pre-sized to exactly that share of the seeded events
    /// (a shard owning none of them still gets one slot — see
    /// [`KeyedEventQueue::with_capacity`]).
    pub(crate) fn build(
        scenario: &Scenario,
        shard: u32,
        owner: Arc<Vec<u32>>,
        flow_owner: Arc<Vec<u32>>,
        medium: Arc<RwLock<Medium>>,
        net: Arc<RwLock<NetLayer>>,
    ) -> ShardWorker {
        let dir = RngDirectory::new(scenario.seed);
        let n = scenario.positions.len();
        let shards = owner.iter().max().map_or(1, |&max| max as usize + 1);
        let macs = MacEngine::build(&scenario.scheme, &scenario.params, n, &dir);
        let flows = FlowLayer::build(scenario, &dir);
        let mut flow_seq = vec![0u64; scenario.flows.len()];
        let seeds = flows.seed_events(scenario, &dir);
        let owned_seed = |event: &Event| {
            let flow = match event {
                Event::FlowStart { flow } | Event::UdpSend { flow } => *flow,
                _ => unreachable!("seed events are flow arrivals"),
            };
            (flow_owner[flow.index()] == shard).then_some(flow)
        };
        let owned_count = seeds.iter().filter(|(_, e)| owned_seed(e).is_some()).count();
        let mut queue = KeyedEventQueue::with_capacity(owned_count);
        for (delay, event) in seeds {
            let Some(flow) = owned_seed(&event) else { continue };
            let key = EventKey::new(KIND_FLOW, flow.index() as u32, flow_seq[flow.index()]);
            flow_seq[flow.index()] += 1;
            queue.schedule_keyed_in(delay, key, event);
        }
        // Pre-size the shard's share of the per-station schedule burst
        // (backoff timer + TxEnd + in-flight deliveries per owned station).
        queue.reserve(owner.iter().filter(|&&s| s == shard).count() * 4);
        ShardWorker {
            shard,
            end: SimTime::ZERO + scenario.duration,
            owner,
            flow_owner,
            medium,
            net,
            queue,
            macs,
            flows,
            receivers: (0..n).map(|_| Receiver::new()).collect(),
            fans: FanSlab::default(),
            plan_scratch: Vec::new(),
            fill: vec![Vec::new(); shards],
            spare: Vec::new(),
            ber: BerModel::new(scenario.params.ber),
            params: scenario.params.clone(),
            medium_rngs: (0..n).map(|i| dir.indexed_stream("shard/medium", i as u32)).collect(),
            ber_rngs: (0..n).map(|i| dir.indexed_stream("shard/ber", i as u32)).collect(),
            node_seq: vec![0; n],
            flow_seq,
            outbox: Vec::new(),
            emit_seq: 0,
            pool: FramePool::default(),
        }
    }

    /// Earliest pending `(time, key)`, for the coordinator's first horizon.
    pub(crate) fn next_pending(&self) -> Option<(SimTime, EventKey)> {
        self.queue.peek()
    }

    /// Opens a boundary-crossing fan-out locally and schedules its two
    /// cursors under the transmitter-reserved keys. The buffer the fan-out
    /// hands back is kept as a spare for this shard's own outgoing records,
    /// up to one per shard (what one transmission can emit): a shard that
    /// receives more than it sends drops the rest.
    pub(crate) fn inject(&mut self, fan: CrossShardFan) {
        debug_assert_eq!(fan.dst_shard, self.shard, "routed to the wrong shard");
        let CrossShardFan { origin, mut entries, .. } = fan;
        debug_assert!(entries.iter().all(|e| self.owner[e.to().index()] == self.shard));
        self.open_fan(origin, &mut entries);
        if self.spare.len() < self.fill.len() {
            self.spare.push(entries);
        }
    }

    /// Opens a fan-out over `entries` (swapped for a recycled buffer) and
    /// schedules both cursors at their first receivers.
    fn open_fan(&mut self, origin: FanOrigin, entries: &mut Vec<FanEntry>) {
        if let Some(fan) = self.fans.open(origin, entries) {
            for cursor in [Cursor::Start, Cursor::End] {
                let head = self.fans.head(fan, cursor).expect("an open fan-out has receivers");
                self.queue.schedule_keyed(head.at, arrival_key(head), cursor.event(fan));
            }
        }
    }

    /// Hands out the arrival at `cursor`'s head of fan-out `fan` and
    /// re-schedules the cursor at its next receiver.
    fn next_arrival(&mut self, fan: u32, cursor: Cursor) -> Arrival {
        let (arrival, next) = self.fans.advance(fan, cursor);
        if let Some(head) = next {
            self.queue.schedule_keyed(head.at, arrival_key(head), cursor.event(fan));
        }
        arrival
    }

    /// Processes every owned event strictly before `horizon`.
    pub(crate) fn run_window(&mut self, horizon: SimTime) {
        while let Some((_, event)) = self.queue.pop_before(horizon) {
            self.dispatch(event);
        }
    }

    /// Zero-lookahead serial step: processes exactly one event (the
    /// coordinator guarantees it is the global `(time, key)` minimum).
    pub(crate) fn step(&mut self) {
        if let Some((_, event)) = self.queue.pop() {
            self.dispatch(event);
        }
    }

    /// Drains the outbox and reports the next pending event.
    pub(crate) fn take_report(&mut self) -> WindowReport {
        WindowReport { outbox: std::mem::take(&mut self.outbox), next: self.queue.peek() }
    }

    /// Per-station MAC statistics of this worker's full engine (only the
    /// owned stations' entries ever advanced past their initial state).
    pub(crate) fn mac_stats(&self) -> Vec<MacStats> {
        self.macs.stats()
    }

    /// One flow's runtime state, for the results merge.
    pub(crate) fn flow_rt(&self, id: FlowId) -> &FlowRt {
        self.flows.flow(id)
    }

    fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Mints the next key on a station's lane.
    fn node_key(&mut self, node: NodeId) -> EventKey {
        EventKey::new(KIND_NODE, node.index() as u32, self.reserve_node_seqs(node, 1))
    }

    /// Reserves the next `count` sequence numbers of a station's lane and
    /// returns the first.
    fn reserve_node_seqs(&mut self, node: NodeId, count: u64) -> u64 {
        let seq = &mut self.node_seq[node.index()];
        let first = *seq;
        *seq += count;
        first
    }

    /// Mints the next key on a flow's lane (source shard only).
    fn flow_key(&mut self, flow: FlowId) -> EventKey {
        debug_assert_eq!(self.flow_owner[flow.index()], self.shard, "flow lane owned elsewhere");
        let seq = &mut self.flow_seq[flow.index()];
        let key = EventKey::new(KIND_FLOW, flow.index() as u32, *seq);
        *seq += 1;
        key
    }

    /// The event-dispatch mirror of the single-loop `Runner::dispatch`,
    /// restricted to owned entities. Tracing is a legacy-engine feature;
    /// sharded runs never record.
    fn dispatch(&mut self, event: Event) {
        let now = self.now();
        match event {
            Event::TxEnd { node } => {
                let mut sink = self.macs.take_sink();
                self.macs.node(node).on_tx_end(now, &mut sink);
                self.apply_mac_actions(node, &mut sink);
                self.macs.park_sink(sink);
                if let Some(BusyTransition::BecameIdle) =
                    self.receivers[node.index()].on_tx_end(now)
                {
                    let mut sink = self.macs.take_sink();
                    self.macs.node(node).on_idle(now, &mut sink);
                    self.apply_mac_actions(node, &mut sink);
                    self.macs.park_sink(sink);
                }
            }
            Event::RxStart { fan } => {
                let a = self.next_arrival(fan, Cursor::Start);
                let node = a.node;
                if let Some(BusyTransition::BecameBusy) = self.receivers[node.index()]
                    .on_arrival_start(a.id, a.decodable, a.power_dbm, now)
                {
                    let mut sink = self.macs.take_sink();
                    self.macs.node(node).on_busy(now, &mut sink);
                    self.apply_mac_actions(node, &mut sink);
                    self.macs.park_sink(sink);
                }
            }
            Event::RxEnd { fan } => {
                let a = self.next_arrival(fan, Cursor::End);
                let node = a.node;
                let (outcome, transition) = self.receivers[node.index()].on_arrival_end(a.id, now);
                // Idle first so relay waits measure from the channel edge.
                if let Some(BusyTransition::BecameIdle) = transition {
                    let mut sink = self.macs.take_sink();
                    self.macs.node(node).on_idle(now, &mut sink);
                    self.apply_mac_actions(node, &mut sink);
                    self.macs.park_sink(sink);
                }
                if outcome == ArrivalOutcome::Clean && a.decodable {
                    if let Some(frame) = self.apply_bit_errors(node, fan) {
                        let mut sink = self.macs.take_sink();
                        self.macs.node(node).on_frame_rx(frame, now, &mut sink);
                        self.apply_mac_actions(node, &mut sink);
                        self.macs.park_sink(sink);
                    }
                }
                self.fans.release_if_done(fan);
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
            Event::MobilityTick | Event::RouteRefresh => {
                unreachable!("global passes are coordinator barriers in a sharded run")
            }
        }
    }

    /// The per-receiver twin of `PhyIo::apply_bit_errors`, decoding the
    /// frame of fan-out `fan` at `rx`: the same shared
    /// [`decode_frame`](crate::stack::decode::decode_frame) seam (so the two
    /// engines cannot drift apart on decode semantics), but consuming the
    /// receiving station's own `shard/ber/<rx>` stream so the draw order is
    /// independent of how other stations' receptions interleave.
    fn apply_bit_errors(&mut self, rx: NodeId, fan: u32) -> Option<RxFrame> {
        let frame = &self.fans.origin(fan).frame;
        crate::stack::decode::decode_frame(&self.ber, &mut self.ber_rngs[rx.index()], frame)
    }

    fn apply_mac_actions(&mut self, node: NodeId, sink: &mut ActionSink) {
        while let Some(action) = sink.pop() {
            match action {
                MacAction::StartTx { frame, rate } => self.start_transmission(node, frame, rate),
                MacAction::SetTimer { delay, token } => {
                    let key = self.node_key(node);
                    self.queue.schedule_keyed_in(delay, key, Event::MacTimer { node, token });
                }
                MacAction::Deliver { packet } => self.handle_delivery(node, packet),
                MacAction::Drop { .. } => {
                    // End-to-end recovery (TCP retransmission / VoIP loss
                    // accounting) covers MAC drops; only the legacy traced
                    // runner records them.
                }
            }
        }
    }

    fn start_transmission(&mut self, node: NodeId, frame: Frame, rate: RateClass) {
        let rate = match rate {
            RateClass::Data => self.params.data_rate,
            RateClass::Basic => self.params.basic_rate,
        };
        let airtime = self.params.airtime(rate, frame.wire_bytes());
        let now = self.now();
        if let Some(BusyTransition::BecameBusy) = self.receivers[node.index()].on_tx_start(now) {
            let mut sink = self.macs.take_sink();
            self.macs.node(node).on_busy(now, &mut sink);
            self.apply_mac_actions(node, &mut sink);
            self.macs.park_sink(sink);
        }
        let key = self.node_key(node);
        self.queue.schedule_keyed_in(airtime, key, Event::TxEnd { node });
        self.broadcast(node, frame, airtime);
    }

    /// Fans one transmission out: plans receptions under a read-locked
    /// medium snapshot (consuming the transmitter's own shadowing stream,
    /// station-index order), reserves two keys per receiver on the
    /// transmitter's lane — the keys a per-arrival schedule mints, in plan
    /// order, so the schedule is identical at any shard count — and groups
    /// the receivers by owning shard: this shard's open a local fan-out,
    /// every other shard's leave in one [`CrossShardFan`] through the
    /// outbox.
    fn broadcast(&mut self, from: NodeId, frame: Frame, airtime: SimDuration) {
        let mut plans = std::mem::take(&mut self.plan_scratch);
        {
            let medium = self.medium.read().expect("medium lock poisoned");
            medium.plan_transmission_into(from, &mut self.medium_rngs[from.index()], &mut plans);
        }
        let seq_base = self.reserve_node_seqs(from, 2 * plans.len() as u64);
        for (i, plan) in plans.iter().enumerate() {
            self.fill[self.owner[plan.to.index()] as usize].push(FanEntry::new(i, plan));
        }
        self.plan_scratch = plans;
        let origin =
            FanOrigin { frame: Arc::new(frame), from, start: self.now(), airtime, seq_base };
        let local = self.shard as usize;
        for dst in 0..self.fill.len() {
            if dst == local || self.fill[dst].is_empty() {
                continue;
            }
            let spare = self.spare.pop().unwrap_or_default();
            self.outbox.push(CrossShardFan {
                dst_shard: dst as u32,
                origin: origin.clone(),
                entries: std::mem::replace(&mut self.fill[dst], spare),
                src_shard: self.shard,
                emit_seq: self.emit_seq,
            });
            self.emit_seq += 1;
        }
        let mut entries = std::mem::take(&mut self.fill[local]);
        self.open_fan(origin, &mut entries);
        self.fill[local] = entries;
    }

    fn route(&self, flow: FlowId, node: NodeId, forward: bool) -> Option<RouteInfo> {
        self.net.read().expect("net lock poisoned").route(flow, node, forward)
    }

    fn handle_delivery(&mut self, node: NodeId, packet: Packet) {
        let flow_id = packet.header.flow;
        let spec_src = self.flows.flow(flow_id).spec.src();
        let spec_dst = self.flows.flow(flow_id).spec.dst();
        let forward = packet.header.src == spec_src;

        if packet.header.dst == node {
            // Reached a transport endpoint.
            if node == spec_dst && forward {
                self.deliver_at_destination(flow_id, packet);
            } else if node == spec_src && !forward {
                self.deliver_at_source(flow_id, packet);
            }
            return;
        }
        // Intermediate hop (predetermined routing only): forward along.
        if let Some(route) = self.route(flow_id, node, forward) {
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
                    let key = self.flow_key(flow_id);
                    self.queue.schedule_keyed_in(
                        delay,
                        key,
                        Event::TcpRto { flow: flow_id, generation },
                    );
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
                        let key = self.flow_key(flow_id);
                        self.queue.schedule_keyed_in(off, key, Event::WebStart { flow: flow_id });
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
        let spec = &self.flows.flow(flow_id).spec;
        let (src, dst) = if forward { (spec.src(), spec.dst()) } else { (spec.dst(), spec.src()) };
        let Some(route) = self.route(flow_id, src, forward) else { return };
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
        let Some(route) = self.route(flow_id, src, true) else { return };
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
                let key = self.flow_key(flow_id);
                self.queue.schedule_keyed_in(interval, key, Event::UdpSend { flow: flow_id });
            }
        }
    }
}
