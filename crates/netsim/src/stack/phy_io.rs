//! The channel-facing layer of the node stack: the shared [`Medium`], one
//! [`Receiver`] per station, the in-flight transmissions' fan-outs
//! (`FanSlab`: two queued events per transmission, however many
//! receivers), the bit-error model, and — since mobility — the station
//! trajectories.
//!
//! Everything stochastic about the channel lives here, behind exactly two
//! streams (`medium` for shadowing, `ber` for bit errors), consumed in the
//! same order the monolithic runner consumed them — which is what keeps the
//! layered stack bit-identical to its predecessor. Mobility draws **no**
//! randomness at run time: trajectories are pure functions of time
//! ([`wmn_topology::motion`]), sampled on a fixed tick and pushed into the
//! medium's batched link-state refresh.

use std::sync::Arc;

use wmn_mac::frame::{Frame, RxFrame};
use wmn_phy::{BerModel, Medium, Position, Receiver, RxPlan};
use wmn_sim::{EventQueue, NodeId, RngDirectory, SimDuration, SimTime, StreamRng};
use wmn_topology::MotionPlan;

use crate::scenario::Scenario;
use crate::stack::Event;

/// Bit 31 of [`FanEntry::tag`]: the arrival is strong enough to decode.
const DECODABLE: u32 = 1 << 31;

/// One receiver of a fan-out, packed into 24 bytes (a fan-out of a
/// 1024-station campus holds a few hundred of them).
#[derive(Clone, Copy, Debug)]
pub(crate) struct FanEntry {
    /// Propagation delay from the transmitter.
    delay: SimDuration,
    /// Received power in dBm.
    power_dbm: f64,
    /// The receiving station.
    to: NodeId,
    /// The receiver's index in the transmission's reception plan in the
    /// low 31 bits — the offset of its two sequence numbers — and the
    /// [`DECODABLE`] flag in bit 31.
    tag: u32,
}

impl FanEntry {
    /// The entry of receiver `index` of a reception plan.
    pub(crate) fn new(index: usize, plan: &RxPlan) -> FanEntry {
        debug_assert!(index < DECODABLE as usize, "plan index {index} overflows the tag");
        let flag = if plan.decodable { DECODABLE } else { 0 };
        FanEntry {
            delay: plan.delay,
            power_dbm: plan.power_dbm,
            to: plan.to,
            tag: index as u32 | flag,
        }
    }

    /// The receiving station.
    pub(crate) fn to(&self) -> NodeId {
        self.to
    }

    fn index(&self) -> u32 {
        self.tag & !DECODABLE
    }

    /// Where `cursor` schedules this receiver's event: at the reception's
    /// start or end, under `seq_base + 2·index` (RxStart) or the number
    /// after it (RxEnd) — the numbers the receiver's two events took when
    /// every arrival was scheduled on its own.
    pub(crate) fn head(&self, fan: &FanOrigin, cursor: Cursor) -> Head {
        let seq = fan.seq_base + 2 * u64::from(self.index());
        match cursor {
            Cursor::Start => Head { at: fan.start + self.delay, from: fan.from, seq },
            Cursor::End => {
                Head { at: fan.start + self.delay + fan.airtime, from: fan.from, seq: seq + 1 }
            }
        }
    }
}

/// What a fan-out shares across its receivers: the transmission.
#[derive(Clone, Debug)]
pub(crate) struct FanOrigin {
    /// The transmitted frame: one allocation however many receivers.
    pub(crate) frame: Arc<Frame>,
    /// The transmitter (the sharded engine mints the keys on its lane).
    pub(crate) from: NodeId,
    /// The instant the transmission started.
    pub(crate) start: SimTime,
    /// Its airtime: every reception ends this long after it starts.
    pub(crate) airtime: SimDuration,
    /// First of the `2·plans` sequence numbers the transmission reserved.
    pub(crate) seq_base: u64,
}

/// The two cursors of a fan-out: one walks the receivers' RxStart events,
/// the other their RxEnd events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Cursor {
    /// Receptions starting.
    Start,
    /// Receptions ending.
    End,
}

impl Cursor {
    /// The event that stands for this cursor of fan-out `fan` in a queue.
    pub(crate) fn event(self, fan: u32) -> Event {
        match self {
            Cursor::Start => Event::RxStart { fan },
            Cursor::End => Event::RxEnd { fan },
        }
    }
}

/// Where a cursor is next due: the instant and sequence number of its
/// next receiver's event, and the transmitter whose lane the number is on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Head {
    pub(crate) at: SimTime,
    pub(crate) from: NodeId,
    pub(crate) seq: u64,
}

/// One receiver's arrival, handed out as its cursor passes it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Arrival {
    /// The receiving station.
    pub(crate) node: NodeId,
    /// The arrival's id at its receiver: fan-out slot and entry position.
    pub(crate) id: u64,
    /// Whether the arrival is strong enough to decode.
    pub(crate) decodable: bool,
    /// Received power in dBm.
    pub(crate) power_dbm: f64,
}

/// One transmission in flight: its receivers sorted by `(delay, plan
/// index)` — the order their events pop — and a position per cursor.
#[derive(Default)]
struct FanOut {
    /// `None` while the slot is free.
    origin: Option<FanOrigin>,
    entries: Vec<FanEntry>,
    /// Next entry of each cursor, indexed by `Cursor as usize`.
    next: [u32; 2],
}

/// The in-flight fan-outs of one engine (one per shard worker), in a slab
/// of recycled slots.
///
/// A transmission keeps two events in the queue, not two per receiver:
/// `RxStart { fan }` at its start cursor's head and `RxEnd { fan }` at its
/// end cursor's. Dispatching one hands out the receiver at the head
/// ([`FanSlab::advance`]) and re-schedules the cursor at the next receiver.
/// Because the receivers are sorted by `(delay, plan index)` and keep the
/// sequence numbers (or keys) they had when each was scheduled on its own,
/// a heap of cursors pops the exact `(time, seq)` sequence a heap of all
/// arrivals did.
///
/// A slot — and with it the entry buffer's capacity — is recycled LIFO
/// once its end cursor has passed the last receiver, so a steady-state
/// transmission allocates nothing here. Arrival ids pack `(slot, entry
/// position)`; since a slot is freed only after every one of its
/// receptions ended, an id is unique among the arrivals live at any
/// receiver (which `Receiver` asserts in debug builds). Ids are lookup
/// handles only and never order events.
#[derive(Default)]
pub(crate) struct FanSlab {
    fans: Vec<FanOut>,
    free: Vec<u32>,
}

impl FanSlab {
    /// Opens a fan-out of `origin` to the receivers in `entries` (any
    /// order), or returns `None` if there are none. The entries move into
    /// the slot; `entries` comes back empty, holding a recycled buffer.
    pub(crate) fn open(&mut self, origin: FanOrigin, entries: &mut Vec<FanEntry>) -> Option<u32> {
        if entries.is_empty() {
            return None;
        }
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.fans.push(FanOut::default());
                (self.fans.len() - 1) as u32
            }
        };
        let fan = &mut self.fans[slot as usize];
        debug_assert!(fan.origin.is_none() && fan.entries.is_empty(), "slot {slot} is live");
        std::mem::swap(&mut fan.entries, entries);
        fan.entries.sort_unstable_by_key(|e| (e.delay, e.index()));
        fan.origin = Some(origin);
        fan.next = [0, 0];
        Some(slot)
    }

    /// The transmission fan-out `fan` carries.
    pub(crate) fn origin(&self, fan: u32) -> &FanOrigin {
        self.fans[fan as usize].origin.as_ref().expect("fan-out slot is live")
    }

    /// Where `cursor` of fan-out `fan` is next due, or `None` once it has
    /// passed every receiver.
    pub(crate) fn head(&self, fan: u32, cursor: Cursor) -> Option<Head> {
        let f = &self.fans[fan as usize];
        let entry = f.entries.get(f.next[cursor as usize] as usize)?;
        Some(entry.head(self.origin(fan), cursor))
    }

    /// Hands out the receiver at `cursor`'s head, moves the cursor on, and
    /// returns the arrival with the cursor's next head (`None` when it was
    /// the last receiver).
    pub(crate) fn advance(&mut self, fan: u32, cursor: Cursor) -> (Arrival, Option<Head>) {
        let f = &mut self.fans[fan as usize];
        let pos = f.next[cursor as usize];
        let e = f.entries[pos as usize];
        f.next[cursor as usize] += 1;
        let arrival = Arrival {
            node: e.to,
            id: (u64::from(fan) << 32) | u64::from(pos),
            decodable: e.tag & DECODABLE != 0,
            power_dbm: e.power_dbm,
        };
        (arrival, self.head(fan, cursor))
    }

    /// Frees fan-out `fan` once its end cursor has passed every receiver;
    /// before that, does nothing. Drops the slot's frame handle.
    pub(crate) fn release_if_done(&mut self, fan: u32) {
        let f = &mut self.fans[fan as usize];
        debug_assert!(f.origin.is_some(), "fan-out slot {fan} released twice");
        if (f.next[Cursor::End as usize] as usize) < f.entries.len() {
            return;
        }
        f.origin = None;
        f.entries.clear();
        self.free.push(fan);
    }

    /// Live fan-outs (tests only).
    #[cfg(test)]
    fn live(&self) -> usize {
        self.fans.len() - self.free.len()
    }
}

/// One mobility step over any medium handle: re-sample every moving node's
/// trajectory at `now`, collect the changed positions into `moves` (a
/// caller-owned buffer, cleared first, so a tick allocates nothing once it
/// has grown), and push them into the medium as one batched link-state
/// refresh. Shared by [`PhyIo::advance_positions`] (single-loop engine) and
/// the shard coordinator's mobility barrier, so the two engines cannot drift
/// apart on what a tick means.
///
/// A node whose sampled position equals its current one — typically a
/// waypoint walker parked at its final target — is left out of the batch:
/// recomputing link state from an identical position yields identical values
/// (the computation is deterministic and draws no RNG), so the short-circuit
/// cannot change results, only save the node's `n − 1` pair updates.
pub(crate) fn advance_medium_positions(
    medium: &mut Medium,
    motion: &MotionPlan,
    origin: &[Position],
    now: SimTime,
    moves: &mut Vec<(NodeId, Position)>,
) {
    moves.clear();
    for (i, path) in motion.paths.iter().enumerate() {
        if path.is_static() {
            continue;
        }
        let node = NodeId::new(i as u32);
        let pos = path.position_at(origin[i], now);
        if pos != medium.position(node) {
            moves.push((node, pos));
        }
    }
    medium.update_positions(moves);
}

/// The PHY I/O layer: medium, per-station receivers, in-flight fan-outs,
/// BER, and mobility state.
pub(crate) struct PhyIo {
    medium: Medium,
    ber: BerModel,
    receivers: Vec<Receiver>,
    /// The transmissions in flight (see [`FanSlab`]).
    fans: FanSlab,
    /// Reusable buffer for `Medium::plan_transmission_into` — zero planner
    /// allocations per transmission at steady state.
    plan_scratch: Vec<RxPlan>,
    /// Reusable buffer a fan-out's entries are built in; [`FanSlab::open`]
    /// swaps it for a recycled one.
    fill: Vec<FanEntry>,
    medium_rng: StreamRng,
    ber_rng: StreamRng,
    /// The `t = 0` placement mobility trajectories are anchored to.
    origin: Vec<Position>,
    motion: MotionPlan,
    /// Reusable buffer of one mobility tick's moves.
    moves: Vec<(NodeId, Position)>,
}

impl PhyIo {
    /// Builds the layer from a validated scenario, deriving its two RNG
    /// streams (`medium`, `ber`) from the run's directory.
    pub(crate) fn build(scenario: &Scenario, dir: &RngDirectory) -> Self {
        let n = scenario.positions.len();
        PhyIo {
            medium: Medium::new(scenario.params.clone(), scenario.positions.clone()),
            ber: BerModel::new(scenario.params.ber),
            receivers: (0..n).map(|_| Receiver::new()).collect(),
            fans: FanSlab::default(),
            plan_scratch: Vec::new(),
            fill: Vec::new(),
            medium_rng: dir.stream("medium"),
            ber_rng: dir.stream("ber"),
            origin: scenario.positions.clone(),
            motion: scenario.motion.clone(),
            moves: Vec::new(),
        }
    }

    /// The PHY parameter set of the run.
    pub(crate) fn params(&self) -> &wmn_phy::PhyParams {
        self.medium.params()
    }

    /// The shared medium, exposing the *current* link state — the input of
    /// the live route-refresh pass.
    pub(crate) fn medium(&self) -> &Medium {
        &self.medium
    }

    /// The reception state machine of one station.
    pub(crate) fn receiver(&mut self, node: NodeId) -> &mut Receiver {
        &mut self.receivers[node.index()]
    }

    /// Fans one transmission out to every station that will perceive it:
    /// plans receptions (one shadowing draw per pair, station-index order),
    /// reserves the two sequence numbers per receiver the queue would have
    /// handed out scheduling each RxStart/RxEnd on its own, and opens a
    /// fan-out whose two cursors are scheduled at their first receivers.
    pub(crate) fn broadcast(
        &mut self,
        from: NodeId,
        frame: Frame,
        airtime: SimDuration,
        queue: &mut EventQueue<Event>,
    ) {
        let plans = &mut self.plan_scratch;
        self.medium.plan_transmission_into(from, &mut self.medium_rng, plans);
        let seq_base = queue.reserve_seqs(2 * plans.len() as u64);
        self.fill.extend(plans.iter().enumerate().map(|(i, plan)| FanEntry::new(i, plan)));
        let origin =
            FanOrigin { frame: Arc::new(frame), from, start: queue.now(), airtime, seq_base };
        if let Some(fan) = self.fans.open(origin, &mut self.fill) {
            for cursor in [Cursor::Start, Cursor::End] {
                let head = self.fans.head(fan, cursor).expect("an open fan-out has receivers");
                queue.schedule_reserved(head.at, head.seq, cursor.event(fan));
            }
        }
    }

    /// Hands out the arrival at `cursor`'s head of fan-out `fan` and
    /// re-schedules the cursor at its next receiver, under that receiver's
    /// reserved sequence number.
    pub(crate) fn next_arrival(
        &mut self,
        fan: u32,
        cursor: Cursor,
        queue: &mut EventQueue<Event>,
    ) -> Arrival {
        let (arrival, next) = self.fans.advance(fan, cursor);
        if let Some(head) = next {
            queue.schedule_reserved(head.at, head.seq, cursor.event(fan));
        }
        arrival
    }

    /// Frees fan-out `fan` after its last RxEnd has been handled.
    pub(crate) fn release_fan(&mut self, fan: u32) {
        self.fans.release_if_done(fan);
    }

    /// Applies the i.i.d. BER model to the frame of fan-out `fan` — a thin
    /// wrapper over the engines' shared
    /// [`decode_frame`](super::decode::decode_frame) seam, consuming this
    /// engine's global `ber` stream.
    ///
    /// A frame that decodes with no subframe losses is handed to the MAC as
    /// a shared handle to the broadcast allocation (zero copies); only a
    /// corrupted frame pays for a copy-on-write detach.
    pub(crate) fn apply_bit_errors(&mut self, fan: u32) -> Option<RxFrame> {
        let frame = &self.fans.origin(fan).frame;
        super::decode::decode_frame(&self.ber, &mut self.ber_rng, frame)
    }

    /// Whether any station actually moves (drives whether the runner
    /// schedules mobility ticks at all — a static plan schedules nothing
    /// and the stack is byte-identical to the static simulator).
    pub(crate) fn is_mobile(&self) -> bool {
        !self.motion.is_static()
    }

    /// The position re-sampling interval of a mobile run.
    pub(crate) fn motion_tick(&self) -> SimDuration {
        self.motion.tick
    }

    /// One mobility step: re-sample every moving node's trajectory at `now`
    /// and push the new positions into the medium's batched link-state
    /// refresh (O(n) per moved node, instead of an n² matrix rebuild). See
    /// [`advance_medium_positions`], which the shard coordinator shares.
    pub(crate) fn advance_positions(&mut self, now: SimTime) {
        advance_medium_positions(
            &mut self.medium,
            &self.motion,
            &self.origin,
            now,
            &mut self.moves,
        );
    }

    /// The medium's current idea of a station's position (moves over time
    /// in mobile runs).
    #[cfg(test)]
    pub(crate) fn position(&self, node: NodeId) -> Position {
        self.medium.position(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_mac::frame::AckFrame;

    fn ack() -> Frame {
        Frame::Ack(AckFrame {
            transmitter: NodeId::new(0),
            to: NodeId::new(1),
            flow: wmn_sim::FlowId::new(0),
            frame_seq: 0,
            acked_seqs: Default::default(),
            relay_list: Default::default(),
        })
    }

    fn origin(seq_base: u64) -> FanOrigin {
        FanOrigin {
            frame: Arc::new(ack()),
            from: NodeId::new(0),
            start: SimTime::from_nanos(1_000),
            airtime: SimDuration::from_nanos(500),
            seq_base,
        }
    }

    /// Entries of a plan whose receivers `1..` have the given delays (ns).
    fn entries(delays: &[u64]) -> Vec<FanEntry> {
        delays
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let plan = RxPlan {
                    to: NodeId::new(i as u32 + 1),
                    delay: SimDuration::from_nanos(d),
                    power_dbm: -60.0 - i as f64,
                    decodable: i % 2 == 0,
                };
                FanEntry::new(i, &plan)
            })
            .collect()
    }

    #[test]
    fn fan_entries_stay_compact() {
        assert_eq!(std::mem::size_of::<FanEntry>(), 24);
    }

    #[test]
    fn cursors_walk_receivers_in_delay_then_plan_order() {
        let mut slab = FanSlab::default();
        let mut fill = entries(&[30, 10, 10, 20]);
        let fan = slab.open(origin(100), &mut fill).expect("receivers");
        assert!(fill.is_empty(), "the entries moved into the slot");
        // Plan indices in (delay, index) order: 1, 2, 3, 0.
        let mut starts = Vec::new();
        while let Some(head) = slab.head(fan, Cursor::Start) {
            let (arrival, next) = slab.advance(fan, Cursor::Start);
            assert_eq!(next, slab.head(fan, Cursor::Start));
            starts.push((head.at.as_nanos(), head.seq, arrival.node.index(), arrival.decodable));
        }
        assert_eq!(
            starts,
            [
                (1_010, 102, 2, false),
                (1_010, 104, 3, true),
                (1_020, 106, 4, false),
                (1_030, 100, 1, true)
            ]
        );
        let end = slab.head(fan, Cursor::End).expect("nothing ended yet");
        assert_eq!((end.at.as_nanos(), end.seq, end.from), (1_510, 103, NodeId::new(0)));
    }

    #[test]
    fn fan_slot_is_recycled_only_after_its_last_rx_end() {
        let mut slab = FanSlab::default();
        let first = slab.open(origin(0), &mut entries(&[5, 7])).expect("receivers");
        let mut ids = Vec::new();
        for _ in 0..2 {
            ids.push(slab.advance(first, Cursor::Start).0.id);
        }
        assert_ne!(ids[0], ids[1], "ids are unique within a fan-out");
        let (end, _) = slab.advance(first, Cursor::End);
        assert_eq!(end.id, ids[0], "start and end of a reception share its id");
        slab.release_if_done(first);
        assert_eq!(slab.live(), 1, "one RxEnd still pending: the slot stays live");
        let second = slab.open(origin(4), &mut entries(&[1])).expect("receivers");
        assert_ne!(first, second, "a live slot is never handed out again");
        slab.advance(first, Cursor::End);
        slab.release_if_done(first);
        assert_eq!(slab.live(), 1);
        // The freed slot — and its entry buffer — is reused.
        let mut fill = entries(&[3, 3, 3]);
        let third = slab.open(origin(8), &mut fill).expect("receivers");
        assert_eq!(third, first);
        assert!(fill.capacity() >= 2, "the recycled buffer comes back to the caller");
        assert!(slab.open(origin(9), &mut Vec::new()).is_none(), "no receivers, no fan-out");
    }

    fn phy(positions: Vec<Position>) -> PhyIo {
        let scenario = crate::scenario::Scenario {
            name: "fan-out".into(),
            params: wmn_phy::PhyParams::paper_216(),
            flows: vec![crate::scenario::FlowSpec {
                path: vec![NodeId::new(0), NodeId::new(1)],
                workload: crate::scenario::Workload::Ftp,
            }],
            positions,
            scheme: crate::scenario::Scheme::Dcf { aggregation: 1 },
            duration: SimDuration::from_millis(1),
            seed: 1,
            max_forwarders: 5,
            motion: MotionPlan::default(),
            route_refresh: None,
            shards: None,
        };
        PhyIo::build(&scenario, &RngDirectory::new(1))
    }

    #[test]
    fn broadcast_queues_two_events_per_transmission() {
        let mut phy = phy((0..6).map(|i| Position::new(f64::from(i), 0.0)).collect());
        let mut queue = EventQueue::with_capacity(4);
        let airtime = SimDuration::from_micros(40);
        phy.broadcast(NodeId::new(0), ack(), airtime, &mut queue);
        let receivers = queue.scheduled_total() / 2;
        assert!(receivers >= 4, "co-located stations almost always sense the frame");
        assert_eq!(queue.len(), 2, "one event per cursor, not two per receiver");
        let (mut started, mut ended) = (0, 0);
        while let Some((_, event)) = queue.pop() {
            match event {
                Event::RxStart { fan } => {
                    phy.next_arrival(fan, Cursor::Start, &mut queue);
                    started += 1;
                }
                Event::RxEnd { fan } => {
                    let arrival = phy.next_arrival(fan, Cursor::End, &mut queue);
                    assert_ne!(arrival.node, NodeId::new(0), "never to the transmitter");
                    phy.release_fan(fan);
                    ended += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!((started, ended), (receivers, receivers));
        assert_eq!(phy.fans.live(), 0, "the fan-out is freed after its last RxEnd");
    }
}
