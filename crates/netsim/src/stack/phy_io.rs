//! The channel-facing layer of the node stack: the shared [`Medium`], one
//! [`Receiver`] per station, the in-flight arrival slab, the bit-error
//! model, and — since mobility — the station trajectories.
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

/// One in-flight arrival: a transmission en route to one receiver.
pub(crate) struct ArrivalState {
    /// The receiving station.
    pub(crate) node: NodeId,
    /// Shared handle to the transmitted frame: a broadcast to k receivers
    /// costs one allocation, not k deep clones. Clean decodes ride the same
    /// shared handle all the way into the MAC; a private copy is made only
    /// when bit errors corrupt a subframe (see
    /// [`decode_frame`](super::decode::decode_frame)).
    pub(crate) frame: Arc<Frame>,
    /// Whether the arrival is strong enough to decode.
    pub(crate) decodable: bool,
    /// Received power in dBm.
    pub(crate) power_dbm: f64,
}

/// One slab slot: its current occupant (if any) plus a generation counter
/// bumped every time the slot is freed, so recycled slots mint fresh ids.
#[derive(Default)]
struct Slot {
    generation: u32,
    state: Option<ArrivalState>,
}

/// Packs a slot index and its generation into one arrival event id.
fn arrival_id(slot: u32, generation: u32) -> u64 {
    (u64::from(generation) << 32) | u64::from(slot)
}

/// Splits an arrival event id back into `(slot, generation)`.
fn split_arrival_id(id: u64) -> (u32, u32) {
    (id as u32, (id >> 32) as u32)
}

/// The in-flight arrival slab, factored out of [`PhyIo`] so shard workers
/// can own one each: freed slots are recycled LIFO, so memory stays bounded
/// by the peak number of concurrent arrivals instead of growing with the run
/// length. Event ids pack the slot index with the slot's generation tag (see
/// [`arrival_id`]): a stale id whose slot was recycled for a *different*
/// arrival then fails the generation check instead of silently aliasing the
/// new occupant. Slab ids are pure lookup handles — they never participate
/// in event ordering, which is what lets each shard mint its own ids without
/// perturbing the deterministic `(time, key)` schedule.
#[derive(Default)]
pub(crate) struct ArrivalSlab {
    arrivals: Vec<Slot>,
    free: Vec<u32>,
}

impl ArrivalSlab {
    /// Places an in-flight arrival into the slab, recycling a freed slot if
    /// one is available, and returns its generation-tagged event id.
    pub(crate) fn alloc(&mut self, state: ArrivalState) -> u64 {
        match self.free.pop() {
            Some(slot) => {
                let entry = &mut self.arrivals[slot as usize];
                entry.state = Some(state);
                arrival_id(slot, entry.generation)
            }
            None => {
                self.arrivals.push(Slot { generation: 0, state: Some(state) });
                arrival_id((self.arrivals.len() - 1) as u32, 0)
            }
        }
    }

    /// Peeks at a parked arrival (for RxStart), if it is still in flight.
    /// An id whose slot has since been freed — even if recycled for another
    /// arrival — fails the generation check and returns `None`.
    pub(crate) fn peek(&self, id: u64) -> Option<&ArrivalState> {
        let (slot, generation) = split_arrival_id(id);
        let entry = self.arrivals.get(slot as usize)?;
        if entry.generation != generation {
            return None;
        }
        entry.state.as_ref()
    }

    /// Removes a parked arrival (at RxEnd), freeing its slot. Stale ids are
    /// rejected by the generation check like in [`ArrivalSlab::peek`].
    pub(crate) fn take(&mut self, id: u64) -> Option<ArrivalState> {
        let (slot, generation) = split_arrival_id(id);
        let entry = self.arrivals.get_mut(slot as usize)?;
        if entry.generation != generation {
            return None;
        }
        let state = entry.state.take()?;
        // Freeing bumps the generation, invalidating every id minted for
        // the old occupant the moment the slot is recyclable. Wrapping is
        // fine: an id only collides after exactly 2^32 reuses of one slot
        // while it is somehow still in flight.
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(slot);
        Some(state)
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

/// The PHY I/O layer: medium, per-station receivers, arrival slab, BER, and
/// mobility state.
pub(crate) struct PhyIo {
    medium: Medium,
    ber: BerModel,
    receivers: Vec<Receiver>,
    /// Slab of in-flight arrivals (see [`ArrivalSlab`]).
    arrivals: ArrivalSlab,
    /// Reusable buffer for `Medium::plan_transmission_into` — zero planner
    /// allocations per transmission at steady state.
    plan_scratch: Vec<RxPlan>,
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
            arrivals: ArrivalSlab::default(),
            plan_scratch: Vec::new(),
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
    /// parks each arrival in the slab, and schedules its RxStart/RxEnd pair.
    pub(crate) fn broadcast(
        &mut self,
        from: NodeId,
        frame: Frame,
        airtime: SimDuration,
        queue: &mut EventQueue<Event>,
    ) {
        // Plan into the reusable scratch buffer (taken out to satisfy the
        // borrow checker while scheduling), then share one frame allocation
        // across every receiver.
        let mut plans = std::mem::take(&mut self.plan_scratch);
        self.medium.plan_transmission_into(from, &mut self.medium_rng, &mut plans);
        let frame = Arc::new(frame);
        for plan in &plans {
            let slot = self.alloc_arrival(ArrivalState {
                node: plan.to,
                frame: Arc::clone(&frame),
                decodable: plan.decodable,
                power_dbm: plan.power_dbm,
            });
            queue.schedule_in(plan.delay, Event::RxStart { arrival: slot });
            queue.schedule_in(plan.delay + airtime, Event::RxEnd { arrival: slot });
        }
        self.plan_scratch = plans;
    }

    /// Places an in-flight arrival into the slab, recycling a freed slot if
    /// one is available, and returns its generation-tagged event id.
    fn alloc_arrival(&mut self, state: ArrivalState) -> u64 {
        self.arrivals.alloc(state)
    }

    /// Peeks at a parked arrival (for RxStart), if it is still in flight.
    /// See [`ArrivalSlab::peek`].
    pub(crate) fn arrival(&self, id: u64) -> Option<&ArrivalState> {
        self.arrivals.peek(id)
    }

    /// Removes a parked arrival (at RxEnd), freeing its slot. See
    /// [`ArrivalSlab::take`].
    pub(crate) fn take_arrival(&mut self, id: u64) -> Option<ArrivalState> {
        self.arrivals.take(id)
    }

    /// Applies the i.i.d. BER model to one received frame — a thin wrapper
    /// over the engines' shared [`decode_frame`](super::decode::decode_frame)
    /// seam, consuming this engine's global `ber` stream.
    ///
    /// A frame that decodes with no subframe losses is handed to the MAC as
    /// a shared handle to the broadcast allocation (zero copies); only a
    /// corrupted frame pays for a copy-on-write detach.
    pub(crate) fn apply_bit_errors(&mut self, frame: &Arc<Frame>) -> Option<RxFrame> {
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

    fn arrival(node: u32) -> ArrivalState {
        ArrivalState {
            node: NodeId::new(node),
            frame: Arc::new(Frame::Ack(wmn_mac::frame::AckFrame {
                transmitter: NodeId::new(0),
                to: NodeId::new(node),
                flow: wmn_sim::FlowId::new(0),
                frame_seq: 0,
                acked_seqs: Default::default(),
                relay_list: Default::default(),
            })),
            decodable: true,
            power_dbm: -50.0,
        }
    }

    fn phy() -> PhyIo {
        let scenario = crate::scenario::Scenario {
            name: "slab".into(),
            params: wmn_phy::PhyParams::paper_216(),
            positions: vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0)],
            scheme: crate::scenario::Scheme::Dcf { aggregation: 1 },
            flows: vec![crate::scenario::FlowSpec {
                path: vec![NodeId::new(0), NodeId::new(1)],
                workload: crate::scenario::Workload::Ftp,
            }],
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
    fn recycled_slot_rejects_stale_ids() {
        let mut phy = phy();
        // First occupant of slot 0.
        let first = phy.alloc_arrival(arrival(1));
        assert!(phy.arrival(first).is_some());
        assert!(phy.take_arrival(first).is_some());
        // The slot is recycled LIFO for a different arrival…
        let second = phy.alloc_arrival(arrival(0));
        assert_ne!(first, second, "recycling must mint a fresh id");
        assert_eq!(split_arrival_id(first).0, split_arrival_id(second).0, "same slot reused");
        // …and the stale id must not alias the new occupant.
        assert!(phy.arrival(first).is_none(), "stale peek rejected");
        assert!(phy.take_arrival(first).is_none(), "stale take rejected");
        let current = phy.arrival(second).expect("live id still resolves");
        assert_eq!(current.node, NodeId::new(0));
        assert!(phy.take_arrival(second).is_some());
        // Double-take of a live id is also rejected.
        assert!(phy.take_arrival(second).is_none());
    }

    #[test]
    fn generation_wraps_without_panicking() {
        let mut phy = phy();
        let id = phy.alloc_arrival(arrival(1));
        let (slot, _) = split_arrival_id(id);
        phy.arrivals.arrivals[slot as usize].generation = u32::MAX;
        let id = arrival_id(slot, u32::MAX);
        assert!(phy.take_arrival(id).is_some());
        assert_eq!(phy.arrivals.arrivals[slot as usize].generation, 0, "wrapping add");
    }
}
