//! The shared wireless medium and the per-node reception state machine.
//!
//! Modelling follows NS-2's 802.11 PHY, which the paper relies
//! on for its collision results (Section IV-B):
//!
//! * Each transmission reaches each other station with power
//!   `Pt − PL(d) + X_σ` (fresh shadowing draw per frame *and* per receiver).
//! * Power ≥ `rx_thresh` → the frame is **decodable**; power ≥ `cs_thresh`
//!   → it is **sensed** (contributes carrier sense / busy). Below carrier
//!   sense the transmission is invisible and does not interfere.
//! * **First-lock capture** (NS-2's `CPThresh`, 10 dB): when arrivals
//!   overlap, the reception in progress survives if it is at least
//!   [`CAPTURE_THRESHOLD_DB`] stronger than the interferer; otherwise both
//!   are corrupted. A later arrival is never decodable itself while another
//!   reception is in progress, and a station that is transmitting cannot
//!   receive (half-duplex). Hidden-terminal collisions arise naturally.
//!
//! [`Medium`] computes the per-receiver reception plan for a transmission;
//! [`Receiver`] tracks overlapping arrivals at one station and reports frame
//! outcomes and channel busy/idle transitions. The simulation runner (crate
//! `wmn-netsim`) owns one `Receiver` per node and drives both from the event
//! queue.

use wmn_sim::{NodeId, SimDuration, SimTime, StreamRng};

/// NS-2's capture threshold (`CPThresh`): a reception in progress survives
/// interference that is at least this many dB weaker.
pub const CAPTURE_THRESHOLD_DB: f64 = 10.0;

use crate::params::PhyParams;
use crate::position::Position;

/// How a single planned arrival will be perceived by one receiver.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RxPlan {
    /// The receiving station.
    pub to: NodeId,
    /// Propagation delay from the transmitter.
    pub delay: SimDuration,
    /// Received power in dBm (already includes the shadowing draw).
    pub power_dbm: f64,
    /// Whether the arrival is strong enough to decode.
    pub decodable: bool,
}

/// Build-time classification of one directed station pair, derived from the
/// pair's mean received power and the hard bound on a Box–Muller shadowing
/// excursion (see [`wmn_sim::StreamRng::standard_normal`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkClass {
    /// Even the largest possible shadowing excursion leaves the pair below
    /// carrier sense: the transmission is invisible there. The planner still
    /// consumes the pair's shadowing draws so the stream stays bit-identical
    /// to a full sample.
    NeverSensed,
    /// The pair's fate depends on the per-frame draw: sample, then compare
    /// against the carrier-sense and receive thresholds.
    Sampled,
    /// Even the most negative possible excursion stays at or above the
    /// receive threshold: every frame is sensed and decodable (the sample is
    /// still taken — its value feeds the capture comparison).
    AlwaysDecodable,
}

/// Precomputed state of one station pair: everything about the
/// deterministic part of the propagation model, so the per-transmission work
/// reduces to one shadowing draw and a threshold compare. Every field is a
/// function of the pair's distance alone, so both directions of a pair hold
/// the same bits.
#[derive(Clone, Copy, Debug)]
struct LinkState {
    /// Distance in metres.
    distance: f64,
    /// Mean received power in dBm (transmit power minus mean path loss).
    mean_rx_dbm: f64,
    /// Propagation delay over the link.
    delay: SimDuration,
    /// Threshold classification of the pair.
    class: LinkClass,
}

/// The shared wireless medium: node positions plus the propagation model.
///
/// Construction materialises a flat n×n link-state matrix (distance, mean
/// received power, propagation delay, and a threshold classification per
/// directed pair). [`Medium::plan_transmission`] is then a row walk that adds
/// one fresh shadowing draw per pair instead of re-deriving the geometry and
/// path loss on every transmission. Under mobility,
/// [`Medium::update_positions`] refreshes only the pairs a batch of moves
/// touches.
///
/// The link state of a pair depends only on its distance, so the matrix is
/// symmetric: construction and refresh compute each unordered pair once and
/// write both `[a][b]` and `[b][a]`.
///
/// # Example
///
/// ```
/// use wmn_phy::{Medium, PhyParams, Position};
/// use wmn_sim::{NodeId, StreamRng};
///
/// let medium = Medium::new(
///     PhyParams::paper_216(),
///     vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0)],
/// );
/// let mut rng = StreamRng::derive(1, "medium");
/// let plans = medium.plan_transmission(NodeId::new(0), &mut rng);
/// // At 5 m the neighbour almost always senses the frame.
/// assert!(plans.len() <= 1);
/// ```
#[derive(Debug)]
pub struct Medium {
    params: PhyParams,
    positions: Vec<Position>,
    /// Flat row-major n×n matrix; entry `[from · n + to]` describes the
    /// directed pair. The diagonal is filled (zero distance) but never read
    /// by the planner.
    links: Vec<LinkState>,
    /// Per-station marks of [`Medium::update_positions`]: set for a moved
    /// station once its pairs are refreshed, so a pair of two moved
    /// stations is computed once. All clear between calls.
    refreshed: Vec<bool>,
}

/// The largest |z| the Box–Muller transform over a 53-bit uniform can emit
/// (`u1 ≥ 2⁻⁵³` ⇒ `|z| ≤ sqrt(-2·ln 2⁻⁵³) ≈ 8.5716`), inflated by a small
/// guard so floating-point rounding in either direction cannot make the
/// build-time classification unsound.
fn max_shadowing_sigmas() -> f64 {
    (-2.0 * (1.0 / (1u64 << 53) as f64).ln()).sqrt() * (1.0 + 1e-9) + 1e-9
}

/// Computes the link state of one pair, given `z_max =`
/// [`max_shadowing_sigmas`] (hoisted by the callers, which evaluate many
/// pairs). This is the **single** place the deterministic part of the
/// propagation model is evaluated: construction and the incremental
/// [`Medium::update_positions`] refresh both call it, so a refreshed matrix
/// is bit-identical to a rebuilt one. Swapping `from` and `to` gives the
/// same bits: the distance is a `hypot` of negated differences.
fn link_state(params: &PhyParams, z_max: f64, from: Position, to: Position) -> LinkState {
    let sigma = params.shadowing.sigma_db.abs();
    let d = from.distance_to(to);
    let mean = params.shadowing.mean_rx_dbm(params.tx_power_dbm, d);
    // AlwaysDecodable must clear *both* thresholds at the most
    // negative possible excursion: `PhyParams` fields are public,
    // so cs_thresh above rx_thresh is a legal (if odd)
    // configuration, and the naive path would still drop
    // sub-carrier-sense samples there.
    let min_power = mean - sigma * z_max;
    let class = if mean + sigma * z_max < params.cs_thresh_dbm {
        LinkClass::NeverSensed
    } else if min_power >= params.rx_thresh_dbm && min_power >= params.cs_thresh_dbm {
        LinkClass::AlwaysDecodable
    } else {
        LinkClass::Sampled
    };
    LinkState { distance: d, mean_rx_dbm: mean, delay: params.propagation_delay(d), class }
}

impl Medium {
    /// Creates a medium over the given station placement, precomputing the
    /// per-pair link-state matrix (O(n²) once, instead of per transmission).
    pub fn new(params: PhyParams, positions: Vec<Position>) -> Self {
        let n = positions.len();
        let z_max = max_shadowing_sigmas();
        // A station's distance to itself is zero at any finite position, so
        // one diagonal entry serves every station and the fill below only
        // computes the upper triangle, mirroring each pair.
        let diagonal = link_state(&params, z_max, Position::default(), Position::default());
        let mut links = vec![diagonal; n * n];
        for a in 0..n {
            for b in a + 1..n {
                let link = link_state(&params, z_max, positions[a], positions[b]);
                links[a * n + b] = link;
                links[b * n + a] = link;
            }
        }
        Medium { params, positions, links, refreshed: vec![false; n] }
    }

    /// Moves one station. Shorthand for a one-move
    /// [`Medium::update_positions`] batch.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn update_node_position(&mut self, node: NodeId, position: Position) {
        self.update_positions(&[(node, position)]);
    }

    /// Moves a batch of stations and refreshes only the link-state entries
    /// the moves can affect: every pair with at least one moved endpoint.
    /// Each such unordered pair is computed once and written to both
    /// directions, so one moved station costs `n − 1` pair computations,
    /// and `k` moved stations cost fewer than `k·n` (a pair of two moved
    /// stations is shared). When a station appears more than once, its last
    /// position wins.
    ///
    /// The refreshed entries are computed by the same code path as
    /// construction, so after any sequence of updates the matrix is
    /// bit-identical to `Medium::new` over the current placement (pinned by
    /// this module's tests). No RNG is touched: link state is the
    /// deterministic part of the model, and per-frame shadowing draws keep
    /// their stream positions regardless of position changes. No memory is
    /// allocated.
    ///
    /// # Panics
    ///
    /// Panics if a node id is out of range.
    pub fn update_positions(&mut self, moves: &[(NodeId, Position)]) {
        let n = self.positions.len();
        assert!(moves.iter().all(|&(node, _)| node.index() < n), "node id out of range");
        for &(node, position) in moves {
            self.positions[node.index()] = position;
        }
        let z_max = max_shadowing_sigmas();
        for &(node, _) in moves {
            let a = node.index();
            if self.refreshed[a] {
                continue;
            }
            let position = self.positions[a];
            for b in (0..n).filter(|&b| b != a && !self.refreshed[b]) {
                let link = link_state(&self.params, z_max, position, self.positions[b]);
                self.links[a * n + b] = link;
                self.links[b * n + a] = link;
            }
            self.refreshed[a] = true;
        }
        for &(node, _) in moves {
            self.refreshed[node.index()] = false;
        }
    }

    /// Number of stations.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// The placement of a station.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn position(&self, node: NodeId) -> Position {
        self.positions[node.index()]
    }

    /// The PHY parameter set this medium was built with.
    pub fn params(&self) -> &PhyParams {
        &self.params
    }

    /// The *current* placement of every station, in node-id order.
    ///
    /// Under mobility this reflects every [`Medium::update_positions`]
    /// applied so far — it is the live view routing-refresh passes rebuild
    /// their link graphs from.
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// Clean-frame delivery probability over the directed pair, evaluated
    /// from the *cached* mean received power.
    ///
    /// The cached mean is the expression
    /// [`PhyParams::link_delivery_probability`] computes from the distance,
    /// over a distance from the same `distance_to` computation as scenario
    /// build, so this is bit-identical to evaluating the analytic model over
    /// the current placement directly — the property that makes a route
    /// refresh over an unmoved topology a behavioural no-op. Like all link
    /// state it is symmetric: both directions of a pair give the same bits.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn link_delivery_probability(&self, from: NodeId, to: NodeId) -> f64 {
        let p = &self.params;
        p.shadowing.success_probability_at_mean(self.link(from, to).mean_rx_dbm, p.rx_thresh_dbm)
    }

    /// Distance between two stations in metres (precomputed).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.link(a, b).distance
    }

    /// Mean received power (dBm) over the directed pair — the deterministic
    /// part of the shadowing model, precomputed at construction.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn mean_rx_dbm(&self, from: NodeId, to: NodeId) -> f64 {
        self.link(from, to).mean_rx_dbm
    }

    /// The build-time threshold classification of the directed pair.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn link_class(&self, from: NodeId, to: NodeId) -> LinkClass {
        self.link(from, to).class
    }

    fn link(&self, from: NodeId, to: NodeId) -> &LinkState {
        assert!(to.index() < self.positions.len(), "node id out of range");
        &self.links[from.index() * self.positions.len() + to.index()]
    }

    /// The minimum propagation delay over directed pairs whose endpoints
    /// lie in *different* groups of `group_of` (one group id per station),
    /// restricted to sensed pairs (link class other than
    /// [`LinkClass::NeverSensed`]).
    ///
    /// This is the conservative lookahead bound of a sharded event loop: a
    /// transmission inside one group cannot cause an event in another group
    /// sooner than this delay after its emission, so every shard may freely
    /// process events up to (but not at) `earliest pending + lookahead`.
    /// `None` means no cross-group pair is sensed at all — the groups are
    /// radio-isolated and any horizon is safe.
    ///
    /// Walks the cached link-state matrix (no trigonometry, no RNG); under
    /// mobility the bound is only valid until the next position update, so
    /// callers re-query after each mobility barrier.
    ///
    /// # Panics
    ///
    /// Panics unless `group_of` has exactly one entry per station.
    pub fn min_cross_group_delay(&self, group_of: &[u32]) -> Option<SimDuration> {
        let n = self.positions.len();
        assert_eq!(group_of.len(), n, "one group id per station");
        let mut min: Option<SimDuration> = None;
        for from in 0..n {
            let row = &self.links[from * n..(from + 1) * n];
            for (to, link) in row.iter().enumerate() {
                if group_of[from] == group_of[to] || link.class == LinkClass::NeverSensed {
                    continue;
                }
                min = Some(min.map_or(link.delay, |m| m.min(link.delay)));
            }
        }
        min
    }

    /// Computes, for one transmission by `from`, the set of stations that
    /// will perceive it (power at or above carrier sense), with fresh
    /// independent shadowing draws. Stations below carrier sense are omitted
    /// — they neither decode nor defer.
    ///
    /// Allocates a fresh vector per call; hot loops should hold a scratch
    /// buffer and use [`Medium::plan_transmission_into`] instead.
    pub fn plan_transmission(&self, from: NodeId, rng: &mut StreamRng) -> Vec<RxPlan> {
        let mut plans = Vec::new();
        self.plan_transmission_into(from, rng, &mut plans);
        plans
    }

    /// Like [`Medium::plan_transmission`], but writes into a caller-owned
    /// buffer (cleared first) so a simulation loop performs zero allocations
    /// per transmission once the buffer has grown to the neighbourhood size.
    ///
    /// The RNG stream is consumed in the identical order to the original
    /// per-call computation — one [shadowing draw's worth] per other station,
    /// in station-index order — so results are bit-for-bit reproducible
    /// across both implementations and any future ones held to the same
    /// contract.
    ///
    /// [shadowing draw's worth]: wmn_sim::StreamRng::skip_standard_normal
    pub fn plan_transmission_into(
        &self,
        from: NodeId,
        rng: &mut StreamRng,
        plans: &mut Vec<RxPlan>,
    ) {
        plans.clear();
        let p = &self.params;
        let n = self.positions.len();
        let row = &self.links[from.index() * n..(from.index() + 1) * n];
        for (idx, link) in row.iter().enumerate() {
            if idx == from.index() {
                continue;
            }
            match link.class {
                LinkClass::NeverSensed => {
                    // Invisible regardless of the draw: consume the pair's
                    // stream share without the transcendental math.
                    rng.skip_standard_normal();
                }
                LinkClass::Sampled => {
                    let power = link.mean_rx_dbm + p.shadowing.sigma_db * rng.standard_normal();
                    if power < p.cs_thresh_dbm {
                        continue;
                    }
                    plans.push(RxPlan {
                        to: NodeId::new(idx as u32),
                        delay: link.delay,
                        power_dbm: power,
                        decodable: power >= p.rx_thresh_dbm,
                    });
                }
                LinkClass::AlwaysDecodable => {
                    let power = link.mean_rx_dbm + p.shadowing.sigma_db * rng.standard_normal();
                    plans.push(RxPlan {
                        to: NodeId::new(idx as u32),
                        delay: link.delay,
                        power_dbm: power,
                        decodable: true,
                    });
                }
            }
        }
    }

    /// The raw link-state matrix, for tests pinning the incremental refresh
    /// bit-identical to full reconstruction.
    #[cfg(test)]
    fn links(&self) -> &[LinkState] {
        &self.links
    }

    /// The pre-refactor per-call computation, kept as the oracle the cached
    /// planner is pinned against: re-derives distance, mean path loss, and
    /// thresholds for every pair on every call.
    #[cfg(test)]
    fn plan_transmission_naive(&self, from: NodeId, rng: &mut StreamRng) -> Vec<RxPlan> {
        let p = &self.params;
        let mut plans = Vec::new();
        for idx in 0..self.positions.len() {
            if idx == from.index() {
                continue;
            }
            let to = NodeId::new(idx as u32);
            let d = self.positions[from.index()].distance_to(self.positions[to.index()]);
            let power = p.shadowing.sample_rx_dbm(p.tx_power_dbm, d, rng);
            if power < p.cs_thresh_dbm {
                continue;
            }
            plans.push(RxPlan {
                to,
                delay: p.propagation_delay(d),
                power_dbm: power,
                decodable: power >= p.rx_thresh_dbm,
            });
        }
        plans
    }
}

/// Outcome of one arrival at one receiver, reported when the arrival ends.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArrivalOutcome {
    /// Decodable and never overlapped by another sensed arrival or by a
    /// local transmission: the frame reaches the MAC (subject to bit
    /// errors, applied by the caller).
    Clean,
    /// Sensed but corrupted by overlap / local transmission, or simply too
    /// weak to decode. Nothing reaches the MAC.
    Lost,
}

/// Channel busy/idle transition triggered by an arrival or local TX change.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BusyTransition {
    /// The channel just became busy at this station.
    BecameBusy,
    /// The channel just became idle at this station.
    BecameIdle,
}

#[derive(Debug)]
struct ActiveArrival {
    id: u64,
    decodable: bool,
    corrupted: bool,
    power_dbm: f64,
}

/// Per-station reception state machine: overlapping sensed arrivals, local
/// transmission state, and the busy/idle signal the MAC consumes.
///
/// All arrivals passed in are sensed by construction (`Medium` filters out
/// sub-carrier-sense receptions).
#[derive(Debug)]
pub struct Receiver {
    transmitting: bool,
    arrivals: Vec<ActiveArrival>,
    idle_since: SimTime,
}

impl Receiver {
    /// Creates a receiver whose channel has been idle since time zero.
    pub fn new() -> Self {
        Receiver { transmitting: false, arrivals: Vec::new(), idle_since: SimTime::ZERO }
    }

    /// Whether the channel currently appears busy at this station (a sensed
    /// arrival in progress, or a local transmission).
    pub fn is_busy(&self) -> bool {
        self.transmitting || !self.arrivals.is_empty()
    }

    /// The instant the channel last became idle. Meaningful only while
    /// [`Receiver::is_busy`] is false.
    pub fn idle_since(&self) -> SimTime {
        self.idle_since
    }

    /// Registers the start of a sensed arrival.
    ///
    /// An arrival that begins while another reception is in progress is
    /// itself lost; the reception in progress survives only if it is at
    /// least [`CAPTURE_THRESHOLD_DB`] stronger than the newcomer (NS-2's
    /// capture rule). Starting while the station transmits corrupts the
    /// arrival.
    pub fn on_arrival_start(
        &mut self,
        id: u64,
        decodable: bool,
        power_dbm: f64,
        _now: SimTime,
    ) -> Option<BusyTransition> {
        let was_busy = self.is_busy();
        let mut corrupted = self.transmitting;
        if !self.arrivals.is_empty() {
            // The receiver is locked onto an earlier arrival: this one is
            // lost, and it corrupts any ongoing reception it is too close
            // to in power.
            corrupted = true;
            for a in &mut self.arrivals {
                if a.power_dbm - power_dbm < CAPTURE_THRESHOLD_DB {
                    a.corrupted = true;
                }
            }
        }
        self.arrivals.push(ActiveArrival { id, decodable, corrupted, power_dbm });
        if was_busy {
            None
        } else {
            Some(BusyTransition::BecameBusy)
        }
    }

    /// Registers the end of a previously started arrival and reports its
    /// outcome.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never started (a simulation-runner bug).
    pub fn on_arrival_end(
        &mut self,
        id: u64,
        now: SimTime,
    ) -> (ArrivalOutcome, Option<BusyTransition>) {
        let idx = self
            .arrivals
            .iter()
            .position(|a| a.id == id)
            .expect("arrival end without matching start");
        let arrival = self.arrivals.swap_remove(idx);
        let outcome = if arrival.decodable && !arrival.corrupted && !self.transmitting {
            ArrivalOutcome::Clean
        } else {
            ArrivalOutcome::Lost
        };
        let transition = if !self.is_busy() {
            self.idle_since = now;
            Some(BusyTransition::BecameIdle)
        } else {
            None
        };
        (outcome, transition)
    }

    /// Registers the start of a local transmission. Any arrival in progress
    /// is corrupted (half-duplex).
    pub fn on_tx_start(&mut self, _now: SimTime) -> Option<BusyTransition> {
        let was_busy = self.is_busy();
        self.transmitting = true;
        for a in &mut self.arrivals {
            a.corrupted = true;
        }
        if was_busy {
            None
        } else {
            Some(BusyTransition::BecameBusy)
        }
    }

    /// Registers the end of the local transmission.
    ///
    /// # Panics
    ///
    /// Panics if no transmission was in progress.
    pub fn on_tx_end(&mut self, now: SimTime) -> Option<BusyTransition> {
        assert!(self.transmitting, "tx end without tx start");
        self.transmitting = false;
        if !self.is_busy() {
            self.idle_since = now;
            Some(BusyTransition::BecameIdle)
        } else {
            None
        }
    }
}

impl Default for Receiver {
    fn default() -> Self {
        Receiver::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn lone_decodable_arrival_is_clean() {
        let mut rx = Receiver::new();
        assert_eq!(rx.on_arrival_start(1, true, -50.0, t(0)), Some(BusyTransition::BecameBusy));
        assert!(rx.is_busy());
        let (outcome, trans) = rx.on_arrival_end(1, t(50));
        assert_eq!(outcome, ArrivalOutcome::Clean);
        assert_eq!(trans, Some(BusyTransition::BecameIdle));
        assert_eq!(rx.idle_since(), t(50));
    }

    #[test]
    fn sensed_but_weak_arrival_is_lost() {
        let mut rx = Receiver::new();
        rx.on_arrival_start(1, false, -70.0, t(0));
        let (outcome, _) = rx.on_arrival_end(1, t(10));
        assert_eq!(outcome, ArrivalOutcome::Lost);
    }

    #[test]
    fn comparable_power_overlap_corrupts_both() {
        let mut rx = Receiver::new();
        rx.on_arrival_start(1, true, -60.0, t(0));
        assert_eq!(rx.on_arrival_start(2, true, -62.0, t(5)), None, "already busy");
        let (o1, tr1) = rx.on_arrival_end(1, t(20));
        assert_eq!(o1, ArrivalOutcome::Lost);
        assert_eq!(tr1, None, "second arrival still active");
        let (o2, tr2) = rx.on_arrival_end(2, t(30));
        assert_eq!(o2, ArrivalOutcome::Lost);
        assert_eq!(tr2, Some(BusyTransition::BecameIdle));
    }

    #[test]
    fn late_overlap_corrupts_earlier_arrival() {
        // Hidden-terminal case: the earlier frame is nearly done when a
        // comparable-power collider starts — it must still be corrupted.
        let mut rx = Receiver::new();
        rx.on_arrival_start(1, true, -60.0, t(0));
        rx.on_arrival_start(2, false, -63.0, t(49));
        let (o1, _) = rx.on_arrival_end(1, t(50));
        assert_eq!(o1, ArrivalOutcome::Lost);
    }

    #[test]
    fn strong_reception_captures_over_weak_interference() {
        // NS-2 capture: a 24 dB stronger reception in progress survives a
        // weak hidden-terminal arrival; the weak arrival is lost.
        let mut rx = Receiver::new();
        rx.on_arrival_start(1, true, -50.0, t(0));
        rx.on_arrival_start(2, true, -74.0, t(10));
        let (o1, _) = rx.on_arrival_end(1, t(50));
        assert_eq!(o1, ArrivalOutcome::Clean, "captured reception survives");
        let (o2, _) = rx.on_arrival_end(2, t(60));
        assert_eq!(o2, ArrivalOutcome::Lost, "the latecomer is always lost");
    }

    #[test]
    fn strong_latecomer_destroys_weak_reception() {
        // The locked-on weak frame cannot survive a much stronger collider,
        // and the collider itself is not decodable either (no re-locking).
        let mut rx = Receiver::new();
        rx.on_arrival_start(1, true, -74.0, t(0));
        rx.on_arrival_start(2, true, -50.0, t(10));
        let (o1, _) = rx.on_arrival_end(1, t(50));
        assert_eq!(o1, ArrivalOutcome::Lost);
        let (o2, _) = rx.on_arrival_end(2, t(60));
        assert_eq!(o2, ArrivalOutcome::Lost);
    }

    #[test]
    fn transmission_corrupts_reception() {
        let mut rx = Receiver::new();
        rx.on_arrival_start(1, true, -50.0, t(0));
        assert_eq!(rx.on_tx_start(t(5)), None);
        let (o, _) = rx.on_arrival_end(1, t(20));
        assert_eq!(o, ArrivalOutcome::Lost);
        assert!(rx.is_busy(), "still transmitting");
        assert_eq!(rx.on_tx_end(t(40)), Some(BusyTransition::BecameIdle));
    }

    #[test]
    fn arrival_during_tx_is_lost() {
        let mut rx = Receiver::new();
        assert_eq!(rx.on_tx_start(t(0)), Some(BusyTransition::BecameBusy));
        rx.on_arrival_start(1, true, -50.0, t(5));
        rx.on_tx_end(t(10));
        let (o, trans) = rx.on_arrival_end(1, t(20));
        assert_eq!(o, ArrivalOutcome::Lost);
        assert_eq!(trans, Some(BusyTransition::BecameIdle));
    }

    #[test]
    fn idle_since_tracks_last_transition() {
        let mut rx = Receiver::new();
        assert_eq!(rx.idle_since(), SimTime::ZERO);
        rx.on_arrival_start(1, true, -50.0, t(10));
        rx.on_arrival_end(1, t(60));
        assert_eq!(rx.idle_since(), t(60));
        assert!(!rx.is_busy());
    }

    #[test]
    #[should_panic(expected = "without matching start")]
    fn unknown_arrival_end_panics() {
        let mut rx = Receiver::new();
        let _ = rx.on_arrival_end(99, t(0));
    }

    #[test]
    fn medium_plans_exclude_transmitter_and_far_nodes() {
        use crate::params::PhyParams;
        let medium = Medium::new(
            PhyParams::paper_216(),
            vec![
                Position::new(0.0, 0.0),
                Position::new(5.0, 0.0),
                Position::new(1000.0, 0.0), // far outside carrier sense
            ],
        );
        let mut rng = StreamRng::derive(2, "plan");
        let mut neighbour_seen = 0;
        let mut far_seen = 0;
        for _ in 0..200 {
            for plan in medium.plan_transmission(NodeId::new(0), &mut rng) {
                assert_ne!(plan.to, NodeId::new(0), "never deliver to self");
                match plan.to.index() {
                    1 => neighbour_seen += 1,
                    2 => far_seen += 1,
                    _ => unreachable!(),
                }
            }
        }
        assert!(neighbour_seen > 190, "5 m neighbour almost always sensed");
        assert_eq!(far_seen, 0, "1 km station never sensed");
    }

    #[test]
    fn min_cross_group_delay_tracks_the_closest_sensed_pair() {
        use crate::params::PhyParams;
        let params = PhyParams::paper_216();
        // Groups: {0, 1} | {2} | {3}. Node 3 is radio-isolated at 1 km.
        let medium = Medium::new(
            params.clone(),
            vec![
                Position::new(0.0, 0.0),
                Position::new(5.0, 0.0),
                Position::new(35.0, 0.0),
                Position::new(1000.0, 0.0),
            ],
        );
        let groups = [0u32, 0, 1, 2];
        // The closest cross-group sensed pair is 1↔2 at 30 m; the 5 m pair
        // 0↔1 is intra-group and must not shrink the bound.
        assert_eq!(
            medium.min_cross_group_delay(&groups),
            Some(params.propagation_delay(30.0)),
            "lookahead must come from the closest *cross*-group sensed pair"
        );
        // One group: no cross pairs at all.
        assert_eq!(medium.min_cross_group_delay(&[0, 0, 0, 0]), None);
        // Only the isolated station across the cut: nothing is sensed.
        assert_eq!(medium.min_cross_group_delay(&[0, 0, 0, 1]), None);
    }

    #[test]
    fn medium_decodable_fraction_matches_analytic() {
        use crate::params::PhyParams;
        let params = PhyParams::paper_216();
        let analytic = params.link_delivery_probability(10.0);
        let medium = Medium::new(params, vec![Position::new(0.0, 0.0), Position::new(10.0, 0.0)]);
        let mut rng = StreamRng::derive(9, "frac");
        let n = 20_000;
        let decodable = (0..n)
            .filter(|_| {
                medium.plan_transmission(NodeId::new(0), &mut rng).iter().any(|p| p.decodable)
            })
            .count() as f64
            / n as f64;
        assert!(
            (decodable - analytic).abs() < 0.02,
            "empirical {decodable} vs analytic {analytic}"
        );
    }

    #[test]
    fn link_classification_matches_paper_regimes() {
        use crate::params::PhyParams;
        let medium = Medium::new(
            PhyParams::paper_216(),
            vec![
                Position::new(0.0, 0.0),
                Position::new(5.0, 0.0),    // good link: draw-dependent
                Position::new(1000.0, 0.0), // far outside any possible excursion
            ],
        );
        let (n0, n1, n2) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        assert_eq!(medium.link_class(n0, n1), LinkClass::Sampled);
        assert_eq!(medium.link_class(n0, n2), LinkClass::NeverSensed);
        assert_eq!(medium.link_class(n2, n0), LinkClass::NeverSensed, "symmetric geometry");
        // Paper-calibrated precomputed quantities survive the refactor.
        assert!((medium.distance(n0, n2) - 1000.0).abs() < 1e-9);
        assert!((medium.mean_rx_dbm(n0, n1) - (-50.51)).abs() < 0.1);
    }

    #[test]
    fn tight_shadowing_yields_always_decodable_links() {
        use crate::params::PhyParams;
        // With a near-deterministic channel (σ = 0.5 dB) a 5 m link's worst
        // possible draw still clears the −65 dBm receive threshold.
        let mut params = PhyParams::paper_216();
        params.shadowing.sigma_db = 0.5;
        let medium = Medium::new(params, vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0)]);
        assert_eq!(medium.link_class(NodeId::new(0), NodeId::new(1)), LinkClass::AlwaysDecodable);
        let mut rng = StreamRng::derive(4, "always");
        for _ in 0..100 {
            let plans = medium.plan_transmission(NodeId::new(0), &mut rng);
            assert_eq!(plans.len(), 1);
            assert!(plans[0].decodable);
        }
    }

    #[test]
    fn inverted_thresholds_still_match_naive() {
        use crate::params::PhyParams;
        // cs_thresh above rx_thresh is a legal (if odd) configuration of the
        // public parameter record: a sample can then decode-but-not-sense,
        // and the naive path drops it. AlwaysDecodable must not claim such
        // links. Regression for the classification requiring *both*
        // thresholds at the worst-case excursion.
        // At 13.5 m the mean (~ -72 dBm) sits between the thresholds: the
        // worst-case draw clears rx (-80) but samples straddle cs (-70) —
        // exactly the regime where the unsound shortcut diverged.
        let mut params = PhyParams::paper_216();
        params.rx_thresh_dbm = -80.0;
        params.cs_thresh_dbm = -70.0;
        params.shadowing.sigma_db = 0.5;
        let medium = Medium::new(params, vec![Position::new(0.0, 0.0), Position::new(13.5, 0.0)]);
        assert_eq!(
            medium.link_class(NodeId::new(0), NodeId::new(1)),
            LinkClass::Sampled,
            "must not shortcut past the higher carrier-sense threshold"
        );
        let mut rng_c = StreamRng::derive(6, "inv");
        let mut rng_n = StreamRng::derive(6, "inv");
        for _ in 0..500 {
            let cached = medium.plan_transmission(NodeId::new(0), &mut rng_c);
            let naive = medium.plan_transmission_naive(NodeId::new(0), &mut rng_n);
            assert_eq!(cached, naive);
        }
        assert_eq!(rng_c.next_u64(), rng_n.next_u64());
    }

    #[test]
    fn scratch_buffer_reuse_matches_fresh_allocation() {
        use crate::params::PhyParams;
        let medium = Medium::new(
            PhyParams::paper_216(),
            (0..8).map(|i| Position::new(f64::from(i) * 7.0, 0.0)).collect(),
        );
        let mut scratch = Vec::new();
        let mut rng_a = StreamRng::derive(5, "scratch");
        let mut rng_b = StreamRng::derive(5, "scratch");
        for round in 0..50 {
            let from = NodeId::new(round % 8);
            medium.plan_transmission_into(from, &mut rng_a, &mut scratch);
            assert_eq!(scratch, medium.plan_transmission(from, &mut rng_b), "round {round}");
        }
    }

    /// Asserts two media have bit-identical link-state matrices (floats
    /// compared via `to_bits`, classification exactly).
    fn assert_links_identical(a: &Medium, b: &Medium, context: &str) {
        assert_eq!(a.links().len(), b.links().len(), "{context}: matrix sizes differ");
        for (i, (x, y)) in a.links().iter().zip(b.links()).enumerate() {
            assert_eq!(x.distance.to_bits(), y.distance.to_bits(), "{context}: distance [{i}]");
            assert_eq!(
                x.mean_rx_dbm.to_bits(),
                y.mean_rx_dbm.to_bits(),
                "{context}: mean_rx_dbm [{i}]"
            );
            assert_eq!(x.delay, y.delay, "{context}: delay [{i}]");
            assert_eq!(x.class, y.class, "{context}: class [{i}]");
        }
    }

    #[test]
    fn incremental_refresh_matches_full_reconstruction() {
        use crate::params::PhyParams;
        let params = PhyParams::paper_216();
        let mut positions: Vec<Position> =
            (0..7).map(|i| Position::new(f64::from(i) * 60.0, f64::from(i % 3) * 45.0)).collect();
        let mut medium = Medium::new(params.clone(), positions.clone());
        // Walk one node across every propagation regime (near, mid, beyond
        // any possible excursion), moving other nodes in between so stale
        // rows would be caught.
        let moves: [(u32, f64, f64); 5] =
            [(2, 3.0, 4.0), (0, 500.0, 0.0), (2, 120.0, 80.0), (6, 1.0, 1.0), (3, 417.0, 0.0)];
        for (step, (node, x, y)) in moves.into_iter().enumerate() {
            let pos = Position::new(x, y);
            positions[node as usize] = pos;
            medium.update_node_position(NodeId::new(node), pos);
            let rebuilt = Medium::new(params.clone(), positions.clone());
            assert_links_identical(&medium, &rebuilt, &format!("move {step}"));
            // The planner sees the refreshed matrix exactly as a rebuild
            // would, including the RNG stream position afterwards.
            let mut rng_a = StreamRng::derive(step as u64, "refresh");
            let mut rng_b = StreamRng::derive(step as u64, "refresh");
            for from in 0..positions.len() {
                let from = NodeId::new(from as u32);
                assert_eq!(
                    medium.plan_transmission(from, &mut rng_a),
                    rebuilt.plan_transmission(from, &mut rng_b),
                );
            }
            assert_eq!(rng_a.next_u64(), rng_b.next_u64());
        }
    }

    #[test]
    fn update_reclassifies_links_across_thresholds() {
        use crate::params::PhyParams;
        let mut medium = Medium::new(
            PhyParams::paper_216(),
            vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0)],
        );
        let (n0, n1) = (NodeId::new(0), NodeId::new(1));
        assert_eq!(medium.link_class(n0, n1), LinkClass::Sampled);
        medium.update_node_position(n1, Position::new(1000.0, 0.0));
        assert_eq!(medium.link_class(n0, n1), LinkClass::NeverSensed);
        assert_eq!(medium.link_class(n1, n0), LinkClass::NeverSensed, "column refreshed too");
        assert!((medium.distance(n0, n1) - 1000.0).abs() < 1e-9);
        medium.update_node_position(n1, Position::new(5.0, 0.0));
        assert_eq!(medium.link_class(n0, n1), LinkClass::Sampled, "move back restores the link");
    }

    #[test]
    fn link_delivery_probability_tracks_moves_bit_for_bit() {
        use crate::params::PhyParams;
        let params = PhyParams::paper_216();
        let mut medium =
            Medium::new(params.clone(), vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0)]);
        let (n0, n1) = (NodeId::new(0), NodeId::new(1));
        let analytic =
            |a: Position, b: Position| params.link_delivery_probability(a.distance_to(b));
        assert_eq!(
            medium.link_delivery_probability(n0, n1).to_bits(),
            analytic(Position::new(0.0, 0.0), Position::new(5.0, 0.0)).to_bits(),
            "cached distance must reproduce the analytic model exactly"
        );
        assert_eq!(medium.positions()[1], Position::new(5.0, 0.0));
        let moved = Position::new(3.0, 4.0);
        medium.update_node_position(n1, moved);
        assert_eq!(medium.positions()[1], moved, "positions() is the live view");
        assert_eq!(
            medium.link_delivery_probability(n1, n0).to_bits(),
            analytic(moved, Position::new(0.0, 0.0)).to_bits(),
            "refresh keeps the bit-identity"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_rejects_out_of_range_ids() {
        use crate::params::PhyParams;
        let mut medium = Medium::new(PhyParams::paper_216(), vec![Position::new(0.0, 0.0)]);
        medium.update_node_position(NodeId::new(3), Position::new(1.0, 1.0));
    }

    proptest! {
        /// After a random sequence of node moves, the incrementally
        /// refreshed matrix is bit-identical to a fresh construction over
        /// the final placement — the contract the mobility subsystem's
        /// determinism rests on.
        #[test]
        fn prop_incremental_refresh_matches_rebuild(
            coords in proptest::collection::vec((0.0f64..500.0, 0.0f64..500.0), 2..12),
            moves in proptest::collection::vec((0usize..12, 0.0f64..500.0, 0.0f64..500.0), 1..12),
        ) {
            use crate::params::PhyParams;
            let mut positions: Vec<Position> =
                coords.iter().map(|&(x, y)| Position::new(x, y)).collect();
            let mut medium = Medium::new(PhyParams::paper_216(), positions.clone());
            for &(pick, x, y) in &moves {
                let node = pick % positions.len();
                positions[node] = Position::new(x, y);
                medium.update_node_position(NodeId::new(node as u32), Position::new(x, y));
            }
            let rebuilt = Medium::new(PhyParams::paper_216(), positions);
            assert_links_identical(&medium, &rebuilt, "prop rebuild");
        }

        /// A random multi-station batch — repeats allowed, and half the
        /// cases move every station — leaves the matrix bit-identical to a
        /// fresh construction over the final placement, and every pair's two
        /// directions bit-equal.
        #[test]
        fn prop_batched_refresh_matches_rebuild_and_stays_symmetric(
            coords in proptest::collection::vec((0.0f64..500.0, 0.0f64..500.0), 2..14),
            batch in proptest::collection::vec((0usize..14, 0.0f64..500.0, 0.0f64..500.0), 0..20),
            everyone_moves in any::<bool>(),
        ) {
            use crate::params::PhyParams;
            let mut positions: Vec<Position> =
                coords.iter().map(|&(x, y)| Position::new(x, y)).collect();
            let n = positions.len();
            let mut medium = Medium::new(PhyParams::paper_216(), positions.clone());
            let mut moves: Vec<(NodeId, Position)> = batch
                .iter()
                .map(|&(pick, x, y)| (NodeId::new((pick % n) as u32), Position::new(x, y)))
                .collect();
            if everyone_moves {
                moves.extend((0..n).map(|i| {
                    let p = positions[i];
                    (NodeId::new(i as u32), Position::new(p.y + 1.5, p.x * 0.5))
                }));
            }
            for &(node, pos) in &moves {
                positions[node.index()] = pos;
            }
            medium.update_positions(&moves);
            let rebuilt = Medium::new(PhyParams::paper_216(), positions);
            assert_links_identical(&medium, &rebuilt, "batched rebuild");
            for a in 0..n {
                for b in 0..n {
                    let (x, y) = (&medium.links()[a * n + b], &medium.links()[b * n + a]);
                    prop_assert_eq!(x.distance.to_bits(), y.distance.to_bits());
                    prop_assert_eq!(x.mean_rx_dbm.to_bits(), y.mean_rx_dbm.to_bits());
                    prop_assert_eq!(x.delay, y.delay);
                    prop_assert_eq!(x.class, y.class);
                }
            }
            // The marks are clear again: a follow-up single move still
            // refreshes every pair it touches.
            prop_assert!(medium.refreshed.iter().all(|&r| !r));
        }

        /// The cached planner is pinned bit-identical to the pre-refactor
        /// naive computation: same plans (floats compared exactly) AND the
        /// same RNG stream position afterwards, across random topologies,
        /// seeds, and transmitters. This is the determinism contract every
        /// future planner optimisation must keep.
        #[test]
        fn prop_cached_planner_matches_naive_bit_for_bit(
            seed in proptest::num::u64::ANY,
            coords in proptest::collection::vec((0.0f64..400.0, 0.0f64..400.0), 2..16),
            from_pick in 0usize..16,
        ) {
            use crate::params::PhyParams;
            let positions: Vec<Position> =
                coords.iter().map(|&(x, y)| Position::new(x, y)).collect();
            let from = NodeId::new((from_pick % positions.len()) as u32);
            let medium = Medium::new(PhyParams::paper_216(), positions);
            let mut rng_cached = StreamRng::derive(seed, "pin");
            let mut rng_naive = StreamRng::derive(seed, "pin");
            for _ in 0..8 {
                let cached = medium.plan_transmission(from, &mut rng_cached);
                let naive = medium.plan_transmission_naive(from, &mut rng_naive);
                prop_assert_eq!(cached.len(), naive.len());
                for (c, n) in cached.iter().zip(&naive) {
                    prop_assert_eq!(c.to, n.to);
                    prop_assert_eq!(c.delay, n.delay);
                    prop_assert_eq!(c.power_dbm.to_bits(), n.power_dbm.to_bits());
                    prop_assert_eq!(c.decodable, n.decodable);
                }
            }
            // Identical draw consumption: the next raw words agree.
            for _ in 0..4 {
                prop_assert_eq!(rng_cached.next_u64(), rng_naive.next_u64());
            }
        }

        /// Busy transitions alternate: the receiver never reports two
        /// BecameBusy (or two BecameIdle) in a row, no matter the interleaving
        /// of arrival/tx starts and ends.
        #[test]
        fn prop_busy_transitions_alternate(ops in proptest::collection::vec(0u8..4, 1..60)) {
            let mut rx = Receiver::new();
            let mut active: Vec<u64> = Vec::new();
            let mut next_id = 0u64;
            let mut transmitting = false;
            let mut last: Option<BusyTransition> = None;
            let check = |tr: Option<BusyTransition>, last: &mut Option<BusyTransition>| {
                if let Some(tr) = tr {
                    if let Some(prev) = *last {
                        prop_assert!(prev != tr, "two identical transitions in a row");
                    }
                    *last = Some(tr);
                }
                Ok(())
            };
            for (i, op) in ops.iter().enumerate() {
                let now = SimTime::from_micros(i as u64);
                match op {
                    0 => {
                        next_id += 1;
                        active.push(next_id);
                        let tr = rx.on_arrival_start(next_id, true, -60.0, now);
                        check(tr, &mut last)?;
                    }
                    1 if !active.is_empty() => {
                        let id = active.remove(0);
                        let (_, tr) = rx.on_arrival_end(id, now);
                        check(tr, &mut last)?;
                    }
                    2 if !transmitting => {
                        transmitting = true;
                        let tr = rx.on_tx_start(now);
                        check(tr, &mut last)?;
                    }
                    3 if transmitting => {
                        transmitting = false;
                        let tr = rx.on_tx_end(now);
                        check(tr, &mut last)?;
                    }
                    _ => {}
                }
            }
        }
    }
}
