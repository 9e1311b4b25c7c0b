//! The ETX link metric and shortest-path route discovery.
//!
//! ETX of a link is the expected number of transmissions for a successful
//! delivery-plus-acknowledgement: `1 / (p_fwd · p_rev)`. ETX of a path is
//! the sum over its links; Dijkstra minimises it. The paper delegates route
//! discovery to this metric ("Existing routing schemes (e.g., ExOR and
//! MORE) use ETX towards the destination to select forwarders") and focuses
//! on forwarding, so we compute delivery probabilities *analytically* from
//! the shadowing model rather than with probe traffic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use wmn_phy::{Medium, PhyParams, Position};
use wmn_sim::NodeId;

/// Links with delivery probability below this are unusable for routing.
const MIN_LINK_PROBABILITY: f64 = 0.05;

/// A delivery-probability matrix was rejected at [`LinkGraph`] construction.
///
/// Catching bad link costs here — with the offending pair named — replaces
/// the old failure mode: a `NaN` smuggled into the matrix survived until
/// Dijkstra's comparator panicked mid-extraction with no hint of which link
/// was broken.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum EtxError {
    /// A matrix row's length differs from the number of rows.
    NonSquare {
        /// Index of the offending row.
        row: usize,
        /// Its length.
        len: usize,
        /// The expected dimension (number of rows).
        n: usize,
    },
    /// A link's delivery probability is NaN or infinite.
    NonFinite {
        /// Transmitting node of the offending directed pair.
        from: NodeId,
        /// Receiving node of the offending directed pair.
        to: NodeId,
        /// The rejected value.
        value: f64,
    },
}

impl std::fmt::Display for EtxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EtxError::NonSquare { row, len, n } => {
                write!(
                    f,
                    "delivery matrix must be square: row {row} has {len} entries, expected {n}"
                )
            }
            EtxError::NonFinite { from, to, value } => {
                write!(
                    f,
                    "non-finite delivery probability {value} on link {} -> {}",
                    from.index(),
                    to.index()
                )
            }
        }
    }
}

impl std::error::Error for EtxError {}

/// Validates a delivery matrix: square, every entry finite.
fn validate(delivery: &[Vec<f64>]) -> Result<(), EtxError> {
    let n = delivery.len();
    for (i, row) in delivery.iter().enumerate() {
        if row.len() != n {
            return Err(EtxError::NonSquare { row: i, len: row.len(), n });
        }
        for (j, &p) in row.iter().enumerate() {
            if !p.is_finite() {
                return Err(EtxError::NonFinite {
                    from: NodeId::new(i as u32),
                    to: NodeId::new(j as u32),
                    value: p,
                });
            }
        }
    }
    Ok(())
}

/// ETX of a link from its two delivery probabilities, or `None` if either
/// direction is below the usability floor. The product commutes, so both
/// directions of a link get the same bits.
fn link_etx_of(p_fwd: f64, p_rev: f64) -> Option<f64> {
    (p_fwd >= MIN_LINK_PROBABILITY && p_rev >= MIN_LINK_PROBABILITY).then(|| 1.0 / (p_fwd * p_rev))
}

/// The usable links of a station placement, weighted by ETX, with Dijkstra
/// over them.
///
/// The graph is sparse: it stores only links whose delivery probability
/// clears the usability floor in both directions, as a compressed sparse
/// row (CSR) adjacency — a flat neighbour array with a parallel array of
/// link ETX values, each station's entries contiguous and in ascending
/// neighbour order, plus one offset per station into them. A link's ETX
/// does not depend on its direction, so each link appears once in each
/// endpoint's row with the same bits.
///
/// # Example
///
/// ```
/// use wmn_phy::{PhyParams, Position};
/// use wmn_routing::LinkGraph;
/// use wmn_sim::NodeId;
///
/// // Three stations in a line, 5 m apart: the two-hop route wins on ETX.
/// let g = LinkGraph::from_placement(
///     &PhyParams::paper_216(),
///     &[Position::new(0.0, 0.0), Position::new(5.0, 0.0), Position::new(10.0, 0.0)],
/// );
/// let path = g.shortest_path(NodeId::new(0), NodeId::new(2)).unwrap();
/// assert_eq!(path.len(), 3); // 0 -> 1 -> 2
/// ```
#[derive(Clone, Debug)]
pub struct LinkGraph {
    /// `offsets[u]..offsets[u + 1]` is station `u`'s range of `neighbours`
    /// and `etx` (`n + 1` entries).
    offsets: Vec<u32>,
    /// The far end of every usable link, once per endpoint, grouped by
    /// station.
    neighbours: Vec<u32>,
    /// The ETX of each entry of `neighbours`.
    etx: Vec<f64>,
}

impl LinkGraph {
    /// Builds the graph from the analytic shadowing-model delivery
    /// probabilities for a station placement.
    ///
    /// # Panics
    ///
    /// Panics with the [`EtxError`] message if the parameters yield a
    /// non-finite delivery probability (a misconfigured `PhyParams` — a
    /// programming error, not a runtime condition).
    pub fn from_placement(params: &PhyParams, positions: &[Position]) -> Self {
        Self::try_from_placement(params, positions).unwrap_or_else(|err| panic!("{err}"))
    }

    /// Fallible form of [`LinkGraph::from_placement`]: rejects non-finite
    /// delivery probabilities with a typed error naming the offending pair.
    ///
    /// Each unordered pair is evaluated once: the distance, and so the
    /// delivery probability, is the same bits in both directions.
    ///
    /// # Errors
    ///
    /// [`EtxError::NonFinite`] if any pair's delivery probability is NaN or
    /// infinite.
    pub fn try_from_placement(
        params: &PhyParams,
        positions: &[Position],
    ) -> Result<Self, EtxError> {
        Self::from_pairs(positions.len(), |a, b| {
            let p = params.link_delivery_probability(positions[a].distance_to(positions[b]));
            (p, p)
        })
    }

    /// Builds the graph from a [`Medium`]'s *current* link state — the entry
    /// point of the live routing-refresh pass.
    ///
    /// Delivery probabilities come from the medium's cached per-pair mean
    /// received power, which the mobility subsystem keeps bit-identical to a
    /// full rebuild over the current placement; over an unmoved placement
    /// this graph is therefore bit-identical to
    /// [`LinkGraph::from_placement`] at scenario build. The medium's link
    /// state is symmetric, so each unordered pair is read once.
    ///
    /// # Errors
    ///
    /// [`EtxError::NonFinite`] if any pair's delivery probability is NaN or
    /// infinite (a refresh caller can then keep its last-known-good routes
    /// instead of panicking mid-run).
    pub fn try_from_medium(medium: &Medium) -> Result<Self, EtxError> {
        Self::from_pairs(medium.node_count(), |a, b| {
            let p = medium.link_delivery_probability(NodeId::new(a as u32), NodeId::new(b as u32));
            (p, p)
        })
    }

    /// Builds a graph directly from a delivery-probability matrix (used by
    /// tests and synthetic topologies). `delivery[i][j]` is the probability
    /// a frame from `i` is decodable at `j`; the diagonal is ignored.
    ///
    /// # Errors
    ///
    /// [`EtxError::NonSquare`] if the matrix is not square,
    /// [`EtxError::NonFinite`] if any entry is NaN or infinite.
    pub fn from_matrix(delivery: Vec<Vec<f64>>) -> Result<Self, EtxError> {
        validate(&delivery)?;
        Self::from_pairs(delivery.len(), |a, b| (delivery[a][b], delivery[b][a]))
    }

    /// The one constructor. `pair(a, b)` gives `(p_ab, p_ba)` for an
    /// unordered pair `a < b` and must be a pure function of the pair.
    ///
    /// A first pass evaluates every pair once, in row-major order, checks
    /// it, and records which links are usable (one bit per pair) and each
    /// station's degree. That sizes the CSR arrays exactly, so a second
    /// pass writes the usable links straight into place, re-evaluating only
    /// those pairs. The graph is thus built with four allocations (the bits
    /// and the three CSR arrays) and no growing buffer.
    fn from_pairs(
        n: usize,
        mut pair: impl FnMut(usize, usize) -> (f64, f64),
    ) -> Result<Self, EtxError> {
        let non_finite = |from: usize, to: usize, value: f64| EtxError::NonFinite {
            from: NodeId::new(from as u32),
            to: NodeId::new(to as u32),
            value,
        };
        let pairs = n * n.saturating_sub(1) / 2;
        let mut usable = vec![0u64; pairs.div_ceil(64)];
        let mut offsets = vec![0u32; n + 1];
        let mut k = 0;
        for a in 0..n {
            for b in a + 1..n {
                let (p_ab, p_ba) = pair(a, b);
                if !p_ab.is_finite() {
                    return Err(non_finite(a, b, p_ab));
                }
                if !p_ba.is_finite() {
                    return Err(non_finite(b, a, p_ba));
                }
                if link_etx_of(p_ab, p_ba).is_some() {
                    usable[k / 64] |= 1 << (k % 64);
                    offsets[a] += 1;
                    offsets[b] += 1;
                }
                k += 1;
            }
        }
        // Running sums turn each degree into the end of its row; filling
        // every row back to front then leaves `offsets[u]` at its start.
        let mut total = 0;
        for slot in &mut offsets {
            total += *slot;
            *slot = total;
        }
        let mut neighbours = vec![0u32; total as usize];
        let mut etx = vec![0.0; total as usize];
        // Walking the pairs in reverse fills each row from its end in
        // descending neighbour order, so every row ends up ascending: a
        // station's higher neighbours are placed before any lower one.
        for a in (0..n).rev() {
            for b in (a + 1..n).rev() {
                k -= 1;
                if usable[k / 64] & (1 << (k % 64)) == 0 {
                    continue;
                }
                let (p_ab, p_ba) = pair(a, b);
                let link_etx = link_etx_of(p_ab, p_ba).expect("usable in the first pass");
                for (from, to) in [(a, b), (b, a)] {
                    offsets[from] -= 1;
                    neighbours[offsets[from] as usize] = to as u32;
                    etx[offsets[from] as usize] = link_etx;
                }
            }
        }
        Ok(LinkGraph { offsets, neighbours, etx })
    }

    /// Number of stations.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The usable links of `node` as parallel `(neighbours, etx)` slices,
    /// in ascending neighbour order.
    fn row(&self, node: usize) -> (&[u32], &[f64]) {
        let range = self.offsets[node] as usize..self.offsets[node + 1] as usize;
        (&self.neighbours[range.clone()], &self.etx[range])
    }

    /// The stations `node` has a usable link with (finite [`LinkGraph::link_etx`]),
    /// in ascending id order.
    pub fn neighbours(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.row(node.index()).0.iter().map(|&v| NodeId::new(v))
    }

    /// ETX of the link between `a` and `b`: `1/(p_ab · p_ba)`, or infinity
    /// if either direction is below the usability floor (and between a
    /// station and itself).
    pub fn link_etx(&self, a: NodeId, b: NodeId) -> f64 {
        let (neighbours, etx) = self.row(a.index());
        match neighbours.binary_search(&(b.index() as u32)) {
            Ok(i) => etx[i],
            Err(_) => f64::INFINITY,
        }
    }

    /// Cumulative ETX of a path (sum of link ETX values).
    ///
    /// # Panics
    ///
    /// Panics if the path has fewer than two nodes.
    pub fn path_etx(&self, path: &[NodeId]) -> f64 {
        assert!(path.len() >= 2, "a path needs at least two nodes");
        path.windows(2).map(|w| self.link_etx(w[0], w[1])).sum()
    }

    /// Minimum-ETX path from `src` to `dst` (inclusive of both), or `None`
    /// if no usable path exists.
    ///
    /// Dijkstra over the usable links with a binary-heap frontier. The heap
    /// orders nodes by distance and then by index, so among equally distant
    /// nodes the lowest index settles first; on regular placements, where
    /// many paths tie exactly, this tie-break decides the route. The cost
    /// is O((n + m) log n) for `m` usable links.
    pub fn shortest_path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let n = self.node_count();
        let (s, d) = (src.index(), dst.index());
        let mut dist = vec![f64::INFINITY; n];
        let mut prev = vec![usize::MAX; n];
        let mut settled = vec![false; n];
        // Min-heap of (distance, node). Distances are sums of non-negative
        // ETX values, and the bits of non-negative floats order like the
        // floats themselves (and like `total_cmp`), so the key is the
        // distance's bit pattern. A node is pushed again whenever its
        // distance drops; the stale entries pop after it has settled and
        // are skipped.
        let mut frontier = BinaryHeap::new();
        dist[s] = 0.0;
        frontier.push(Reverse((0.0f64.to_bits(), s)));
        while let Some(Reverse((_, u))) = frontier.pop() {
            if settled[u] {
                continue;
            }
            if u == d {
                break;
            }
            settled[u] = true;
            let (neighbours, etx) = self.row(u);
            for (&v, &w) in neighbours.iter().zip(etx) {
                let v = v as usize;
                let alt = dist[u] + w;
                if !settled[v] && alt < dist[v] {
                    dist[v] = alt;
                    prev[v] = u;
                    frontier.push(Reverse((alt.to_bits(), v)));
                }
            }
        }
        if !dist[d].is_finite() {
            return None;
        }
        let mut path = vec![d];
        let mut cur = d;
        while cur != s {
            cur = prev[cur];
            if cur == usize::MAX {
                return None;
            }
            path.push(cur);
        }
        path.reverse();
        Some(path.into_iter().map(|i| NodeId::new(i as u32)).collect())
    }

    /// Hop count of the minimum-ETX path, if one exists.
    pub fn hop_count(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        self.shortest_path(src, dst).map(|p| p.len() - 1)
    }
}

/// Builds an opportunistic forwarder priority list from a route.
///
/// The returned list is in the paper's on-the-wire order: the destination
/// first ("the closest one to the MAC header"), then forwarders by
/// decreasing priority — i.e. by decreasing proximity to the destination
/// along the path. At most `max_forwarders` forwarders are kept (the ones
/// nearest the destination, which dominate progress).
///
/// # Panics
///
/// Panics if `path` has fewer than two nodes.
///
/// # Example
///
/// ```
/// use wmn_routing::forwarder_list;
/// use wmn_sim::NodeId;
///
/// let path: Vec<NodeId> = [0u32, 1, 2, 3].iter().map(|&i| NodeId::new(i)).collect();
/// let list = forwarder_list(&path, 5);
/// // Destination 3 first, then forwarder 2 (rank 1), then 1 (rank 2).
/// assert_eq!(list, vec![NodeId::new(3), NodeId::new(2), NodeId::new(1)]);
/// ```
pub fn forwarder_list(path: &[NodeId], max_forwarders: usize) -> Vec<NodeId> {
    assert!(path.len() >= 2, "a path needs at least two nodes");
    let dst = *path.last().expect("non-empty");
    let mut list = vec![dst];
    // Interior nodes, nearest-to-destination first.
    let interior = &path[1..path.len() - 1];
    list.extend(interior.iter().rev().take(max_forwarders).copied());
    list
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn line(n: usize, spacing: f64) -> Vec<Position> {
        (0..n).map(|i| Position::new(i as f64 * spacing, 0.0)).collect()
    }

    fn graph(n: usize, spacing: f64) -> LinkGraph {
        LinkGraph::from_placement(&PhyParams::paper_216(), &line(n, spacing))
    }

    /// The dense delivery matrix of a placement, each direction evaluated
    /// on its own as the pre-CSR graph did.
    fn delivery_matrix(positions: &[Position]) -> Vec<Vec<f64>> {
        let params = PhyParams::paper_216();
        let n = positions.len();
        let mut delivery = vec![vec![0.0; n]; n];
        for (i, row) in delivery.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                if i != j {
                    *cell =
                        params.link_delivery_probability(positions[i].distance_to(positions[j]));
                }
            }
        }
        delivery
    }

    /// The pre-CSR min-ETX search, kept as the oracle the sparse Dijkstra
    /// is pinned against: a dense delivery matrix, link ETX recomputed per
    /// probe, and linear extraction of the closest unvisited node (the
    /// first, i.e. lowest-indexed, of equally close ones).
    fn shortest_path_linear(
        delivery: &[Vec<f64>],
        src: NodeId,
        dst: NodeId,
    ) -> Option<Vec<NodeId>> {
        let n = delivery.len();
        let link_etx = |a: usize, b: usize| {
            let (pf, pr) = (delivery[a][b], delivery[b][a]);
            if pf < MIN_LINK_PROBABILITY || pr < MIN_LINK_PROBABILITY {
                f64::INFINITY
            } else {
                1.0 / (pf * pr)
            }
        };
        let (s, d) = (src.index(), dst.index());
        let mut dist = vec![f64::INFINITY; n];
        let mut prev = vec![usize::MAX; n];
        let mut visited = vec![false; n];
        dist[s] = 0.0;
        for _ in 0..n {
            let u = (0..n)
                .filter(|&u| !visited[u] && dist[u].is_finite())
                .min_by(|&a, &b| dist[a].total_cmp(&dist[b]))?;
            if u == d {
                break;
            }
            visited[u] = true;
            for v in 0..n {
                if v == u || visited[v] {
                    continue;
                }
                let w = link_etx(u, v);
                if w.is_finite() && dist[u] + w < dist[v] {
                    dist[v] = dist[u] + w;
                    prev[v] = u;
                }
            }
        }
        if !dist[d].is_finite() {
            return None;
        }
        let mut path = vec![d];
        let mut cur = d;
        while cur != s {
            cur = prev[cur];
            if cur == usize::MAX {
                return None;
            }
            path.push(cur);
        }
        path.reverse();
        Some(path.into_iter().map(|i| NodeId::new(i as u32)).collect())
    }

    /// Asserts two graphs hold the same links with bit-identical ETX.
    fn assert_graphs_identical(a: &LinkGraph, b: &LinkGraph) {
        assert_eq!(a.offsets, b.offsets, "same degrees");
        assert_eq!(a.neighbours, b.neighbours, "same links");
        for (x, y) in a.etx.iter().zip(&b.etx) {
            assert_eq!(x.to_bits(), y.to_bits(), "same ETX bits");
        }
    }

    /// Every src → dst pair of a placement routes identically through the
    /// sparse graph and the linear oracle.
    fn assert_matches_oracle(positions: &[Position]) -> Result<(), TestCaseError> {
        let delivery = delivery_matrix(positions);
        let g = LinkGraph::from_placement(&PhyParams::paper_216(), positions);
        let n = positions.len() as u32;
        for src in (0..n).map(NodeId::new) {
            for dst in (0..n).map(NodeId::new) {
                prop_assert_eq!(
                    g.shortest_path(src, dst),
                    shortest_path_linear(&delivery, src, dst),
                    "{} -> {}",
                    src.index(),
                    dst.index()
                );
            }
        }
        Ok(())
    }

    #[test]
    fn adjacent_links_have_low_etx() {
        let g = graph(4, 5.0);
        let etx = g.link_etx(NodeId::new(0), NodeId::new(1));
        assert!(etx < 1.2, "5 m link ETX should be near 1, got {etx}");
    }

    #[test]
    fn distant_links_are_unusable() {
        let g = graph(5, 10.0);
        // 40 m apart: both directions far below the floor.
        assert!(g.link_etx(NodeId::new(0), NodeId::new(4)).is_infinite());
    }

    #[test]
    fn shortest_path_prefers_multihop_over_lossy_direct() {
        let g = graph(4, 5.0);
        let path = g.shortest_path(NodeId::new(0), NodeId::new(3)).unwrap();
        assert_eq!(
            path,
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2), NodeId::new(3)],
            "the hop-by-hop route must win on ETX"
        );
    }

    #[test]
    fn no_path_returns_none() {
        let g = LinkGraph::from_matrix(vec![vec![0.0, 0.0], vec![0.0, 0.0]]).unwrap();
        assert!(g.shortest_path(NodeId::new(0), NodeId::new(1)).is_none());
    }

    #[test]
    fn construction_rejects_non_finite_and_non_square() {
        let err = LinkGraph::from_matrix(vec![vec![0.0, f64::NAN], vec![0.5, 0.0]]).unwrap_err();
        match err {
            EtxError::NonFinite { from, to, value } => {
                assert_eq!((from, to), (NodeId::new(0), NodeId::new(1)));
                assert!(value.is_nan());
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
        assert!(err.to_string().contains("non-finite"), "display names the failure: {err}");
        let err = LinkGraph::from_matrix(vec![vec![0.0, 0.9], vec![0.5, 0.0, 0.1]]).unwrap_err();
        assert_eq!(err, EtxError::NonSquare { row: 1, len: 3, n: 2 });
        let err =
            LinkGraph::from_matrix(vec![vec![0.0, f64::INFINITY], vec![0.5, 0.0]]).unwrap_err();
        assert!(matches!(err, EtxError::NonFinite { value, .. } if value.is_infinite()));
    }

    #[test]
    fn graph_from_medium_matches_placement_bit_for_bit() {
        use wmn_phy::Medium;
        let params = PhyParams::paper_216();
        let positions = line(5, 5.0);
        let mut medium = Medium::new(params.clone(), positions.clone());
        let built = LinkGraph::from_placement(&params, &positions);
        let live = LinkGraph::try_from_medium(&medium).unwrap();
        assert_graphs_identical(&live, &built);
        assert_graphs_identical(
            &built,
            &LinkGraph::from_matrix(delivery_matrix(&positions)).unwrap(),
        );
        // After a move the live graph tracks the new placement, again
        // bit-identical to a from-scratch build.
        let moved = Position::new(5.0, 30.0);
        medium.update_node_position(NodeId::new(1), moved);
        let mut positions = positions;
        positions[1] = moved;
        let rebuilt = LinkGraph::from_placement(&params, &positions);
        let live = LinkGraph::try_from_medium(&medium).unwrap();
        assert_graphs_identical(&live, &rebuilt);
        assert_ne!(
            rebuilt.shortest_path(NodeId::new(0), NodeId::new(4)),
            Some(vec![0, 1, 2, 3, 4].into_iter().map(NodeId::new).collect()),
            "the moved relay must fall off the min-ETX path"
        );
    }

    #[test]
    fn path_etx_adds_links() {
        let g = graph(3, 5.0);
        let path = [NodeId::new(0), NodeId::new(1), NodeId::new(2)];
        let total = g.path_etx(&path);
        let sum = g.link_etx(path[0], path[1]) + g.link_etx(path[1], path[2]);
        assert!((total - sum).abs() < 1e-12);
    }

    #[test]
    fn forwarder_list_order_and_cap() {
        let path: Vec<NodeId> = (0..8).map(NodeId::new).collect();
        let list = forwarder_list(&path, 5);
        assert_eq!(list[0], NodeId::new(7), "destination first");
        assert_eq!(list.len(), 6, "dest + 5 forwarders (cap)");
        assert_eq!(list[1], NodeId::new(6), "highest priority forwarder nearest dest");
        assert_eq!(list[5], NodeId::new(2), "cap keeps the 5 nearest the destination");
    }

    #[test]
    fn forwarder_list_direct_path() {
        let path = [NodeId::new(0), NodeId::new(1)];
        assert_eq!(forwarder_list(&path, 5), vec![NodeId::new(1)]);
    }

    #[test]
    fn hop_count_matches_path() {
        let g = graph(5, 5.0);
        assert_eq!(g.hop_count(NodeId::new(0), NodeId::new(4)), Some(4));
    }

    #[test]
    fn csr_rows_hold_every_usable_link_in_ascending_order() {
        let positions: Vec<Position> = (0..12)
            .map(|i| Position::new(f64::from(i % 4) * 5.0, f64::from(i / 4) * 5.0))
            .collect();
        let delivery = delivery_matrix(&positions);
        let g = LinkGraph::from_placement(&PhyParams::paper_216(), &positions);
        for a in 0..12u32 {
            let listed: Vec<NodeId> = g.neighbours(NodeId::new(a)).collect();
            let usable: Vec<NodeId> = (0..12u32)
                .map(NodeId::new)
                .filter(|&b| {
                    b.index() != a as usize
                        && delivery[a as usize][b.index()] >= MIN_LINK_PROBABILITY
                        && delivery[b.index()][a as usize] >= MIN_LINK_PROBABILITY
                })
                .collect();
            assert_eq!(listed, usable, "row {a}");
            for &b in &listed {
                let (pf, pr) = (delivery[a as usize][b.index()], delivery[b.index()][a as usize]);
                assert_eq!(g.link_etx(NodeId::new(a), b).to_bits(), (1.0 / (pf * pr)).to_bits());
                assert_eq!(
                    g.link_etx(NodeId::new(a), b).to_bits(),
                    g.link_etx(b, NodeId::new(a)).to_bits(),
                    "ETX is direction-free"
                );
            }
            assert!(g.link_etx(NodeId::new(a), NodeId::new(a)).is_infinite(), "no self links");
        }
    }

    proptest! {
        /// The sparse heap Dijkstra returns exactly the linear-extraction
        /// oracle's path for every endpoint pair of random placements.
        #[test]
        fn prop_sparse_dijkstra_matches_linear_oracle_on_random_placements(
            coords in proptest::collection::vec((0.0f64..30.0, 0.0f64..30.0), 1..24),
        ) {
            let positions: Vec<Position> =
                coords.iter().map(|&(x, y)| Position::new(x, y)).collect();
            assert_matches_oracle(&positions)?;
        }

        /// The same on equal-spacing grids, where many paths tie on ETX
        /// exactly: the heap's (distance, index) order must reproduce the
        /// oracle's lowest-index tie-break.
        #[test]
        fn prop_sparse_dijkstra_matches_linear_oracle_on_grids(
            cols in 1usize..7,
            rows in 1usize..6,
            spacing in 3.0f64..9.0,
        ) {
            let positions: Vec<Position> = (0..cols * rows)
                .map(|i| Position::new((i % cols) as f64 * spacing, (i / cols) as f64 * spacing))
                .collect();
            assert_matches_oracle(&positions)?;
        }

        /// Dijkstra's result never costs more than the direct link or than
        /// any single-relay alternative (spot optimality check).
        #[test]
        fn prop_dijkstra_beats_simple_alternatives(
            ps in proptest::collection::vec((0.05f64..1.0, 0.05f64..1.0), 6..=6)
        ) {
            // Build a dense 3-node asymmetric graph.
            let mut m = vec![vec![0.0; 3]; 3];
            let mut entries = ps.iter();
            for (i, row) in m.iter_mut().enumerate() {
                for (j, cell) in row.iter_mut().enumerate() {
                    if i != j {
                        *cell = entries.next().expect("6 off-diagonal entries").0;
                    }
                }
            }
            let g = LinkGraph::from_matrix(m).expect("finite square matrix");
            let (a, b) = (NodeId::new(0), NodeId::new(2));
            if let Some(path) = g.shortest_path(a, b) {
                let best = g.path_etx(&path);
                let direct = g.link_etx(a, b);
                let via = g.link_etx(a, NodeId::new(1)) + g.link_etx(NodeId::new(1), b);
                prop_assert!(best <= direct + 1e-9);
                prop_assert!(best <= via + 1e-9);
            }
        }
    }
}
