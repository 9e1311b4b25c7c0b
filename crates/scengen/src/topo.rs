//! Seeded procedural topology generators.
//!
//! Each [`TopologySpec`] is a small parameter record that deterministically
//! expands into a [`wmn_topology::Topology`] for a given seed: all
//! randomness comes from [`StreamRng`] streams derived from
//! `(seed, "scengen/…")` labels, so the same spec and seed always place the
//! same stations, on any host and in any worker.
//!
//! The generated placements obey the NodeId contract of `wmn_topology`
//! (dense ids, node `i` at `positions[i]`) by construction, and the two
//! stochastic families ([`TopologySpec::RandomGeometric`],
//! [`TopologySpec::Campus`]) regenerate deterministically until the
//! placement is radio-connected, so every emitted topology can actually
//! route traffic.

use wmn_phy::{PhyParams, Position};
use wmn_routing::LinkGraph;
use wmn_sim::{NodeId, StreamRng};
use wmn_topology::Topology;

use crate::json::Value;

/// Attempts the stochastic generators make before giving up on producing a
/// connected placement. Each attempt derives a fresh stream, so the loop is
/// deterministic per `(spec, seed)`.
const CONNECT_ATTEMPTS: usize = 64;

/// A procedural topology family plus its knobs.
///
/// The four families cover the structural regimes the paper's hand-placed
/// topologies sample: uniform random meshes (density/area knobs), regular
/// grids, clustered "campus" deployments (dense islands, sparse bridges),
/// and noisy line chains.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologySpec {
    /// `nodes` stations uniform in a `side_m × side_m` square, regenerated
    /// until radio-connected.
    RandomGeometric {
        /// Station count.
        nodes: usize,
        /// Side of the square deployment area, metres.
        side_m: f64,
    },
    /// A `cols × rows` lattice with `spacing_m` metres between neighbours.
    Grid {
        /// Stations per row.
        cols: usize,
        /// Number of rows.
        rows: usize,
        /// Lattice constant, metres.
        spacing_m: f64,
    },
    /// `clusters` cluster centres uniform in a `side_m × side_m` square,
    /// each with `nodes_per_cluster` stations normally scattered
    /// (`cluster_radius_m` standard deviation) around it; regenerated until
    /// radio-connected.
    Campus {
        /// Number of clusters ("buildings").
        clusters: usize,
        /// Stations per cluster.
        nodes_per_cluster: usize,
        /// Standard deviation of the in-cluster scatter, metres.
        cluster_radius_m: f64,
        /// Side of the campus square, metres.
        side_m: f64,
    },
    /// A line of `nodes` stations `spacing_m` apart, each perturbed by a
    /// normal jitter with standard deviation `jitter_m` in both axes.
    PerturbedLine {
        /// Station count.
        nodes: usize,
        /// Nominal spacing along the line, metres.
        spacing_m: f64,
        /// Jitter standard deviation, metres.
        jitter_m: f64,
    },
}

impl TopologySpec {
    /// The family name used in JSON specs and generated scenario names.
    pub fn kind(&self) -> &'static str {
        match self {
            TopologySpec::RandomGeometric { .. } => "random-geometric",
            TopologySpec::Grid { .. } => "grid",
            TopologySpec::Campus { .. } => "campus",
            TopologySpec::PerturbedLine { .. } => "perturbed-line",
        }
    }

    /// Station count the spec will generate.
    pub fn node_count(&self) -> usize {
        match *self {
            TopologySpec::RandomGeometric { nodes, .. } => nodes,
            TopologySpec::Grid { cols, rows, .. } => cols * rows,
            TopologySpec::Campus { clusters, nodes_per_cluster, .. } => {
                clusters * nodes_per_cluster
            }
            TopologySpec::PerturbedLine { nodes, .. } => nodes,
        }
    }

    /// A short id-friendly slug, e.g. `rgg12`, `grid4x3`, `campus3x6`,
    /// `line6`.
    pub fn slug(&self) -> String {
        match *self {
            TopologySpec::RandomGeometric { nodes, .. } => format!("rgg{nodes}"),
            TopologySpec::Grid { cols, rows, .. } => format!("grid{cols}x{rows}"),
            TopologySpec::Campus { clusters, nodes_per_cluster, .. } => {
                format!("campus{clusters}x{nodes_per_cluster}")
            }
            TopologySpec::PerturbedLine { nodes, .. } => format!("line{nodes}"),
        }
    }

    /// Basic sanity of the knobs (positive sizes, at least two stations).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending knob.
    pub fn check(&self) -> Result<(), String> {
        if self.node_count() < 2 {
            return Err(format!("{}: needs at least two stations", self.kind()));
        }
        let positive = |value: f64, what: &str| {
            if value.is_finite() && value > 0.0 {
                Ok(())
            } else {
                Err(format!("{}: {what} must be positive, got {value}", self.kind()))
            }
        };
        match *self {
            TopologySpec::RandomGeometric { side_m, .. } => positive(side_m, "side_m"),
            TopologySpec::Grid { spacing_m, .. } => positive(spacing_m, "spacing_m"),
            TopologySpec::Campus { cluster_radius_m, side_m, .. } => {
                positive(cluster_radius_m, "cluster_radius_m")?;
                positive(side_m, "side_m")
            }
            TopologySpec::PerturbedLine { spacing_m, jitter_m, .. } => {
                positive(spacing_m, "spacing_m")?;
                if jitter_m.is_finite() && jitter_m >= 0.0 {
                    Ok(())
                } else {
                    Err(format!("perturbed-line: jitter_m must be >= 0, got {jitter_m}"))
                }
            }
        }
    }

    /// Generates the placement for `seed`. Deterministic: the same spec and
    /// seed yield byte-identical positions.
    ///
    /// # Panics
    ///
    /// Panics if the knobs are invalid ([`TopologySpec::check`]) or if a
    /// stochastic family cannot reach a connected placement within its
    /// attempt budget — both are spec bugs (density far below the
    /// connectivity threshold), not runtime conditions.
    pub fn generate(&self, seed: u64) -> Topology {
        if let Err(msg) = self.check() {
            panic!("invalid topology spec: {msg}");
        }
        let name = format!("{}-s{seed}", self.slug());
        match *self {
            TopologySpec::Grid { cols, rows, spacing_m } => {
                let positions = (0..rows)
                    .flat_map(|r| {
                        (0..cols)
                            .map(move |c| Position::new(c as f64 * spacing_m, r as f64 * spacing_m))
                    })
                    .collect();
                Topology::new(name, positions)
            }
            TopologySpec::PerturbedLine { nodes, spacing_m, jitter_m } => {
                let mut rng = StreamRng::derive(seed, "scengen/line");
                let positions = (0..nodes)
                    .map(|i| {
                        Position::new(
                            i as f64 * spacing_m + jitter_m * rng.standard_normal(),
                            jitter_m * rng.standard_normal(),
                        )
                    })
                    .collect();
                Topology::new(name, positions)
            }
            TopologySpec::RandomGeometric { nodes, side_m } => {
                let positions = connected_placement(seed, "scengen/rgg", self, |rng| {
                    (0..nodes)
                        .map(|_| Position::new(rng.uniform() * side_m, rng.uniform() * side_m))
                        .collect()
                });
                Topology::new(name, positions)
            }
            TopologySpec::Campus { clusters, nodes_per_cluster, cluster_radius_m, side_m } => {
                let positions = connected_placement(seed, "scengen/campus", self, |rng| {
                    let mut positions = Vec::with_capacity(clusters * nodes_per_cluster);
                    for _ in 0..clusters {
                        let cx = rng.uniform() * side_m;
                        let cy = rng.uniform() * side_m;
                        for _ in 0..nodes_per_cluster {
                            positions.push(Position::new(
                                cx + cluster_radius_m * rng.standard_normal(),
                                cy + cluster_radius_m * rng.standard_normal(),
                            ));
                        }
                    }
                    positions
                });
                Topology::new(name, positions)
            }
        }
    }

    /// Serialises the spec as a JSON object (`kind` plus the family knobs).
    pub fn to_json(&self) -> Value {
        let obj = Value::obj().with("kind", self.kind());
        match *self {
            TopologySpec::RandomGeometric { nodes, side_m } => {
                obj.with("nodes", nodes).with("side_m", side_m)
            }
            TopologySpec::Grid { cols, rows, spacing_m } => {
                obj.with("cols", cols).with("rows", rows).with("spacing_m", spacing_m)
            }
            TopologySpec::Campus { clusters, nodes_per_cluster, cluster_radius_m, side_m } => obj
                .with("clusters", clusters)
                .with("nodes_per_cluster", nodes_per_cluster)
                .with("cluster_radius_m", cluster_radius_m)
                .with("side_m", side_m),
            TopologySpec::PerturbedLine { nodes, spacing_m, jitter_m } => {
                obj.with("nodes", nodes).with("spacing_m", spacing_m).with("jitter_m", jitter_m)
            }
        }
    }

    /// Decodes a spec from the [`TopologySpec::to_json`] shape.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing/invalid field.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let kind = crate::spec::req_str(value, "kind", "topology")?;
        let spec = match kind {
            "random-geometric" => TopologySpec::RandomGeometric {
                nodes: crate::spec::req_usize(value, "nodes", "topology")?,
                side_m: crate::spec::req_f64(value, "side_m", "topology")?,
            },
            "grid" => TopologySpec::Grid {
                cols: crate::spec::req_usize(value, "cols", "topology")?,
                rows: crate::spec::req_usize(value, "rows", "topology")?,
                spacing_m: crate::spec::req_f64(value, "spacing_m", "topology")?,
            },
            "campus" => TopologySpec::Campus {
                clusters: crate::spec::req_usize(value, "clusters", "topology")?,
                nodes_per_cluster: crate::spec::req_usize(value, "nodes_per_cluster", "topology")?,
                cluster_radius_m: crate::spec::req_f64(value, "cluster_radius_m", "topology")?,
                side_m: crate::spec::req_f64(value, "side_m", "topology")?,
            },
            "perturbed-line" => TopologySpec::PerturbedLine {
                nodes: crate::spec::req_usize(value, "nodes", "topology")?,
                spacing_m: crate::spec::req_f64(value, "spacing_m", "topology")?,
                jitter_m: crate::spec::req_f64(value, "jitter_m", "topology")?,
            },
            other => {
                return Err(format!(
                    "topology kind must be one of \"random-geometric\", \"grid\", \"campus\", \
                     \"perturbed-line\", got {other:?}"
                ))
            }
        };
        spec.check()?;
        Ok(spec)
    }
}

/// Runs `place` with per-attempt RNG streams until the placement is
/// radio-connected (see [`is_connected`]). Deterministic per `(seed, label)`.
fn connected_placement(
    seed: u64,
    label: &str,
    spec: &TopologySpec,
    mut place: impl FnMut(&mut StreamRng) -> Vec<Position>,
) -> Vec<Position> {
    for attempt in 0..CONNECT_ATTEMPTS {
        // lint:allow(rng-label-registry): label is one of this module's own registered `scengen/…` generator names
        let mut rng = StreamRng::derive(seed, &format!("{label}/attempt{attempt}"));
        let positions = place(&mut rng);
        if is_connected(&positions) {
            return positions;
        }
    }
    panic!(
        "topology spec {spec:?} produced no connected placement in {CONNECT_ATTEMPTS} attempts \
         (seed {seed}) — raise the density (more nodes or a smaller area)"
    );
}

/// Whether every station can reach every other over usable links (finite
/// ETX in both directions under the Table I shadowing model — connectivity
/// is a property of the placement geometry, so the 216 Mbps preset's link
/// model is used regardless of the PHY rate a scenario later picks).
pub fn is_connected(positions: &[Position]) -> bool {
    let n = positions.len();
    if n == 0 {
        return false;
    }
    let graph = LinkGraph::from_placement(&PhyParams::paper_216(), positions);
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    let mut reached = 1;
    while let Some(u) = stack.pop() {
        for v in graph.neighbours(NodeId::new(u as u32)).map(NodeId::index) {
            if !seen[v] {
                seen[v] = true;
                reached += 1;
                stack.push(v);
            }
        }
    }
    reached == n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_places_a_lattice() {
        let spec = TopologySpec::Grid { cols: 4, rows: 3, spacing_m: 5.0 };
        let t = spec.generate(1);
        assert_eq!(t.node_count(), 12);
        assert_eq!(t.name, "grid4x3-s1");
        // Node i sits at (col*5, row*5) — dense ids, row-major.
        assert!((t.distance(NodeId::new(0), NodeId::new(1)) - 5.0).abs() < 1e-12);
        assert!((t.distance(NodeId::new(0), NodeId::new(4)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        for spec in [
            TopologySpec::RandomGeometric { nodes: 10, side_m: 25.0 },
            TopologySpec::Campus {
                clusters: 2,
                nodes_per_cluster: 4,
                cluster_radius_m: 4.0,
                side_m: 20.0,
            },
            TopologySpec::PerturbedLine { nodes: 5, spacing_m: 5.0, jitter_m: 1.0 },
        ] {
            let a = spec.generate(7);
            let b = spec.generate(7);
            assert_eq!(a.positions, b.positions, "{spec:?} must be deterministic");
            let c = spec.generate(8);
            assert_ne!(a.positions, c.positions, "{spec:?} must vary with the seed");
        }
    }

    #[test]
    fn stochastic_families_come_out_connected() {
        let rgg = TopologySpec::RandomGeometric { nodes: 12, side_m: 30.0 };
        let campus = TopologySpec::Campus {
            clusters: 3,
            nodes_per_cluster: 4,
            cluster_radius_m: 5.0,
            side_m: 30.0,
        };
        for seed in 0..8 {
            assert!(is_connected(&rgg.generate(seed).positions), "rgg seed {seed}");
            assert!(is_connected(&campus.generate(seed).positions), "campus seed {seed}");
        }
    }

    #[test]
    fn check_rejects_bad_knobs() {
        assert!(TopologySpec::RandomGeometric { nodes: 1, side_m: 10.0 }.check().is_err());
        assert!(TopologySpec::Grid { cols: 3, rows: 2, spacing_m: 0.0 }.check().is_err());
        assert!(TopologySpec::PerturbedLine { nodes: 4, spacing_m: 5.0, jitter_m: -1.0 }
            .check()
            .is_err());
        assert!(TopologySpec::Grid { cols: 3, rows: 2, spacing_m: 5.0 }.check().is_ok());
    }

    #[test]
    fn json_round_trip_all_kinds() {
        for spec in [
            TopologySpec::RandomGeometric { nodes: 10, side_m: 25.0 },
            TopologySpec::Grid { cols: 4, rows: 3, spacing_m: 5.0 },
            TopologySpec::Campus {
                clusters: 2,
                nodes_per_cluster: 4,
                cluster_radius_m: 4.0,
                side_m: 20.0,
            },
            TopologySpec::PerturbedLine { nodes: 5, spacing_m: 5.0, jitter_m: 1.0 },
        ] {
            let text = spec.to_json().to_string();
            let back = TopologySpec::from_json(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, spec);
        }
        assert!(TopologySpec::from_json(&Value::obj().with("kind", "torus")).is_err());
    }
}
