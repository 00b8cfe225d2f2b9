//! Physical device topologies used in the paper's evaluation (§6.1):
//! near-square grids sized to the circuit, the 65-qubit IBM heavy-hex
//! lattice, and a 65-node ring.

use crate::fingerprint::Fingerprinter;
use core::fmt;

/// A physical coupling graph: nodes are transmons (each usable as a qubit or
/// a ququart), edges are allowed two-unit interactions.
///
/// Alongside the normalized edge list the topology keeps a compressed
/// (CSR) adjacency: every node's neighbours, sorted, back to back in one
/// array. [`Topology::has_edge`] binary-searches a node's run and
/// [`Topology::neighbors`] copies it. The main router reads coupling
/// through [`crate::ExpandedGraph`]'s unit bitmap instead; the
/// full-ququart baseline's BFS router uses these two queries. Equality
/// ignores the derived adjacency: two topologies are equal iff name, node
/// count and edge list agree (the adjacency is a function of the edges).
///
/// ```
/// use qompress_arch::Topology;
/// let grid = Topology::grid(9);
/// assert_eq!(grid.n_nodes(), 9);
/// assert!(grid.has_edge(0, 1));
/// assert!(grid.has_edge(0, 3)); // 3x3 grid: vertical neighbor
/// ```
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Topology {
    name: String,
    n_nodes: usize,
    edges: Vec<(usize, usize)>,
    /// Derived CSR adjacency: node `v`'s sorted neighbours are
    /// `neighbors[offsets[v]..offsets[v + 1]]`. Skipped by serialization
    /// (it is redundant with `edges`); [`Topology::has_edge`] and
    /// [`Topology::neighbors`] fall back to the edge list whenever it is
    /// absent, so a deserialized topology stays correct and merely scans.
    #[cfg_attr(feature = "serde", serde(skip))]
    offsets: Vec<usize>,
    #[cfg_attr(feature = "serde", serde(skip))]
    neighbors: Vec<usize>,
}

impl PartialEq for Topology {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.n_nodes == other.n_nodes && self.edges == other.edges
    }
}

impl Eq for Topology {}

/// Why an edge list cannot form a [`Topology`]: the first bad edge, by
/// its index in the input list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// `edges[index]` couples `node` to itself.
    SelfLoop {
        /// Position of the edge in the input list.
        index: usize,
        /// The node on both ends.
        node: usize,
    },
    /// `edges[index] = (a, b)` names a node outside `0..n_nodes`.
    OutOfRange {
        /// Position of the edge in the input list.
        index: usize,
        /// The edge's first endpoint.
        a: usize,
        /// The edge's second endpoint.
        b: usize,
        /// The topology's node count.
        n_nodes: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopologyError::SelfLoop { index, node } => {
                write!(f, "edges[{index}] is a self-loop on node {node}")
            }
            TopologyError::OutOfRange {
                index,
                a,
                b,
                n_nodes,
            } => write!(
                f,
                "edges[{index}] = [{a},{b}] is out of range for {n_nodes} node(s)"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

impl Topology {
    /// Creates a topology from an explicit edge list.
    ///
    /// Duplicate edges (in either orientation) are dropped, keeping the
    /// first occurrence's position. Dedup groups the edges by lower
    /// endpoint and sorts each group, so the build is `O(V + E log E)` with
    /// no hashing and dense inputs (complete graphs, generated couplings)
    /// stay cheap.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or self loops; see
    /// [`Topology::try_from_edges`] for the non-panicking form.
    pub fn from_edges(name: impl Into<String>, n_nodes: usize, edges: Vec<(usize, usize)>) -> Self {
        match Topology::try_from_edges(name, n_nodes, edges) {
            Ok(topology) => topology,
            Err(err @ TopologyError::SelfLoop { .. }) => panic!("self loop in topology: {err}"),
            Err(err @ TopologyError::OutOfRange { .. }) => {
                panic!("edge endpoint out of range: {err}")
            }
        }
    }

    /// [`Topology::from_edges`] for untrusted edge lists: the first edge
    /// that is a self loop or names a node outside `0..n_nodes` comes back
    /// as a [`TopologyError`] carrying its index. Each edge is checked for
    /// a self loop before its range.
    ///
    /// ```
    /// use qompress_arch::{Topology, TopologyError};
    /// let err = Topology::try_from_edges("t", 3, vec![(0, 1), (2, 2)]).unwrap_err();
    /// assert_eq!(err, TopologyError::SelfLoop { index: 1, node: 2 });
    /// assert_eq!(err.to_string(), "edges[1] is a self-loop on node 2");
    /// ```
    ///
    /// # Errors
    ///
    /// [`TopologyError::SelfLoop`] or [`TopologyError::OutOfRange`] for
    /// the first bad edge.
    pub fn try_from_edges(
        name: impl Into<String>,
        n_nodes: usize,
        edges: Vec<(usize, usize)>,
    ) -> Result<Self, TopologyError> {
        // Validate, counting each edge under its lower endpoint.
        let mut starts = vec![0usize; n_nodes + 1];
        for (index, &(a, b)) in edges.iter().enumerate() {
            if a == b {
                return Err(TopologyError::SelfLoop { index, node: a });
            }
            if a >= n_nodes || b >= n_nodes {
                return Err(TopologyError::OutOfRange {
                    index,
                    a,
                    b,
                    n_nodes,
                });
            }
            starts[a.min(b) + 1] += 1;
        }
        prefix_sum(&mut starts);

        // Bucket `(higher endpoint, input index)` by lower endpoint, then
        // sort each bucket: the head of each run of equal edges is the
        // edge's first occurrence. Dedup is a sort, with no hashing.
        let mut fill = starts.clone();
        let mut buckets = vec![(0usize, 0usize); edges.len()];
        for (index, &(a, b)) in edges.iter().enumerate() {
            let low = a.min(b);
            buckets[fill[low]] = (a.max(b), index);
            fill[low] += 1;
        }
        let mut first = vec![false; edges.len()];
        let mut offsets = vec![0usize; n_nodes + 1];
        for low in 0..n_nodes {
            let bucket = &mut buckets[starts[low]..starts[low + 1]];
            bucket.sort_unstable();
            let mut previous = None;
            for &(high, index) in bucket.iter() {
                if previous != Some(high) {
                    previous = Some(high);
                    first[index] = true;
                    offsets[low + 1] += 1;
                    offsets[high + 1] += 1;
                }
            }
        }
        prefix_sum(&mut offsets);

        // CSR fill in (low, high) order: a node's lower neighbours arrive
        // (ascending) before its higher ones (ascending), so every run
        // comes out sorted.
        fill.copy_from_slice(&offsets);
        let mut neighbors = vec![0usize; offsets[n_nodes]];
        for low in 0..n_nodes {
            for &(high, index) in &buckets[starts[low]..starts[low + 1]] {
                if first[index] {
                    neighbors[fill[low]] = high;
                    fill[low] += 1;
                    neighbors[fill[high]] = low;
                    fill[high] += 1;
                }
            }
        }

        Ok(Topology {
            name: name.into(),
            n_nodes,
            edges: edges
                .iter()
                .zip(&first)
                .filter(|&(_, &first)| first)
                .map(|(&(a, b), _)| (a.min(b), a.max(b)))
                .collect(),
            offsets,
            neighbors,
        })
    }

    /// The paper's evaluation mesh: a `⌈√n⌉ × ⌈n/⌈√n⌉⌉` rectangular grid
    /// with at least `n` nodes — "just large enough for the circuit".
    pub fn grid(n: usize) -> Self {
        assert!(n > 0, "grid needs at least one node");
        let cols = (n as f64).sqrt().ceil() as usize;
        let rows = n.div_ceil(cols);
        let total = rows * cols;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                if c + 1 < cols {
                    edges.push((v, v + 1));
                }
                if r + 1 < rows {
                    edges.push((v, v + cols));
                }
            }
        }
        Topology::from_edges(format!("grid-{rows}x{cols}"), total, edges)
    }

    /// A ring of `n` nodes.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "ring needs at least three nodes");
        let edges = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Topology::from_edges(format!("ring-{n}"), n, edges)
    }

    /// A line of `n` nodes.
    pub fn line(n: usize) -> Self {
        assert!(n >= 1, "line needs at least one node");
        let edges = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        Topology::from_edges(format!("line-{n}"), n, edges)
    }

    /// Number of units of [`Topology::heavy_hex`] at `distance` without
    /// constructing it: `(5d² + 2d − 5) / 2`.
    ///
    /// Exposed so untrusted size checks (the service's `heavyhex:<d>`
    /// spec) can validate the node count *before* any O(V) construction
    /// runs. `heavy_hex_nodes(5) == 65`, `heavy_hex_nodes(7) == 127`
    /// (IBM Eagle), `heavy_hex_nodes(21) == 1121` (IBM Condor scale).
    ///
    /// # Panics
    ///
    /// Panics unless `distance` is odd and at least 3.
    pub fn heavy_hex_nodes(distance: usize) -> usize {
        assert!(
            distance >= 3 && distance % 2 == 1,
            "heavy-hex distance must be odd and >= 3, got {distance}"
        );
        (5 * distance * distance + 2 * distance - 5) / 2
    }

    /// The IBM heavy-hexagon lattice family, parameterized by code
    /// `distance` (odd, ≥ 3): `d` long rows of `2d+1` qubits (the first
    /// row drops its last column, the last row its first), joined by
    /// `(d+1)/2` bridge qubits per row gap at alternating columns.
    ///
    /// `heavy_hex(5)` is byte-identical (name, node numbering, edge
    /// order) to [`Topology::heavy_hex_65`]; `heavy_hex(7)` is the
    /// 127-unit Eagle coupling map and `heavy_hex(21)` the 1121-unit
    /// Condor-scale device used as the utility-scale benchmark axis.
    ///
    /// # Panics
    ///
    /// Panics unless `distance` is odd and at least 3.
    pub fn heavy_hex(distance: usize) -> Self {
        let d = distance;
        let n_nodes = Self::heavy_hex_nodes(d);
        // Row r spans columns 0..=2d, except row 0 (drops column 2d) and
        // row d−1 (drops column 0). Bridges for gap g sit at columns
        // 2·(g mod 2), stepping by 4, (d+1)/2 of them.
        let row_len = |r: usize| {
            if r == 0 || r == d - 1 {
                2 * d
            } else {
                2 * d + 1
            }
        };
        let col_offset = |r: usize| if r == d - 1 { 1 } else { 0 };
        // Sequential numbering: row 0, gap-0 bridges, row 1, gap-1
        // bridges, … (matches the published 65-qubit map).
        let mut row_base = Vec::with_capacity(d);
        let mut bridge_base = Vec::with_capacity(d - 1);
        let mut next = 0usize;
        for r in 0..d {
            row_base.push(next);
            next += row_len(r);
            if r + 1 < d {
                bridge_base.push(next);
                next += d.div_ceil(2);
            }
        }
        debug_assert_eq!(next, n_nodes);
        let node_at = |r: usize, col: usize| row_base[r] + col - col_offset(r);

        // Degree is at most 3, so there are at most 3n/2 edges.
        let mut edges = Vec::with_capacity(3 * n_nodes / 2);
        for r in 0..d {
            // Horizontal edges along row r.
            for i in 0..row_len(r) - 1 {
                edges.push((row_base[r] + i, row_base[r] + i + 1));
            }
            // Bridges of gap r: first every upper anchor → bridge edge,
            // then every bridge → lower anchor edge (published order).
            if r + 1 < d {
                let col = |j: usize| 2 * (r % 2) + 4 * j;
                for j in 0..d.div_ceil(2) {
                    edges.push((node_at(r, col(j)), bridge_base[r] + j));
                }
                for j in 0..d.div_ceil(2) {
                    edges.push((bridge_base[r] + j, node_at(r + 1, col(j))));
                }
            }
        }
        Topology::from_edges(format!("heavy-hex-{n_nodes}"), n_nodes, edges)
    }

    /// The 65-qubit IBM heavy-hex coupling map (Hummingbird family — the
    /// paper's "IBM Ithaca" device): [`Topology::heavy_hex`] at distance
    /// 5, kept as a named constructor for the paper's evaluation device.
    pub fn heavy_hex_65() -> Self {
        Topology::heavy_hex(5)
    }

    /// The published 65-qubit edge list, retained verbatim as the pin for
    /// [`Topology::heavy_hex`]'s generator (see the byte-identity test).
    #[cfg(test)]
    fn heavy_hex_65_literal() -> Self {
        let edges: Vec<(usize, usize)> = vec![
            // row 0
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 8),
            (8, 9),
            // bridges row0 -> row1
            (0, 10),
            (4, 11),
            (8, 12),
            (10, 13),
            (11, 17),
            (12, 21),
            // row 1
            (13, 14),
            (14, 15),
            (15, 16),
            (16, 17),
            (17, 18),
            (18, 19),
            (19, 20),
            (20, 21),
            (21, 22),
            (22, 23),
            // bridges row1 -> row2
            (15, 24),
            (19, 25),
            (23, 26),
            (24, 29),
            (25, 33),
            (26, 37),
            // row 2
            (27, 28),
            (28, 29),
            (29, 30),
            (30, 31),
            (31, 32),
            (32, 33),
            (33, 34),
            (34, 35),
            (35, 36),
            (36, 37),
            // bridges row2 -> row3
            (27, 38),
            (31, 39),
            (35, 40),
            (38, 41),
            (39, 45),
            (40, 49),
            // row 3
            (41, 42),
            (42, 43),
            (43, 44),
            (44, 45),
            (45, 46),
            (46, 47),
            (47, 48),
            (48, 49),
            (49, 50),
            (50, 51),
            // bridges row3 -> row4
            (43, 52),
            (47, 53),
            (51, 54),
            (52, 56),
            (53, 60),
            (54, 64),
            // row 4
            (55, 56),
            (56, 57),
            (57, 58),
            (58, 59),
            (59, 60),
            (60, 61),
            (61, 62),
            (62, 63),
            (63, 64),
        ];
        Topology::from_edges("heavy-hex-65", 65, edges)
    }

    /// Human-readable topology name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical units.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Normalized edge list (`a < b`).
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Number of coupling edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` when `a` and `b` are coupled.
    ///
    /// A binary search of `a`'s sorted neighbour run. Out-of-range nodes
    /// are simply not coupled to anything.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        match self.adjacent(a) {
            Some(run) => run.binary_search(&b).is_ok(),
            // Deserialized without the derived adjacency (or out of
            // range): answer from the edge list.
            None if a < self.n_nodes => self.edges.contains(&(a.min(b), a.max(b))),
            None => false,
        }
    }

    /// Neighbors of a node, sorted ascending.
    pub fn neighbors(&self, v: usize) -> Vec<usize> {
        match self.adjacent(v) {
            Some(run) => run.to_vec(),
            None => {
                let mut out: Vec<usize> = self
                    .edges
                    .iter()
                    .filter_map(|&(a, b)| {
                        if a == v {
                            Some(b)
                        } else if b == v {
                            Some(a)
                        } else {
                            None
                        }
                    })
                    .collect();
                out.sort_unstable();
                out
            }
        }
    }

    /// Node `v`'s sorted neighbour run in the CSR adjacency, or `None`
    /// when `v` is out of range or the adjacency is absent.
    fn adjacent(&self, v: usize) -> Option<&[usize]> {
        let (&start, &end) = (self.offsets.get(v)?, self.offsets.get(v + 1)?);
        Some(&self.neighbors[start..end])
    }

    /// A stable 64-bit fingerprint of the coupling *structure*: node count
    /// and normalized edge list, **excluding the name**. Two topologies
    /// with the same structure compile identically whatever they are
    /// called, so session-level topology registries key on this value.
    pub fn structural_fingerprint(&self) -> u64 {
        let mut h = Fingerprinter::new();
        h.write_usize(self.n_nodes).write_usize(self.edges.len());
        for &(a, b) in &self.edges {
            h.write_usize(a).write_usize(b);
        }
        h.finish()
    }

    /// Unweighted graph view (for BFS / center computations).
    pub fn to_ugraph(&self) -> qompress_circuit::graph::UGraph {
        let mut g = qompress_circuit::graph::UGraph::new(self.n_nodes);
        for &(a, b) in &self.edges {
            g.add_edge(a, b);
        }
        g
    }

    /// The median node (minimum total BFS distance) — where mapping starts.
    pub fn center(&self) -> usize {
        self.to_ugraph().center()
    }
}

/// Turns per-slot counts (`counts[v + 1]` for slot `v`) into CSR start
/// offsets, in place.
fn prefix_sum(counts: &mut [usize]) {
    for v in 1..counts.len() {
        counts[v] += counts[v - 1];
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} nodes, {} edges)",
            self.name,
            self.n_nodes,
            self.edges.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_dimensions_cover_request() {
        for n in [1usize, 2, 5, 9, 12, 16, 30, 40] {
            let g = Topology::grid(n);
            assert!(g.n_nodes() >= n, "grid({n}) too small: {}", g.n_nodes());
            // Never more than one extra row's worth of slack.
            let cols = (n as f64).sqrt().ceil() as usize;
            assert!(g.n_nodes() < n + cols);
        }
    }

    #[test]
    fn grid_3x3_structure() {
        let g = Topology::grid(9);
        assert_eq!(g.n_nodes(), 9);
        assert_eq!(g.n_edges(), 12);
        assert!(g.has_edge(4, 1));
        assert!(g.has_edge(4, 3));
        assert!(g.has_edge(4, 5));
        assert!(g.has_edge(4, 7));
        assert!(!g.has_edge(0, 4));
        assert_eq!(g.center(), 4);
    }

    #[test]
    fn ring_degree_is_two() {
        let r = Topology::ring(65);
        assert_eq!(r.n_nodes(), 65);
        assert_eq!(r.n_edges(), 65);
        for v in 0..65 {
            assert_eq!(r.neighbors(v).len(), 2);
        }
    }

    #[test]
    fn heavy_hex_is_the_65q_hummingbird() {
        let h = Topology::heavy_hex_65();
        assert_eq!(h.n_nodes(), 65);
        assert_eq!(h.n_edges(), 72);
        // Degree bounded by 3 in heavy-hex.
        for v in 0..65 {
            let d = h.neighbors(v).len();
            assert!((1..=3).contains(&d), "node {v} degree {d}");
        }
        // Spot checks against the published coupling map.
        assert!(h.has_edge(0, 10));
        assert!(h.has_edge(10, 13));
        assert!(h.has_edge(52, 56));
        assert!(!h.has_edge(9, 10));
    }

    #[test]
    fn heavy_hex_is_connected() {
        let h = Topology::heavy_hex_65();
        let d = h.to_ugraph().bfs_distances(0);
        assert!(d.iter().all(|&x| x != usize::MAX));
    }

    #[test]
    fn heavy_hex_generator_pins_65q_literal() {
        // The parameterized family at d = 5 must reproduce the published
        // 65-qubit map byte-for-byte: name, node count, and edge order.
        let generated = Topology::heavy_hex(5);
        let literal = Topology::heavy_hex_65_literal();
        assert_eq!(generated.name(), literal.name());
        assert_eq!(generated.n_nodes(), literal.n_nodes());
        assert_eq!(generated.edges(), literal.edges());
        assert_eq!(
            generated.structural_fingerprint(),
            literal.structural_fingerprint()
        );
    }

    #[test]
    fn heavy_hex_family_sizes() {
        for (d, n) in [(3usize, 23usize), (5, 65), (7, 127), (21, 1121), (31, 2431)] {
            assert_eq!(Topology::heavy_hex_nodes(d), n, "d={d}");
        }
        let eagle = Topology::heavy_hex(7);
        assert_eq!(eagle.n_nodes(), 127);
        assert_eq!(eagle.name(), "heavy-hex-127");
        let condor = Topology::heavy_hex(21);
        assert_eq!(condor.n_nodes(), 1121);
        // Every member: connected, degree within 1..=3.
        for d in [3usize, 7, 9, 21] {
            let h = Topology::heavy_hex(d);
            let dist = h.to_ugraph().bfs_distances(0);
            assert!(dist.iter().all(|&x| x != usize::MAX), "d={d} disconnected");
            for v in 0..h.n_nodes() {
                let deg = h.neighbors(v).len();
                assert!((1..=3).contains(&deg), "d={d} node {v} degree {deg}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "heavy-hex distance must be odd")]
    fn heavy_hex_rejects_even_distance() {
        Topology::heavy_hex(4);
    }

    #[test]
    #[should_panic(expected = "heavy-hex distance must be odd")]
    fn heavy_hex_rejects_distance_one() {
        Topology::heavy_hex(1);
    }

    #[test]
    fn line_endpoints_have_degree_one() {
        let l = Topology::line(5);
        assert_eq!(l.neighbors(0), vec![1]);
        assert_eq!(l.neighbors(4), vec![3]);
        assert_eq!(l.center(), 2);
    }

    #[test]
    fn from_edges_dedups() {
        let t = Topology::from_edges("t", 3, vec![(0, 1), (1, 0), (0, 1)]);
        assert_eq!(t.n_edges(), 1);
    }

    #[test]
    fn from_edges_keeps_first_occurrence_order() {
        let t = Topology::from_edges("t", 4, vec![(2, 3), (1, 0), (3, 2), (0, 2)]);
        assert_eq!(t.edges(), &[(2, 3), (0, 1), (0, 2)]);
    }

    #[test]
    fn dense_65_node_dedup_regression() {
        // Complete 65-node coupling fed in both orientations (4160 raw
        // edges): the sort-based dedup must collapse it to the 2080 unique
        // edges without a quadratic `Vec::contains` scan.
        let n = 65;
        let mut raw = Vec::new();
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    raw.push((a, b));
                }
            }
        }
        assert_eq!(raw.len(), n * (n - 1));
        let t = Topology::from_edges("dense-65", n, raw);
        assert_eq!(t.n_edges(), n * (n - 1) / 2);
        for v in 0..n {
            assert_eq!(t.neighbors(v).len(), n - 1);
        }
        // First-occurrence order: node 0's fan-out leads the list.
        assert_eq!(&t.edges()[..3], &[(0, 1), (0, 2), (0, 3)]);
    }

    #[test]
    #[should_panic(expected = "self loop")]
    fn from_edges_rejects_self_loop() {
        Topology::from_edges("bad", 2, vec![(1, 1)]);
    }

    #[test]
    fn display_mentions_name() {
        let t = Topology::ring(5);
        assert!(format!("{t}").contains("ring-5"));
    }

    #[test]
    fn has_edge_handles_out_of_range_nodes() {
        let t = Topology::line(3);
        assert!(!t.has_edge(0, 99));
        assert!(!t.has_edge(99, 0));
        assert!(!t.has_edge(99, 100));
    }

    #[test]
    fn equality_ignores_derived_adjacency() {
        // Same name/nodes/edges built through different input orders (after
        // normalization) must compare equal.
        let a = Topology::from_edges("t", 3, vec![(0, 1), (1, 2)]);
        let b = Topology::from_edges("t", 3, vec![(1, 0), (2, 1)]);
        assert_eq!(a, b);
        let c = Topology::from_edges("other", 3, vec![(0, 1), (1, 2)]);
        assert_ne!(a, c, "name participates in equality");
    }

    #[test]
    fn structural_fingerprint_ignores_name_only() {
        let a = Topology::from_edges("a", 4, vec![(0, 1), (2, 3)]);
        let b = Topology::from_edges("b", 4, vec![(0, 1), (2, 3)]);
        assert_eq!(a.structural_fingerprint(), b.structural_fingerprint());

        let extra_node = Topology::from_edges("a", 5, vec![(0, 1), (2, 3)]);
        assert_ne!(
            a.structural_fingerprint(),
            extra_node.structural_fingerprint()
        );
        let extra_edge = Topology::from_edges("a", 4, vec![(0, 1), (2, 3), (1, 2)]);
        assert_ne!(
            a.structural_fingerprint(),
            extra_edge.structural_fingerprint()
        );
    }

    #[test]
    fn structural_fingerprint_is_stable() {
        // Pinned values: the fingerprint is a documented content address
        // and must never drift across runs or refactors. Session registry
        // keys and on-disk cache keys hash it, so a change here (say, a
        // constructor that reorders edges) orphans every stored entry.
        for (topology, pinned) in [
            (Topology::line(3), 0xc1fe_4ee6_4b8e_80c6u64),
            (Topology::grid(16), 0xda5a_b160_aa57_852d),
            (Topology::grid(40), 0xb444_219d_f0fc_3221),
            (Topology::heavy_hex(21), 0x23e5_aa0b_e3ae_abd8),
        ] {
            assert_eq!(
                topology.structural_fingerprint(),
                pinned,
                "{}",
                topology.name()
            );
        }
    }

    #[test]
    fn try_from_edges_reports_a_self_loop_with_its_index() {
        let err = Topology::try_from_edges("t", 3, vec![(0, 1), (1, 2), (1, 1)]).unwrap_err();
        assert_eq!(err, TopologyError::SelfLoop { index: 2, node: 1 });
        assert_eq!(err.to_string(), "edges[2] is a self-loop on node 1");
        // The self-loop check runs before the range check on each edge.
        let err = Topology::try_from_edges("t", 3, vec![(5, 5)]).unwrap_err();
        assert_eq!(err, TopologyError::SelfLoop { index: 0, node: 5 });
    }

    #[test]
    fn try_from_edges_reports_an_out_of_range_edge_with_its_index() {
        let err = Topology::try_from_edges("t", 3, vec![(0, 1), (2, 3), (1, 1)]).unwrap_err();
        assert_eq!(
            err,
            TopologyError::OutOfRange {
                index: 1,
                a: 2,
                b: 3,
                n_nodes: 3
            }
        );
        assert_eq!(
            err.to_string(),
            "edges[1] = [2,3] is out of range for 3 node(s)"
        );
    }

    #[test]
    fn try_from_edges_builds_what_from_edges_builds() {
        let edges = vec![(2, 3), (1, 0), (3, 2), (0, 2)];
        let t = Topology::try_from_edges("t", 4, edges.clone()).unwrap();
        assert_eq!(t, Topology::from_edges("t", 4, edges));
        assert_eq!(t.neighbors(2), vec![0, 3]);
    }

    #[test]
    #[should_panic(expected = "edge endpoint out of range")]
    fn from_edges_rejects_out_of_range_endpoint() {
        Topology::from_edges("bad", 2, vec![(0, 2)]);
    }
}
