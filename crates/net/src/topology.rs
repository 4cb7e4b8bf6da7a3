//! 2D-torus topology.

use std::fmt;

use sb_mem::{CoreId, DirId};

/// A tile in the torus. Tile `i` hosts core `i` and directory module `i`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Index for table lookups.
    #[inline]
    pub const fn idx(self) -> usize {
        self.0 as usize
    }
}

impl From<CoreId> for NodeId {
    fn from(c: CoreId) -> NodeId {
        NodeId(c.0)
    }
}

impl From<DirId> for NodeId {
    fn from(d: DirId) -> NodeId {
        NodeId(d.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// Factors `n` into `(cols, rows)` with `rows` the largest divisor of
/// `n` not exceeding `√n` (so `cols >= rows` and `cols * rows == n`).
fn nearest_square(n: u16) -> (u16, u16) {
    debug_assert!(n > 0);
    let mut rows = 1u16;
    let mut d = 1u16;
    while d as u32 * d as u32 <= n as u32 {
        if n.is_multiple_of(d) {
            rows = d;
        }
        d += 1;
    }
    (n / rows, rows)
}

/// A `cols × rows` 2D torus with minimal XY routing.
///
/// # Examples
///
/// ```
/// use sb_net::{NodeId, Torus};
///
/// let t = Torus::for_tiles(64); // 8 × 8
/// assert_eq!(t.hops(NodeId(0), NodeId(0)), 0);
/// // Wraparound: node 0 to node 7 on an 8-wide row is 1 hop, not 7.
/// assert_eq!(t.hops(NodeId(0), NodeId(7)), 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Torus {
    cols: u16,
    rows: u16,
}

impl Torus {
    /// Creates a `cols × rows` torus.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cols: u16, rows: u16) -> Self {
        assert!(cols > 0 && rows > 0, "torus dimensions must be positive");
        Torus { cols, rows }
    }

    /// Chooses the most-square torus for `tiles` tiles: 64 → 8×8,
    /// 32 → 8×4, 48 → 8×6, etc. `rows` is the largest divisor of
    /// `tiles` that is at most `√tiles`, so powers of two keep their
    /// historical shapes and primes (used by `sb-check explore`'s tiny
    /// configs, e.g. 3 tiles) degenerate to a `tiles × 1` ring.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is zero.
    pub fn for_tiles(tiles: u16) -> Self {
        assert!(tiles > 0, "tile count must be positive");
        let (cols, rows) = nearest_square(tiles);
        Torus::new(cols, rows)
    }

    /// Columns.
    pub fn cols(self) -> u16 {
        self.cols
    }

    /// Rows.
    pub fn rows(self) -> u16 {
        self.rows
    }

    /// Total tiles.
    pub fn tiles(self) -> u16 {
        self.cols * self.rows
    }

    /// (x, y) coordinates of a tile.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn coords(self, n: NodeId) -> (u16, u16) {
        assert!(n.0 < self.tiles(), "node {n} outside torus");
        (n.0 % self.cols, n.0 / self.cols)
    }

    /// Tile at (x, y).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn node_at(self, x: u16, y: u16) -> NodeId {
        assert!(x < self.cols && y < self.rows, "coords out of torus");
        NodeId(y * self.cols + x)
    }

    /// Minimal hop count between two tiles with wraparound in both
    /// dimensions.
    pub fn hops(self, a: NodeId, b: NodeId) -> u16 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        let dx = ax.abs_diff(bx);
        let dy = ay.abs_diff(by);
        dx.min(self.cols - dx) + dy.min(self.rows - dy)
    }

    /// The tile nearest the geometric centre — where BulkSC's centralized
    /// arbiter sits ("protocol from \[5\] with arbiter in the center",
    /// Table 3).
    pub fn center(self) -> NodeId {
        self.node_at(self.cols / 2, self.rows / 2)
    }

    /// Average hop distance from `src` to all other tiles (useful for
    /// calibration tests).
    pub fn mean_hops_from(self, src: NodeId) -> f64 {
        let total: u32 = (0..self.tiles())
            .filter(|&t| NodeId(t) != src)
            .map(|t| self.hops(src, NodeId(t)) as u32)
            .sum();
        total as f64 / (self.tiles() - 1) as f64
    }
}

/// A concentrated 2D mesh: `conc` tiles share each router, and the
/// routers form a `cols × rows` mesh *without* wraparound links.
/// Tiles on the same router are zero network hops apart (they talk
/// through the shared router's crossbar); otherwise the hop count is
/// the Manhattan distance between the two routers.
///
/// # Examples
///
/// ```
/// use sb_net::{CMesh, NodeId};
///
/// let m = CMesh::for_tiles(64, 4); // 16 routers, 4 × 4 mesh
/// assert_eq!(m.hops(NodeId(0), NodeId(3)), 0); // same router
/// assert_eq!(m.hops(NodeId(0), NodeId(63)), 6); // corner to corner
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CMesh {
    conc: u16,
    cols: u16,
    rows: u16,
    tiles: u16,
}

impl CMesh {
    /// Builds the most-square concentrated mesh for `tiles` tiles with
    /// `conc` tiles per router. When `conc` does not divide `tiles`, the
    /// last router is partially populated.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` or `conc` is zero.
    pub fn for_tiles(tiles: u16, conc: u16) -> Self {
        assert!(tiles > 0, "tile count must be positive");
        assert!(conc > 0, "concentration must be positive");
        let routers = tiles.div_ceil(conc);
        let (cols, rows) = nearest_square(routers);
        CMesh {
            conc,
            cols,
            rows,
            tiles,
        }
    }

    /// Tiles per router.
    pub fn concentration(self) -> u16 {
        self.conc
    }

    /// Router-grid columns.
    pub fn cols(self) -> u16 {
        self.cols
    }

    /// Router-grid rows.
    pub fn rows(self) -> u16 {
        self.rows
    }

    /// Total tiles.
    pub fn tiles(self) -> u16 {
        self.tiles
    }

    /// (x, y) router coordinates of a tile.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn router_coords(self, n: NodeId) -> (u16, u16) {
        assert!(n.0 < self.tiles, "node {n} outside mesh");
        let r = n.0 / self.conc;
        (r % self.cols, r / self.cols)
    }

    /// Minimal hop count: zero for tiles on the same router, else the
    /// Manhattan router distance (no wraparound).
    pub fn hops(self, a: NodeId, b: NodeId) -> u16 {
        let (ax, ay) = self.router_coords(a);
        let (bx, by) = self.router_coords(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// A tile on the router nearest the geometric centre of the mesh.
    pub fn center(self) -> NodeId {
        let router = (self.rows / 2) * self.cols + self.cols / 2;
        NodeId((router * self.conc).min(self.tiles - 1))
    }
}

/// A 2D torus augmented with express links every `every` tiles along
/// each dimension (a hierarchical fabric: local rings plus a sparser
/// long-haul ring). Traversal cost per dimension for ring distance `d`
/// is the cheapest of walking locally, riding `d / every` express hops
/// plus the local remainder, or overshooting by one express hop and
/// walking back.
///
/// # Examples
///
/// ```
/// use sb_net::{ExpressTorus, NodeId};
///
/// let x = ExpressTorus::for_tiles(64, 4); // 8 × 8 torus, express every 4
/// // Distance 4 collapses to a single express hop.
/// assert_eq!(x.hops(NodeId(0), NodeId(4)), 1);
/// // Distance 3: overshoot one express hop, walk one back.
/// assert_eq!(x.hops(NodeId(0), NodeId(3)), 2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExpressTorus {
    torus: Torus,
    every: u16,
}

impl ExpressTorus {
    /// Builds the most-square express torus for `tiles` tiles with an
    /// express link every `every` tiles per dimension.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is zero or `every < 2` (an express spacing of
    /// one is just the base torus).
    pub fn for_tiles(tiles: u16, every: u16) -> Self {
        assert!(every >= 2, "express spacing must be at least 2");
        ExpressTorus {
            torus: Torus::for_tiles(tiles),
            every,
        }
    }

    /// The underlying torus.
    pub fn torus(self) -> Torus {
        self.torus
    }

    /// Express-link spacing.
    pub fn express_every(self) -> u16 {
        self.every
    }

    /// Total tiles.
    pub fn tiles(self) -> u16 {
        self.torus.tiles()
    }

    /// Cheapest traversal of ring distance `d` with express links every
    /// `e` tiles: all-local, express-then-walk, or overshoot-and-return.
    /// Zero only when `d` is zero, so distinct routers always cost at
    /// least one hop.
    fn dim_cost(d: u16, e: u16) -> u16 {
        if d == 0 {
            return 0;
        }
        let express = d / e;
        let rem = d % e;
        let mut best = d.min(express + rem);
        if rem > 0 {
            best = best.min(express + 1 + (e - rem));
        }
        best
    }

    /// Minimal hop count between two tiles using local and express
    /// links in both dimensions (with wraparound).
    pub fn hops(self, a: NodeId, b: NodeId) -> u16 {
        let (ax, ay) = self.torus.coords(a);
        let (bx, by) = self.torus.coords(b);
        let dx = ax.abs_diff(bx);
        let dy = ay.abs_diff(by);
        let rx = dx.min(self.torus.cols() - dx);
        let ry = dy.min(self.torus.rows() - dy);
        Self::dim_cost(rx, self.every) + Self::dim_cost(ry, self.every)
    }

    /// The tile nearest the geometric centre.
    pub fn center(self) -> NodeId {
        self.torus.center()
    }
}

/// The interconnect fabric: which tiles exist and how many link hops
/// separate any two of them. All timing (`sb_net::Network`) derives
/// from this one seam, so adding a fabric here is all it takes to sweep
/// it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// A plain 2D torus (the paper's fabric).
    Torus(Torus),
    /// A concentrated mesh: several tiles per router, no wraparound.
    CMesh(CMesh),
    /// A torus with express links every few tiles per dimension.
    ExpressTorus(ExpressTorus),
}

impl Topology {
    /// Concentration used by [`Topology::by_name`] for `"cmesh"`.
    pub const DEFAULT_CONCENTRATION: u16 = 4;
    /// Express spacing used by [`Topology::by_name`] for `"xtorus"`.
    pub const DEFAULT_EXPRESS_EVERY: u16 = 4;

    /// The default fabric for `tiles` tiles: the most-square 2D torus.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is zero.
    pub fn for_tiles(tiles: u16) -> Self {
        Topology::Torus(Torus::for_tiles(tiles))
    }

    /// Looks a fabric up by its sweep name: `"torus"`, `"cmesh"`
    /// (concentration 4), or `"xtorus"` (express links every 4).
    /// Returns `None` for unknown names.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is zero.
    pub fn by_name(name: &str, tiles: u16) -> Option<Self> {
        match name {
            "torus" => Some(Topology::Torus(Torus::for_tiles(tiles))),
            "cmesh" => Some(Topology::CMesh(CMesh::for_tiles(
                tiles,
                Self::DEFAULT_CONCENTRATION,
            ))),
            "xtorus" => Some(Topology::ExpressTorus(ExpressTorus::for_tiles(
                tiles,
                Self::DEFAULT_EXPRESS_EVERY,
            ))),
            _ => None,
        }
    }

    /// The fabric's sweep name (inverse of [`Topology::by_name`]).
    pub fn name(self) -> &'static str {
        match self {
            Topology::Torus(_) => "torus",
            Topology::CMesh(_) => "cmesh",
            Topology::ExpressTorus(_) => "xtorus",
        }
    }

    /// Human-readable description, e.g. `2D torus 8x8`.
    pub fn describe(self) -> String {
        match self {
            Topology::Torus(t) => format!("2D torus {}x{}", t.cols(), t.rows()),
            Topology::CMesh(m) => format!(
                "concentrated mesh {}x{} (x{})",
                m.cols(),
                m.rows(),
                m.concentration()
            ),
            Topology::ExpressTorus(x) => format!(
                "express torus {}x{} (every {})",
                x.torus().cols(),
                x.torus().rows(),
                x.express_every()
            ),
        }
    }

    /// Total tiles.
    pub fn tiles(self) -> u16 {
        match self {
            Topology::Torus(t) => t.tiles(),
            Topology::CMesh(m) => m.tiles(),
            Topology::ExpressTorus(x) => x.tiles(),
        }
    }

    /// Minimal hop count between two tiles.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn hops(self, a: NodeId, b: NodeId) -> u16 {
        match self {
            Topology::Torus(t) => t.hops(a, b),
            Topology::CMesh(m) => m.hops(a, b),
            Topology::ExpressTorus(x) => x.hops(a, b),
        }
    }

    /// The tile nearest the fabric's geometric centre — where BulkSC's
    /// centralized arbiter sits.
    pub fn center(self) -> NodeId {
        match self {
            Topology::Torus(t) => t.center(),
            Topology::CMesh(m) => m.center(),
            Topology::ExpressTorus(x) => x.center(),
        }
    }

    /// Average hop distance from `src` to all other tiles.
    pub fn mean_hops_from(self, src: NodeId) -> f64 {
        let total: u32 = (0..self.tiles())
            .filter(|&t| NodeId(t) != src)
            .map(|t| self.hops(src, NodeId(t)) as u32)
            .sum();
        total as f64 / (self.tiles() - 1) as f64
    }
}

impl From<Torus> for Topology {
    fn from(t: Torus) -> Topology {
        Topology::Torus(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_tiles_shapes() {
        assert_eq!(Torus::for_tiles(64), Torus::new(8, 8));
        assert_eq!(Torus::for_tiles(32), Torus::new(8, 4));
        assert_eq!(Torus::for_tiles(16), Torus::new(4, 4));
        assert_eq!(Torus::for_tiles(1), Torus::new(1, 1));
        // Large sweeps keep the most-square shape too.
        assert_eq!(Torus::for_tiles(128), Torus::new(16, 8));
        assert_eq!(Torus::for_tiles(256), Torus::new(16, 16));
        assert_eq!(Torus::for_tiles(512), Torus::new(32, 16));
        assert_eq!(Torus::for_tiles(1024), Torus::new(32, 32));
    }

    #[test]
    fn non_pow2_tiles_pick_the_nearest_square() {
        // Composite counts factor toward a square, not a long strip.
        assert_eq!(Torus::for_tiles(48), Torus::new(8, 6));
        assert_eq!(Torus::for_tiles(12), Torus::new(4, 3));
        assert_eq!(Torus::for_tiles(96), Torus::new(12, 8));
        // Primes still degenerate to a ring; a 3-ring wraps: 0 → 2 is
        // one hop, not two.
        assert_eq!(Torus::for_tiles(3), Torus::new(3, 1));
        assert_eq!(Torus::for_tiles(7), Torus::new(7, 1));
        let t = Torus::for_tiles(3);
        assert_eq!(t.hops(NodeId(0), NodeId(2)), 1);
    }

    #[test]
    fn nearest_square_invariants() {
        for n in 1u16..=1024 {
            let (cols, rows) = nearest_square(n);
            assert_eq!(cols as u32 * rows as u32, n as u32);
            assert!(rows <= cols, "{n}: rows {rows} > cols {cols}");
            assert!(rows as u32 * rows as u32 <= n as u32);
        }
    }

    #[test]
    fn cmesh_shapes_and_hops() {
        let m = CMesh::for_tiles(64, 4);
        assert_eq!((m.cols(), m.rows()), (4, 4));
        assert_eq!(m.tiles(), 64);
        // Same router: free. Neighbouring routers: one hop. No wrap:
        // opposite corners are (cols-1)+(rows-1) apart.
        assert_eq!(m.hops(NodeId(0), NodeId(3)), 0);
        assert_eq!(m.hops(NodeId(0), NodeId(4)), 1);
        assert_eq!(m.hops(NodeId(0), NodeId(63)), 6);
        // Partially-populated last router still resolves.
        let odd = CMesh::for_tiles(10, 4); // 3 routers -> 3 × 1
        assert_eq!((odd.cols(), odd.rows()), (3, 1));
        assert_eq!(odd.hops(NodeId(8), NodeId(9)), 0);
        assert_eq!(odd.hops(NodeId(0), NodeId(9)), 2);
    }

    #[test]
    fn cmesh_hops_symmetric_and_triangle() {
        let m = CMesh::for_tiles(64, 4);
        for a in 0..64u16 {
            for b in 0..64u16 {
                assert_eq!(m.hops(NodeId(a), NodeId(b)), m.hops(NodeId(b), NodeId(a)));
                for c in [0u16, 13, 37, 63] {
                    assert!(
                        m.hops(NodeId(a), NodeId(b))
                            <= m.hops(NodeId(a), NodeId(c)) + m.hops(NodeId(c), NodeId(b))
                    );
                }
            }
        }
    }

    #[test]
    fn express_torus_beats_plain_torus_never_loses() {
        let x = ExpressTorus::for_tiles(64, 4);
        let t = x.torus();
        for a in 0..64u16 {
            for b in 0..64u16 {
                let xe = x.hops(NodeId(a), NodeId(b));
                let pl = t.hops(NodeId(a), NodeId(b));
                assert!(xe <= pl, "{a}->{b}: express {xe} > plain {pl}");
                assert_eq!(xe == 0, a == b, "express hops zero only for self");
                assert_eq!(xe, x.hops(NodeId(b), NodeId(a)));
            }
        }
        // An aligned express ride: ring distance 4 in one hop.
        assert_eq!(x.hops(NodeId(0), NodeId(4)), 1);
    }

    #[test]
    fn topology_dispatch_and_names() {
        for name in ["torus", "cmesh", "xtorus"] {
            let topo = Topology::by_name(name, 64).unwrap();
            assert_eq!(topo.name(), name);
            assert_eq!(topo.tiles(), 64);
            assert!(topo.center().0 < 64);
            assert_eq!(topo.hops(topo.center(), topo.center()), 0);
        }
        assert!(Topology::by_name("hypercube", 64).is_none());
        assert_eq!(Topology::for_tiles(64).describe(), "2D torus 8x8");
        assert_eq!(
            Topology::by_name("cmesh", 64).unwrap().describe(),
            "concentrated mesh 4x4 (x4)"
        );
        assert_eq!(
            Topology::by_name("xtorus", 64).unwrap().describe(),
            "express torus 8x8 (every 4)"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tiles_panics() {
        Torus::for_tiles(0);
    }

    #[test]
    fn coords_roundtrip() {
        let t = Torus::new(8, 8);
        for n in 0..64 {
            let (x, y) = t.coords(NodeId(n));
            assert_eq!(t.node_at(x, y), NodeId(n));
        }
    }

    #[test]
    fn hops_symmetric_and_wrapping() {
        let t = Torus::new(8, 8);
        for a in 0..64u16 {
            for b in 0..64u16 {
                let h = t.hops(NodeId(a), NodeId(b));
                assert_eq!(h, t.hops(NodeId(b), NodeId(a)));
                assert!(h <= 8, "max torus distance is cols/2 + rows/2");
            }
        }
        assert_eq!(t.hops(NodeId(0), NodeId(7)), 1); // row wrap
        assert_eq!(t.hops(NodeId(0), NodeId(56)), 1); // column wrap
        assert_eq!(t.hops(NodeId(0), NodeId(0)), 0);
    }

    #[test]
    fn triangle_inequality_samples() {
        let t = Torus::new(8, 4);
        for a in 0..32u16 {
            for b in 0..32u16 {
                for c in [0u16, 5, 17, 31] {
                    assert!(
                        t.hops(NodeId(a), NodeId(b))
                            <= t.hops(NodeId(a), NodeId(c)) + t.hops(NodeId(c), NodeId(b))
                    );
                }
            }
        }
    }

    #[test]
    fn center_is_central() {
        let t = Torus::new(8, 8);
        let c = t.center();
        // The centre's mean distance is no worse than a corner's.
        assert!(t.mean_hops_from(c) <= t.mean_hops_from(NodeId(0)) + 1e-9);
    }

    #[test]
    fn id_conversions() {
        assert_eq!(NodeId::from(CoreId(5)), NodeId(5));
        assert_eq!(NodeId::from(DirId(6)), NodeId(6));
        assert_eq!(NodeId(3).idx(), 3);
    }

    #[test]
    #[should_panic(expected = "outside torus")]
    fn out_of_range_coords_panics() {
        Torus::new(2, 2).coords(NodeId(4));
    }
}
