//! Coordinates, array dimensions, and port directions.
//!
//! The coordinate system follows the paper's tiled-layout convention:
//! `x` grows eastward (columns), `y` grows southward (rows), and the tile at
//! `(0, 0)` sits in the north-west corner. Network sizes are written
//! *columns × rows* (e.g. the paper's `16×8` array has 16 columns and
//! 8 rows, with memory tiles attached to the northern and southern edges).

use std::fmt;

/// A tile coordinate inside a rectangular array.
///
/// # Examples
///
/// ```
/// use ruche_noc::geometry::{Coord, Dims};
///
/// let dims = Dims::new(16, 8);
/// let a = Coord::new(3, 2);
/// let b = Coord::new(9, 7);
/// assert_eq!(a.manhattan(b), 6 + 5);
/// assert!(dims.contains(a));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Coord {
    /// Column index (grows eastward).
    pub x: u16,
    /// Row index (grows southward).
    pub y: u16,
}

impl Coord {
    /// Creates a coordinate from column `x` and row `y`.
    pub const fn new(x: u16, y: u16) -> Self {
        Coord { x, y }
    }

    /// Manhattan (L1) distance to `other`.
    pub fn manhattan(self, other: Coord) -> u32 {
        self.x.abs_diff(other.x) as u32 + self.y.abs_diff(other.y) as u32
    }

    /// Signed per-axis offsets `(dx, dy)` from `self` to `other`.
    pub fn delta(self, other: Coord) -> (i32, i32) {
        (
            other.x as i32 - self.x as i32,
            other.y as i32 - self.y as i32,
        )
    }

    /// Returns the coordinate shifted by `(dx, dy)`, or `None` if the result
    /// would leave `dims`.
    pub fn offset(self, dx: i32, dy: i32, dims: Dims) -> Option<Coord> {
        let x = self.x as i32 + dx;
        let y = self.y as i32 + dy;
        if x < 0 || y < 0 || x >= dims.cols as i32 || y >= dims.rows as i32 {
            None
        } else {
            Some(Coord::new(x as u16, y as u16))
        }
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

impl From<(u16, u16)> for Coord {
    fn from((x, y): (u16, u16)) -> Self {
        Coord::new(x, y)
    }
}

/// Rectangular array dimensions, written *columns × rows* as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dims {
    /// Number of columns (network width, the first number in "16×8").
    pub cols: u16,
    /// Number of rows (network height, the second number in "16×8").
    pub rows: u16,
}

impl Dims {
    /// Creates dimensions for a `cols × rows` array.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cols: u16, rows: u16) -> Self {
        assert!(cols > 0 && rows > 0, "dimensions must be non-zero");
        Dims { cols, rows }
    }

    /// Total number of tiles.
    pub fn count(self) -> usize {
        self.cols as usize * self.rows as usize
    }

    /// Whether `c` lies inside the array.
    pub fn contains(self, c: Coord) -> bool {
        c.x < self.cols && c.y < self.rows
    }

    /// Linear node index of `c` (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn index(self, c: Coord) -> usize {
        assert!(self.contains(c), "{c} out of bounds for {self}");
        c.y as usize * self.cols as usize + c.x as usize
    }

    /// Inverse of [`Dims::index`].
    pub fn coord(self, idx: usize) -> Coord {
        debug_assert!(idx < self.count());
        Coord::new(
            (idx % self.cols as usize) as u16,
            (idx / self.cols as usize) as u16,
        )
    }

    /// Iterates over all coordinates in row-major order.
    pub fn iter(self) -> impl Iterator<Item = Coord> {
        let (cols, rows) = (self.cols, self.rows);
        (0..rows).flat_map(move |y| (0..cols).map(move |x| Coord::new(x, y)))
    }
}

impl fmt::Display for Dims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.cols, self.rows)
    }
}

/// The two array axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Horizontal (east–west, along a row).
    X,
    /// Vertical (north–south, along a column).
    Y,
}

impl Axis {
    /// The other axis.
    pub fn other(self) -> Axis {
        match self {
            Axis::X => Axis::Y,
            Axis::Y => Axis::X,
        }
    }
}

/// Which axes carry long-range (Ruche or torus wrap) channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axes {
    /// Horizontal only (the paper's *Half Ruche* / *half-torus*).
    X,
    /// Vertical only.
    Y,
    /// Both (the paper's *Full Ruche* / full 2-D torus).
    Both,
}

impl Axes {
    /// Whether `axis` is included.
    pub fn includes(self, axis: Axis) -> bool {
        matches!(
            (self, axis),
            (Axes::Both, _) | (Axes::X, Axis::X) | (Axes::Y, Axis::Y)
        )
    }
}

/// Router port directions.
///
/// Local mesh directions use compass names; Ruche directions are prefixed
/// with `R` (the paper's RE/RW/RS/RN). Multi-mesh uses a second set of local
/// directions (`N2`..`W2`) for its second parallel mesh.
///
/// Port naming convention: an *input* port is named after the neighbor the
/// link comes **from** (a packet travelling east arrives on the `W` input),
/// and an *output* port after the neighbor it goes **to** (the same packet
/// leaves through the `E` output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dir {
    /// Processor (injection/ejection) port.
    P,
    /// Local north.
    N,
    /// Local south.
    S,
    /// Local east.
    E,
    /// Local west.
    W,
    /// Ruche north (long-range, spans `RF` tiles).
    RN,
    /// Ruche south.
    RS,
    /// Ruche east.
    RE,
    /// Ruche west.
    RW,
    /// Second-mesh north (multi-mesh only).
    N2,
    /// Second-mesh south.
    S2,
    /// Second-mesh east.
    E2,
    /// Second-mesh west.
    W2,
}

impl Dir {
    /// All directions, in canonical order.
    pub const ALL: [Dir; 13] = [
        Dir::P,
        Dir::N,
        Dir::S,
        Dir::E,
        Dir::W,
        Dir::RN,
        Dir::RS,
        Dir::RE,
        Dir::RW,
        Dir::N2,
        Dir::S2,
        Dir::E2,
        Dir::W2,
    ];

    /// The axis this direction travels along (`None` for the P port).
    pub fn axis(self) -> Option<Axis> {
        match self {
            Dir::P => None,
            Dir::E | Dir::W | Dir::RE | Dir::RW | Dir::E2 | Dir::W2 => Some(Axis::X),
            Dir::N | Dir::S | Dir::RN | Dir::RS | Dir::N2 | Dir::S2 => Some(Axis::Y),
        }
    }

    /// Whether this is a long-range Ruche direction.
    pub fn is_ruche(self) -> bool {
        matches!(self, Dir::RN | Dir::RS | Dir::RE | Dir::RW)
    }

    /// Whether this is a second-mesh direction (multi-mesh).
    pub fn is_second_mesh(self) -> bool {
        matches!(self, Dir::N2 | Dir::S2 | Dir::E2 | Dir::W2)
    }

    /// The direction a link *to* this output arrives *from* at the far end.
    ///
    /// A flit leaving through `E` (or `RE`) arrives at the neighbor's `W`
    /// (or `RW`) input.
    pub fn opposite(self) -> Dir {
        match self {
            Dir::P => Dir::P,
            Dir::N => Dir::S,
            Dir::S => Dir::N,
            Dir::E => Dir::W,
            Dir::W => Dir::E,
            Dir::RN => Dir::RS,
            Dir::RS => Dir::RN,
            Dir::RE => Dir::RW,
            Dir::RW => Dir::RE,
            Dir::N2 => Dir::S2,
            Dir::S2 => Dir::N2,
            Dir::E2 => Dir::W2,
            Dir::W2 => Dir::E2,
        }
    }

    /// Per-axis displacement `(dx, dy)` for a hop through this output, given
    /// the Ruche factor `rf` (ignored for local directions).
    pub fn displacement(self, rf: u16) -> (i32, i32) {
        let r = rf as i32;
        match self {
            Dir::P => (0, 0),
            Dir::N | Dir::N2 => (0, -1),
            Dir::S | Dir::S2 => (0, 1),
            Dir::E | Dir::E2 => (1, 0),
            Dir::W | Dir::W2 => (-1, 0),
            Dir::RN => (0, -r),
            Dir::RS => (0, r),
            Dir::RE => (r, 0),
            Dir::RW => (-r, 0),
        }
    }

    /// Short ASCII name (for reports and debugging).
    pub fn name(self) -> &'static str {
        match self {
            Dir::P => "P",
            Dir::N => "N",
            Dir::S => "S",
            Dir::E => "E",
            Dir::W => "W",
            Dir::RN => "RN",
            Dir::RS => "RS",
            Dir::RE => "RE",
            Dir::RW => "RW",
            Dir::N2 => "N2",
            Dir::S2 => "S2",
            Dir::E2 => "E2",
            Dir::W2 => "W2",
        }
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance() {
        assert_eq!(Coord::new(0, 0).manhattan(Coord::new(3, 4)), 7);
        assert_eq!(Coord::new(5, 5).manhattan(Coord::new(5, 5)), 0);
        assert_eq!(Coord::new(7, 0).manhattan(Coord::new(0, 7)), 14);
    }

    #[test]
    fn delta_is_signed() {
        assert_eq!(Coord::new(3, 4).delta(Coord::new(1, 9)), (-2, 5));
    }

    #[test]
    fn offset_respects_bounds() {
        let dims = Dims::new(4, 4);
        assert_eq!(Coord::new(0, 0).offset(1, 1, dims), Some(Coord::new(1, 1)));
        assert_eq!(Coord::new(0, 0).offset(-1, 0, dims), None);
        assert_eq!(Coord::new(3, 3).offset(1, 0, dims), None);
        assert_eq!(Coord::new(3, 3).offset(0, 1, dims), None);
    }

    #[test]
    fn index_roundtrip() {
        let dims = Dims::new(16, 8);
        for (i, c) in dims.iter().enumerate() {
            assert_eq!(dims.index(c), i);
            assert_eq!(dims.coord(i), c);
        }
        assert_eq!(dims.count(), 128);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        Dims::new(4, 4).index(Coord::new(4, 0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dims_panic() {
        Dims::new(0, 4);
    }

    #[test]
    fn opposite_is_involution() {
        for d in Dir::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn displacement_matches_axis() {
        for d in Dir::ALL {
            let (dx, dy) = d.displacement(3);
            match d.axis() {
                None => assert_eq!((dx, dy), (0, 0)),
                Some(Axis::X) => {
                    assert_ne!(dx, 0);
                    assert_eq!(dy, 0);
                }
                Some(Axis::Y) => {
                    assert_eq!(dx, 0);
                    assert_ne!(dy, 0);
                }
            }
        }
    }

    #[test]
    fn ruche_displacement_scales_with_rf() {
        assert_eq!(Dir::RE.displacement(3), (3, 0));
        assert_eq!(Dir::RW.displacement(2), (-2, 0));
        assert_eq!(Dir::RS.displacement(4), (0, 4));
        assert_eq!(Dir::RN.displacement(1), (0, -1));
    }

    #[test]
    fn opposite_preserves_ruche_and_mesh_class() {
        for d in Dir::ALL {
            assert_eq!(d.is_ruche(), d.opposite().is_ruche());
            assert_eq!(d.is_second_mesh(), d.opposite().is_second_mesh());
        }
    }

    #[test]
    fn axes_inclusion() {
        assert!(Axes::Both.includes(Axis::X));
        assert!(Axes::Both.includes(Axis::Y));
        assert!(Axes::X.includes(Axis::X));
        assert!(!Axes::X.includes(Axis::Y));
        assert!(Axes::Y.includes(Axis::Y));
        assert!(!Axes::Y.includes(Axis::X));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Coord::new(3, 4).to_string(), "(3,4)");
        assert_eq!(Dims::new(16, 8).to_string(), "16x8");
        assert_eq!(Dir::RE.to_string(), "RE");
    }
}
