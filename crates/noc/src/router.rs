//! Five-port mesh routers with X-Y dimension-order routing.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// A tile coordinate in the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Coord {
    /// Column (0 at the west edge).
    pub x: u8,
    /// Row (0 at the north edge).
    pub y: u8,
}

impl Coord {
    /// Creates a coordinate.
    #[must_use]
    pub fn new(x: u8, y: u8) -> Self {
        Coord { x, y }
    }

    /// Manhattan distance to another tile — the hop count under X-Y routing.
    #[must_use]
    pub(crate) fn hops_to(self, other: Coord) -> u32 {
        (self.x).abs_diff(other.x) as u32 + (self.y).abs_diff(other.y) as u32
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// Router ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Towards decreasing y.
    North,
    /// Towards increasing y.
    South,
    /// Towards increasing x.
    East,
    /// Towards decreasing x.
    West,
    /// The tile attached to this router.
    Local,
}

impl Direction {
    /// All five ports.
    pub(crate) const ALL: [Direction; 5] = [
        Direction::North,
        Direction::South,
        Direction::East,
        Direction::West,
        Direction::Local,
    ];

    /// Port index 0–4.
    #[must_use]
    pub(crate) fn index(self) -> usize {
        match self {
            Direction::North => 0,
            Direction::South => 1,
            Direction::East => 2,
            Direction::West => 3,
            Direction::Local => 4,
        }
    }
}

/// X-Y routing decision: which output port at `here` leads to `dst`
/// (X first, then Y; `Local` when arrived).
#[must_use]
pub(crate) fn xy_route(here: Coord, dst: Coord) -> Direction {
    if dst.x > here.x {
        Direction::East
    } else if dst.x < here.x {
        Direction::West
    } else if dst.y > here.y {
        Direction::South
    } else if dst.y < here.y {
        Direction::North
    } else {
        Direction::Local
    }
}

/// Y-X routing decision: the alternate dimension order (Y first, then X),
/// used when a recalled packet retries around a failed X-path link.
#[must_use]
pub(crate) fn yx_route(here: Coord, dst: Coord) -> Direction {
    if dst.y > here.y {
        Direction::South
    } else if dst.y < here.y {
        Direction::North
    } else if dst.x > here.x {
        Direction::East
    } else if dst.x < here.x {
        Direction::West
    } else {
        Direction::Local
    }
}

/// One flit in flight. Head flits carry the destination; body/tail flits
/// follow their packet's wormhole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Flit {
    /// Owning packet.
    pub packet: u64,
    /// Destination tile (copied to every flit for simplicity).
    pub dst: Coord,
    /// First flit of the packet.
    pub is_head: bool,
    /// Last flit of the packet.
    pub is_tail: bool,
    /// Route Y-first instead of X-first (set on fault-retry re-injection;
    /// always `false` on the default path).
    pub yx: bool,
}

/// The output port at `here` that leads to `dst`, Y first when `yx` is
/// set and X first otherwise.
#[must_use]
pub(crate) fn route(here: Coord, dst: Coord, yx: bool) -> Direction {
    if yx {
        yx_route(here, dst)
    } else {
        xy_route(here, dst)
    }
}

impl Flit {
    /// The output port this flit wants at `here`, honouring its dimension
    /// order.
    #[must_use]
    pub(crate) fn route_from(&self, here: Coord) -> Direction {
        route(here, self.dst, self.yx)
    }
}

/// Per-output wormhole allocation state.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OutputState {
    /// The packet currently owning this output, if any.
    pub owner: Option<u64>,
    /// Round-robin pointer over input ports.
    pub rr: usize,
}

/// One five-port router: an input buffer per port plus output allocation
/// state.
#[derive(Debug)]
pub(crate) struct Router {
    /// This router's coordinate.
    pub coord: Coord,
    /// Input FIFO per port.
    pub inputs: [VecDeque<Flit>; 5],
    /// Wormhole/arbitration state per output port.
    pub outputs: [OutputState; 5],
}

impl Clone for Router {
    fn clone(&self) -> Self {
        Router {
            coord: self.coord,
            inputs: self.inputs.clone(),
            outputs: self.outputs,
        }
    }

    /// Overwrites `self` with a copy of `source`, keeping the buffers of
    /// `self`'s input FIFOs.
    fn clone_from(&mut self, source: &Self) {
        let Router {
            coord,
            inputs,
            outputs,
        } = source;
        self.coord = *coord;
        for (mine, theirs) in self.inputs.iter_mut().zip(inputs) {
            mine.clone_from(theirs);
        }
        self.outputs = *outputs;
    }
}

impl Router {
    /// Creates an empty router at `coord`.
    #[must_use]
    pub(crate) fn new(coord: Coord) -> Self {
        Router {
            coord,
            inputs: Default::default(),
            outputs: Default::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hops_is_manhattan() {
        assert_eq!(Coord::new(0, 0).hops_to(Coord::new(3, 4)), 7);
        assert_eq!(Coord::new(5, 5).hops_to(Coord::new(5, 5)), 0);
        assert_eq!(Coord::new(4, 1).hops_to(Coord::new(1, 1)), 3);
    }

    #[test]
    fn xy_goes_x_first() {
        let here = Coord::new(2, 2);
        assert_eq!(xy_route(here, Coord::new(5, 0)), Direction::East);
        assert_eq!(xy_route(here, Coord::new(0, 5)), Direction::West);
        assert_eq!(xy_route(here, Coord::new(2, 5)), Direction::South);
        assert_eq!(xy_route(here, Coord::new(2, 0)), Direction::North);
        assert_eq!(xy_route(here, here), Direction::Local);
    }

    #[test]
    fn direction_indices_unique() {
        let mut seen = std::collections::HashSet::new();
        for d in Direction::ALL {
            assert!(seen.insert(d.index()));
        }
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn yx_goes_y_first() {
        let here = Coord::new(2, 2);
        assert_eq!(yx_route(here, Coord::new(5, 0)), Direction::North);
        assert_eq!(yx_route(here, Coord::new(0, 5)), Direction::South);
        assert_eq!(yx_route(here, Coord::new(5, 2)), Direction::East);
        assert_eq!(yx_route(here, Coord::new(0, 2)), Direction::West);
        assert_eq!(yx_route(here, here), Direction::Local);
    }

    #[test]
    fn flit_route_honours_dimension_order() {
        let f = |yx| Flit {
            packet: 0,
            dst: Coord::new(4, 4),
            is_head: true,
            is_tail: true,
            yx,
        };
        let here = Coord::new(1, 1);
        assert_eq!(f(false).route_from(here), Direction::East);
        assert_eq!(f(true).route_from(here), Direction::South);
    }
}
