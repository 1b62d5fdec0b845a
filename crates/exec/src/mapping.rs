//! Zig-zag placement of node groups on the compute array (§4.3, Fig 7(c)).
//!
//! The mapping walks the 15×14 compute region in a serpentine so that
//! consecutive cores of a node group are physically adjacent — each ifmap
//! forward is then a single-hop NoC transfer — and a layer's last cores
//! sit near the next layer's data-collection core.
//!
//! When tiles are marked **failed**, [`place_groups_avoiding`] remaps the
//! node groups onto the same serpentine with the dead tiles removed: the
//! zig-zag ordering is preserved, chains simply hop over holes.

use crate::ExecError;
use serde::{Deserialize, Serialize};

/// Compute-array width (the 16×16 mesh minus the host column).
pub(crate) const ARRAY_W: usize = 15;
/// Compute-array height (minus the two LLC rows).
pub(crate) const ARRAY_H: usize = 14;

/// A tile position inside the compute region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Tile {
    /// Column.
    pub x: u8,
    /// Row.
    pub y: u8,
}

impl Tile {
    /// Manhattan distance.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn hops_to(self, o: Tile) -> u32 {
        self.x.abs_diff(o.x) as u32 + self.y.abs_diff(o.y) as u32
    }
}

/// The serpentine visit order of the whole compute region.
#[must_use]
pub fn zigzag_order() -> Vec<Tile> {
    healthy_order(&[])
}

/// Placement of one node group: the data-collection core followed by its
/// computing cores, in chain order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupPlacement {
    /// The data-collection core.
    pub dc: Tile,
    /// The computing cores in streaming order.
    pub computing: Vec<Tile>,
}

impl GroupPlacement {
    /// Mean hop count along the forwarding chain (1.0 when perfectly
    /// adjacent).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn mean_chain_hops(&self) -> f64 {
        if self.computing.is_empty() {
            return 0.0;
        }
        let mut hops = self.dc.hops_to(self.computing[0]) as f64;
        for w in self.computing.windows(2) {
            hops += w[0].hops_to(w[1]) as f64;
        }
        hops / self.computing.len() as f64
    }
}

/// The serpentine visit order with failed tiles removed: the healthy
/// tiles, still in zig-zag order. Tiles outside the 15×14 array are
/// ignored and duplicates count once.
///
/// Costs O(|failed| + 210): `failed` is marked once in a membership
/// table, then the serpentine is walked once. The serving loop probes
/// several times per request with avoid lists of about 200 tiles, where
/// a lookup into `failed` for each serpentine tile would be quadratic.
#[must_use]
pub fn healthy_order(failed: &[Tile]) -> Vec<Tile> {
    let mut dead = [false; ARRAY_W * ARRAY_H];
    for t in failed {
        let (x, y) = (usize::from(t.x), usize::from(t.y));
        if x < ARRAY_W && y < ARRAY_H {
            dead[y * ARRAY_W + x] = true;
        }
    }
    let mut order = Vec::with_capacity(ARRAY_W * ARRAY_H);
    for y in 0..ARRAY_H {
        for i in 0..ARRAY_W {
            let x = if y % 2 == 0 { i } else { ARRAY_W - 1 - i };
            if !dead[y * ARRAY_W + x] {
                order.push(Tile {
                    x: x as u8,
                    y: y as u8,
                });
            }
        }
    }
    order
}

/// Places consecutive node groups (sized `1 + computing_cores` each) along
/// the serpentine. Returns `None` if the groups exceed the array.
#[must_use]
pub fn place_groups(group_sizes: &[usize]) -> Option<Vec<GroupPlacement>> {
    try_place_groups(group_sizes).ok()
}

/// [`place_groups`] with a typed error instead of `None`.
///
/// # Errors
///
/// Returns [`ExecError::PlacementOverflow`] if the groups exceed the
/// array.
pub(crate) fn try_place_groups(group_sizes: &[usize]) -> Result<Vec<GroupPlacement>, ExecError> {
    place_groups_avoiding(group_sizes, &[])
}

/// Places node groups along the serpentine while routing around failed
/// tiles: dead tiles are removed from the visit order, so chains keep the
/// zig-zag shape but hop over holes (degrading adjacency from 1 hop to 2+
/// where a tile died).
///
/// # Errors
///
/// Returns [`ExecError::PlacementOverflow`] if the groups need more tiles
/// than remain healthy.
pub fn place_groups_avoiding(
    group_sizes: &[usize],
    failed: &[Tile],
) -> Result<Vec<GroupPlacement>, ExecError> {
    let order = healthy_order(failed);
    let total: usize = group_sizes.iter().map(|&c| c + 1).sum();
    if total > order.len() {
        return Err(ExecError::PlacementOverflow {
            requested: total,
            healthy: order.len(),
            failed: ARRAY_W * ARRAY_H - order.len(),
        });
    }
    let mut cursor = 0;
    let mut out = Vec::with_capacity(group_sizes.len());
    for &cc in group_sizes {
        let dc = order[cursor];
        let computing = order[cursor + 1..cursor + 1 + cc].to_vec();
        cursor += cc + 1;
        out.push(GroupPlacement { dc, computing });
    }
    Ok(out)
}

/// Mean hop count per chain link across all placements, weighted by chain
/// length: exactly 1.0 on a healthy array, above 1.0 when chains hop over
/// failed tiles. This is the NoC-latency degradation factor of a remapped
/// placement.
#[cfg(test)]
#[must_use]
pub(crate) fn mean_placement_hops(groups: &[GroupPlacement]) -> f64 {
    let mut hops = 0.0;
    let mut links = 0usize;
    for g in groups {
        if g.computing.is_empty() {
            continue;
        }
        hops += g.dc.hops_to(g.computing[0]) as f64;
        for w in g.computing.windows(2) {
            hops += w[0].hops_to(w[1]) as f64;
        }
        links += g.computing.len();
    }
    if links == 0 {
        1.0
    } else {
        hops / links as f64
    }
}

/// Renders group placements as an ASCII floor plan of the compute region:
/// each group gets a letter, its DC is upper-case, computing cores
/// lower-case, unused tiles are dots. The first groups read like
/// Figure 7(c)'s zig-zag.
#[must_use]
pub fn render_ascii(groups: &[GroupPlacement]) -> String {
    let mut grid = vec![vec!['.'; ARRAY_W]; ARRAY_H];
    for (gi, g) in groups.iter().enumerate() {
        let upper = (b'A' + (gi % 26) as u8) as char;
        let lower = upper.to_ascii_lowercase();
        grid[g.dc.y as usize][g.dc.x as usize] = upper;
        for t in &g.computing {
            grid[t.y as usize][t.x as usize] = lower;
        }
    }
    let mut out = String::with_capacity((ARRAY_W + 1) * ARRAY_H);
    for row in grid {
        out.extend(row);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn serpentine_covers_array_once() {
        let order = zigzag_order();
        assert_eq!(order.len(), ARRAY_W * ARRAY_H);
        let unique: std::collections::HashSet<_> = order.iter().collect();
        assert_eq!(unique.len(), order.len());
    }

    #[test]
    fn serpentine_steps_are_adjacent() {
        let order = zigzag_order();
        for w in order.windows(2) {
            assert_eq!(w[0].hops_to(w[1]), 1, "{:?} -> {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn placed_groups_have_adjacent_chains() {
        let groups = place_groups(&[4, 13, 26, 52]).unwrap();
        assert_eq!(groups.len(), 4);
        for g in &groups {
            assert!(
                (g.mean_chain_hops() - 1.0).abs() < 1e-9,
                "chain not adjacent: {:?}",
                g.mean_chain_hops()
            );
        }
    }

    #[test]
    fn groups_do_not_overlap() {
        let groups = place_groups(&[10, 20, 30]).unwrap();
        let mut seen = std::collections::HashSet::new();
        for g in &groups {
            assert!(seen.insert(g.dc));
            for t in &g.computing {
                assert!(seen.insert(*t));
            }
        }
    }

    #[test]
    fn overflow_returns_none() {
        assert!(place_groups(&[ARRAY_W * ARRAY_H]).is_none());
        assert!(place_groups(&[ARRAY_W * ARRAY_H - 1]).is_some());
    }

    #[test]
    fn ascii_map_marks_every_tile_once() {
        let groups = place_groups(&[4, 6]).unwrap();
        let map = render_ascii(&groups);
        assert_eq!(map.matches('A').count(), 1);
        assert_eq!(map.matches('a').count(), 4);
        assert_eq!(map.matches('B').count(), 1);
        assert_eq!(map.matches('b').count(), 6);
        assert_eq!(map.lines().count(), ARRAY_H);
        assert!(map.lines().all(|l| l.len() == ARRAY_W));
        // the zig-zag: group A occupies the start of row 0
        assert!(map.lines().next().unwrap().starts_with("Aaaaa"));
    }

    #[test]
    fn remap_skips_failed_tiles_and_keeps_groups_disjoint() {
        let failed = [
            Tile { x: 2, y: 0 },
            Tile { x: 7, y: 0 },
            Tile { x: 14, y: 1 },
        ];
        let groups = place_groups_avoiding(&[10, 20, 30], &failed).unwrap();
        let mut seen = std::collections::HashSet::new();
        for g in &groups {
            assert!(!failed.contains(&g.dc), "DC placed on dead tile");
            assert!(seen.insert(g.dc));
            for t in &g.computing {
                assert!(!failed.contains(t), "computing core on dead tile");
                assert!(seen.insert(*t));
            }
        }
    }

    #[test]
    fn remap_around_hole_costs_extra_hops() {
        // clean chain in row 0 is perfectly adjacent...
        let clean = try_place_groups(&[6]).unwrap();
        assert!((mean_placement_hops(&clean) - 1.0).abs() < 1e-9);
        // ...but a dead tile mid-chain forces a 2-hop skip
        let degraded = place_groups_avoiding(&[6], &[Tile { x: 2, y: 0 }]).unwrap();
        assert!(
            mean_placement_hops(&degraded) > 1.0,
            "hop penalty missing: {}",
            mean_placement_hops(&degraded)
        );
        // the zig-zag shape is respected: placement is the serpentine
        // minus the hole
        assert_eq!(degraded[0].dc, Tile { x: 0, y: 0 });
        assert_eq!(degraded[0].computing[0], Tile { x: 1, y: 0 });
        assert_eq!(degraded[0].computing[1], Tile { x: 3, y: 0 });
    }

    #[test]
    fn remap_overflow_is_typed() {
        let failed: Vec<Tile> = zigzag_order().into_iter().take(20).collect();
        let err = place_groups_avoiding(&[ARRAY_W * ARRAY_H - 20], &failed).unwrap_err();
        match err {
            ExecError::PlacementOverflow {
                requested,
                healthy,
                failed,
            } => {
                assert_eq!(requested, ARRAY_W * ARRAY_H - 19);
                assert_eq!(healthy, ARRAY_W * ARRAY_H - 20);
                assert_eq!(failed, 20);
            }
            other => panic!("expected PlacementOverflow, got {other:?}"),
        }
    }

    #[test]
    fn no_failures_matches_legacy_placement() {
        let sizes = [4, 13, 26, 52];
        assert_eq!(
            place_groups_avoiding(&sizes, &[]).unwrap(),
            place_groups(&sizes).unwrap()
        );
    }

    /// The scan [`healthy_order`] replaced: each serpentine tile looked
    /// up in `failed` on its own. The probe must reproduce it exactly.
    fn healthy_order_reference(failed: &[Tile]) -> Vec<Tile> {
        zigzag_order()
            .into_iter()
            .filter(|t| !failed.contains(t))
            .collect()
    }

    #[test]
    fn off_array_tiles_remove_nothing() {
        // A flat index without the bounds check would alias (15, 0) onto
        // (0, 1) and read past the table for the other two.
        let off = [
            Tile { x: 15, y: 0 },
            Tile { x: 0, y: 14 },
            Tile { x: 255, y: 255 },
        ];
        assert_eq!(healthy_order(&off), zigzag_order());
        assert_eq!(healthy_order(&off), healthy_order_reference(&off));
    }

    /// Any tile of the `u8 × u8` range, drawn mostly inside the array or
    /// across its right and bottom edges, so in-array tiles, duplicates
    /// and off-array neighbours all occur.
    fn any_tile() -> impl Strategy<Value = Tile> {
        let (w, h) = (ARRAY_W as u8, ARRAY_H as u8);
        prop_oneof![
            (0..w, 0..h),
            ((w - 1)..=(w + 1), 0..=(h + 1)),
            (any::<u8>(), any::<u8>()),
        ]
        .prop_map(|(x, y)| Tile { x, y })
    }

    proptest! {
        #[test]
        fn prop_healthy_order_matches_reference_scan(
            failed in proptest::collection::vec(any_tile(), 0..=300),
        ) {
            prop_assert_eq!(healthy_order(&failed), healthy_order_reference(&failed));
        }

        #[test]
        fn prop_healthy_order_matches_reference_on_serving_avoid_sets(
            busy in proptest::collection::vec(0usize..16, 0..16),
            retired in proptest::collection::vec(any_tile(), 0..8),
        ) {
            // The serving loop's shape under a 16-tile pool: the 194
            // tiles outside the pool, then tiles held by running
            // requests, then retired tiles.
            let order = zigzag_order();
            let mut avoid = order[16..].to_vec();
            avoid.extend(busy.iter().map(|&i| order[i]));
            avoid.extend(retired);
            prop_assert_eq!(healthy_order(&avoid), healthy_order_reference(&avoid));
        }
    }

    proptest! {
        #[test]
        fn prop_remap_avoids_dead_tiles(
            sizes in proptest::collection::vec(1usize..30, 1..5),
            dead_idx in proptest::collection::vec(0usize..(ARRAY_W * ARRAY_H), 0..8),
        ) {
            let order = zigzag_order();
            let failed: Vec<Tile> = dead_idx.iter().map(|&i| order[i]).collect();
            if let Ok(groups) = place_groups_avoiding(&sizes, &failed) {
                let mut seen = std::collections::HashSet::new();
                for g in &groups {
                    prop_assert!(!failed.contains(&g.dc));
                    prop_assert!(seen.insert(g.dc));
                    for t in &g.computing {
                        prop_assert!(!failed.contains(t));
                        prop_assert!(seen.insert(*t));
                    }
                }
                prop_assert!(mean_placement_hops(&groups) >= 1.0 - 1e-9);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_any_fitting_partition_places(sizes in proptest::collection::vec(1usize..40, 1..6)) {
            let total: usize = sizes.iter().map(|&c| c + 1).sum();
            let placed = place_groups(&sizes);
            if total <= ARRAY_W * ARRAY_H {
                let groups = placed.expect("fits");
                prop_assert_eq!(groups.len(), sizes.len());
                for (g, &c) in groups.iter().zip(&sizes) {
                    prop_assert_eq!(g.computing.len(), c);
                }
            } else {
                prop_assert!(placed.is_none());
            }
        }
    }
}
