//! Uniform spatial grid over the simulation field: the radio hot path.
//!
//! Every transmission and the table warm-up need "which nodes are within
//! radio range of here?". The naive answer scans all `n` mobility plans —
//! O(n) per transmission, O(n²) per beacon round, the exact cost wall that
//! makes naive PHY neighbourhood computation the bottleneck of
//! packet-level simulators. This module buckets nodes into
//! square cells of edge length = radio range, so a range query touches the
//! 3×3 cell neighbourhood (O(degree)) instead of the whole field.
//!
//! # Determinism contract
//!
//! The grid is a *candidate* index, never an oracle:
//!
//! * Each cell's slots ascend by node id, and cells are visited in
//!   row-major order, so candidate enumeration order is a pure function
//!   of the grid state — no hashing, no pointer order.
//! * Queries pad the search radius by `vmax · (now − built_at)`: a node
//!   can have drifted at most that far from the position it was bucketed
//!   at, so the padded query is a guaranteed superset of the true answer.
//! * Callers judge every candidate by the same predicate
//!   (`dist_sq <= range²`) the brute scan uses, on its **true** current
//!   position, or from its anchor where the drift bound already decides
//!   the answer, and sort the survivors ascending by id. The result is
//!   therefore bit-identical — same membership, same order, hence the
//!   same downstream RNG draw sequence — to the O(n) scan it replaces.
//!   `crates/diknn-sim/tests/grid_equiv.rs` proptests this equivalence.
//!
//! Positions outside the field boundary are clamped into the edge cells.
//! Clamping is monotone per axis, so a clamped position still lands inside
//! the clamped query window — coverage survives out-of-field drift.
//!
//! # Layout and refresh policy
//!
//! The grid is a CSR index: one array of `(anchor, id)` slots holding
//! every node once, grouped by cell in row-major order and ascending by id
//! within a cell, plus one offset per cell into it. A node's *anchor* is
//! the position it was bucketed at, so a range query reads positions and
//! ids from one contiguous run per row of its cell window and can classify
//! most candidates without evaluating a mobility plan. Build and refresh
//! fill the array with one stable counting sort over node ids; refresh
//! evaluates each node's plan once. The engine refreshes once the
//! accumulated drift bound `vmax · (now − built_at)` exceeds a slack
//! threshold (a tenth of the radio range). Static scenarios (`vmax = 0`)
//! never refresh and never pad.

use crate::time::SimTime;
use diknn_geom::{Point, Rect};

/// One grid slot: a node and the position it was bucketed at (its
/// anchor). By the drift bound, the node's true position at `now` is
/// within `drift_bound(now)` metres of `pos`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    pub(crate) pos: Point,
    pub(crate) id: u32,
}

/// A uniform cell grid over node positions; see the module docs for the
/// determinism contract and the layout.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    /// Cell edge length in metres (the radio range).
    cell: f64,
    /// Field origin; cell (0,0) starts here.
    min_x: f64,
    min_y: f64,
    cols: usize,
    rows: usize,
    /// `start[c]..start[c + 1]` is cell `c`'s run in `slots`; cells are
    /// row-major (`row * cols + col`), so the cells of one row of a query
    /// window are one run. Length `cols * rows + 1`.
    start: Vec<u32>,
    /// Every node once, grouped by cell, ascending by id within a cell.
    slots: Vec<Slot>,
    /// Counting-sort input, indexed by node id: each node's cell and
    /// position. Scratch between refreshes; only the allocation is kept.
    placed: Vec<(u32, Point)>,
    /// Upper bound on any node's speed (m/s); drives query padding.
    vmax: f64,
    /// Time the slots were last filled.
    built_at: SimTime,
    /// Refresh once drift (`vmax · age`) exceeds this many metres.
    refresh_slack: f64,
}

impl SpatialGrid {
    /// Build the grid over `field` with the given cell size, bucketing
    /// every node at its position in `positions` (one entry per node,
    /// indexed by id) as of time `t`.
    pub fn build(
        field: Rect,
        cell: f64,
        positions: &[Point],
        vmax: f64,
        refresh_slack: f64,
        t: SimTime,
    ) -> Self {
        debug_assert!(cell > 0.0, "grid cell size must be positive");
        let cols = ((field.width() / cell).ceil() as usize).max(1);
        let rows = ((field.height() / cell).ceil() as usize).max(1);
        let mut grid = SpatialGrid {
            cell,
            min_x: field.min_x,
            min_y: field.min_y,
            cols,
            rows,
            start: Vec::new(),
            slots: Vec::new(),
            placed: Vec::with_capacity(positions.len()),
            vmax: vmax.max(0.0),
            built_at: t,
            refresh_slack: refresh_slack.max(0.0),
        };
        for &p in positions {
            grid.placed.push((grid.cell_index(p), p));
        }
        grid.sort_placed();
        grid
    }

    /// Number of nodes indexed.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Grid dimensions `(cols, rows)`.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// The speed bound the grid pads its queries with (m/s).
    #[inline]
    pub(crate) fn max_speed(&self) -> f64 {
        self.vmax
    }

    /// Column of `x`, clamped into the grid.
    #[inline]
    fn col_of(&self, x: f64) -> usize {
        let c = ((x - self.min_x) / self.cell).floor();
        if c <= 0.0 {
            0
        } else {
            (c as usize).min(self.cols - 1)
        }
    }

    /// Row of `y`, clamped into the grid.
    #[inline]
    fn row_of(&self, y: f64) -> usize {
        let r = ((y - self.min_y) / self.cell).floor();
        if r <= 0.0 {
            0
        } else {
            (r as usize).min(self.rows - 1)
        }
    }

    /// Flat cell index of a position (clamped into the field).
    #[inline]
    fn cell_index(&self, p: Point) -> u32 {
        (self.row_of(p.y) * self.cols + self.col_of(p.x)) as u32
    }

    /// Fill `start` and `slots` from `placed` with a stable counting sort:
    /// count each cell, turn the counts into run ends, then place nodes in
    /// descending id order at the back of their cell's run, so each run
    /// ends up ascending by id and `start[c]` at the run's first slot.
    fn sort_placed(&mut self) {
        let cells = self.cols * self.rows;
        self.start.clear();
        self.start.resize(cells + 1, 0);
        for &(c, _) in &self.placed {
            self.start[c as usize] += 1;
        }
        let mut end = 0;
        for s in &mut self.start {
            end += *s;
            *s = end;
        }
        self.slots.clear();
        self.slots.resize(
            self.placed.len(),
            Slot {
                pos: Point::new(0.0, 0.0),
                id: 0,
            },
        );
        for (id, &(c, pos)) in self.placed.iter().enumerate().rev() {
            let at = &mut self.start[c as usize];
            *at -= 1;
            self.slots[*at as usize] = Slot { pos, id: id as u32 };
        }
    }

    /// How far any node may have drifted from its bucketed position by
    /// `now`, in metres.
    #[inline]
    pub fn drift_bound(&self, now: SimTime) -> f64 {
        if self.vmax == 0.0 || now <= self.built_at {
            return 0.0;
        }
        self.vmax * now.since(self.built_at).as_secs_f64()
    }

    /// Whether the accumulated drift bound warrants a refresh. Static
    /// scenarios never refresh.
    #[inline]
    pub fn needs_refresh(&self, now: SimTime) -> bool {
        self.drift_bound(now) > self.refresh_slack
    }

    /// Re-bucket every node at its current position (`pos_of(i)` must
    /// return node `i`'s position as of `now`, and is called once per
    /// node), rebuilding the slot array by counting sort.
    pub fn refresh<F: Fn(usize) -> Point>(&mut self, pos_of: F, now: SimTime) {
        for i in 0..self.placed.len() {
            let p = pos_of(i);
            self.placed[i] = (self.cell_index(p), p);
        }
        self.sort_placed();
        self.built_at = now;
    }

    // lint: hot-path (radio-range queries run once per transmission; the
    // out-parameter API exists so callers can reuse one buffer)
    /// Append to `out` every node whose bucketed position could put it
    /// within `radius` of `center` as of `now` — a superset of the true
    /// in-range set (see module docs). Candidates arrive in row-major
    /// cell order, ascending by id within a cell; callers exact-check and
    /// sort. `out` is not cleared.
    pub fn candidates_near(&self, center: Point, radius: f64, now: SimTime, out: &mut Vec<u32>) {
        for run in self.row_runs(self.cover_cells(center, radius, now)) {
            out.extend(run.iter().map(|s| s.id));
        }
    }

    /// The inclusive cell window `(col0, col1, row0, row1)` that a
    /// [`SpatialGrid::candidates_near`] query with the same arguments
    /// visits (drift padding included).
    pub fn cover_cells(&self, center: Point, radius: f64, now: SimTime) -> (u32, u32, u32, u32) {
        let r = radius + self.drift_bound(now);
        (
            self.col_of(center.x - r) as u32,
            self.col_of(center.x + r) as u32,
            self.row_of(center.y - r) as u32,
            self.row_of(center.y + r) as u32,
        )
    }

    /// The slots of every cell in `window` (as produced by
    /// [`SpatialGrid::cover_cells`]), one contiguous run per row, rows in
    /// ascending order; each run holds its cells left to right, ascending
    /// by id within a cell.
    pub(crate) fn row_runs(
        &self,
        window: (u32, u32, u32, u32),
    ) -> impl Iterator<Item = &[Slot]> + '_ {
        let (c0, c1, r0, r1) = window;
        (r0..=r1).map(move |row| {
            let first = row as usize * self.cols;
            let lo = self.start[first + c0 as usize] as usize;
            let hi = self.start[first + c1 as usize + 1] as usize;
            &self.slots[lo..hi]
        })
    }
    // lint: end-hot-path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn grid_of(points: &[(f64, f64)], cell: f64, vmax: f64) -> SpatialGrid {
        let positions: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        SpatialGrid::build(
            Rect::new(0.0, 0.0, 100.0, 100.0),
            cell,
            &positions,
            vmax,
            cell * 0.5,
            SimTime::ZERO,
        )
    }

    fn sorted(mut v: Vec<u32>) -> Vec<u32> {
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn build_buckets_and_dims() {
        let g = grid_of(&[(5.0, 5.0), (25.0, 5.0), (5.0, 25.0)], 20.0, 0.0);
        assert_eq!(g.dims(), (5, 5));
        assert_eq!(g.len(), 3);
        let mut out = Vec::new();
        g.candidates_near(Point::new(5.0, 5.0), 1.0, SimTime::ZERO, &mut out);
        assert_eq!(sorted(out), vec![0]);
    }

    #[test]
    fn boundary_positions_clamp_into_edge_cells() {
        // Exactly on the max corner, and well outside the field: both must
        // land in a valid cell and stay findable.
        let g = grid_of(&[(100.0, 100.0), (150.0, -10.0)], 20.0, 0.0);
        let mut out = Vec::new();
        g.candidates_near(Point::new(100.0, 100.0), 1.0, SimTime::ZERO, &mut out);
        assert!(out.contains(&0));
        out.clear();
        // Query centred outside the field still reaches the clamped cell.
        g.candidates_near(Point::new(150.0, -10.0), 1.0, SimTime::ZERO, &mut out);
        assert!(out.contains(&1));
    }

    #[test]
    fn cell_boundary_point_is_in_the_upper_cell() {
        // x = 20.0 with cell 20 is col 1, not col 0 — and a query window
        // touching x=20 from below must still cover it.
        let g = grid_of(&[(20.0, 0.0)], 20.0, 0.0);
        let mut out = Vec::new();
        g.candidates_near(Point::new(19.0, 0.0), 1.0, SimTime::ZERO, &mut out);
        assert!(out.contains(&0));
    }

    #[test]
    fn drift_padding_keeps_movers_covered() {
        // Node bucketed at (5,5) but allowed to move 2 m/s; after 10 s the
        // query must pad by 20 m and still surface it for a far query.
        let g = grid_of(&[(5.0, 5.0)], 20.0, 2.0);
        let later = SimTime::ZERO + SimDuration::from_secs_f64(10.0);
        assert_eq!(g.drift_bound(later), 20.0);
        assert!(g.needs_refresh(later));
        let mut out = Vec::new();
        // True position could now be up to (25,5); query there with zero
        // radius must still return the candidate thanks to the pad.
        g.candidates_near(Point::new(25.0, 5.0), 0.0, later, &mut out);
        assert!(out.contains(&0));
    }

    #[test]
    fn static_grid_never_refreshes() {
        let g = grid_of(&[(5.0, 5.0)], 20.0, 0.0);
        let much_later = SimTime::ZERO + SimDuration::from_secs_f64(1e6);
        assert_eq!(g.drift_bound(much_later), 0.0);
        assert!(!g.needs_refresh(much_later));
    }

    #[test]
    fn refresh_moves_nodes_between_buckets() {
        let mut g = grid_of(&[(5.0, 5.0), (6.0, 5.0)], 20.0, 2.0);
        let later = SimTime::ZERO + SimDuration::from_secs_f64(30.0);
        // Node 0 moved to (65,5); node 1 stayed.
        let moved = [Point::new(65.0, 5.0), Point::new(6.0, 5.0)];
        g.refresh(|i| moved[i], later);
        assert_eq!(g.drift_bound(later), 0.0);
        let mut out = Vec::new();
        g.candidates_near(Point::new(65.0, 5.0), 1.0, later, &mut out);
        assert_eq!(sorted(out), vec![0]);
        out = Vec::new();
        g.candidates_near(Point::new(5.0, 5.0), 1.0, later, &mut out);
        assert_eq!(sorted(out), vec![1]);
    }

    #[test]
    fn slots_are_grouped_by_cell_ascending_by_id_and_carry_anchors() {
        // Cells (0,0), (2,0) and (0,2) of a 5×5 grid, ids interleaved.
        let pts = [
            (45.0, 5.0),
            (5.0, 5.0),
            (45.0, 6.0),
            (5.0, 45.0),
            (6.0, 5.0),
        ];
        let mut g = grid_of(&pts, 20.0, 2.0);
        let ids = |g: &SpatialGrid| g.slots.iter().map(|s| s.id).collect::<Vec<_>>();
        assert_eq!(ids(&g), [1, 4, 0, 2, 3]);
        assert_eq!(&g.start[..4], &[0, 2, 2, 4]);
        assert_eq!((g.start[10], g.start[11], g.start[25]), (4, 5, 5));
        // Node 1 moves into cell (2,0); the rebuilt runs stay ascending.
        let later = SimTime::ZERO + SimDuration::from_secs_f64(30.0);
        let moved = [
            (45.0, 5.0),
            (45.0, 7.0),
            (45.0, 6.0),
            (5.0, 45.0),
            (6.0, 5.0),
        ];
        g.refresh(|i| Point::new(moved[i].0, moved[i].1), later);
        assert_eq!(ids(&g), [4, 0, 1, 2, 3]);
        for s in &g.slots {
            let (x, y) = moved[s.id as usize];
            assert_eq!((s.pos.x, s.pos.y), (x, y), "anchor of node {}", s.id);
        }
        // One run per window row: row 0 holds cells 0..=2 back to back.
        let runs: Vec<Vec<u32>> = g
            .row_runs((0, 2, 0, 2))
            .map(|run| run.iter().map(|s| s.id).collect())
            .collect();
        assert_eq!(runs, [vec![4, 0, 1, 2], vec![], vec![3]]);
        let mut near = Vec::new();
        g.candidates_near(Point::new(25.0, 25.0), 20.0, later, &mut near);
        assert_eq!(near, [4, 0, 1, 2, 3]);
    }
}
