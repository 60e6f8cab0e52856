//! Bounded candidate sets: the partial KNN results aggregated along
//! itineraries and merged at the sink.

use diknn_geom::Point;
use diknn_sim::NodeId;

use crate::config::RESPONSE_BYTES;

/// One KNN candidate: a sensor node that answered a probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    pub id: NodeId,
    /// Position the node reported in its reply.
    pub position: Point,
    /// Distance from the query point at reply time.
    pub dist: f64,
}

/// A set of at most `k` best (closest) candidates, deduplicated by node id.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateSet {
    k: usize,
    /// Sorted ascending by distance (ties by id for determinism).
    items: Vec<Candidate>,
}

diknn_snap::snap_struct!(Candidate { id, position, dist });
diknn_snap::snap_struct!(CandidateSet { k, items });

impl CandidateSet {
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        CandidateSet {
            k,
            items: Vec::with_capacity(k.min(64)),
        }
    }

    /// The `k` of `nodes` nearest to `q`: the first k by `(distance, id)`,
    /// whatever order `nodes` come in (a tie at the cut keeps the lower
    /// id).
    pub fn nearest(q: Point, k: usize, nodes: impl IntoIterator<Item = (NodeId, Point)>) -> Self {
        let mut best = CandidateSet::new(k);
        for (id, position) in nodes {
            best.insert(Candidate {
                id,
                position,
                dist: position.dist(q),
            });
        }
        best
    }

    pub fn k(&self) -> usize {
        self.k
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn is_full(&self) -> bool {
        self.items.len() >= self.k
    }

    /// Distance of the current k-th (worst kept) candidate, or ∞ while the
    /// set is not full. A sector whose remaining itinerary lies entirely
    /// beyond this distance cannot improve the result.
    pub fn kth_dist(&self) -> f64 {
        if self.is_full() {
            self.items.last().expect("full set").dist
        } else {
            f64::INFINITY
        }
    }

    /// Insert, keeping only the best `k` by `(distance, id)`; replaces a
    /// stale entry for the same node. Returns true if the set changed.
    pub fn insert(&mut self, c: Candidate) -> bool {
        debug_assert!(c.dist.is_finite());
        if let Some(old) = self.items.iter().position(|x| x.id == c.id) {
            // Keep the fresher report for the same node.
            self.items.remove(old);
        } else if let Some(kth) = self.items.last().filter(|_| self.is_full()) {
            if (c.dist, c.id) >= (kth.dist, kth.id) {
                return false;
            }
        }
        let at = self
            .items
            .partition_point(|x| (x.dist, x.id) < (c.dist, c.id));
        self.items.insert(at, c);
        self.items.truncate(self.k);
        true
    }

    /// Raise the capacity to at least `k` (never shrinks). Used by the
    /// serving layer when a merge member joins a host query: the host's own
    /// top-k around *its* point might drop the member's nearest nodes, so
    /// the sink keeps a wider pool to re-rank per member.
    pub fn widen(&mut self, k: usize) {
        self.k = self.k.max(k);
    }

    /// Merge another set into this one.
    pub fn merge(&mut self, other: &CandidateSet) {
        for &c in &other.items {
            self.insert(c);
        }
    }

    pub fn items(&self) -> &[Candidate] {
        &self.items
    }

    pub fn ids(&self) -> Vec<NodeId> {
        self.items.iter().map(|c| c.id).collect()
    }

    /// Wire size of this set in a message, at [`RESPONSE_BYTES`] per entry.
    pub fn wire_bytes(&self) -> usize {
        self.items.len() * RESPONSE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(id: u32, dist: f64) -> Candidate {
        Candidate {
            id: NodeId(id),
            position: Point::new(dist, 0.0),
            dist,
        }
    }

    #[test]
    fn keeps_best_k_sorted() {
        let mut s = CandidateSet::new(3);
        for (id, d) in [(1, 5.0), (2, 1.0), (3, 9.0), (4, 2.0), (5, 0.5)] {
            s.insert(cand(id, d));
        }
        let ids: Vec<u32> = s.ids().iter().map(|n| n.0).collect();
        assert_eq!(ids, vec![5, 2, 4]);
        assert_eq!(s.kth_dist(), 2.0);
        assert!(s.is_full());
    }

    #[test]
    fn nearest_ranks_by_distance_then_id() {
        // Three nodes 5 m out and one 1 m out, in ascending id order: the
        // first three by (distance, id).
        let nodes = [
            (2, (-5.0, 0.0)),
            (4, (0.0, 5.0)),
            (7, (3.0, 4.0)),
            (9, (1.0, 0.0)),
        ]
        .map(|(id, (x, y))| (NodeId(id), Point::new(x, y)));
        let best = CandidateSet::nearest(Point::new(0.0, 0.0), 3, nodes);
        assert_eq!(best.ids(), [NodeId(9), NodeId(2), NodeId(4)]);
    }

    #[test]
    fn a_tie_at_the_cut_keeps_the_lower_id_whatever_the_order() {
        // Nodes 7, 2, 9, 4 at 5, 5, 1 and 5 m: node 4 ties node 7, the
        // k-th kept one, when it arrives, and wins on id.
        let nodes = [
            (7, (3.0, 4.0)),
            (2, (-5.0, 0.0)),
            (9, (1.0, 0.0)),
            (4, (0.0, 5.0)),
        ]
        .map(|(id, (x, y))| (NodeId(id), Point::new(x, y)));
        let best = CandidateSet::nearest(Point::new(0.0, 0.0), 3, nodes);
        assert_eq!(best.ids(), [NodeId(9), NodeId(2), NodeId(4)]);
    }

    #[test]
    fn kth_dist_infinite_until_full() {
        let mut s = CandidateSet::new(3);
        s.insert(cand(1, 1.0));
        assert_eq!(s.kth_dist(), f64::INFINITY);
    }

    #[test]
    fn duplicate_id_keeps_fresher_report() {
        let mut s = CandidateSet::new(3);
        s.insert(cand(1, 5.0));
        s.insert(cand(1, 2.0)); // node moved closer
        assert_eq!(s.len(), 1);
        assert_eq!(s.items()[0].dist, 2.0);
        // Fresher but farther also replaces.
        s.insert(cand(1, 7.0));
        assert_eq!(s.len(), 1);
        assert_eq!(s.items()[0].dist, 7.0);
    }

    #[test]
    fn rejects_worse_than_kth_when_full() {
        let mut s = CandidateSet::new(2);
        s.insert(cand(1, 1.0));
        s.insert(cand(2, 2.0));
        assert!(!s.insert(cand(3, 3.0)));
        assert_eq!(s.len(), 2);
        assert!(s.insert(cand(4, 0.5)));
        let ids: Vec<u32> = s.ids().iter().map(|n| n.0).collect();
        assert_eq!(ids, vec![4, 1]);
    }

    #[test]
    fn merge_unions_best() {
        let mut a = CandidateSet::new(3);
        a.insert(cand(1, 1.0));
        a.insert(cand(2, 4.0));
        let mut b = CandidateSet::new(3);
        b.insert(cand(3, 2.0));
        b.insert(cand(4, 3.0));
        a.merge(&b);
        let ids: Vec<u32> = a.ids().iter().map(|n| n.0).collect();
        assert_eq!(ids, vec![1, 3, 4]);
    }

    #[test]
    fn widen_raises_capacity_without_shrinking() {
        let mut s = CandidateSet::new(2);
        s.insert(cand(1, 1.0));
        s.insert(cand(2, 2.0));
        assert!(!s.insert(cand(3, 3.0)));
        s.widen(4);
        assert_eq!(s.k(), 4);
        assert!(s.insert(cand(3, 3.0)));
        assert_eq!(s.len(), 3);
        // Never shrinks.
        s.widen(1);
        assert_eq!(s.k(), 4);
    }

    #[test]
    fn wire_bytes_counts_entries() {
        let mut s = CandidateSet::new(5);
        s.insert(cand(1, 1.0));
        s.insert(cand(2, 2.0));
        assert_eq!(s.wire_bytes(), 20);
    }
}
