//! Pooled, wholesale-freed storage for PDG adjacency.
//!
//! One `Vec<NodeId>` per node per direction would mean thousands of small
//! allocations per demand-built PDG, made and torn down once per detection
//! shard. Under parallel detection every
//! worker hammers the global allocator with them at the same time, which
//! is a large share of the multi-worker `pdg_ms` blow-up the bench matrix
//! measures.
//!
//! This module replaces that with an *arena* discipline: during
//! construction every edge is appended to one growing log ([`EdgeArena`]),
//! and at finalize the log is scattered into two compressed sparse rows
//! ([`Csr`], successors and predecessors) — three large allocations total,
//! all freed wholesale when the PDG (and with it the shard) retires.
//!
//! Determinism: the scatter is stable, so each node's successor (and
//! predecessor) slice comes out in exactly the order the edges were
//! inserted. Duplicate edges are dropped on insertion (first occurrence
//! wins).

use crate::graph::NodeId;
use std::collections::HashSet;

/// Append-only edge log with first-occurrence deduplication. One per PDG
/// build; finalized into CSR form once construction completes.
#[derive(Debug, Default)]
pub struct EdgeArena {
    pairs: Vec<(NodeId, NodeId)>,
    seen: HashSet<(NodeId, NodeId)>,
}

impl EdgeArena {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a directed edge unless it was already recorded. Returns
    /// whether the edge was new.
    pub fn push(&mut self, from: NodeId, to: NodeId) -> bool {
        if self.seen.insert((from, to)) {
            self.pairs.push((from, to));
            true
        } else {
            false
        }
    }

    /// Number of distinct edges recorded.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no edge has been recorded.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Scatters the log into successor and predecessor CSR tables over
    /// `nodes` rows. Row order equals insertion order.
    pub fn finalize(self, nodes: usize) -> (Csr, Csr) {
        let succ = Csr::scatter(nodes, self.pairs.iter().map(|&(f, t)| (f, t)));
        let pred = Csr::scatter(nodes, self.pairs.iter().map(|&(f, t)| (t, f)));
        (succ, pred)
    }
}

/// Compressed sparse rows: per-row slices carved out of one flat array.
#[derive(Debug, Default)]
pub struct Csr {
    /// `offsets[r]..offsets[r + 1]` is row `r`'s slice of `flat`.
    offsets: Vec<u32>,
    flat: Vec<NodeId>,
}

impl Csr {
    /// Builds the table from `(row, value)` pairs with a counting sort:
    /// one pass to size the rows, one stable pass to place the values, so
    /// each row preserves the pairs' iteration order.
    fn scatter(rows: usize, pairs: impl Iterator<Item = (u32, NodeId)> + Clone) -> Csr {
        let mut offsets = vec![0u32; rows + 1];
        for (r, _) in pairs.clone() {
            offsets[r as usize + 1] += 1;
        }
        for i in 0..rows {
            offsets[i + 1] += offsets[i];
        }
        let mut flat = vec![0 as NodeId; offsets[rows] as usize];
        let mut cursor: Vec<u32> = offsets[..rows].to_vec();
        for (r, v) in pairs {
            flat[cursor[r as usize] as usize] = v;
            cursor[r as usize] += 1;
        }
        Csr { offsets, flat }
    }

    /// Row `r` as a slice (empty for rows with no entries).
    pub fn row(&self, r: NodeId) -> &[NodeId] {
        &self.flat[self.offsets[r as usize] as usize..self.offsets[r as usize + 1] as usize]
    }

    /// Total entries across all rows.
    pub fn entries(&self) -> usize {
        self.flat.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_preserve_insertion_order() {
        let mut a = EdgeArena::new();
        // Interleave rows; per-row order must survive the scatter.
        for (f, t) in [(2, 9), (0, 5), (2, 3), (1, 7), (2, 1), (0, 4)] {
            assert!(a.push(f, t));
        }
        let (succ, pred) = a.finalize(10);
        assert_eq!(succ.row(2), &[9, 3, 1]);
        assert_eq!(succ.row(0), &[5, 4]);
        assert_eq!(succ.row(1), &[7]);
        assert_eq!(succ.row(3), &[] as &[NodeId]);
        assert_eq!(pred.row(5), &[0]);
        assert_eq!(pred.row(1), &[2]);
        assert_eq!(succ.entries(), 6);
        assert_eq!(pred.entries(), 6);
    }

    #[test]
    fn duplicate_edges_keep_first_occurrence() {
        let mut a = EdgeArena::new();
        assert!(a.push(0, 1));
        assert!(a.push(0, 2));
        assert!(!a.push(0, 1));
        assert_eq!(a.len(), 2);
        let (succ, _) = a.finalize(3);
        assert_eq!(succ.row(0), &[1, 2]);
    }

    #[test]
    fn empty_log_finalizes_to_empty_rows() {
        let (succ, pred) = EdgeArena::new().finalize(4);
        for r in 0..4 {
            assert!(succ.row(r).is_empty());
            assert!(pred.row(r).is_empty());
        }
    }
}
