//! Precomputed index and segment plans for the tape's structural ops.
//!
//! A forward pass replays the same gather/scatter topology every epoch, so
//! the row-index arrays are built once at pack time and shared into each
//! tape node behind an `Arc` — pushing an op onto the tape never copies an
//! index vector. `SegmentPlan` is the CSR row-pointer half of that story: it
//! records where each sample's row block starts inside a concatenated
//! tensor, and segment-aware ops iterate those blocks in sample order so a
//! batch's reductions associate exactly as they would for each sample run
//! alone. A single sample is the one-segment plan
//! ([`SegmentPlan::singleton`]); see DESIGN.md "Batched execution & memory
//! arenas".

use std::sync::Arc;

/// A shared row-index array for `Tape::gather_rows` / `Tape::scatter_add_rows`.
///
/// Cheap to clone (Arc bump); build once per batch, reuse every epoch.
#[derive(Debug, Clone)]
pub struct IndexPlan {
    idx: Arc<Vec<usize>>,
}

impl IndexPlan {
    /// Wrap an index vector.
    pub fn new(idx: Vec<usize>) -> Self {
        IndexPlan { idx: Arc::new(idx) }
    }

    /// The row indices.
    pub fn indices(&self) -> &[usize] {
        &self.idx
    }

    /// Number of indices (rows gathered / scattered).
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// True if the plan selects no rows.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }
}

/// CSR-style segment offsets over the rows of a concatenated tensor.
///
/// `offsets` has `n_segments + 1` entries, starts at 0, and is
/// nondecreasing; segment `s` owns rows `[offsets[s], offsets[s+1])`. Empty
/// segments are legal (a sample can be inactive at a padded position).
/// Segment order IS the determinism contract: every segment-aware op visits
/// segments in index order, so floating-point accumulation associates
/// identically to running the samples one at a time.
#[derive(Debug, Clone)]
pub struct SegmentPlan {
    offsets: Arc<Vec<usize>>,
}

impl SegmentPlan {
    /// Wrap an offsets array. Panics unless it starts at 0 and is
    /// nondecreasing.
    pub fn new(offsets: Vec<usize>) -> Self {
        assert!(
            offsets.first() == Some(&0),
            "segment offsets must start at 0"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "segment offsets must be nondecreasing"
        );
        SegmentPlan {
            offsets: Arc::new(offsets),
        }
    }

    /// Build from per-segment lengths.
    pub fn from_lens(lens: &[usize]) -> Self {
        let mut offsets = Vec::with_capacity(lens.len() + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for &l in lens {
            acc += l;
            offsets.push(acc);
        }
        SegmentPlan {
            offsets: Arc::new(offsets),
        }
    }

    /// A single segment spanning `n` rows — the degenerate "batch of one".
    pub fn singleton(n: usize) -> Self {
        SegmentPlan {
            offsets: Arc::new(vec![0, n]),
        }
    }

    /// Number of segments.
    pub fn n_segments(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row range `[lo, hi)` of segment `s`.
    pub fn range(&self, s: usize) -> (usize, usize) {
        (self.offsets[s], self.offsets[s + 1])
    }

    /// Total rows covered (the required row count of the operand tensor).
    pub fn total(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    /// The raw offsets array.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_plan_shares_indices() {
        let p = IndexPlan::new(vec![3, 1, 4, 1]);
        assert_eq!(p.indices(), &[3, 1, 4, 1]);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        let q = p.clone();
        assert_eq!(q.indices().as_ptr(), p.indices().as_ptr());
    }

    #[test]
    fn segment_plan_from_lens_and_ranges() {
        let s = SegmentPlan::from_lens(&[2, 0, 3]);
        assert_eq!(s.n_segments(), 3);
        assert_eq!(s.range(0), (0, 2));
        assert_eq!(s.range(1), (2, 2));
        assert_eq!(s.range(2), (2, 5));
        assert_eq!(s.total(), 5);
        assert_eq!(s.offsets(), &[0, 2, 2, 5]);
    }

    #[test]
    fn segment_plan_singleton() {
        let s = SegmentPlan::singleton(7);
        assert_eq!(s.n_segments(), 1);
        assert_eq!(s.range(0), (0, 7));
        assert_eq!(s.total(), 7);
    }

    #[test]
    #[should_panic(expected = "start at 0")]
    fn segment_plan_rejects_nonzero_start() {
        SegmentPlan::new(vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn segment_plan_rejects_decreasing() {
        SegmentPlan::new(vec![0, 3, 2]);
    }
}
