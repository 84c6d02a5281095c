//! Reusable per-job scratch buffers for the host Reid-Miller paths.
//!
//! One ranking/scan job allocates several O(n) working arrays (the
//! boundary bitmap, the head-to-sublist map, the output) plus O(m)
//! reduced-list arrays. A batch executor running millions of jobs pays
//! that allocator traffic on every job unless the buffers are threaded
//! back through — [`RankScratch`] is that thread-through: every buffer
//! is cleared and re-sized per run, so its backing allocation is reused
//! whenever the capacity already suffices.

use listkit::walk::{BitSet, LaneTelemetry};
use listkit::Idx;

/// Reusable working memory for [`super::ReidMiller::rank_into`] /
/// [`super::ReidMiller::scan_into`]. Independent of the job's list —
/// one scratch can serve jobs of any size, growing to the largest seen.
#[derive(Debug, Default)]
pub struct RankScratch {
    /// Per-vertex: is this vertex a sublist tail? Packed `u64` bitset:
    /// 1 bit per vertex instead of a `Vec<bool>`'s byte, so the
    /// Phase-0/1/3 boundary checks move 1/8th the memory (O(n/64)
    /// words).
    pub(crate) boundary: BitSet,
    /// Per-vertex: sublist index of each sublist head, `u32::MAX`
    /// elsewhere (O(n)).
    pub(crate) sub_of_head: Vec<u32>,
    /// Sublist head vertices (O(m)).
    pub(crate) heads: Vec<Idx>,
    /// Reduced-list successor indices (O(m)).
    pub(crate) next_sub: Vec<Idx>,
    /// Reduced-list exclusive prefix of sublist lengths (O(m)).
    pub(crate) pre: Vec<u64>,
    /// Stitch-prefix buffer for the sharded rank path (O(fragments)).
    pub(crate) stitch_pre: Vec<u64>,
    /// Lane-occupancy telemetry accumulated by the K-lane walks this
    /// scratch's jobs ran (see [`listkit::walk::LaneStats`]). Batch
    /// executors reset it per measured region and fold the delta into
    /// their stats surface.
    pub telemetry: LaneTelemetry,
}

impl RankScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for lists of up to `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        let mut s = Self::default();
        s.boundary.reserve(n);
        s.sub_of_head = listkit::pages::vec_with_capacity(n);
        s
    }

    /// The list length this scratch can currently serve without
    /// reallocating its O(n) buffers.
    pub fn capacity(&self) -> usize {
        self.boundary.capacity().min(self.sub_of_head.capacity())
    }

    /// Approximate heap footprint in bytes (buffer-pool accounting).
    /// The boundary bitset counts its packed words — 1 bit per vertex
    /// of capacity — not one byte per vertex.
    pub fn footprint_bytes(&self) -> usize {
        self.boundary.footprint_bytes()
            + self.sub_of_head.capacity() * std::mem::size_of::<u32>()
            + self.heads.capacity() * std::mem::size_of::<Idx>()
            + self.next_sub.capacity() * std::mem::size_of::<Idx>()
            + self.pre.capacity() * std::mem::size_of::<u64>()
            + self.stitch_pre.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_counts_packed_boundary_bits() {
        let s = RankScratch::with_capacity(4096);
        // 4096 bits = 512 bytes of boundary words, not 4096 bytes of
        // bools; sub_of_head dominates at 4 bytes per vertex.
        assert!(s.boundary.footprint_bytes() >= 4096 / 8);
        assert!(s.boundary.footprint_bytes() < 4096);
        assert!(s.footprint_bytes() >= 4096 / 8 + 4096 * 4);
        assert!(s.capacity() >= 4096);
    }
}
