//! On-chip memory (URAM) allocation.
//!
//! The memory-reuse strategy keeps activations and other short-lived
//! tensors resident on chip instead of round-tripping through HBM;
//! [`OcmPool`] is the byte-granular allocator the memory planner drives,
//! with first-fit placement and cyclic (loop-back) reuse of freed
//! segments, plus high-water-mark accounting so resource utilization can
//! be reported per design point. Access cost is not modelled here: the
//! engine's timing pass counts on-chip bytes itself.

/// A handle to an allocated on-chip segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Segment {
    /// Byte offset inside the pool.
    pub offset: u64,
    /// Segment length in bytes.
    pub len: u64,
}

/// Allocation failure: not enough contiguous free space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OcmFull {
    /// Bytes requested.
    pub requested: u64,
    /// Largest contiguous free block at the time of the request.
    pub largest_free: u64,
}

impl std::fmt::Display for OcmFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "on-chip pool full: requested {} B, largest free block {} B",
            self.requested, self.largest_free
        )
    }
}

impl std::error::Error for OcmFull {}

/// A byte-granular first-fit allocator over one on-chip pool.
///
/// Free segments are kept sorted by offset and coalesced on free, so the
/// cyclic reuse pattern (alloc → use → free → realloc) recycles the same
/// region — exactly the "loop-back" buffer management the paper describes.
#[derive(Debug, Clone)]
pub struct OcmPool {
    capacity_bytes: u64,
    /// Sorted, non-overlapping, non-adjacent free segments.
    free: Vec<Segment>,
    in_use: u64,
    high_water: u64,
    allocs: u64,
}

impl OcmPool {
    /// Creates a pool of `capacity_bytes`, all free.
    #[must_use]
    pub fn new(capacity_bytes: u64) -> Self {
        Self {
            capacity_bytes,
            free: vec![Segment {
                offset: 0,
                len: capacity_bytes,
            }],
            in_use: 0,
            high_water: 0,
            allocs: 0,
        }
    }

    /// Peak bytes ever simultaneously allocated.
    #[must_use]
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Number of allocations performed.
    #[must_use]
    pub fn alloc_count(&self) -> u64 {
        self.allocs
    }

    /// Largest contiguous free block.
    fn largest_free(&self) -> u64 {
        self.free.iter().map(|s| s.len).max().unwrap_or(0)
    }

    /// First-fit allocation of `len` bytes.
    pub fn alloc(&mut self, len: u64) -> Result<Segment, OcmFull> {
        assert!(len > 0, "zero-length allocation");
        let Some(i) = self.free.iter().position(|s| s.len >= len) else {
            return Err(OcmFull {
                requested: len,
                largest_free: self.largest_free(),
            });
        };
        let seg = self.free[i];
        if seg.len == len {
            self.free.remove(i);
        } else {
            self.free[i] = Segment {
                offset: seg.offset + len,
                len: seg.len - len,
            };
        }
        self.in_use += len;
        self.high_water = self.high_water.max(self.in_use);
        self.allocs += 1;
        Ok(Segment {
            offset: seg.offset,
            len,
        })
    }

    /// Returns a segment to the pool, coalescing with neighbours.
    ///
    /// # Panics
    /// Panics if the segment overlaps a free region (double free).
    pub fn free(&mut self, seg: Segment) {
        assert!(seg.len > 0, "freeing empty segment");
        assert!(
            seg.offset + seg.len <= self.capacity_bytes,
            "segment outside pool"
        );
        // Insertion point by offset.
        let idx = self.free.partition_point(|s| s.offset < seg.offset);
        if let Some(prev) = idx.checked_sub(1).map(|i| self.free[i]) {
            assert!(
                prev.offset + prev.len <= seg.offset,
                "double free (overlaps previous)"
            );
        }
        if idx < self.free.len() {
            let next = self.free[idx];
            assert!(
                seg.offset + seg.len <= next.offset,
                "double free (overlaps next)"
            );
        }
        self.free.insert(idx, seg);
        self.in_use -= seg.len;
        // Coalesce with next, then with previous.
        if idx + 1 < self.free.len()
            && self.free[idx].offset + self.free[idx].len == self.free[idx + 1].offset
        {
            self.free[idx].len += self.free[idx + 1].len;
            self.free.remove(idx + 1);
        }
        if idx > 0 && self.free[idx - 1].offset + self.free[idx - 1].len == self.free[idx].offset {
            self.free[idx - 1].len += self.free[idx].len;
            self.free.remove(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> OcmPool {
        OcmPool::new(1000)
    }

    #[test]
    fn alloc_free_roundtrip_restores_capacity() {
        let mut p = pool();
        let a = p.alloc(400).unwrap();
        let b = p.alloc(600).unwrap();
        assert_eq!(p.largest_free(), 0);
        assert!(p.alloc(1).is_err());
        p.free(a);
        p.free(b);
        assert_eq!(p.largest_free(), 1000, "freed segments must coalesce");
    }

    #[test]
    fn first_fit_reuses_freed_hole() {
        let mut p = pool();
        let a = p.alloc(100).unwrap();
        let _b = p.alloc(100).unwrap();
        p.free(a);
        // Cyclic reuse: the next fitting allocation lands back at offset 0.
        let c = p.alloc(80).unwrap();
        assert_eq!(c.offset, 0);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut p = pool();
        let a = p.alloc(300).unwrap();
        let b = p.alloc(300).unwrap();
        p.free(a);
        p.free(b);
        let _ = p.alloc(100).unwrap();
        assert_eq!(p.high_water(), 600);
    }

    #[test]
    fn alloc_failure_reports_largest_block() {
        let mut p = pool();
        let a = p.alloc(500).unwrap();
        let _b = p.alloc(500).unwrap();
        p.free(a);
        let err = p.alloc(600).unwrap_err();
        assert_eq!(err.requested, 600);
        assert_eq!(err.largest_free, 500);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut p = pool();
        let a = p.alloc(100).unwrap();
        p.free(a);
        p.free(a);
    }

    #[test]
    fn coalescing_middle_segment() {
        let mut p = pool();
        let a = p.alloc(200).unwrap();
        let b = p.alloc(200).unwrap();
        let c = p.alloc(200).unwrap();
        p.free(a);
        p.free(c);
        // c (400..600) coalesces with the untouched tail (600..1000).
        assert_eq!(p.largest_free(), 600);
        p.free(b);
        assert_eq!(p.largest_free(), 1000, "all three coalesce with the tail");
    }

    #[test]
    fn alloc_counts() {
        let mut p = pool();
        let a = p.alloc(10).unwrap();
        let _ = p.alloc(10).unwrap();
        p.free(a);
        assert_eq!(p.alloc_count(), 2);
    }
}
