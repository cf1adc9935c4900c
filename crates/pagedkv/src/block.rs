//! Physical block identifiers, the free-list allocator, and the
//! per-sequence block table.

/// Identifier of one physical KV block (a `block_size`-token page).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Index into per-block arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Geometry of a paged KV pool: how many tokens one block holds and how
/// many physical blocks exist in total.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockConfig {
    /// Tokens per block. Must be > 0.
    pub block_size: usize,
    /// Total physical blocks in the arena. Must be > 0.
    pub n_blocks: usize,
}

impl BlockConfig {
    /// Total token capacity of the pool.
    pub fn total_tokens(&self) -> usize {
        self.block_size * self.n_blocks
    }
}

/// Free-list allocator over a fixed population of physical blocks with
/// per-block reference counts.
///
/// The refcount of a block equals the number of *referencing holders*:
/// one per sequence block-table that contains it, plus one if it is
/// retained by a prefix cache ([`crate::RadixIndex`]). `alloc` hands out
/// a free block at refcount 1; `retain` adds a holder; `release` drops
/// one and returns the block to the free list when the count hits zero.
/// Alloc and free are O(1) (LIFO free list).
#[derive(Debug)]
pub struct BlockAllocator {
    block_size: usize,
    /// LIFO free list of block ids.
    free: Vec<BlockId>,
    /// Per-block reference counts; 0 means free.
    refcount: Vec<u32>,
    /// Lifetime counters (telemetry / conservation checks).
    total_allocs: u64,
    total_frees: u64,
}

impl BlockAllocator {
    pub fn new(cfg: BlockConfig) -> Self {
        assert!(cfg.block_size > 0, "block_size must be positive");
        assert!(cfg.n_blocks > 0, "n_blocks must be positive");
        assert!(cfg.n_blocks <= u32::MAX as usize, "block id overflow");
        // Pop order is ascending ids first: push n-1..0 so block 0 is on top.
        let free = (0..cfg.n_blocks as u32).rev().map(BlockId).collect();
        Self {
            block_size: cfg.block_size,
            free,
            refcount: vec![0; cfg.n_blocks],
            total_allocs: 0,
            total_frees: 0,
        }
    }

    #[inline]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    #[inline]
    pub fn n_blocks(&self) -> usize {
        self.refcount.len()
    }

    /// Blocks currently on the free list.
    #[inline]
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Blocks currently held by at least one holder.
    #[inline]
    pub fn in_use(&self) -> usize {
        self.n_blocks() - self.free.len()
    }

    /// Current refcount of `b` (0 == free).
    #[inline]
    pub fn refcount(&self, b: BlockId) -> u32 {
        self.refcount[b.index()]
    }

    /// Lifetime (allocations, frees) — frees never exceed allocations.
    pub fn counters(&self) -> (u64, u64) {
        (self.total_allocs, self.total_frees)
    }

    /// Pop a free block and hand it out at refcount 1. `None` when the
    /// pool is exhausted (the caller decides whether to evict cache,
    /// preempt a sequence, or stall admission).
    pub fn alloc(&mut self) -> Option<BlockId> {
        let b = self.free.pop()?;
        debug_assert_eq!(self.refcount[b.index()], 0, "free block had holders");
        self.refcount[b.index()] = 1;
        self.total_allocs += 1;
        Some(b)
    }

    /// Add one holder to a live block.
    pub fn retain(&mut self, b: BlockId) {
        let rc = &mut self.refcount[b.index()];
        assert!(*rc > 0, "retain of a free block {b:?}");
        *rc += 1;
    }

    /// Drop one holder; returns `true` when the block was freed (count
    /// reached zero and it went back on the free list).
    pub fn release(&mut self, b: BlockId) -> bool {
        let rc = &mut self.refcount[b.index()];
        assert!(*rc > 0, "release of a free block {b:?}");
        *rc -= 1;
        if *rc == 0 {
            self.free.push(b);
            self.total_frees += 1;
            true
        } else {
            false
        }
    }

    /// Structural invariants, used by the property suite: the free list
    /// holds exactly the refcount-0 blocks, once each.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut on_free_list = vec![false; self.n_blocks()];
        for &b in &self.free {
            if on_free_list[b.index()] {
                return Err(format!("block {b:?} appears twice on the free list"));
            }
            on_free_list[b.index()] = true;
            if self.refcount[b.index()] != 0 {
                return Err(format!("free block {b:?} has nonzero refcount"));
            }
        }
        for (i, &rc) in self.refcount.iter().enumerate() {
            if rc == 0 && !on_free_list[i] {
                return Err(format!("refcount-0 block {i} missing from the free list"));
            }
        }
        if self.total_frees > self.total_allocs {
            return Err("more frees than allocations".into());
        }
        Ok(())
    }
}

/// Per-sequence logical→physical mapping: position `p` of the sequence
/// lives in physical block `blocks[p / block_size]` at row
/// `p % block_size`. `len` counts the tokens whose K/V are fully stored
/// (all layers written), mirroring `KvCache::len`.
#[derive(Clone, Debug, Default)]
pub struct BlockTable {
    blocks: Vec<BlockId>,
    len: usize,
    block_size: usize,
}

impl BlockTable {
    pub fn new(block_size: usize) -> Self {
        assert!(block_size > 0, "block_size must be positive");
        Self {
            blocks: Vec::new(),
            len: 0,
            block_size,
        }
    }

    #[inline]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Tokens fully stored so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Token capacity of the currently mapped blocks.
    #[inline]
    pub fn capacity_tokens(&self) -> usize {
        self.blocks.len() * self.block_size
    }

    /// The physical chain, in logical order.
    #[inline]
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }

    /// Append one physical block to the end of the chain.
    pub fn push_block(&mut self, b: BlockId) {
        self.blocks.push(b);
    }

    /// Mark the first `len` tokens as already stored (prefix-hit credit
    /// at admission: the shared blocks arrive prefilled).
    pub fn set_len(&mut self, len: usize) {
        assert!(len <= self.capacity_tokens(), "len beyond mapped blocks");
        self.len = len;
    }

    /// Physical location of logical position `pos`.
    #[inline]
    pub fn locate(&self, pos: usize) -> (BlockId, usize) {
        let bi = pos / self.block_size;
        assert!(
            bi < self.blocks.len(),
            "position {pos} is not mapped (table holds {} blocks of {})",
            self.blocks.len(),
            self.block_size
        );
        (self.blocks[bi], pos % self.block_size)
    }

    /// Record that position `pos` now holds a full K/V entry (called
    /// once the last layer's row is written, matching `KvCache::store`).
    #[inline]
    pub fn note_stored(&mut self, pos: usize) {
        self.len = self.len.max(pos + 1);
    }

    /// Roll the table back to `len` stored tokens, popping every block
    /// that lies wholly past the new length (including capacity granted
    /// ahead of the store cursor). Returns the popped blocks in chain
    /// order; the caller must hand each one back to the allocator —
    /// `release` drops one reference, so a shared block survives for
    /// its other holders and only the last reference actually frees it.
    /// The block straddling `len` stays mapped: rolled-back positions
    /// inside it are simply overwritten by the next store.
    pub fn rollback(&mut self, len: usize) -> Vec<BlockId> {
        self.len = self.len.min(len);
        let keep = len.div_ceil(self.block_size).min(self.blocks.len());
        self.blocks.split_off(keep)
    }

    /// Strip the table for release: hands back the physical chain and
    /// leaves the table empty (so a pooled slot resets clean).
    pub fn take_blocks(&mut self) -> Vec<BlockId> {
        self.len = 0;
        std::mem::take(&mut self.blocks)
    }

    /// Logical reset without releasing blocks — only valid when the
    /// chain has already been stripped.
    pub fn reset(&mut self) {
        assert!(
            self.blocks.is_empty(),
            "reset of a table still holding blocks; release them first"
        );
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(block_size: usize, n_blocks: usize) -> BlockConfig {
        BlockConfig {
            block_size,
            n_blocks,
        }
    }

    #[test]
    fn alloc_release_round_trip() {
        let mut a = BlockAllocator::new(cfg(4, 3));
        assert_eq!(a.free_blocks(), 3);
        let b0 = a.alloc().unwrap();
        let b1 = a.alloc().unwrap();
        let b2 = a.alloc().unwrap();
        assert_eq!((b0, b1, b2), (BlockId(0), BlockId(1), BlockId(2)));
        assert!(a.alloc().is_none(), "pool must exhaust");
        assert!(a.release(b1));
        assert_eq!(a.free_blocks(), 1);
        // LIFO: the freshly freed block comes back first.
        assert_eq!(a.alloc().unwrap(), b1);
        a.check_invariants().unwrap();
    }

    #[test]
    fn retain_defers_the_free() {
        let mut a = BlockAllocator::new(cfg(4, 2));
        let b = a.alloc().unwrap();
        a.retain(b);
        assert!(!a.release(b), "one holder remains");
        assert_eq!(a.refcount(b), 1);
        assert!(a.release(b), "last holder frees");
        assert_eq!(a.refcount(b), 0);
        a.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "release of a free block")]
    fn double_free_panics() {
        let mut a = BlockAllocator::new(cfg(4, 1));
        let b = a.alloc().unwrap();
        a.release(b);
        a.release(b);
    }

    #[test]
    fn table_maps_positions_block_major() {
        let mut t = BlockTable::new(4);
        t.push_block(BlockId(7));
        t.push_block(BlockId(2));
        assert_eq!(t.capacity_tokens(), 8);
        assert_eq!(t.locate(0), (BlockId(7), 0));
        assert_eq!(t.locate(3), (BlockId(7), 3));
        assert_eq!(t.locate(4), (BlockId(2), 0));
        assert_eq!(t.locate(7), (BlockId(2), 3));
        t.note_stored(0);
        t.note_stored(1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "not mapped")]
    fn locate_past_chain_panics() {
        let mut t = BlockTable::new(4);
        t.push_block(BlockId(0));
        t.locate(4);
    }

    #[test]
    fn rollback_pops_whole_blocks_past_the_keep_point() {
        let mut a = BlockAllocator::new(cfg(4, 4));
        let mut t = BlockTable::new(4);
        for _ in 0..4 {
            t.push_block(a.alloc().unwrap());
        }
        t.set_len(13); // blocks 0..3 mapped, position 13 straddles block 3
                       // Keep 6 tokens: block 1 straddles the cut and stays; 2, 3 pop.
        let popped = t.rollback(6);
        assert_eq!(popped, vec![BlockId(2), BlockId(3)]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.blocks(), &[BlockId(0), BlockId(1)]);
        assert_eq!(t.capacity_tokens(), 8);
        for b in popped {
            assert!(a.release(b));
        }
        a.check_invariants().unwrap();
        // Rolling back to the current length is a no-op.
        assert!(t.rollback(6).is_empty());
        assert_eq!(t.len(), 6);
        // Rolling back past the stored length never grows it.
        assert!(t.rollback(100).is_empty());
        assert_eq!(t.len(), 6);
        // A block-boundary cut keeps exactly the full blocks before it.
        let popped = t.rollback(4);
        assert_eq!(popped, vec![BlockId(1)]);
        assert_eq!(t.len(), 4);
        for b in popped {
            assert!(a.release(b));
        }
        // A shared popped block survives until its last holder.
        let shared = a.alloc().unwrap();
        a.retain(shared);
        t.push_block(shared);
        t.note_stored(5);
        let popped = t.rollback(4);
        assert_eq!(popped, vec![shared]);
        assert!(!a.release(shared), "other holder keeps the block alive");
        assert_eq!(a.refcount(shared), 1);
        assert!(a.release(shared));
        a.check_invariants().unwrap();
    }
}
