//! One sequence's KV storage ([`SeqKv`]) and the one place that decides
//! between its two layouts ([`KvSpace`]).
//!
//! A sequence keeps its rows either in a private contiguous [`KvCache`]
//! (flat: single-tenant runs and the slot-pool baseline) or in blocks of
//! a shared [`PagedKvArena`] through its [`BlockTable`] (paged serving
//! with prefix sharing). Every backend holds its sequences as [`SeqKv`]
//! and its storage as one [`KvSpace`], and [`KvSpace::batch`] is the only
//! code that turns sequences into the [`KvBatch`] the layer walk reads, so
//! no backend matches on the layout.

use speedllm_llama::config::ModelConfig;
use speedllm_llama::kv_cache::{KvBatch, KvCache, PoolSlot};

use crate::arena::{PagedKvArena, PagedKvBatch};
use crate::block::{BlockConfig, BlockId, BlockTable};

/// Where one sequence's K/V rows live. Either way the walk computes the
/// same values: the block indirection changes addresses, never bits.
#[derive(Debug)]
pub enum SeqKv {
    /// A private contiguous cache.
    Flat(KvCache),
    /// Logical position → physical block mapping into a [`KvSpace`]'s
    /// arena; the serving scheduler grants and reclaims its blocks.
    Paged(BlockTable),
}

impl SeqKv {
    /// Positions stored so far.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            SeqKv::Flat(kv) => kv.len(),
            SeqKv::Paged(table) => table.len(),
        }
    }

    /// True when no position is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears the sequence for reuse. A paged sequence must have had its
    /// block chain stripped (released to the allocator) first.
    pub fn reset(&mut self) {
        match self {
            SeqKv::Flat(kv) => kv.reset(),
            SeqKv::Paged(table) => table.reset(),
        }
    }

    /// Rolls the sequence back to `len` positions (no-op past its length),
    /// discarding rejected speculative rows. A flat cache truncates in
    /// place and returns nothing; a paged table pops the whole blocks past
    /// the keep point and returns them for the owner to release — the
    /// allocator decides whether a popped block actually frees (another
    /// sequence may still share it).
    pub fn truncate(&mut self, len: usize) -> Vec<BlockId> {
        match self {
            SeqKv::Flat(kv) => {
                kv.truncate(len);
                Vec::new()
            }
            SeqKv::Paged(table) => table.rollback(len),
        }
    }

    /// The block table of a paged sequence (`None` for a flat one).
    #[must_use]
    pub fn table(&self) -> Option<&BlockTable> {
        match self {
            SeqKv::Flat(_) => None,
            SeqKv::Paged(table) => Some(table),
        }
    }

    /// Mutable block table of a paged sequence (`None` for a flat one).
    pub fn table_mut(&mut self) -> Option<&mut BlockTable> {
        match self {
            SeqKv::Flat(_) => None,
            SeqKv::Paged(table) => Some(table),
        }
    }
}

impl PoolSlot for SeqKv {
    fn reset_slot(&mut self) {
        self.reset();
    }

    fn slot_len(&self) -> usize {
        self.len()
    }

    fn poison_slot(&mut self) {
        // Paged storage is poisoned block by block as blocks are freed
        // (the arena owns the rows, and shared blocks may still be live).
        if let SeqKv::Flat(kv) = self {
            kv.poison();
        }
    }
}

/// The KV storage of one backend: the model every flat sequence is sized
/// for and, when it serves paged sequences, the one shared arena.
#[derive(Debug)]
pub struct KvSpace {
    model: ModelConfig,
    arena: Option<PagedKvArena>,
}

impl KvSpace {
    /// Storage for `model`'s sequences: private caches, or with `blocks`
    /// block tables over one shared arena of that geometry.
    #[must_use]
    pub fn new(model: &ModelConfig, blocks: Option<BlockConfig>) -> Self {
        Self {
            model: *model,
            arena: blocks.map(|b| PagedKvArena::new(model, b)),
        }
    }

    /// An empty sequence: a block table when the space is paged, a
    /// private cache otherwise.
    #[must_use]
    pub fn new_seq(&self) -> SeqKv {
        match &self.arena {
            Some(arena) => SeqKv::Paged(BlockTable::new(arena.block_size())),
            None => SeqKv::Flat(KvCache::new(&self.model)),
        }
    }

    /// Geometry of the paged arena, `None` for a flat space.
    #[must_use]
    pub fn block_config(&self) -> Option<BlockConfig> {
        self.arena.as_ref().map(PagedKvArena::block_config)
    }

    /// Called with the blocks the scheduler returned to the free list: in
    /// debug builds their arena rows are NaN-poisoned, so a stale read
    /// through a dangling table is loud.
    pub fn on_blocks_freed(&mut self, blocks: &[BlockId]) {
        if cfg!(debug_assertions) {
            if let Some(arena) = &mut self.arena {
                arena.poison_blocks(blocks);
            }
        }
    }

    /// The [`KvBatch`] the layer walk reads and appends through for
    /// `seqs`, index `i` being `seqs[i]`: their private caches, or one
    /// view of the arena through their block tables.
    ///
    /// # Panics
    /// Panics on a pass mixing flat and paged sequences, or on paged
    /// sequences in a space without an arena.
    pub fn batch<'a>(&'a mut self, seqs: &'a mut [&mut SeqKv]) -> SeqBatch<'a> {
        let flat = seqs.iter().filter(|s| matches!(s, SeqKv::Flat(_))).count();
        if flat == seqs.len() {
            let kvs = seqs.iter_mut().filter_map(|s| match &mut **s {
                SeqKv::Flat(kv) => Some(kv),
                SeqKv::Paged(_) => None,
            });
            return SeqBatch::Flat(kvs.collect());
        }
        assert_eq!(flat, 0, "a pass mixes flat and paged sequences");
        let arena = self
            .arena
            .as_mut()
            .expect("paged sequences in a flat KvSpace");
        let tables = seqs.iter_mut().filter_map(|s| s.table_mut()).collect();
        SeqBatch::Paged(arena.batch_view(tables))
    }
}

/// [`KvSpace::batch`]'s view: one layout for the whole pass, chosen when
/// the view is built; each access forwards to that layout's store.
#[derive(Debug)]
pub enum SeqBatch<'a> {
    /// Every sequence's private cache.
    Flat(Vec<&'a mut KvCache>),
    /// Every sequence's block table over the shared arena.
    Paged(PagedKvBatch<'a>),
}

impl KvBatch for SeqBatch<'_> {
    #[inline]
    fn batch_len(&self) -> usize {
        match self {
            SeqBatch::Flat(kvs) => kvs.len(),
            SeqBatch::Paged(b) => b.batch_len(),
        }
    }

    #[inline]
    fn kv_len(&self, i: usize) -> usize {
        match self {
            SeqBatch::Flat(kvs) => kvs[i].len(),
            SeqBatch::Paged(b) => b.kv_len(i),
        }
    }

    #[inline]
    fn kv_capacity(&self, i: usize) -> usize {
        match self {
            SeqBatch::Flat(kvs) => kvs[i].capacity(),
            SeqBatch::Paged(b) => b.kv_capacity(i),
        }
    }

    #[inline]
    fn store(&mut self, i: usize, layer: usize, pos: usize, k: &[f32], v: &[f32]) {
        match self {
            SeqBatch::Flat(kvs) => kvs[i].store(layer, pos, k, v),
            SeqBatch::Paged(b) => b.store(i, layer, pos, k, v),
        }
    }

    #[inline]
    fn key_head(&self, i: usize, layer: usize, pos: usize, kv_head: usize) -> &[f32] {
        match self {
            SeqBatch::Flat(kvs) => kvs[i].key_head(layer, pos, kv_head),
            SeqBatch::Paged(b) => b.key_head(i, layer, pos, kv_head),
        }
    }

    #[inline]
    fn value_head(&self, i: usize, layer: usize, pos: usize, kv_head: usize) -> &[f32] {
        match self {
            SeqBatch::Flat(kvs) => kvs[i].value_head(layer, pos, kv_head),
            SeqBatch::Paged(b) => b.value_head(i, layer, pos, kv_head),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockAllocator;

    const BLOCKS: BlockConfig = BlockConfig {
        block_size: 4,
        n_blocks: 8,
    };

    fn flat_space() -> KvSpace {
        KvSpace::new(&ModelConfig::test_tiny(), None)
    }

    fn paged_space() -> KvSpace {
        KvSpace::new(&ModelConfig::test_tiny(), Some(BLOCKS))
    }

    /// Stores `n` rows, all layers, at positions `0..n` through `space`'s
    /// batch view of `seq`; row `p` is `p + 1` everywhere.
    fn fill(space: &mut KvSpace, seq: &mut SeqKv, n: usize) {
        let mut seqs = [seq];
        let mut batch = space.batch(&mut seqs);
        for pos in 0..n {
            let row = vec![(pos + 1) as f32; 8];
            for layer in 0..2 {
                batch.store(0, layer, pos, &row, &row);
            }
        }
    }

    /// A paged sequence with `blocks` blocks granted from `alloc`.
    fn granted(space: &KvSpace, alloc: &mut BlockAllocator, blocks: usize) -> SeqKv {
        let mut seq = space.new_seq();
        let table = seq.table_mut().expect("paged space makes paged sequences");
        for _ in 0..blocks {
            table.push_block(alloc.alloc().unwrap());
        }
        seq
    }

    #[test]
    fn new_seq_follows_the_space_and_block_config_reports_it() {
        assert!(matches!(flat_space().new_seq(), SeqKv::Flat(_)));
        assert!(matches!(paged_space().new_seq(), SeqKv::Paged(_)));
        assert_eq!(flat_space().block_config(), None);
        assert_eq!(paged_space().block_config(), Some(BLOCKS));
    }

    #[test]
    fn len_and_reset_on_both_arms() {
        let mut flat = flat_space();
        let mut f = flat.new_seq();
        fill(&mut flat, &mut f, 3);
        assert_eq!((f.len(), f.slot_len()), (3, 3));
        f.reset_slot();
        assert!(f.is_empty());

        let mut paged = paged_space();
        let mut alloc = BlockAllocator::new(BLOCKS);
        let mut p = granted(&paged, &mut alloc, 1);
        fill(&mut paged, &mut p, 3);
        assert_eq!((p.len(), p.slot_len()), (3, 3));
        // A table resets only once its chain is stripped.
        let chain = p.table_mut().unwrap().take_blocks();
        assert_eq!(chain.len(), 1);
        p.reset_slot();
        assert!(p.is_empty());
    }

    #[test]
    fn truncate_returns_popped_blocks_only_for_a_paged_sequence() {
        let mut flat = flat_space();
        let mut f = flat.new_seq();
        fill(&mut flat, &mut f, 6);
        assert!(f.truncate(2).is_empty());
        assert_eq!(f.len(), 2);

        let mut paged = paged_space();
        let mut alloc = BlockAllocator::new(BLOCKS);
        let mut p = granted(&paged, &mut alloc, 2);
        fill(&mut paged, &mut p, 6);
        let second = p.table().unwrap().blocks()[1];
        assert_eq!(p.truncate(2), vec![second], "the block past the cut pops");
        assert_eq!(p.len(), 2);
        assert_eq!(p.table().unwrap().blocks().len(), 1);
        assert!(
            p.truncate(5).is_empty(),
            "truncating past the length is a no-op"
        );
    }

    #[test]
    fn slot_poison_applies_only_to_flat_sequences() {
        let mut flat = flat_space();
        let mut f = flat.new_seq();
        fill(&mut flat, &mut f, 1);
        f.poison_slot();
        let SeqKv::Flat(kv) = &f else { unreachable!() };
        assert!(kv.key_row(0, 0).iter().all(|x| x.is_nan()));

        // The arena's rows outlive the table: slot poison leaves them, so
        // a block another sequence still shares keeps its values.
        let mut paged = paged_space();
        let mut alloc = BlockAllocator::new(BLOCKS);
        let mut p = granted(&paged, &mut alloc, 1);
        fill(&mut paged, &mut p, 1);
        p.poison_slot();
        let mut seqs = [&mut p];
        assert_eq!(paged.batch(&mut seqs).key_head(0, 0, 0, 0), &[1.0; 4]);
    }

    #[test]
    fn batch_index_i_reads_sequence_i() {
        for mut space in [flat_space(), paged_space()] {
            let mut alloc = BlockAllocator::new(BLOCKS);
            let mut seqs: Vec<SeqKv> = (0..3)
                .map(|_| match space.block_config() {
                    Some(_) => granted(&space, &mut alloc, 1),
                    None => space.new_seq(),
                })
                .collect();
            for (i, seq) in seqs.iter_mut().enumerate() {
                fill(&mut space, seq, i + 1);
            }
            let mut refs: Vec<&mut SeqKv> = seqs.iter_mut().collect();
            let batch = space.batch(&mut refs);
            assert_eq!(batch.batch_len(), 3);
            for i in 0..3 {
                assert_eq!(batch.kv_len(i), i + 1);
                assert_eq!(batch.kv_capacity(i), 32);
                let last = (i + 1) as f32;
                assert_eq!(batch.key_head(i, 1, i, 1), &[last; 4]);
                assert_eq!(batch.value_head(i, 0, i, 0), &[last; 4]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "a pass mixes flat and paged sequences")]
    fn a_mixed_pass_panics() {
        let mut space = paged_space();
        let mut f = flat_space().new_seq();
        let mut p = space.new_seq();
        space.batch(&mut [&mut f, &mut p]);
    }

    #[test]
    #[should_panic(expected = "paged sequences in a flat KvSpace")]
    fn paged_sequences_need_an_arena() {
        let mut p = paged_space().new_seq();
        flat_space().batch(&mut [&mut p]);
    }
}
