//! The physical K/V backing store for paged sequences, and the view that
//! adapts the arena and several block tables into a [`KvBatch`] so the
//! transformer forward pass writes straight into paged memory.

use speedllm_llama::config::ModelConfig;
use speedllm_llama::kv_cache::KvBatch;

use crate::block::{BlockConfig, BlockId, BlockTable};

/// One flat K and V buffer per layer, laid out `[n_blocks, block_size,
/// kv_dim]` row-major — the paged analogue of `KvCache`'s
/// `[seq_len, kv_dim]`. Physical block `b` owns rows
/// `b*block_size .. (b+1)*block_size`; sequences address it through
/// their [`BlockTable`].
#[derive(Debug)]
pub struct PagedKvArena {
    k: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    kv_dim: usize,
    head_dim: usize,
    block_size: usize,
    n_blocks: usize,
    /// Logical context window: the capacity reported to the forward pass.
    seq_len: usize,
}

impl PagedKvArena {
    /// Allocates the physical pool for `model` with geometry `blocks`.
    #[must_use]
    pub fn new(model: &ModelConfig, blocks: BlockConfig) -> Self {
        assert!(blocks.block_size > 0 && blocks.n_blocks > 0);
        let kv_dim = model.kv_dim();
        let per_layer = blocks.n_blocks * blocks.block_size * kv_dim;
        Self {
            k: (0..model.n_layers).map(|_| vec![0.0; per_layer]).collect(),
            v: (0..model.n_layers).map(|_| vec![0.0; per_layer]).collect(),
            kv_dim,
            head_dim: model.head_dim(),
            block_size: blocks.block_size,
            n_blocks: blocks.n_blocks,
            seq_len: model.seq_len,
        }
    }

    #[must_use]
    pub fn block_config(&self) -> BlockConfig {
        BlockConfig {
            block_size: self.block_size,
            n_blocks: self.n_blocks,
        }
    }

    #[must_use]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Total bytes of paged K/V storage.
    #[must_use]
    pub fn bytes(&self) -> usize {
        2 * self.k.len()
            * self.n_blocks
            * self.block_size
            * self.kv_dim
            * std::mem::size_of::<f32>()
    }

    #[inline]
    fn row_off(&self, block: BlockId, slot: usize) -> usize {
        debug_assert!(slot < self.block_size);
        (block.index() * self.block_size + slot) * self.kv_dim
    }

    /// Key vector of one KV head at physical `(layer, block, slot)`.
    #[inline]
    #[must_use]
    pub fn key_head_at(&self, layer: usize, block: BlockId, slot: usize, kv_head: usize) -> &[f32] {
        let off = self.row_off(block, slot) + kv_head * self.head_dim;
        &self.k[layer][off..off + self.head_dim]
    }

    /// Value vector of one KV head at physical `(layer, block, slot)`.
    #[inline]
    #[must_use]
    pub fn value_head_at(
        &self,
        layer: usize,
        block: BlockId,
        slot: usize,
        kv_head: usize,
    ) -> &[f32] {
        let off = self.row_off(block, slot) + kv_head * self.head_dim;
        &self.v[layer][off..off + self.head_dim]
    }

    /// Writes one K/V row at physical `(layer, block, slot)`.
    pub fn store_at(&mut self, layer: usize, block: BlockId, slot: usize, k: &[f32], v: &[f32]) {
        assert_eq!(k.len(), self.kv_dim, "bad key width");
        assert_eq!(v.len(), self.kv_dim, "bad value width");
        let off = self.row_off(block, slot);
        self.k[layer][off..off + self.kv_dim].copy_from_slice(k);
        self.v[layer][off..off + self.kv_dim].copy_from_slice(v);
    }

    /// NaN-poisons the storage of freed blocks (debug-build hygiene, the
    /// paged analogue of `KvCache::poison`): a stale read of a recycled
    /// block surfaces as NaN logits instead of silently borrowing a
    /// previous tenant's context.
    pub fn poison_blocks(&mut self, blocks: &[BlockId]) {
        let rows = self.block_size * self.kv_dim;
        for &b in blocks {
            let off = b.index() * rows;
            for side in [&mut self.k, &mut self.v] {
                for layer in side.iter_mut() {
                    layer[off..off + rows].fill(f32::NAN);
                }
            }
        }
    }

    /// A [`KvBatch`] view over several sequences at once: each batch index
    /// resolves through its own block table into this shared arena. One
    /// view holds the single mutable arena borrow and fans out per index,
    /// which one view per sequence could not (each would borrow the whole
    /// arena).
    ///
    /// # Panics
    /// Panics if any table's block size disagrees with the arena's.
    pub fn batch_view<'a>(&'a mut self, tables: Vec<&'a mut BlockTable>) -> PagedKvBatch<'a> {
        for (i, t) in tables.iter().enumerate() {
            assert_eq!(
                t.block_size(),
                self.block_size,
                "table {i}/arena block size mismatch"
            );
        }
        PagedKvBatch {
            arena: self,
            tables,
        }
    }
}

/// Borrowed `(arena, tables)` group implementing [`KvBatch`]: one batched
/// forward pass reads and appends context for several paged sequences.
/// Per index, every access resolves through that sequence's table alone —
/// `locate`, `store_at`, and `note_stored` on the last layer, as a
/// `KvCache` advances its length — which is what keeps batched paged
/// decoding bit-identical to the per-sequence loop.
#[derive(Debug)]
pub struct PagedKvBatch<'a> {
    arena: &'a mut PagedKvArena,
    tables: Vec<&'a mut BlockTable>,
}

impl KvBatch for PagedKvBatch<'_> {
    fn batch_len(&self) -> usize {
        self.tables.len()
    }

    fn kv_len(&self, i: usize) -> usize {
        self.tables[i].len()
    }

    fn kv_capacity(&self, _i: usize) -> usize {
        self.arena.seq_len
    }

    fn store(&mut self, i: usize, layer: usize, pos: usize, k: &[f32], v: &[f32]) {
        assert!(
            pos < self.arena.seq_len,
            "pos {pos} out of cache capacity {}",
            self.arena.seq_len
        );
        let (block, slot) = self.tables[i].locate(pos);
        self.arena.store_at(layer, block, slot, k, v);
        if layer == self.arena.k.len() - 1 {
            self.tables[i].note_stored(pos);
        }
    }

    fn key_head(&self, i: usize, layer: usize, pos: usize, kv_head: usize) -> &[f32] {
        let (block, slot) = self.tables[i].locate(pos);
        self.arena.key_head_at(layer, block, slot, kv_head)
    }

    fn value_head(&self, i: usize, layer: usize, pos: usize, kv_head: usize) -> &[f32] {
        let (block, slot) = self.tables[i].locate(pos);
        self.arena.value_head_at(layer, block, slot, kv_head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockAllocator;

    fn tiny_arena(n_blocks: usize) -> (PagedKvArena, BlockAllocator) {
        let cfg = ModelConfig::test_tiny();
        let bc = BlockConfig {
            block_size: 4,
            n_blocks,
        };
        (PagedKvArena::new(&cfg, bc), BlockAllocator::new(bc))
    }

    fn filled_table(alloc: &mut BlockAllocator, n: usize) -> BlockTable {
        let mut t = BlockTable::new(alloc.block_size());
        for _ in 0..n {
            t.push_block(alloc.alloc().unwrap());
        }
        t
    }

    #[test]
    fn view_round_trips_rows_through_the_table() {
        let (mut arena, mut alloc) = tiny_arena(4);
        let mut t = filled_table(&mut alloc, 2);
        let k: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let v: Vec<f32> = (0..8).map(|i| -(i as f32)).collect();
        {
            let mut view = arena.batch_view(vec![&mut t]);
            assert_eq!(view.kv_capacity(0), 32, "logical window, not block span");
            for layer in 0..2 {
                view.store(0, layer, 5, &k, &v); // second block, slot 1
            }
            assert_eq!(view.kv_len(0), 6);
            assert_eq!(view.key_head(0, 0, 5, 0), &[0.0, 1.0, 2.0, 3.0]);
            assert_eq!(view.value_head(0, 1, 5, 1), &[-4.0, -5.0, -6.0, -7.0]);
        }
        // The physical row is in the table's second block at slot 1.
        let b = t.blocks()[1];
        assert_eq!(arena.key_head_at(0, b, 1, 0), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn len_tracks_last_layer_writes_like_kv_cache() {
        let (mut arena, mut alloc) = tiny_arena(2);
        let mut t = filled_table(&mut alloc, 1);
        let z = vec![0.0f32; 8];
        let mut view = arena.batch_view(vec![&mut t]);
        view.store(0, 0, 0, &z, &z);
        assert_eq!(view.kv_len(0), 0, "only first layer written");
        view.store(0, 1, 0, &z, &z);
        assert_eq!(view.kv_len(0), 1);
    }

    #[test]
    fn poison_marks_only_the_given_blocks() {
        let (mut arena, mut alloc) = tiny_arena(2);
        let t = filled_table(&mut alloc, 2);
        let k = vec![1.0f32; 8];
        let (b0, b1) = (t.blocks()[0], t.blocks()[1]);
        arena.store_at(0, b0, 0, &k, &k);
        arena.store_at(0, b1, 0, &k, &k);
        arena.poison_blocks(&[b0]);
        assert!(arena.key_head_at(0, b0, 0, 0).iter().all(|x| x.is_nan()));
        assert!(arena.key_head_at(0, b1, 0, 0).iter().all(|x| x.is_finite()));
    }
}
