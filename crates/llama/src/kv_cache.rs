//! Key/value cache for autoregressive decoding, plus the fixed-size slot
//! pool the serving layer admits requests into.
//!
//! One contiguous buffer per layer per side (`K`, `V`), laid out
//! `[seq_len, kv_dim]` row-major so that a timestep's keys for all KV heads
//! are contiguous — the same layout the accelerator stages into HBM. Slices
//! are handed out per `(layer, timestep, head)` so attention kernels never
//! index raw offsets.
//!
//! [`KvBatch`] is the one interface the forward pass reads and writes KV
//! through; a slice of `&mut KvCache` implements it directly, and the
//! paged arena of `speedllm-pagedkv` implements it over block tables.
//!
//! [`KvCachePool`] holds a fixed number of pre-allocated cache slots
//! (anything implementing [`PoolSlot`]) and checks them out one request at
//! a time. Released slots are logically reset — and, in debug builds,
//! poison-filled with NaN — so a reused slot is indistinguishable from a
//! fresh one and any read of a stale row surfaces immediately.

use crate::config::ModelConfig;

/// Per-layer K and V caches for a full context window.
#[derive(Debug, Clone)]
pub struct KvCache {
    k: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    kv_dim: usize,
    head_dim: usize,
    seq_len: usize,
    /// Number of positions currently filled (same for every layer).
    len: usize,
}

impl KvCache {
    /// Allocates an empty cache sized for `config`.
    #[must_use]
    pub fn new(config: &ModelConfig) -> Self {
        let kv_dim = config.kv_dim();
        let per_layer = config.seq_len * kv_dim;
        Self {
            k: (0..config.n_layers).map(|_| vec![0.0; per_layer]).collect(),
            v: (0..config.n_layers).map(|_| vec![0.0; per_layer]).collect(),
            kv_dim,
            head_dim: config.head_dim(),
            seq_len: config.seq_len,
            len: 0,
        }
    }

    /// Number of positions stored so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no positions have been stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of positions the cache can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.seq_len
    }

    /// Clears the logical contents (capacity is retained).
    pub fn reset(&mut self) {
        self.len = 0;
    }

    /// Shrinks the logical length to `len`, discarding every stored
    /// position at `len..`. A no-op when the cache is already at or below
    /// `len`. In debug builds the dropped rows are NaN-poisoned so a read
    /// past the truncation point is loud — the speculative-decoding
    /// rejection path relies on truncated rows never being observable.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        if cfg!(debug_assertions) {
            for side in [&mut self.k, &mut self.v] {
                for layer in side.iter_mut() {
                    layer[len * self.kv_dim..self.len * self.kv_dim].fill(f32::NAN);
                }
            }
        }
        self.len = len;
    }

    /// Writes the key and value rows for `pos` in `layer`. Positions must
    /// be written in order; writing position `p` sets the logical length to
    /// `p + 1` once the last layer has stored it.
    ///
    /// # Panics
    /// Panics if `pos` exceeds capacity or the slices are misshapen.
    pub fn store(&mut self, layer: usize, pos: usize, k: &[f32], v: &[f32]) {
        assert!(
            pos < self.seq_len,
            "pos {pos} out of cache capacity {}",
            self.seq_len
        );
        assert_eq!(k.len(), self.kv_dim, "bad key width");
        assert_eq!(v.len(), self.kv_dim, "bad value width");
        let off = pos * self.kv_dim;
        self.k[layer][off..off + self.kv_dim].copy_from_slice(k);
        self.v[layer][off..off + self.kv_dim].copy_from_slice(v);
        if layer == self.k.len() - 1 {
            self.len = self.len.max(pos + 1);
        }
    }

    /// Key row for `(layer, pos)` across all KV heads.
    #[must_use]
    pub fn key_row(&self, layer: usize, pos: usize) -> &[f32] {
        let off = pos * self.kv_dim;
        &self.k[layer][off..off + self.kv_dim]
    }

    /// Value row for `(layer, pos)` across all KV heads.
    #[must_use]
    pub fn value_row(&self, layer: usize, pos: usize) -> &[f32] {
        let off = pos * self.kv_dim;
        &self.v[layer][off..off + self.kv_dim]
    }

    /// Key vector of one KV head at `(layer, pos)`.
    #[must_use]
    pub fn key_head(&self, layer: usize, pos: usize, kv_head: usize) -> &[f32] {
        let row = self.key_row(layer, pos);
        &row[kv_head * self.head_dim..(kv_head + 1) * self.head_dim]
    }

    /// Value vector of one KV head at `(layer, pos)`.
    #[must_use]
    pub fn value_head(&self, layer: usize, pos: usize, kv_head: usize) -> &[f32] {
        let row = self.value_row(layer, pos);
        &row[kv_head * self.head_dim..(kv_head + 1) * self.head_dim]
    }

    /// Mutable key row (used by in-place RoPE application).
    pub fn key_row_mut(&mut self, layer: usize, pos: usize) -> &mut [f32] {
        let off = pos * self.kv_dim;
        &mut self.k[layer][off..off + self.kv_dim]
    }

    /// Total bytes of cached state for a full window.
    #[must_use]
    pub fn bytes(&self) -> usize {
        2 * self.k.len() * self.seq_len * self.kv_dim * std::mem::size_of::<f32>()
    }

    /// Overwrites every row with NaN. Correct decoding never reads a row it
    /// has not first stored, so after a poison-fill any stale read shows up
    /// as NaN logits instead of silently borrowing a previous tenant's
    /// context. Called by [`KvCachePool`] on release in debug builds.
    pub fn poison(&mut self) {
        for side in [&mut self.k, &mut self.v] {
            for layer in side.iter_mut() {
                layer.fill(f32::NAN);
            }
        }
    }
}

/// What the transformer forward pass reads attention context from and
/// appends new K/V rows into: per-sequence KV access addressed by a batch
/// index, so one pass can extend B independent sequences. A slice of
/// `&mut KvCache` is the contiguous implementation (each sequence owns its
/// cache); `speedllm-pagedkv` provides the paged one, where B block tables
/// share one arena and attention reads go through a logical-position →
/// physical-block indirection instead of assuming contiguity.
///
/// Every implementation must give index `i` exactly the behaviour of
/// sequence `i`'s own [`KvCache`] — a store of the last layer advances the
/// length to `pos + 1`, reads return what was stored — which is what
/// keeps the batched forward pass bit-identical to the per-sequence loop.
pub trait KvBatch {
    /// Number of sequences in the batch.
    fn batch_len(&self) -> usize;
    /// Positions fully stored for sequence `i` (all layers written).
    fn kv_len(&self, i: usize) -> usize;
    /// Context window of sequence `i`'s store.
    fn kv_capacity(&self, i: usize) -> usize;
    /// Writes sequence `i`'s key/value rows for `pos` in `layer`.
    fn store(&mut self, i: usize, layer: usize, pos: usize, k: &[f32], v: &[f32]);
    /// Key vector of one KV head at `(layer, pos)` for sequence `i`.
    fn key_head(&self, i: usize, layer: usize, pos: usize, kv_head: usize) -> &[f32];
    /// Value vector of one KV head at `(layer, pos)` for sequence `i`.
    fn value_head(&self, i: usize, layer: usize, pos: usize, kv_head: usize) -> &[f32];
}

impl KvBatch for [&mut KvCache] {
    fn batch_len(&self) -> usize {
        self.len()
    }

    fn kv_len(&self, i: usize) -> usize {
        self[i].len()
    }

    fn kv_capacity(&self, i: usize) -> usize {
        self[i].capacity()
    }

    fn store(&mut self, i: usize, layer: usize, pos: usize, k: &[f32], v: &[f32]) {
        self[i].store(layer, pos, k, v);
    }

    fn key_head(&self, i: usize, layer: usize, pos: usize, kv_head: usize) -> &[f32] {
        self[i].key_head(layer, pos, kv_head)
    }

    fn value_head(&self, i: usize, layer: usize, pos: usize, kv_head: usize) -> &[f32] {
        self[i].value_head(layer, pos, kv_head)
    }
}

/// Per-sequence state a [`KvCachePool`] can manage. Implemented by
/// [`KvCache`] itself and by `speedllm-pagedkv`'s `SeqKv` (a cache or a
/// block table), the slot of both serving backends.
pub trait PoolSlot {
    /// Clears the logical contents so the slot can host a new sequence.
    fn reset_slot(&mut self);
    /// Number of positions currently stored.
    fn slot_len(&self) -> usize;
    /// Debug-build guard: overwrite reusable storage with a poison pattern
    /// so stale reads are loud. Default is a no-op.
    fn poison_slot(&mut self) {}
}

impl PoolSlot for KvCache {
    fn reset_slot(&mut self) {
        self.reset();
    }

    fn slot_len(&self) -> usize {
        self.len()
    }

    fn poison_slot(&mut self) {
        self.poison();
    }
}

/// A slot checked out of a [`KvCachePool`]. Move-only: releasing consumes
/// it, so double-release is a compile error rather than a runtime bug.
#[derive(Debug)]
pub struct PooledSlot<S> {
    index: usize,
    state: S,
}

impl<S> PooledSlot<S> {
    /// The pool index this slot occupies (stable across its checkout).
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// The slot's sequence state.
    #[must_use]
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Mutable access to the slot's sequence state.
    pub fn state_mut(&mut self) -> &mut S {
        &mut self.state
    }
}

/// A fixed pool of pre-allocated sequence slots with checkout semantics:
/// [`KvCachePool::acquire`] moves a free slot out (admission), and
/// [`KvCachePool::release`] moves it back after resetting it (eviction).
/// The pool size is the serving layer's hard concurrency limit — when every
/// slot is checked out, admission stalls and requests queue.
#[derive(Debug)]
pub struct KvCachePool<S> {
    /// `None` = checked out. Index is the slot id.
    slots: Vec<Option<S>>,
    /// Free-slot indices, popped LIFO so reuse is exercised eagerly.
    free: Vec<usize>,
    /// Slots that have hosted at least one earlier sequence.
    used_before: Vec<bool>,
    /// Acquisitions that reused a previously-released slot.
    reuses: u64,
}

impl<S: PoolSlot> KvCachePool<S> {
    /// Builds a pool of `n` slots created by `make` (≥ 1).
    pub fn new(n: usize, mut make: impl FnMut() -> S) -> Self {
        assert!(n >= 1, "pool needs at least one slot");
        Self {
            slots: (0..n).map(|_| Some(make())).collect(),
            free: (0..n).rev().collect(),
            used_before: vec![false; n],
            reuses: 0,
        }
    }

    /// Total number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Slots currently checked out.
    #[must_use]
    pub fn in_use(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Free slots available for admission.
    #[must_use]
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// True when every slot has been released back.
    #[must_use]
    pub fn all_free(&self) -> bool {
        self.free.len() == self.slots.len()
    }

    /// Acquisitions that reused a previously-released slot.
    #[must_use]
    pub fn reuse_count(&self) -> u64 {
        self.reuses
    }

    /// Checks a slot out, or `None` when the pool is exhausted. The slot is
    /// handed out logically empty (`slot_len() == 0`).
    pub fn acquire(&mut self) -> Option<PooledSlot<S>> {
        let index = self.free.pop()?;
        let state = self.slots[index].take().expect("free slot present");
        if self.used_before[index] {
            self.reuses += 1;
        }
        self.used_before[index] = true;
        debug_assert_eq!(state.slot_len(), 0, "acquired slot not reset");
        Some(PooledSlot { index, state })
    }

    /// Returns a slot to the pool: resets it and, in debug builds,
    /// poison-fills its storage so a stale read by the next tenant is loud.
    ///
    /// # Panics
    /// Panics if the slot does not belong to this pool.
    pub fn release(&mut self, mut slot: PooledSlot<S>) {
        assert!(
            slot.index < self.slots.len() && self.slots[slot.index].is_none(),
            "slot {} does not belong to this pool",
            slot.index
        );
        slot.state.reset_slot();
        if cfg!(debug_assertions) {
            slot.state.poison_slot();
        }
        self.slots[slot.index] = Some(slot.state);
        self.free.push(slot.index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> KvCache {
        KvCache::new(&ModelConfig::test_tiny())
    }

    #[test]
    fn starts_empty_with_full_capacity() {
        let c = cache();
        assert!(c.is_empty());
        assert_eq!(c.capacity(), 32);
        assert_eq!(c.bytes(), ModelConfig::test_tiny().kv_cache_bytes());
    }

    #[test]
    fn store_and_read_back() {
        let mut c = cache();
        let k: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let v: Vec<f32> = (0..8).map(|i| -(i as f32)).collect();
        for layer in 0..2 {
            c.store(layer, 0, &k, &v);
        }
        assert_eq!(c.len(), 1);
        assert_eq!(c.key_row(0, 0), &k[..]);
        assert_eq!(c.value_row(1, 0), &v[..]);
    }

    #[test]
    fn head_views_partition_the_row() {
        let mut c = cache();
        let k: Vec<f32> = (0..8).map(|i| i as f32).collect();
        c.store(0, 3, &k, &k);
        // test_tiny: head_dim=4, 2 kv heads.
        assert_eq!(c.key_head(0, 3, 0), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(c.key_head(0, 3, 1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn len_tracks_last_layer_writes() {
        let mut c = cache();
        let z = vec![0.0f32; 8];
        c.store(0, 0, &z, &z);
        assert_eq!(c.len(), 0, "only first layer written");
        c.store(1, 0, &z, &z);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reset_clears_len() {
        let mut c = cache();
        let z = vec![0.0f32; 8];
        c.store(1, 0, &z, &z);
        c.reset();
        assert!(c.is_empty());
    }

    #[test]
    fn truncate_drops_tail_positions_only() {
        let mut c = cache();
        let row: Vec<f32> = (0..8).map(|i| i as f32).collect();
        for pos in 0..4 {
            for layer in 0..2 {
                c.store(layer, pos, &row, &row);
            }
        }
        assert_eq!(c.len(), 4);
        c.truncate(2);
        assert_eq!(c.len(), 2);
        // Kept rows are untouched; dropped rows are poisoned in debug.
        assert_eq!(c.key_row(0, 1), &row[..]);
        if cfg!(debug_assertions) {
            assert!(c.key_row(0, 2).iter().all(|x| x.is_nan()));
            assert!(c.value_row(1, 3).iter().all(|x| x.is_nan()));
        }
        // Truncating to a larger length never grows the cache.
        c.truncate(10);
        assert_eq!(c.len(), 2);
        // Re-storing a truncated position restores normal operation.
        for layer in 0..2 {
            c.store(layer, 2, &row, &row);
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.key_row(0, 2), &row[..]);
    }

    #[test]
    #[should_panic(expected = "out of cache capacity")]
    fn overflow_panics() {
        let mut c = cache();
        let z = vec![0.0f32; 8];
        c.store(0, 32, &z, &z);
    }

    #[test]
    #[should_panic(expected = "bad key width")]
    fn misshapen_key_panics() {
        let mut c = cache();
        c.store(0, 0, &[0.0; 3], &[0.0; 8]);
    }

    #[test]
    fn key_row_mut_allows_inplace_rope() {
        let mut c = cache();
        let k: Vec<f32> = (0..8).map(|i| 1.0 + i as f32).collect();
        c.store(0, 1, &k, &k);
        crate::ops::rope_inplace(c.key_row_mut(0, 1), 1, 4, crate::ops::ROPE_THETA);
        assert_ne!(c.key_row(0, 1), &k[..]);
    }

    #[test]
    fn poison_marks_every_row() {
        let mut c = cache();
        let k: Vec<f32> = (0..8).map(|i| i as f32).collect();
        c.store(0, 0, &k, &k);
        c.poison();
        assert!(c.key_row(0, 0).iter().all(|x| x.is_nan()));
        assert!(c.value_row(1, 5).iter().all(|x| x.is_nan()));
    }

    fn pool() -> KvCachePool<KvCache> {
        let cfg = ModelConfig::test_tiny();
        KvCachePool::new(2, || KvCache::new(&cfg))
    }

    #[test]
    fn pool_checkout_bookkeeping() {
        let mut p = pool();
        assert_eq!(p.capacity(), 2);
        assert!(p.all_free());
        let a = p.acquire().unwrap();
        let b = p.acquire().unwrap();
        assert_ne!(a.index(), b.index());
        assert_eq!(p.in_use(), 2);
        assert!(p.acquire().is_none(), "pool exhausted");
        p.release(a);
        assert_eq!(p.available(), 1);
        p.release(b);
        assert!(p.all_free());
    }

    #[test]
    fn pool_reset_on_reuse_and_reuse_counter() {
        let mut p = pool();
        let z = vec![0.5f32; 8];
        let mut a = p.acquire().unwrap();
        for layer in 0..2 {
            a.state_mut().store(layer, 0, &z, &z);
        }
        assert_eq!(a.state().len(), 1);
        assert_eq!(p.reuse_count(), 0);
        p.release(a);
        // The freshly released slot comes back first (LIFO) and is empty.
        let b = p.acquire().unwrap();
        assert_eq!(b.state().len(), 0);
        assert_eq!(p.reuse_count(), 1);
        // In debug builds the old rows are poisoned, never silently stale.
        if cfg!(debug_assertions) {
            assert!(b.state().key_row(0, 0).iter().all(|x| x.is_nan()));
        }
        p.release(b);
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn pool_rejects_foreign_slot() {
        let mut p = pool();
        let mut q = pool();
        let a = p.acquire().unwrap();
        // q never handed out slot `a.index()`, so its entry is occupied.
        q.release(a);
    }
}
