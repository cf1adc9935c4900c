//! Block-granular paged KV-cache with prefix sharing.
//!
//! The paper's second co-design pillar is a memory-allocation *reuse*
//! strategy: buffer segments are recycled cyclically under a liveness
//! schedule so short-lived data never pays an allocation stall. This
//! crate lifts that discipline from single-kernel buffers to the
//! multi-request serving tier:
//!
//! - [`BlockAllocator`] — a free-list allocator over fixed
//!   `block_size`-token KV pages with O(1) alloc/free and per-block
//!   refcounts.
//! - [`BlockTable`] — a per-sequence logical→physical mapping (position
//!   `p` lives in `blocks[p / block_size]` at slot `p % block_size`),
//!   so attention reads no longer assume contiguity.
//! - [`PagedKvArena`] — the physical K/V backing store, one flat buffer
//!   per layer, addressed through block tables.
//!   [`PagedKvArena::batch_view`] adapts the arena and several tables
//!   into one [`speedllm_llama::kv_cache::KvBatch`], so the unmodified
//!   transformer forward pass writes straight into paged memory.
//! - [`SeqKv`] and [`KvSpace`] — one sequence's storage (a private
//!   `KvCache` or a block table) and a backend's storage (optionally one
//!   arena). [`KvSpace::batch`] is the one place that picks between the
//!   two layouts for a pass, so every backend shares one KV interface.
//! - [`RadixIndex`] — a radix tree over *full* blocks mapping token
//!   prefixes to shared block chains. Requests with a common prompt
//!   prefix reuse already-prefilled blocks and skip straight to the
//!   divergence point; cached chains are evicted LRU under pressure.
//!
//! Sharing is full-block-only: a block becomes shareable only once all
//! `block_size` positions are written and the owning sequence has
//! frozen it (inserted it into the index). A sequence that takes a
//! prefix hit holds the shared blocks through
//! [`BlockAllocator::retain`] and resumes at the block boundary, so it
//! writes only into blocks it allocated itself: a shared block is never
//! written.

#![forbid(unsafe_code)]

pub mod arena;
pub mod block;
pub mod radix;
pub mod space;

pub use arena::{PagedKvArena, PagedKvBatch};
pub use block::{BlockAllocator, BlockConfig, BlockId, BlockTable};
pub use radix::RadixIndex;
pub use space::{KvSpace, SeqBatch, SeqKv};
