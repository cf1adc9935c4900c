//! Radix tree over *full* KV blocks: maps token prefixes (in
//! `block_size`-token edges) to chains of shared physical blocks, so a
//! new request with a cached prompt prefix reuses the prefilled blocks
//! and skips straight to the divergence point.
//!
//! The index is itself a holder: every cached block carries one tree
//! refcount (taken at [`RadixIndex::insert`]) in addition to one per
//! referencing sequence, which keeps hot prefixes alive *between*
//! requests. Under memory pressure [`RadixIndex::evict`] drops
//! least-recently-used leaf chains whose blocks no live sequence
//! references, in a deterministic order (oldest stamp first, block id
//! as tie-break) so serve runs stay byte-reproducible.

use std::collections::BTreeMap;

use crate::block::{BlockAllocator, BlockId};

#[derive(Debug)]
struct Node {
    /// The `block_size` tokens labelling the edge from the parent.
    tokens: Box<[u32]>,
    block: BlockId,
    /// `None` = child of the root.
    parent: Option<usize>,
    children: BTreeMap<Box<[u32]>, usize>,
    /// Lookup clock stamp for LRU eviction.
    last_use: u64,
}

/// Prefix → shared-block-chain index at block granularity. Only full
/// blocks are ever cached: partially filled tails stay private to their
/// sequence, so a cached block is immutable by construction.
#[derive(Debug)]
pub struct RadixIndex {
    block_size: usize,
    /// Slab of nodes; `None` entries are free for reuse.
    nodes: Vec<Option<Node>>,
    free_nodes: Vec<usize>,
    root_children: BTreeMap<Box<[u32]>, usize>,
    clock: u64,
    cached: usize,
}

impl RadixIndex {
    #[must_use]
    pub fn new(block_size: usize) -> Self {
        assert!(block_size > 0, "block_size must be positive");
        Self {
            block_size,
            nodes: Vec::new(),
            free_nodes: Vec::new(),
            root_children: BTreeMap::new(),
            clock: 0,
            cached: 0,
        }
    }

    #[must_use]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of blocks currently cached by the tree.
    #[must_use]
    pub fn cached_blocks(&self) -> usize {
        self.cached
    }

    fn node(&self, id: usize) -> &Node {
        self.nodes[id].as_ref().expect("live node")
    }

    fn node_mut(&mut self, id: usize) -> &mut Node {
        self.nodes[id].as_mut().expect("live node")
    }

    /// Longest cached chain matching a prefix of `tokens`, capped at
    /// `max_tokens` (callers cap below the full context so at least one
    /// token is always left to prefill, which produces the logits).
    /// Returns the physical blocks of the matched prefix in order; the
    /// match covers `returned.len() * block_size` tokens. Touches the
    /// matched path's LRU stamps.
    pub fn lookup(&mut self, tokens: &[u32], max_tokens: usize) -> Vec<BlockId> {
        self.clock += 1;
        let stamp = self.clock;
        let limit = max_tokens.min(tokens.len()) / self.block_size;
        let mut chain = Vec::new();
        let mut children = &self.root_children;
        let mut path = Vec::new();
        for d in 0..limit {
            let chunk = &tokens[d * self.block_size..(d + 1) * self.block_size];
            match children.get(chunk) {
                Some(&id) => {
                    path.push(id);
                    chain.push(self.node(id).block);
                    children = &self.node(id).children;
                }
                None => break,
            }
        }
        for id in path {
            self.node_mut(id).last_use = stamp;
        }
        chain
    }

    /// Length in tokens of the longest cached prefix of `tokens`, as a
    /// side-effect-free probe: no LRU stamp is touched and no refcount
    /// is taken, so a router can rank replicas by expected prefix hit
    /// without pinning blocks on replicas it may not choose. Agrees
    /// with [`RadixIndex::lookup`]: for any `tokens` and cap,
    /// `lookup(tokens, cap).len() * block_size
    ///  == longest_prefix_len(tokens).min(cap / block_size * block_size)`.
    #[must_use]
    pub fn longest_prefix_len(&self, tokens: &[u32]) -> usize {
        let limit = tokens.len() / self.block_size;
        let mut matched = 0;
        let mut children = &self.root_children;
        for d in 0..limit {
            let chunk = &tokens[d * self.block_size..(d + 1) * self.block_size];
            match children.get(chunk) {
                Some(&id) => {
                    matched += 1;
                    children = &self.node(id).children;
                }
                None => break,
            }
        }
        matched * self.block_size
    }

    /// Caches the chain `blocks` under the token prefix `tokens` (which
    /// must cover at least `blocks.len() * block_size` tokens). Each
    /// *newly* cached block gains one tree refcount via `alloc.retain`;
    /// depths already cached keep their existing block (the KV contents
    /// are identical by determinism of the forward pass, so the caller's
    /// duplicate simply is not cached). Returns how many blocks were
    /// newly cached.
    pub fn insert(
        &mut self,
        tokens: &[u32],
        blocks: &[BlockId],
        alloc: &mut BlockAllocator,
    ) -> usize {
        assert!(
            tokens.len() >= blocks.len() * self.block_size,
            "prefix shorter than the block chain"
        );
        self.clock += 1;
        let stamp = self.clock;
        let mut parent: Option<usize> = None;
        let mut added = 0;
        for (d, &block) in blocks.iter().enumerate() {
            let chunk = &tokens[d * self.block_size..(d + 1) * self.block_size];
            let children = match parent {
                Some(p) => &self.node(p).children,
                None => &self.root_children,
            };
            if let Some(&id) = children.get(chunk) {
                self.node_mut(id).last_use = stamp;
                parent = Some(id);
                continue;
            }
            alloc.retain(block);
            let node = Node {
                tokens: chunk.into(),
                block,
                parent,
                children: BTreeMap::new(),
                last_use: stamp,
            };
            let id = match self.free_nodes.pop() {
                Some(slot) => {
                    self.nodes[slot] = Some(node);
                    slot
                }
                None => {
                    self.nodes.push(Some(node));
                    self.nodes.len() - 1
                }
            };
            match parent {
                Some(p) => self.node_mut(p).children.insert(chunk.into(), id),
                None => self.root_children.insert(chunk.into(), id),
            };
            self.cached += 1;
            added += 1;
            parent = Some(id);
        }
        added
    }

    /// Frees cached blocks until `need` have been freed or no candidate
    /// remains. Only leaf nodes whose block has no live sequence holder
    /// (refcount exactly 1, the tree's own) are evictable; dropping a
    /// leaf can expose its parent, so whole cold chains unwind. Returns
    /// the freed block ids (oldest-stamp-first, block id tie-break —
    /// fully deterministic).
    pub fn evict(&mut self, need: usize, alloc: &mut BlockAllocator) -> Vec<BlockId> {
        let mut freed = Vec::new();
        while freed.len() < need {
            let mut best: Option<(u64, BlockId, usize)> = None;
            for (id, slot) in self.nodes.iter().enumerate() {
                let Some(n) = slot else { continue };
                if !n.children.is_empty() || alloc.refcount(n.block) != 1 {
                    continue;
                }
                let key = (n.last_use, n.block);
                if best.is_none_or(|(u, b, _)| key < (u, b)) {
                    best = Some((n.last_use, n.block, id));
                }
            }
            let Some((_, _, id)) = best else { break };
            let node = self.nodes[id].take().expect("live node");
            self.free_nodes.push(id);
            self.cached -= 1;
            match node.parent {
                Some(p) => self.node_mut(p).children.remove(&node.tokens),
                None => self.root_children.remove(&node.tokens),
            };
            let was_freed = alloc.release(node.block);
            debug_assert!(was_freed, "tree held the last reference");
            freed.push(node.block);
        }
        freed
    }

    /// Every block currently cached (unordered use only in tests).
    #[must_use]
    pub fn blocks(&self) -> Vec<BlockId> {
        self.nodes
            .iter()
            .filter_map(|n| n.as_ref().map(|n| n.block))
            .collect()
    }

    /// Structural invariants for the property suite: parent/child links
    /// are consistent and every cached block is live in `alloc`.
    pub fn check_invariants(&self, alloc: &BlockAllocator) -> Result<(), String> {
        let mut reachable = 0usize;
        let mut stack: Vec<(Option<usize>, usize)> =
            self.root_children.values().map(|&id| (None, id)).collect();
        while let Some((parent, id)) = stack.pop() {
            let Some(n) = self.nodes.get(id).and_then(|s| s.as_ref()) else {
                return Err(format!("child link to dead node {id}"));
            };
            if n.parent != parent {
                return Err(format!("node {id} has a stale parent pointer"));
            }
            if alloc.refcount(n.block) == 0 {
                return Err(format!("cached block {:?} is on the free list", n.block));
            }
            reachable += 1;
            stack.extend(n.children.values().map(|&c| (Some(id), c)));
        }
        if reachable != self.cached {
            return Err(format!(
                "cached count {} != reachable nodes {reachable}",
                self.cached
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockConfig;

    fn setup(n_blocks: usize) -> (RadixIndex, BlockAllocator) {
        (
            RadixIndex::new(2),
            BlockAllocator::new(BlockConfig {
                block_size: 2,
                n_blocks,
            }),
        )
    }

    fn chain(alloc: &mut BlockAllocator, n: usize) -> Vec<BlockId> {
        (0..n).map(|_| alloc.alloc().unwrap()).collect()
    }

    #[test]
    fn lookup_returns_exactly_the_inserted_prefix() {
        let (mut idx, mut alloc) = setup(8);
        let toks = [1, 2, 3, 4, 5];
        let blocks = chain(&mut alloc, 2); // covers [1,2] and [3,4]
        assert_eq!(idx.insert(&toks, &blocks, &mut alloc), 2);
        assert_eq!(idx.lookup(&toks, 5), blocks);
        assert_eq!(idx.lookup(&[1, 2, 9, 9], 4), blocks[..1]);
        assert_eq!(idx.lookup(&[7, 7], 2), &[]);
        // The cap truncates the walk to whole blocks below it.
        assert_eq!(idx.lookup(&toks, 3), blocks[..1]);
        idx.check_invariants(&alloc).unwrap();
    }

    #[test]
    fn insert_is_idempotent_and_keeps_the_first_block() {
        let (mut idx, mut alloc) = setup(8);
        let toks = [1, 2, 3, 4];
        let first = chain(&mut alloc, 2);
        let second = chain(&mut alloc, 2);
        assert_eq!(idx.insert(&toks, &first, &mut alloc), 2);
        assert_eq!(
            idx.insert(&toks, &second, &mut alloc),
            0,
            "duplicate prefix caches nothing"
        );
        assert_eq!(idx.lookup(&toks, 4), first, "first insert wins");
        assert_eq!(alloc.refcount(second[0]), 1, "duplicate not retained");
        assert_eq!(alloc.refcount(first[0]), 2, "owner + tree");
        idx.check_invariants(&alloc).unwrap();
    }

    #[test]
    fn shared_prefixes_share_nodes() {
        let (mut idx, mut alloc) = setup(8);
        let a = chain(&mut alloc, 2);
        idx.insert(&[1, 2, 3, 4], &a, &mut alloc);
        // Same first block tokens, divergent second block: one new node.
        let b = chain(&mut alloc, 2);
        assert_eq!(idx.insert(&[1, 2, 8, 9], &b, &mut alloc), 1);
        assert_eq!(idx.cached_blocks(), 3);
        assert_eq!(alloc.refcount(b[0]), 1, "shared depth not re-cached");
        assert_eq!(idx.lookup(&[1, 2, 8, 9], 4), vec![a[0], b[1]]);
        idx.check_invariants(&alloc).unwrap();
    }

    #[test]
    fn evict_unwinds_cold_leaf_chains_deterministically() {
        let (mut idx, mut alloc) = setup(8);
        let a = chain(&mut alloc, 2);
        let b = chain(&mut alloc, 2);
        idx.insert(&[1, 2, 3, 4], &a, &mut alloc);
        idx.insert(&[5, 6, 7, 8], &b, &mut alloc);
        // The owning sequences release their chains; only the tree holds them.
        for &blk in a.iter().chain(&b) {
            alloc.release(blk);
        }
        // Touch chain `a` so `b` is colder.
        idx.lookup(&[1, 2, 3, 4], 4);
        let freed = idx.evict(2, &mut alloc);
        assert_eq!(freed, vec![b[1], b[0]], "leaf first, then exposed parent");
        assert_eq!(idx.cached_blocks(), 2);
        assert_eq!(idx.lookup(&[5, 6, 7, 8], 4), &[]);
        assert_eq!(idx.lookup(&[1, 2, 3, 4], 4), a, "hot chain survived");
        idx.check_invariants(&alloc).unwrap();
    }

    #[test]
    fn probe_agrees_with_lookup_and_takes_no_refcounts() {
        let (mut idx, mut alloc) = setup(8);
        let toks = [1, 2, 3, 4, 5, 6];
        let blocks = chain(&mut alloc, 3);
        idx.insert(&toks, &blocks, &mut alloc);
        let refs_before: Vec<_> = blocks.iter().map(|&b| alloc.refcount(b)).collect();
        // Full-chain, partial, divergent, and sub-block probes.
        assert_eq!(idx.longest_prefix_len(&toks), 6);
        assert_eq!(idx.longest_prefix_len(&[1, 2, 3, 9]), 2);
        assert_eq!(idx.longest_prefix_len(&[7, 7]), 0);
        assert_eq!(idx.longest_prefix_len(&[1]), 0, "sub-block never matches");
        // Probing neither retains blocks nor perturbs the LRU order.
        let refs_after: Vec<_> = blocks.iter().map(|&b| alloc.refcount(b)).collect();
        assert_eq!(refs_before, refs_after, "probe must not take refcounts");
        // Probe-then-lookup agreement across caps.
        for cap in 0..=toks.len() {
            let hit = idx.lookup(&toks, cap);
            let capped = idx.longest_prefix_len(&toks).min(cap / 2 * 2);
            assert_eq!(hit.len() * 2, capped, "cap {cap}");
        }
        idx.check_invariants(&alloc).unwrap();
    }

    #[test]
    fn probe_does_not_disturb_eviction_order() {
        let (mut idx, mut alloc) = setup(8);
        let a = chain(&mut alloc, 1);
        let b = chain(&mut alloc, 1);
        idx.insert(&[1, 2], &a, &mut alloc);
        idx.insert(&[5, 6], &b, &mut alloc);
        for &blk in a.iter().chain(&b) {
            alloc.release(blk);
        }
        // A lookup would re-stamp chain `a` and make `b` the eviction
        // victim; the probe must leave `a` the oldest entry.
        assert_eq!(idx.longest_prefix_len(&[1, 2]), 2);
        assert_eq!(idx.evict(1, &mut alloc), a, "probe kept a cold");
        idx.check_invariants(&alloc).unwrap();
    }

    #[test]
    fn blocks_referenced_by_live_sequences_are_pinned() {
        let (mut idx, mut alloc) = setup(8);
        let a = chain(&mut alloc, 1);
        idx.insert(&[1, 2], &a, &mut alloc);
        // The owning sequence still holds the block: nothing to evict.
        assert!(idx.evict(1, &mut alloc).is_empty());
        alloc.release(a[0]);
        assert_eq!(idx.evict(1, &mut alloc), a);
        assert_eq!(alloc.free_blocks(), 8);
        idx.check_invariants(&alloc).unwrap();
    }
}
