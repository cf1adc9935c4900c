//! Property tests (speedllm-testkit) over the paged KV-cache subsystem:
//! free-list conservation under random alloc/free interleavings, refcount
//! correctness when chains are shared and released in any order, and
//! radix-tree invariants (lookup of an inserted prefix returns exactly
//! its blocks; shared blocks stay pinned while referenced).

use speedllm_testkit::prelude::*;

use speedllm::llama::config::ModelConfig;
use speedllm::llama::rng::Xoshiro256;
use speedllm::pagedkv::{BlockAllocator, BlockConfig, BlockTable, PagedKvArena, RadixIndex};

fn cfg(block_size: usize, n_blocks: usize) -> BlockConfig {
    BlockConfig {
        block_size,
        n_blocks,
    }
}

/// A table over `src`'s whole chain, shared the way admission takes a
/// radix hit: each block gains one holder through `retain`.
fn share(alloc: &mut BlockAllocator, src: &BlockTable) -> BlockTable {
    let mut t = BlockTable::new(src.block_size());
    for &b in src.blocks() {
        alloc.retain(b);
        t.push_block(b);
    }
    t.set_len(src.len());
    t
}

/// Tokens 3.. in a deterministic stream, `len` of them.
fn tokens(rng: &mut Xoshiro256, len: usize) -> Vec<u32> {
    (0..len).map(|_| 3 + rng.below(61) as u32).collect()
}

props! {
    #![config(cases = 64)]

    fn free_list_conserves_blocks_under_random_churn(
        block_size in 1usize..9,
        n_blocks in 1usize..33,
        steps in 1usize..200,
        seed in any_u64(),
    ) {
        let mut alloc = BlockAllocator::new(cfg(block_size, n_blocks));
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut held = Vec::new();
        for _ in 0..steps {
            if rng.below(2) == 0 {
                if let Some(b) = alloc.alloc() {
                    // No double-hand-out: a granted block is never one we
                    // already hold.
                    prop_assert!(
                        !held.contains(&b),
                        "block {:?} handed out twice", b
                    );
                    held.push(b);
                } else {
                    prop_assert_eq!(held.len(), n_blocks, "dry arena but blocks unaccounted");
                }
            } else if !held.is_empty() {
                let i = rng.below(held.len() as u64) as usize;
                let b = held.swap_remove(i);
                prop_assert!(alloc.release(b), "sole owner's release must free");
            }
            // Conservation: allocated + free == total, free list exact.
            prop_assert_eq!(alloc.in_use() + alloc.free_blocks(), n_blocks);
            prop_assert_eq!(alloc.in_use(), held.len());
            prop_assert!(alloc.check_invariants().is_ok());
        }
        for b in held {
            prop_assert!(alloc.release(b));
        }
        prop_assert_eq!(alloc.free_blocks(), n_blocks, "everything must drain");
        prop_assert!(alloc.check_invariants().is_ok());
    }

    fn refcounts_survive_fork_release_interleavings(
        block_size in 1usize..5,
        chains in 1usize..5,
        forks in 0usize..8,
        seed in any_u64(),
    ) {
        let n_blocks = 64;
        let mut alloc = BlockAllocator::new(cfg(block_size, n_blocks));
        let mut rng = Xoshiro256::seed_from_u64(seed);
        // Base tables with 1..=3 blocks each, then random shares of random
        // tables — every share bumps each chain block's refcount by one.
        let mut tables: Vec<BlockTable> = Vec::new();
        for _ in 0..chains {
            let mut t = BlockTable::new(block_size);
            for _ in 0..1 + rng.below(3) {
                t.push_block(alloc.alloc().expect("64 blocks is plenty"));
            }
            tables.push(t);
        }
        for _ in 0..forks {
            let src = rng.below(tables.len() as u64) as usize;
            let shared = share(&mut alloc, &tables[src]);
            prop_assert_eq!(shared.blocks(), tables[src].blocks());
            for &b in shared.blocks() {
                prop_assert!(alloc.refcount(b) >= 2, "shared block has one holder");
            }
            tables.push(shared);
            prop_assert!(alloc.check_invariants().is_ok());
        }
        // Release tables in random order; a block frees exactly when its
        // last referencing table lets go.
        while !tables.is_empty() {
            let i = rng.below(tables.len() as u64) as usize;
            let mut t = tables.swap_remove(i);
            for b in t.take_blocks() {
                let before = alloc.refcount(b);
                let freed = alloc.release(b);
                prop_assert_eq!(freed, before == 1, "freed iff last reference");
            }
            prop_assert!(alloc.check_invariants().is_ok());
        }
        prop_assert_eq!(alloc.free_blocks(), n_blocks, "refcount leak");
    }

    fn radix_lookup_returns_exactly_the_inserted_prefix(
        block_size in 1usize..5,
        blocks_len in 1usize..6,
        seed in any_u64(),
    ) {
        let n_blocks = 64;
        let mut alloc = BlockAllocator::new(cfg(block_size, n_blocks));
        let mut radix = RadixIndex::new(block_size);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let toks = tokens(&mut rng, blocks_len * block_size);
        let chain: Vec<_> = (0..blocks_len)
            .map(|_| alloc.alloc().expect("plenty of blocks"))
            .collect();
        radix.insert(&toks, &chain, &mut alloc);
        prop_assert!(radix.check_invariants(&alloc).is_ok());

        // Exact-prefix lookup returns the chain, in order, truncated at
        // the requested cap.
        let hit = radix.lookup(&toks, toks.len());
        prop_assert_eq!(&hit, &chain, "full lookup must return the chain");
        let cap = rng.below(toks.len() as u64 + 1) as usize;
        let hit = radix.lookup(&toks, cap);
        prop_assert_eq!(&hit[..], &chain[..cap / block_size], "capped lookup");

        // A diverging query shares only the common full-block prefix.
        let mut other = toks.clone();
        let flip = rng.below(other.len() as u64) as usize;
        other[flip] = if other[flip] == 3 { 4 } else { 3 };
        let hit = radix.lookup(&other, other.len());
        prop_assert_eq!(&hit[..], &chain[..flip / block_size], "divergence point");

        // The sequence lets go; cached blocks stay alive (tree retained
        // them), and eviction reclaims every one of them.
        for b in chain {
            prop_assert!(!alloc.release(b), "tree must keep cached blocks alive");
        }
        let evicted = radix.evict(usize::MAX, &mut alloc);
        prop_assert_eq!(evicted.len(), blocks_len, "evict must drain the tree");
        prop_assert!(radix.check_invariants(&alloc).is_ok());
        prop_assert_eq!(alloc.free_blocks(), n_blocks);
    }

    fn radix_shared_blocks_are_counted_once_per_owner(
        block_size in 1usize..5,
        shared_blocks in 1usize..4,
        seed in any_u64(),
    ) {
        let n_blocks = 64;
        let mut alloc = BlockAllocator::new(cfg(block_size, n_blocks));
        let mut radix = RadixIndex::new(block_size);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let prefix = tokens(&mut rng, shared_blocks * block_size);

        // Sequence A prefills the prefix plus one private block.
        let mut a_toks = prefix.clone();
        a_toks.extend(tokens(&mut rng, block_size));
        let a_chain: Vec<_> = (0..shared_blocks + 1)
            .map(|_| alloc.alloc().unwrap())
            .collect();
        radix.insert(&a_toks, &a_chain, &mut alloc);

        // Sequence B shares the prefix: lookup + retain, as admission does.
        let hit = radix.lookup(&prefix, prefix.len());
        prop_assert_eq!(&hit[..], &a_chain[..shared_blocks]);
        for &b in &hit {
            alloc.retain(b);
            // Owners: sequence A, the tree, sequence B.
            prop_assert_eq!(alloc.refcount(b), 3, "one count per owner");
        }
        prop_assert!(radix.check_invariants(&alloc).is_ok());

        // While B still references the shared blocks, eviction must not
        // touch them even under maximal pressure.
        let evicted = radix.evict(usize::MAX, &mut alloc);
        prop_assert!(
            !evicted.iter().any(|b| hit.contains(b)),
            "evicted a pinned shared block"
        );

        // Unwind: A, then B, then whatever is left cached.
        for b in a_chain {
            alloc.release(b);
        }
        for b in hit {
            alloc.release(b);
        }
        radix.evict(usize::MAX, &mut alloc);
        prop_assert!(radix.check_invariants(&alloc).is_ok());
        prop_assert_eq!(alloc.free_blocks(), n_blocks, "shared blocks leaked");
    }

    /// Speculative-decoding rollback over a shared chain: a child shares
    /// the parent's whole blocks, as a radix hit does, writes on into
    /// blocks of its own, then rolls back to a random keep point. Popped blocks must free exactly
    /// when the child was their last owner (free-list conservation), and
    /// the parent's bytes — plus the child's surviving rows — must equal
    /// those of an arena that never saw the speculative writes.
    fn rollback_after_fork_conserves_blocks_and_bytes(
        block_size in 1usize..5,
        parent_blocks in 1usize..4,
        grow in 1usize..9,
        seed in any_u64(),
    ) {
        let model = ModelConfig::test_tiny();
        let n_blocks = 32;
        let bc = cfg(block_size, n_blocks);
        let mut alloc = BlockAllocator::new(bc);
        let mut arena = PagedKvArena::new(&model, bc);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let kv_dim = 8; // test_tiny: 2 kv heads x head_dim 4
        let layers = model.n_layers;
        let row = |rng: &mut Xoshiro256| -> Vec<f32> {
            (0..kv_dim).map(|_| rng.next_f32()).collect()
        };

        // Parent prefills `parent_blocks` full blocks of distinctive rows.
        let parent_len = parent_blocks * block_size;
        let mut parent = BlockTable::new(block_size);
        let mut written = Vec::new();
        for pos in 0..parent_len {
            if parent.capacity_tokens() <= pos {
                parent.push_block(alloc.alloc().unwrap());
            }
            let (k, v) = (row(&mut rng), row(&mut rng));
            for layer in 0..layers {
                let (b, s) = parent.locate(pos);
                arena.store_at(layer, b, s, &k, &v);
            }
            parent.note_stored(pos);
            written.push((k, v));
        }
        let baseline: Vec<Vec<f32>> = (0..parent_len)
            .map(|pos| {
                let (b, s) = parent.locate(pos);
                let _ = s;
                arena.key_head_at(0, b, pos % block_size, 0).to_vec()
            })
            .collect();

        // Child shares the parent's chain, then speculates `grow`
        // positions further — crossing at least one block boundary when
        // grow > block_size. The parent is whole blocks, so every write
        // lands in a block the child allocated itself.
        let mut child = share(&mut alloc, &parent);
        let spec_end = parent_len + grow;
        for pos in parent_len..spec_end {
            if child.capacity_tokens() <= pos {
                child.push_block(alloc.alloc().expect("32 blocks is plenty"));
            }
            let (k, v) = (row(&mut rng), row(&mut rng));
            for layer in 0..layers {
                let (b, s) = child.locate(pos);
                arena.store_at(layer, b, s, &k, &v);
            }
            child.note_stored(pos);
        }
        let in_use_before = alloc.in_use();
        prop_assert!(alloc.check_invariants().is_ok());

        // Roll the child back to a random keep point at or past the share.
        let keep = parent_len + rng.below(grow as u64 + 1) as usize;
        let popped = child.rollback(keep);
        prop_assert_eq!(child.len(), keep, "rollback must set the logical length");
        prop_assert!(
            child.capacity_tokens() >= keep,
            "rollback must keep whole blocks covering the kept context"
        );
        let mut freed = 0;
        for b in popped {
            if alloc.release(b) {
                freed += 1;
            }
        }
        // Conservation: exactly the freed blocks left `in_use`.
        prop_assert_eq!(alloc.in_use(), in_use_before - freed);
        prop_assert_eq!(alloc.in_use() + alloc.free_blocks(), n_blocks);
        prop_assert!(alloc.check_invariants().is_ok());

        // Byte oracle: the parent's rows are untouched by the child's
        // speculative writes and rollback (shared blocks are never written,
        // and rollback only ever pops the child's own chain).
        for (pos, want) in baseline.iter().enumerate() {
            let (b, _) = parent.locate(pos);
            prop_assert_eq!(
                arena.key_head_at(0, b, pos % block_size, 0),
                &want[..],
                "parent bytes changed at pos {}", pos
            );
        }
        // And the child's kept rows still carry what was written to them.
        for (pos, (want, _)) in written.iter().enumerate().take(keep.min(parent_len)) {
            let (b, s) = child.locate(pos);
            let got: Vec<f32> = (0..model.n_kv_heads)
                .flat_map(|h| arena.key_head_at(0, b, s, h).to_vec())
                .collect();
            prop_assert_eq!(&got, want, "kept child row {} corrupted", pos);
        }

        for b in parent.take_blocks() {
            alloc.release(b);
        }
        for b in child.take_blocks() {
            alloc.release(b);
        }
        prop_assert_eq!(alloc.free_blocks(), n_blocks, "unwind must drain everything");
    }
}
