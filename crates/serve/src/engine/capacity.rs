//! KV capacity: granting blocks to the rows a tick writes, and taking
//! them back — cache eviction, preemption, rollback and release.

use speedllm_llama::kv_cache::PooledSlot;
use speedllm_pagedkv::BlockId;
use speedllm_telemetry as tel;

use super::{record, ServeEngine, Waiting};
use crate::backend::Backend;
use crate::events::EventKind;

impl<B: Backend> ServeEngine<B> {
    /// The KV rows `active[i]` needs this tick, as context lengths:
    /// `floor` covers the one row it must write (the token it is about to
    /// sample, or its parked one), `want` adds the up-to-K draft rows a
    /// verify run would like. `(0, 0)` for a sequence that forwards
    /// nothing: cold, or finishing in the sampling pass.
    fn rows_needed(&self, i: usize) -> (usize, usize) {
        let a = &self.active[i];
        let hist = a.hist_len();
        // First position this tick writes. A parked token is already in
        // `generated`, so its row is `hist - 1`.
        let n = hist - usize::from(a.pending.is_some());
        if a.is_cold() || n + 1 >= a.end_pos {
            return (0, 0);
        }
        let k = self.spec.as_ref().map_or(0, |s| s.k);
        (n + 1, n + 1 + a.draft_rows(k, n, self.seq_len))
    }

    /// Grants every warm sequence the blocks for the rows this tick
    /// writes ([`ServeEngine::rows_needed`]). When the arena is dry:
    /// evict a cold radix entry; failing that, rows past `floor` are
    /// given up (the proposal later clamps to whatever was granted),
    /// while the mandatory row preempts the **youngest** sequence and
    /// retries. Termination is guaranteed because each preemption shrinks
    /// the active set and one sequence always fits the arena (checked at
    /// construction). A sample that turns out to be EOS may leave a spare
    /// block; it is freed at eviction.
    pub(super) fn ensure_capacity(&mut self) {
        if self.paged.is_none() {
            return;
        }
        let mut i = 0;
        while i < self.active.len() {
            let (floor, want) = self.rows_needed(i);
            let cap = B::slot_table_mut(self.active[i].slot.state_mut())
                .expect("paged backend")
                .capacity_tokens();
            if cap >= want {
                i += 1;
                continue;
            }
            let (granted, evicted) = {
                let paged = self.paged.as_mut().expect("checked");
                match paged.alloc.alloc() {
                    Some(b) => (Some(b), Vec::new()),
                    None => {
                        let evicted = paged.radix.evict(1, &mut paged.alloc);
                        (paged.alloc.alloc(), evicted)
                    }
                }
            };
            self.note_cache_eviction(self.active[i].req.id, &evicted);
            match granted {
                Some(b) => {
                    // Re-check the same sequence: it may need more blocks.
                    B::slot_table_mut(self.active[i].slot.state_mut())
                        .expect("paged backend")
                        .push_block(b);
                }
                None if cap >= floor => i += 1,
                None => {
                    let victim = self
                        .active
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, a)| a.admission_seq)
                        .map(|(j, _)| j)
                        .expect("active is non-empty");
                    self.preempt(victim);
                    // A victim below `i` shifted the needy sequence down;
                    // otherwise the sequence to (re)check sits at `i` —
                    // the same one, or its successor if it was the victim.
                    if victim < i {
                        i -= 1;
                    }
                }
            }
        }
    }

    /// Accounts for cached blocks the radix index gave up so `needy`
    /// could be granted one.
    pub(super) fn note_cache_eviction(&mut self, needy: u64, evicted: &[BlockId]) {
        if evicted.is_empty() {
            return;
        }
        self.stats.cache_evicted_blocks += evicted.len() as u64;
        let blocks = evicted.len() as u32;
        record(
            &mut self.recorder,
            self.now,
            needy,
            EventKind::EvictedCacheBlock { blocks },
        );
        self.backend.on_blocks_freed(evicted);
    }

    /// Takes sequence `j` off the device: release its blocks (shared ones
    /// stay alive in the radix tree), free its slot, and park it —
    /// sampler, generated tokens and timestamps intact — for re-admission
    /// in original admission order.
    fn preempt(&mut self, j: usize) {
        let a = self.active.remove(j);
        self.release_slot(a.slot);
        self.stats.preemptions += 1;
        if tel::enabled() {
            tel::metrics::counter_add("serve.preemptions", 1);
        }
        record(&mut self.recorder, self.now, a.req.id, EventKind::Preempted);
        let p = Waiting {
            req: a.req,
            sampler: a.sampler,
            generated: a.generated,
            admitted_at: a.admitted_at,
            first_token_at: a.first_token_at,
            admission_seq: a.admission_seq,
            token_ticks: a.token_ticks,
        };
        let pos = self
            .preempted
            .partition_point(|q| q.admission_seq < p.admission_seq);
        self.preempted.insert(pos, p);
    }

    /// Strips a departing sequence's block chain and returns its slot to
    /// the pool.
    pub(super) fn release_slot(&mut self, mut slot: PooledSlot<B::Slot>) {
        if let Some(table) = B::slot_table_mut(slot.state_mut()) {
            let chain = table.take_blocks();
            self.release_blocks(chain);
        }
        self.pool.release(slot);
    }

    /// Drops one reference to each block of `chain` (shared blocks
    /// survive — only the refcount drops) and reports the actual frees to
    /// the backend so the rows are poisoned.
    pub(super) fn release_blocks(&mut self, chain: Vec<BlockId>) {
        let Some(paged) = self.paged.as_mut() else {
            debug_assert!(chain.is_empty(), "blocks only come from paged slots");
            return;
        };
        let freed: Vec<BlockId> = chain
            .into_iter()
            .filter(|&b| paged.alloc.release(b))
            .collect();
        if !freed.is_empty() {
            self.backend.on_blocks_freed(&freed);
        }
    }

    /// Records the block high-water mark.
    pub(super) fn note_block_peak(&mut self) {
        if let Some(p) = &self.paged {
            self.stats.peak_blocks_in_use =
                self.stats.peak_blocks_in_use.max(p.alloc.in_use() as u64);
        }
    }

    /// Internal fragmentation of the granted blocks: 1 − used/capacity
    /// over all active block tables (0.0 when nothing is active).
    pub(super) fn kv_fragmentation(&mut self) -> f64 {
        let (mut used, mut cap) = (0usize, 0usize);
        for a in &mut self.active {
            if let Some(t) = B::slot_table_mut(a.slot.state_mut()) {
                used += t.len();
                cap += t.capacity_tokens();
            }
        }
        if cap == 0 {
            0.0
        } else {
            1.0 - used as f64 / cap as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::backend::{Backend, CpuBackend};
    use crate::engine::tests::{cpu_engine, cpu_paged_engine, drain, req, tiny_engine};
    use crate::engine::ServeEngine;

    #[test]
    fn tight_block_budget_preempts_and_streams_survive() {
        // 9 blocks of 4 tokens: one full context (32) needs 8, so two
        // long sequences must fight for blocks and the youngest gets
        // preempted. Streams must still match the flat engine.
        let mut flat = cpu_engine(2);
        let mut paged = cpu_paged_engine(2, 4, 9);
        for i in 0..3u64 {
            let mut r = req(i, vec![1, 5 + i as u32], 20, 70 + i);
            r.stop_at_eos = false; // force long generations
            flat.submit(r.clone()).unwrap();
            paged.submit(r).unwrap();
        }
        let mut a = drain(&mut flat);
        let mut b = drain(&mut paged);
        a.sort_by_key(|c| c.id);
        b.sort_by_key(|c| c.id);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tokens, y.tokens, "preemption changed request {}", x.id);
            assert_eq!(x.tokens.len(), 20, "budget must be exhausted");
        }
        assert!(
            paged.stats().preemptions > 0,
            "tight budget must force preemption"
        );
        paged.check_paged_invariants().unwrap();
        assert!(paged.all_slots_free());
    }

    #[test]
    fn parked_token_at_a_block_boundary_takes_no_block_early() {
        // Unified, budget 2, blocks of 4. A (2-token prompt) and B
        // (3-token prompt) warm up while D's 20-token prompt stays cold,
        // so every tick is one decode row (A's) plus one prefill row
        // (D's) and B's first token is parked — with B's history (3 + 1)
        // exactly filling its one block. The parked row is position 3:
        // it fits. A block granted now would sit unused until B is
        // finally scheduled, and in a full arena (8 blocks: A 2, B 1,
        // D 5) it would cost D a preemption.
        for n_blocks in [16, 8] {
            let mut engine = tiny_engine(3, Some((4, n_blocks)), Some((2, 50)));
            let d_prompt: Vec<u32> = (0..20).map(|t| 1 + t % 7).collect();
            for (id, prompt) in [vec![1, 5], vec![1, 6, 9], d_prompt]
                .into_iter()
                .enumerate()
            {
                let mut r = req(id as u64, prompt, 12, 80 + id as u64);
                r.stop_at_eos = false;
                engine.submit(r).unwrap();
            }
            // Step until B's token is parked on the block boundary.
            let parked_at_boundary = |e: &mut ServeEngine<CpuBackend>| {
                e.active.get_mut(1).is_some_and(|b| {
                    let cap = CpuBackend::slot_table_mut(b.slot.state_mut())
                        .expect("paged slot")
                        .capacity_tokens();
                    b.req.id == 1 && b.pending.is_some() && b.hist_len() == cap
                })
            };
            while !parked_at_boundary(&mut engine) {
                assert!(engine.step().is_empty(), "nobody finishes this early");
            }
            let (blocks_before, preempted_before) =
                (engine.blocks_in_use(), engine.stats().preemptions);
            if n_blocks == 8 {
                assert_eq!(blocks_before, 8, "the arena must be full");
            }
            engine.step();
            assert!(
                parked_at_boundary(&mut engine),
                "B is deferred again and still holds one block"
            );
            assert_eq!(engine.blocks_in_use(), blocks_before);
            assert_eq!(engine.stats().preemptions, preempted_before);
            engine.check_paged_invariants().unwrap();
        }
    }
}
