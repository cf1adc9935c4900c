//! Admission: moving waiting requests into free slots.

use std::borrow::Cow;

use speedllm_llama::sampler::Sampler;
use speedllm_pagedkv::BlockId;
use speedllm_telemetry as tel;

use super::{record, Active, Request, ServeEngine, Waiting};
use crate::backend::{ArgmaxSlot, Backend};
use crate::events::EventKind;

impl Waiting {
    /// A request fresh from the queue: a preempted one with nothing
    /// generated yet, taking the next admission number.
    fn fresh(req: Request, now: u64, admission_seq: u64) -> Self {
        Self {
            sampler: Sampler::new(req.sampler, req.seed),
            generated: Vec::new(),
            admitted_at: now,
            first_token_at: None,
            admission_seq,
            token_ticks: Vec::new(),
            req,
        }
    }

    /// The tokens that must be in the KV cache before decode proceeds.
    fn context(&self) -> Cow<'_, [u32]> {
        if self.generated.is_empty() {
            Cow::Borrowed(&self.req.prompt)
        } else {
            Cow::Owned([&self.req.prompt[..], &self.generated[..]].concat())
        }
    }
}

impl<B: Backend> ServeEngine<B> {
    /// Moves waiting requests into free slots: preempted requests first
    /// (so preemption cannot starve an old request), then the FIFO queue.
    /// A paged backend also needs the context's blocks: the context is
    /// resolved against the radix prefix index, the hit blocks are
    /// retained, the rest allocated (evicting cold cache entries if
    /// needed), and the matched prefix is credited so prefill skips
    /// straight to the divergence point; admission stops at the first
    /// request whose blocks cannot be granted. A flat backend is the same
    /// walk with no block budget: nothing matches, nothing is needed.
    pub(super) fn admit(&mut self) {
        while self.pool.available() > 0 {
            let (w, fresh) = match self.preempted.pop_front() {
                Some(w) => (w, false),
                None => match self.queue.pop_front() {
                    Some(r) => (Waiting::fresh(r, self.now, self.admission_seq), true),
                    None => break,
                },
            };
            let Some((matched, chain)) = self.grant_context(&w) else {
                if fresh {
                    self.queue.push_front(w.req);
                } else {
                    self.preempted.push_front(w);
                }
                break;
            };
            let reuses_before = self.pool.reuse_count();
            let mut slot = self.pool.acquire().expect("availability checked");
            // A plain argmax sampler lets the backend score the
            // certified greedy rows of this slot's passes.
            slot.state_mut().set_argmax_only(w.sampler.is_greedy());
            if tel::enabled() {
                tel::metrics::counter_add(
                    "serve.slot_reuse",
                    self.pool.reuse_count() - reuses_before,
                );
            }
            if let Some(table) = B::slot_table_mut(slot.state_mut()) {
                debug_assert!(table.is_empty(), "pooled paged slot came back unstripped");
                for b in chain {
                    table.push_block(b);
                }
                table.set_len(matched);
            }
            self.stats.prefix_hit_tokens += matched as u64;
            if tel::enabled() && matched > 0 {
                tel::metrics::counter_add("serve.prefix_hit_tokens", matched as u64);
            }
            let prefix_hit = matched as u32;
            let event = if fresh {
                self.admission_seq += 1;
                self.stats.admitted += 1;
                EventKind::Admitted { prefix_hit }
            } else {
                EventKind::Resumed { prefix_hit }
            };
            record(&mut self.recorder, self.now, w.req.id, event);
            self.active.push(Active {
                end_pos: (w.req.prompt.len() + w.req.max_new_tokens).min(self.seq_len),
                slot,
                prefilled: matched,
                logits: Vec::new(),
                refill: w.generated.len(),
                pending: None,
                draft_kv: None,
                req: w.req,
                sampler: w.sampler,
                generated: w.generated,
                admitted_at: w.admitted_at,
                first_token_at: w.first_token_at,
                admission_seq: w.admission_seq,
                token_ticks: w.token_ticks,
            });
        }
    }

    /// Grants the blocks `w`'s context needs: the tokens of it the
    /// radix prefix index already holds, and the block chain to install
    /// (prefix-hit blocks first). A flat backend has no block budget —
    /// nothing matches and nothing is needed. `None` when the arena cannot
    /// host the context even after evicting cold cache entries.
    fn grant_context(&mut self, w: &Waiting) -> Option<(usize, Vec<BlockId>)> {
        let Some(paged) = self.paged.as_mut() else {
            return Some((0, Vec::new()));
        };
        let ctx = w.context();
        let bs = paged.alloc.block_size();
        // Cap the usable prefix one token short of the context, so at
        // least one token is actually prefilled and yields logits.
        let cap = (ctx.len() - 1) / bs * bs;
        let mut chain = paged.radix.lookup(&ctx, cap);
        for &b in &chain {
            paged.alloc.retain(b);
        }
        let matched = chain.len() * bs;
        let new_needed = ctx.len().div_ceil(bs) - chain.len();
        let mut evicted: Vec<BlockId> = Vec::new();
        if paged.alloc.free_blocks() < new_needed {
            let short = new_needed - paged.alloc.free_blocks();
            evicted = paged.radix.evict(short, &mut paged.alloc);
        }
        let enough = paged.alloc.free_blocks() >= new_needed;
        self.note_cache_eviction(w.req.id, &evicted);
        if !enough {
            // Undo the prefix retains; the tree still holds them.
            self.release_blocks(chain);
            return None;
        }
        let paged = self.paged.as_mut().expect("paged admission");
        chain.extend((0..new_needed).map(|_| paged.alloc.alloc().expect("free blocks checked")));
        Some((matched, chain))
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::tests::{cpu_engine, cpu_paged_engine, drain, req};

    #[test]
    fn paged_engine_matches_flat_engine() {
        // The same admission and capacity walk with and without a block
        // budget: block tables, prefix hits and grants may move ticks,
        // never a token.
        let mut flat = cpu_engine(2);
        let mut paged = cpu_paged_engine(2, 4, 16);
        for i in 0..5u64 {
            let r = req(i, vec![1, 3 + i as u32, 7, 9 + i as u32], 6, 40 + i);
            flat.submit(r.clone()).unwrap();
            paged.submit(r).unwrap();
        }
        let mut a = drain(&mut flat);
        let mut b = drain(&mut paged);
        a.sort_by_key(|c| c.id);
        b.sort_by_key(|c| c.id);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tokens, y.tokens, "paged KV changed request {}", x.id);
        }
        paged.check_paged_invariants().unwrap();
        assert!(paged.all_slots_free());
        assert!(paged.stats().peak_blocks_in_use > 0);
    }

    #[test]
    fn shared_prefix_hits_the_radix_cache() {
        let shared = vec![1u32, 11, 12, 13, 14, 15, 16, 17]; // two full blocks
        let mut paged = cpu_paged_engine(2, 4, 16);
        let mut flat = cpu_engine(2);
        for i in 0..3u64 {
            let mut prompt = shared.clone();
            prompt.push(30 + i as u32);
            let r = req(i, prompt, 5, 90 + i);
            flat.submit(r.clone()).unwrap();
            paged.submit(r).unwrap();
        }
        let mut a = drain(&mut flat);
        let mut b = drain(&mut paged);
        a.sort_by_key(|c| c.id);
        b.sort_by_key(|c| c.id);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tokens, y.tokens, "prefix reuse changed request {}", x.id);
        }
        assert!(
            paged.stats().prefix_hit_tokens >= 8,
            "later requests must reuse the shared prefix, got {}",
            paged.stats().prefix_hit_tokens
        );
        paged.check_paged_invariants().unwrap();
        // The prefix stays cached for future traffic.
        assert!(paged.blocks_cached() >= 2);
    }
}
