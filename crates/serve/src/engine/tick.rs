//! The forward half of a tick: sample, propose, plan, issue, settle.
//!
//! A tick's work is a list of [`Pass`]es; each pass is one
//! weight-streaming call into the [`Backend`] carrying one [`Run`] of
//! consecutive tokens per sequence. The scheduling modes differ only in
//! the passes [`ServeEngine::plan`] emits (DESIGN.md §11, "One tick").

use speedllm_accel::engine::STAGING_ROWS;
use speedllm_llama::cores;
use speedllm_llama::forward::{LogitRows, Transformer};
use speedllm_llama::kv_cache::KvCache;
use speedllm_llama::sampler::{argmax, Sampler};
use speedllm_llama::tokenizer::{TOKEN_BOS, TOKEN_EOS};
use speedllm_telemetry as tel;

use super::{record, ServeEngine};
use crate::backend::Backend;
use crate::events::EventKind;

/// Which [`Backend`] call carries a pass. A mode keeps its verb whatever
/// the pass holds — a unified tick of only decode rows is still
/// [`Verb::Mixed`] — so per-verb costs and counters do not depend on
/// traffic.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Verb {
    /// One prefill chunk of one sequence.
    Prefill,
    /// One decode row per sequence.
    Decode,
    /// Decode rows and prefill chunks together (unified mode).
    Mixed,
    /// Verify runs, every row scored (speculation).
    Verify,
}

/// What a run's logits are for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A chunk of context: only the chunk that completes the context
    /// yields logits anyone samples.
    Prefill,
    /// One sampled token; its logits feed the next sample.
    Decode,
    /// A sampled token plus draft proposals; the sampler is replayed
    /// over every row.
    Verify,
}

/// Consecutive tokens extending one sequence in one pass.
pub(super) struct Run {
    /// Index into `active`.
    seq: usize,
    tokens: Vec<u32>,
    kind: Kind,
}

/// One weight-streaming pass: at most one run per sequence, in
/// ascending `seq` order.
pub(super) struct Pass {
    pub(super) verb: Verb,
    pub(super) runs: Vec<Run>,
}

/// Appends `tokens` to the draft cache `dkv` in runs of at most
/// [`STAGING_ROWS`] that score no row: nothing samples the history's
/// logits, and by the walk's run-shape identity the cached rows are
/// those of one-token steps, bit for bit.
fn replay_draft(draft: &mut Transformer, dkv: &mut KvCache, tokens: &[u32]) {
    for chunk in tokens.chunks(STAGING_ROWS) {
        let start = dkv.len();
        let kv: &mut [&mut KvCache] = &mut [&mut *dkv];
        draft.forward_runs(kv, chunk, &[chunk.len()], &[start], LogitRows::None);
    }
}

/// `x` followed by `rows` greedy draft proposals, each forwarded into
/// `dkv` at the next position. A proposal is the argmax of a certified
/// greedy row, which is the full row's argmax bit for bit
/// ([`LogitRows::Greedy`]), so only the screen and its candidates stream.
fn draft_run(draft: &mut Transformer, dkv: &mut KvCache, x: u32, rows: usize) -> Vec<u32> {
    let mut tokens = Vec::with_capacity(rows + 1);
    tokens.push(x);
    for _ in 0..rows {
        let (cur, pos) = (tokens[tokens.len() - 1], dkv.len());
        let kv: &mut [&mut KvCache] = &mut [&mut *dkv];
        let row = draft.forward_runs(kv, &[cur], &[1], &[pos], LogitRows::Greedy);
        tokens.push(argmax(row));
    }
    tokens
}

impl<B: Backend> ServeEngine<B> {
    /// The next prefill chunk of every cold sequence, in active order,
    /// until `room` token rows are used up (the last chunk is cut to
    /// fit).
    pub(super) fn cold_runs(&self, mut room: usize) -> Vec<Run> {
        let mut runs = Vec::new();
        for (seq, a) in self.active.iter().enumerate() {
            if room == 0 {
                break;
            }
            if !a.is_cold() {
                continue;
            }
            let len = (a.ctx_len() - a.prefilled)
                .min(self.cfg.prefill_chunk)
                .min(room);
            room -= len;
            let tokens = (a.prefilled..a.prefilled + len)
                .map(|p| a.token_at(p))
                .collect();
            runs.push(Run {
                seq,
                tokens,
                kind: Kind::Prefill,
            });
        }
        runs
    }

    /// Every fresh sample of the tick, by active index: one for each warm
    /// sequence with no parked token and budget left, drawn by its own
    /// sampler from its own logits. The draws touch nothing else, so two
    /// or more that are not plain argmax (a temperature draw over
    /// stories15M takes ~0.15 ms) split over both host cores
    /// (`cores::each`); their tokens are those of the loop, in any order.
    fn draw_fresh(&mut self) -> Vec<Option<u32>> {
        let mut drawn = vec![None; self.active.len()];
        let mut draws: Vec<(&mut Option<u32>, &mut Sampler, &[f32])> = drawn
            .iter_mut()
            .zip(&mut self.active)
            .filter(|(_, a)| !a.is_cold() && a.pending.is_none() && a.hist_len() < a.end_pos)
            .map(|(tok, a)| (tok, &mut a.sampler, &a.logits[..]))
            .collect();
        let draw = |(tok, sampler, logits): &mut (&mut Option<u32>, &mut Sampler, &[f32])| {
            **tok = Some(sampler.sample(logits));
        };
        if draws.iter().filter(|(_, s, _)| !s.is_greedy()).count() >= 2 {
            cores::each(&mut draws, draw);
        } else {
            draws.iter_mut().for_each(draw);
        }
        drawn
    }

    /// One token per warm sequence — the one a previous tick parked, or a
    /// fresh sample (mirroring the single-tenant loop: sample → EOS check
    /// → emit). Returns the `(sequence, token)` decode candidates in
    /// active order and pushes the sequences that finish without a
    /// forward onto `finished`.
    pub(super) fn sample_warm(&mut self, finished: &mut Vec<usize>) -> Vec<(usize, u32)> {
        let drawn = self.draw_fresh();
        let mut candidates = Vec::new();
        for ((i, a), fresh) in self.active.iter_mut().enumerate().zip(drawn) {
            if a.is_cold() {
                continue;
            }
            if let Some(tok) = a.pending.take() {
                // Budget/EOS checks already ran when this was sampled.
                candidates.push((i, tok));
                continue;
            }
            let pos_next = a.hist_len();
            // Nothing was drawn exactly when the budget is spent.
            let Some(next) = fresh else {
                finished.push(i); // zero budget (e.g. max_new_tokens = 0)
                continue;
            };
            if a.req.stop_at_eos && (next == TOKEN_EOS || next == TOKEN_BOS) {
                finished.push(i);
                continue;
            }
            a.generated.push(next);
            a.token_ticks.push(self.now);
            if a.first_token_at.is_none() {
                a.first_token_at = Some(self.now);
                record(
                    &mut self.recorder,
                    self.now,
                    a.req.id,
                    EventKind::FirstToken,
                );
            }
            if pos_next + 1 >= a.end_pos {
                // Budget exhausted by this token; the single-tenant loop
                // would still run one last forward, but its logits are
                // never sampled — skipping it cannot change the output.
                finished.push(i);
                continue;
            }
            candidates.push((i, next));
        }
        candidates
    }

    /// Turns decode candidates into runs. Plain decode forwards the token
    /// alone; with speculation on, the draft model greedily proposes up
    /// to `k` continuations and the run becomes a verify run. Draft
    /// forwards are host-side work on a model orders of magnitude
    /// smaller than the target, so they cost zero virtual ticks; only
    /// the verify pass advances the clock.
    pub(super) fn propose(&mut self, candidates: Vec<(usize, u32)>) -> Vec<Run> {
        let mut runs = Vec::with_capacity(candidates.len());
        for (seq, x) in candidates {
            let Some(spec) = self.spec.as_mut() else {
                runs.push(Run {
                    seq,
                    tokens: vec![x],
                    kind: Kind::Decode,
                });
                continue;
            };
            let a = &mut self.active[seq];
            let n = a.hist_len() - 1; // target context before `x`
            let mut j_max = a.draft_rows(spec.k, n, self.seq_len);
            if let Some(table) = B::slot_table_mut(a.slot.state_mut()) {
                j_max = j_max.min(table.capacity_tokens().saturating_sub(n + 1));
            }
            let mut dkv = a
                .draft_kv
                .take()
                .unwrap_or_else(|| KvCache::new(spec.draft.config()));
            // Sync the draft cache to the n-token context: roll back a
            // longer cache (stale speculation), or replay the history a
            // fresh/preempted sequence is missing.
            if dkv.len() > n {
                dkv.truncate(n);
            } else {
                let missing: Vec<u32> = (dkv.len()..n).map(|p| a.token_at(p)).collect();
                replay_draft(&mut spec.draft, &mut dkv, &missing);
            }
            let tokens = draft_run(&mut spec.draft, &mut dkv, x, j_max);
            a.draft_kv = Some(dkv);
            self.stats.spec_drafted += j_max as u64;
            record(
                &mut self.recorder,
                self.now,
                a.req.id,
                EventKind::DraftTick {
                    tokens: j_max as u32,
                },
            );
            runs.push(Run {
                seq,
                tokens,
                kind: Kind::Verify,
            });
        }
        runs
    }

    /// Cuts this tick's decode/verify `runs` (and, in unified mode, the
    /// cold sequences' chunks) into passes.
    ///
    /// * Phase-serialized: groups of at most `max_batch` sequences and
    ///   [`STAGING_ROWS`] rows, decode or verify.
    /// * Unified: one mixed pass under `token_budget`. With both classes
    ///   present, `prefill_pct` of the budget is reserved for prefill
    ///   rows — capped at budget − 1 so at least one decode row always
    ///   advances — and either side's unused share flows to the other.
    ///   Decode rows the budget excludes are parked in `pending`: the
    ///   sampled token is kept, never re-sampled.
    pub(super) fn plan(&mut self, mut runs: Vec<Run>) -> Vec<Pass> {
        let Some(ucfg) = self.cfg.unified else {
            let verb = if self.spec.is_some() {
                Verb::Verify
            } else {
                Verb::Decode
            };
            let mut passes: Vec<Pass> = Vec::new();
            let mut rows = 0;
            for run in runs {
                match passes.last_mut() {
                    Some(pass)
                        if pass.runs.len() < self.cfg.max_batch
                            && rows + run.tokens.len() <= STAGING_ROWS =>
                    {
                        rows += run.tokens.len();
                        pass.runs.push(run);
                    }
                    _ => {
                        rows = run.tokens.len();
                        passes.push(Pass {
                            verb,
                            runs: vec![run],
                        });
                    }
                }
            }
            return passes;
        };
        let budget = ucfg.token_budget;
        let reserve = if !self.active.iter().any(|a| a.is_cold()) {
            0
        } else if runs.is_empty() {
            budget
        } else {
            (budget * ucfg.prefill_pct as usize / 100).min(budget - 1)
        };
        let mut deferred = runs.split_off(runs.len().min(budget - reserve));
        runs.extend(self.cold_runs(budget - runs.len()));
        // Leftover prefill budget returns to the deferred decodes.
        let used: usize = runs.iter().map(|r| r.tokens.len()).sum();
        let parked = deferred.split_off(deferred.len().min(budget - used));
        runs.extend(deferred);
        for run in parked {
            self.active[run.seq].pending = Some(run.tokens[0]);
            self.stats.deferred_decodes += 1;
        }
        if runs.is_empty() {
            return Vec::new();
        }
        runs.sort_by_key(|r| r.seq);
        vec![Pass {
            verb: Verb::Mixed,
            runs,
        }]
    }

    /// Runs one pass: the only place that gathers slots, calls the
    /// backend, advances the clock and updates counters, telemetry and
    /// events; then settles each run's result.
    pub(super) fn issue(&mut self, pass: Pass, finished: &mut Vec<usize>) {
        let count = |kind: Kind| pass.runs.iter().filter(|r| r.kind == kind).count();
        let (n_prefill, n_decode) = (count(Kind::Prefill), count(Kind::Decode));
        let n_decoding = pass.runs.len() - n_prefill; // sequences decoding or verifying
        let rows: usize = pass.runs.iter().map(|r| r.tokens.len()).sum();
        let prefill_rows: usize = pass
            .runs
            .iter()
            .filter(|r| r.kind == Kind::Prefill)
            .map(|r| r.tokens.len())
            .sum();
        let first = &self.active[pass.runs[0].seq];
        let _g = match pass.verb {
            Verb::Prefill => tel::span("serve", "prefill_chunk")
                .arg("req", first.req.id as i64)
                .arg("tokens", rows as i64),
            Verb::Decode => tel::span("serve", "decode_batch").arg("batch", n_decoding as i64),
            Verb::Verify => tel::span("serve", "verify_batch")
                .arg("batch", n_decoding as i64)
                .arg("rows", rows as i64),
            Verb::Mixed => tel::span("serve", "unified_tick")
                .arg("rows", rows as i64)
                .arg("decode", n_decode as i64)
                .arg("prefill_runs", n_prefill as i64),
        };
        let start_pos = first.prefilled;

        // Field-level borrows: `slots` borrows `self.active`, the call
        // borrows `self.backend` — disjoint.
        let mut slots: Vec<&mut B::Slot> = Vec::with_capacity(pass.runs.len());
        let mut want = pass.runs.iter().map(|r| r.seq).peekable();
        for (i, a) in self.active.iter_mut().enumerate() {
            if want.peek() == Some(&i) {
                want.next();
                slots.push(a.slot.state_mut());
            }
        }
        let runs = || -> Vec<&[u32]> { pass.runs.iter().map(|r| r.tokens.as_slice()).collect() };
        let (logits, cost) = match pass.verb {
            Verb::Prefill => {
                let chunk = &pass.runs[0].tokens;
                let (last, cost) = self.backend.prefill(&mut *slots[0], chunk, start_pos);
                (vec![last], cost)
            }
            Verb::Decode => {
                let tokens: Vec<u32> = pass.runs.iter().map(|r| r.tokens[0]).collect();
                self.backend.decode(&mut slots, &tokens)
            }
            Verb::Mixed => self.backend.forward_mixed(&mut slots, &runs()),
            Verb::Verify => self.backend.verify(&mut slots, &runs()),
        };
        drop(slots);

        self.now += cost;
        if pass.verb == Verb::Mixed {
            self.stats.mixed_ticks += 1;
            self.stats.max_tick_tokens = self.stats.max_tick_tokens.max(rows);
            if n_decode > 0 && n_prefill > 0 {
                self.stats.overlap_ticks += 1;
            }
        }
        if n_decoding > 0 {
            self.stats.decode_batches += 1;
            self.stats.max_batch_observed = self.stats.max_batch_observed.max(n_decoding);
        }
        self.stats.prefill_chunks += n_prefill as u64;
        if tel::enabled() && pass.verb != Verb::Prefill {
            tel::metrics::gauge_set("serve.batch_size", n_decoding as f64);
        }
        self.tick_decode_rows += rows - prefill_rows;
        self.tick_prefill_tokens += prefill_rows;
        if self.recorder.is_some() {
            for run in &pass.runs {
                let kind = match run.kind {
                    Kind::Prefill => EventKind::PrefillChunk {
                        tokens: run.tokens.len() as u32,
                    },
                    Kind::Decode => EventKind::DecodeTick {
                        batch: n_decode as u32,
                    },
                    // Its verify_tick is recorded at acceptance.
                    Kind::Verify => continue,
                };
                let rid = self.active[run.seq].req.id;
                record(&mut self.recorder, self.now, rid, kind);
            }
        }
        for (run, logits) in pass.runs.into_iter().zip(logits) {
            self.settle(run, logits, finished);
        }
    }

    /// Applies one run's result. Only observable logits are kept: every
    /// decode row's, and the last row of the chunk that completes a
    /// context — which also publishes the prompt's full blocks to the
    /// radix index so later requests can share them. A verify run is
    /// handed to [`ServeEngine::spec_accept`].
    fn settle(&mut self, run: Run, logits: Vec<f32>, finished: &mut Vec<usize>) {
        let a = &mut self.active[run.seq];
        match run.kind {
            Kind::Decode => a.logits = logits,
            Kind::Verify => {
                if self.spec_accept(run.seq, &run.tokens, &logits) {
                    finished.push(run.seq);
                }
            }
            Kind::Prefill => {
                a.prefilled += run.tokens.len();
                if a.is_cold() {
                    return; // mid-prefill logits are never sampled
                }
                a.logits = logits;
                let Some(paged) = &mut self.paged else {
                    return;
                };
                let bs = paged.alloc.block_size();
                let full = a.req.prompt.len() / bs;
                if full > 0 {
                    let table = B::slot_table_mut(a.slot.state_mut()).expect("paged backend");
                    paged.radix.insert(
                        &a.req.prompt[..full * bs],
                        &table.blocks()[..full],
                        &mut paged.alloc,
                    );
                }
            }
        }
    }

    /// Replays one sequence's sampler over the verified logits rows,
    /// accepting the longest prefix on which the sampler agrees with the
    /// draft, then rolls rejected rows back out of the target slot and
    /// the draft cache. Because every emitted token is chosen by the
    /// request's own sampler over logits that are bit-identical to
    /// sequential decode, the stream matches plain decode for any
    /// sampler; speculation only changes how many target weight streams
    /// those tokens cost. Returns true when the sequence finished.
    fn spec_accept(&mut self, i: usize, run: &[u32], rows: &[f32]) -> bool {
        let vocab = rows.len() / run.len();
        debug_assert_eq!(vocab, self.backend.config().vocab_size);
        let a = &mut self.active[i];
        debug_assert!(a.pending.is_none(), "the run's first token was taken");
        let n = a.hist_len() - 1;
        let mut accepted = 0u32;
        let mut fin = false;
        // Context tokens to keep after the round; everything the verify
        // pass wrote past this point is rolled back.
        let mut keep = n + run.len();
        let mut draft_keep: Option<usize> = None;
        for (j, window) in rows.chunks_exact(vocab).enumerate() {
            let y = a.sampler.sample(window);
            if a.req.stop_at_eos && (y == TOKEN_EOS || y == TOKEN_BOS) {
                fin = true;
                keep = n + j + 1;
                break;
            }
            a.generated.push(y);
            a.token_ticks.push(self.now);
            let matched = j + 1 < run.len() && y == run[j + 1];
            if matched {
                accepted += 1;
            }
            if a.hist_len() >= a.end_pos {
                fin = true;
                // A matched final token's KV row was verified; keep it.
                keep = n + j + 1 + usize::from(matched);
                break;
            }
            if !matched {
                // Mismatch — or the bonus token after a full match (the
                // last row never has a drafted successor). Either way
                // `y` is emitted but unverified: park it for next round.
                a.pending = Some(y);
                keep = n + j + 1;
                draft_keep = Some(keep);
                break;
            }
        }
        self.stats.spec_rounds += 1;
        self.stats.spec_accepted += u64::from(accepted);
        record(
            &mut self.recorder,
            self.now,
            a.req.id,
            EventKind::VerifyTick { accepted },
        );
        if let (Some(dk), Some(dkv)) = (draft_keep, a.draft_kv.as_mut()) {
            dkv.truncate(dk);
        }
        if keep < n + run.len() {
            let popped = B::truncate_slot(a.slot.state_mut(), keep);
            self.release_blocks(popped);
        }
        fin
    }
}

#[cfg(test)]
mod tests {
    use super::{draft_run, replay_draft};
    use crate::engine::tests::{
        cpu_engine, cpu_paged_engine, cpu_unified_engine, draft_model, drain, req,
    };
    use speedllm_llama::config::ModelConfig;
    use speedllm_llama::forward::Transformer;
    use speedllm_llama::kv_cache::KvCache;
    use speedllm_llama::sampler::{argmax, SamplerKind};
    use speedllm_llama::weights::TransformerWeights;

    /// A stories260K-shaped draft over a 512-token vocabulary (wide
    /// enough for the greedy screen to prune) and a 128-token window.
    fn wide_draft(seed: u64) -> Transformer {
        let target = ModelConfig {
            vocab_size: 512,
            seq_len: 128,
            ..ModelConfig::test_tiny()
        };
        let cfg = ModelConfig::draft_for(&target);
        Transformer::new(TransformerWeights::synthetic(cfg, seed))
    }

    fn history(len: usize, salt: u32) -> Vec<u32> {
        (0..len as u32).map(|p| (p * 37 + salt) % 512).collect()
    }

    #[test]
    fn chunked_draft_replay_stores_the_one_token_rows() {
        // 70 tokens: a 3-token head, then a 67-token tail that needs two
        // unscored runs (64 + 3), against 70 one-token full-row steps.
        let mut draft = wide_draft(9);
        let cfg = *draft.config();
        let tokens = history(70, 11);
        let mut replayed = KvCache::new(&cfg);
        replay_draft(&mut draft, &mut replayed, &tokens[..3]);
        replay_draft(&mut draft, &mut replayed, &tokens[3..]);
        let mut stepped = KvCache::new(&cfg);
        for (p, &t) in tokens.iter().enumerate() {
            draft.forward_with_kv(&mut stepped, t, p);
        }
        assert_eq!(replayed.len(), tokens.len());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for layer in 0..cfg.n_layers {
            for pos in 0..tokens.len() {
                assert_eq!(
                    bits(replayed.key_row(layer, pos)),
                    bits(stepped.key_row(layer, pos)),
                    "key row (layer {layer}, pos {pos})"
                );
                assert_eq!(
                    bits(replayed.value_row(layer, pos)),
                    bits(stepped.value_row(layer, pos)),
                    "value row (layer {layer}, pos {pos})"
                );
            }
        }
    }

    #[test]
    fn greedy_draft_proposals_equal_full_row_proposals() {
        for seed in [3, 9, 27] {
            let mut draft = wide_draft(seed);
            let cfg = *draft.config();
            for (len, x) in [(1, 7u32), (5, 300), (40, 511), (90, 2)] {
                let tokens = history(len, seed as u32);
                let mut dkv = KvCache::new(&cfg);
                replay_draft(&mut draft, &mut dkv, &tokens);
                let got = draft_run(&mut draft, &mut dkv, x, 16);

                let mut kv = KvCache::new(&cfg);
                for (p, &t) in tokens.iter().enumerate() {
                    draft.forward_with_kv(&mut kv, t, p);
                }
                let mut want = vec![x];
                for j in 0..16 {
                    let cur = want[j];
                    want.push(argmax(draft.forward_with_kv(&mut kv, cur, len + j)));
                }
                assert_eq!(got, want, "seed {seed}, history {len}, x {x}");
                assert_eq!(dkv.len(), kv.len());
            }
        }
    }

    #[test]
    fn unified_streams_match_legacy_engine() {
        // Two plans of the one tick loop: across tight and ample budgets
        // and prefill ratios, cutting the tokens into mixed passes must
        // emit exactly the streams of the phase-serialized plan (one
        // prefill pass per cold chunk, then decode groups), which itself
        // matches the single-tenant oracle.
        for (budget, pct) in [(1, 0), (2, 50), (4, 25), (8, 75), (64, 100)] {
            let mut legacy = cpu_engine(3);
            let mut unified = cpu_unified_engine(3, budget, pct);
            for i in 0..6u64 {
                let r = req(i, vec![1, 3 + i as u32, 9, 2 + i as u32], 8, 50 + i);
                legacy.submit(r.clone()).unwrap();
                unified.submit(r).unwrap();
            }
            let mut a = drain(&mut legacy);
            let mut b = drain(&mut unified);
            a.sort_by_key(|c| c.id);
            b.sort_by_key(|c| c.id);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(
                    x.tokens, y.tokens,
                    "unified (budget {budget}, pct {pct}) changed request {}",
                    x.id
                );
            }
            assert!(unified.stats().mixed_ticks > 0);
            assert!(unified.all_slots_free());
        }
    }

    #[test]
    fn unified_tick_overlaps_prefill_with_decode() {
        // Two early requests decode while a later one prefills: the tick
        // must carry both classes at once (the ISSUE 6 acceptance
        // telemetry), visible as overlap_ticks > 0 and a tick wider than
        // the decode batch alone.
        let mut unified = cpu_unified_engine(3, 16, 50);
        for i in 0..2u64 {
            let mut r = req(i, vec![1, 4 + i as u32], 12, 30 + i);
            r.stop_at_eos = false;
            unified.submit(r).unwrap();
        }
        // Warm the first two: admit + prefill + first decode ticks.
        unified.step();
        unified.step();
        // A long-prompt request arrives while the others are decoding.
        let mut late = req(9, vec![1, 7, 8, 9, 10, 11, 12, 13], 4, 99);
        late.stop_at_eos = false;
        unified.submit(late).unwrap();
        let _ = drain(&mut unified);
        let stats = unified.stats();
        assert!(
            stats.overlap_ticks > 0,
            "a tick must have carried prefill and decode rows together"
        );
        assert!(
            stats.max_tick_tokens > 2,
            "the mixed tick must be wider than the 2-row decode batch, got {}",
            stats.max_tick_tokens
        );
    }

    #[test]
    fn unified_budget_one_serializes_but_never_drops() {
        // token_budget = 1 forces every tick to carry exactly one row.
        // Decode always wins the split, so requests serialize — streams
        // must still match the legacy engine exactly.
        let mut legacy = cpu_engine(2);
        let mut unified = cpu_unified_engine(2, 1, 50);
        for i in 0..3u64 {
            let mut r = req(i, vec![1, 5 + i as u32, 3], 6, 80 + i);
            r.stop_at_eos = false;
            legacy.submit(r.clone()).unwrap();
            unified.submit(r).unwrap();
        }
        let mut a = drain(&mut legacy);
        let mut b = drain(&mut unified);
        a.sort_by_key(|c| c.id);
        b.sort_by_key(|c| c.id);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tokens, y.tokens, "budget=1 changed request {}", x.id);
            assert_eq!(x.tokens.len(), 6);
        }
        assert_eq!(unified.stats().max_tick_tokens, 1);
    }

    #[test]
    fn unified_tight_budget_defers_decode_rows_without_resampling() {
        // Three warm decoders through a 2-row budget: one decode row per
        // tick must be parked in `pending` and resumed later. Streams
        // must be unchanged — the parked token is never re-sampled.
        let mut legacy = cpu_engine(3);
        let mut unified = cpu_unified_engine(3, 2, 50);
        for i in 0..3u64 {
            let mut r = req(i, vec![1, 5 + i as u32], 6, 80 + i);
            r.stop_at_eos = false;
            legacy.submit(r.clone()).unwrap();
            unified.submit(r).unwrap();
        }
        let mut a = drain(&mut legacy);
        let mut b = drain(&mut unified);
        a.sort_by_key(|c| c.id);
        b.sort_by_key(|c| c.id);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tokens, y.tokens, "deferral changed request {}", x.id);
            assert_eq!(x.tokens.len(), 6);
        }
        let stats = unified.stats();
        assert!(
            stats.deferred_decodes > 0,
            "three decoders through a 2-row budget must defer"
        );
        assert!(stats.max_tick_tokens <= 2);
    }

    #[test]
    fn speculative_streams_match_plain_decode() {
        // Two plans of the one tick loop: across depths, KV shapes, and
        // samplers (greedy accepts nearly everything, temperature nearly
        // nothing), verify runs of 1 + j rows must emit exactly the
        // streams of one-row decode passes.
        for k in [1, 2, 4] {
            for paged in [false, true] {
                let (mut plain, mut spec) = if paged {
                    (cpu_paged_engine(2, 4, 16), cpu_paged_engine(2, 4, 16))
                } else {
                    (cpu_engine(2), cpu_engine(2))
                };
                spec.enable_speculative(draft_model(9), k).unwrap();
                for i in 0..5u64 {
                    let mut r = req(i, vec![1, 3 + i as u32, 7, 9 + i as u32], 8, 40 + i);
                    if i % 2 == 0 {
                        r.sampler = SamplerKind::Argmax;
                    }
                    plain.submit(r.clone()).unwrap();
                    spec.submit(r).unwrap();
                }
                let mut a = drain(&mut plain);
                let mut b = drain(&mut spec);
                a.sort_by_key(|c| c.id);
                b.sort_by_key(|c| c.id);
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(
                        x.tokens, y.tokens,
                        "speculation (k {k}, paged {paged}) changed request {}",
                        x.id
                    );
                }
                let s = spec.stats();
                assert!(s.spec_rounds > 0, "verify rounds must have run");
                assert!(s.spec_drafted > 0, "draft must have proposed tokens");
                assert!(
                    s.spec_accepted > 0,
                    "greedy requests must accept draft tokens (k {k}, paged {paged})"
                );
                spec.check_paged_invariants().unwrap();
                assert!(spec.all_slots_free());
            }
        }
    }

    #[test]
    fn speculative_survives_tight_block_budget() {
        // Same block-starved setup as the preemption test: speculative
        // rollback and preemption must compose without corrupting the
        // free list or the token streams.
        let mut plain = cpu_engine(2);
        let mut spec = cpu_paged_engine(2, 4, 9);
        spec.enable_speculative(draft_model(9), 3).unwrap();
        for i in 0..3u64 {
            let mut r = req(i, vec![1, 5 + i as u32], 20, 70 + i);
            r.stop_at_eos = false;
            r.sampler = SamplerKind::Argmax;
            plain.submit(r.clone()).unwrap();
            spec.submit(r).unwrap();
        }
        let mut a = drain(&mut plain);
        let mut b = drain(&mut spec);
        a.sort_by_key(|c| c.id);
        b.sort_by_key(|c| c.id);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tokens, y.tokens, "speculation changed request {}", x.id);
            assert_eq!(x.tokens.len(), 20, "budget must be exhausted");
        }
        spec.check_paged_invariants().unwrap();
        assert!(spec.all_slots_free());
    }

    #[test]
    fn verify_groups_are_cut_by_the_staging_row_cap() {
        // Three 4-token prompts with 27 tokens of budget at K = 31: each
        // first-round run is the sampled token plus 25 proposals, and 3 ×
        // 26 rows exceed the 64-row staging cap, so the three runs need
        // two verify passes even though `max_batch` (8) would take them
        // all. Streams still match plain decode.
        let mut plain = cpu_engine(3);
        let mut spec = cpu_engine(3);
        spec.enable_speculative(draft_model(9), 31).unwrap();
        for i in 0..3u64 {
            let mut r = req(i, vec![1, 3 + i as u32, 7, 9 + i as u32], 27, 40 + i);
            r.sampler = SamplerKind::Argmax;
            r.stop_at_eos = false;
            plain.submit(r.clone()).unwrap();
            spec.submit(r).unwrap();
        }
        // One chunk prefills a whole prompt, so the first step already
        // samples, drafts and verifies all three sequences.
        let mut b = spec.step();
        let s = spec.stats();
        assert_eq!((s.spec_rounds, s.spec_drafted), (3, 75));
        assert_eq!(s.decode_batches, 2, "78 rows must not share one pass");
        assert_eq!(s.max_batch_observed, 2);
        b.extend(drain(&mut spec));
        let mut a = drain(&mut plain);
        a.sort_by_key(|c| c.id);
        b.sort_by_key(|c| c.id);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tokens, y.tokens, "the cut changed request {}", x.id);
            assert_eq!(x.tokens.len(), 27);
        }
    }

    #[test]
    fn speculative_greedy_spends_fewer_verify_passes_than_tokens() {
        // With a greedy sampler and a strongly agreeing draft, each
        // verify round should emit more than one token on average.
        let mut spec = cpu_engine(1);
        spec.enable_speculative(draft_model(9), 4).unwrap();
        let mut r = req(0, vec![1, 4, 7], 16, 3);
        r.sampler = SamplerKind::Argmax;
        r.stop_at_eos = false;
        spec.submit(r).unwrap();
        let done = drain(&mut spec);
        assert_eq!(done[0].tokens.len(), 16);
        let s = spec.stats();
        assert!(
            s.spec_rounds < 16,
            "16 tokens should take fewer than 16 verify rounds, took {}",
            s.spec_rounds
        );
        assert!(s.spec_accepted as f64 / s.spec_drafted as f64 > 0.5);
    }
}
