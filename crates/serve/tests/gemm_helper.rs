//! The walk's helper thread (`speedllm_llama::cores`) against the serial
//! walk it splits. On a stories15M-shaped model cut to two layers, where
//! every GEMM splits, each pass runs twice: with the helper, and with its
//! spawn refused, which is the serial walk. Every logit must agree bit for
//! bit — every `LogitRows`, flat and paged KV, f32, int8 and int4, through
//! the CPU backend and the accelerator engine. A second set of passes, with
//! contexts long enough that attention splits too, checks the walk with
//! its attention heads on both cores in decode, prefill-chunk and mixed
//! run shapes.

use std::sync::Arc;

use speedllm_accel::{Engine, OptConfig};
use speedllm_llama::config::ModelConfig;
use speedllm_llama::cores::with_spawn_refused;
use speedllm_llama::forward::{LogitRows, Transformer};
use speedllm_llama::kv_cache::KvBatch;
use speedllm_llama::resident::IntoResident;
use speedllm_llama::{QuantMode, ResidentWeights, TransformerWeights};
use speedllm_pagedkv::{BlockAllocator, BlockConfig, KvSpace, SeqKv};
use speedllm_serve::{ArgmaxSlot, Backend, CpuBackend, ServeSlot};
use speedllm_telemetry as tel;

const BLOCKS: BlockConfig = BlockConfig {
    block_size: 16,
    n_blocks: 8,
};

/// Two passes over three sequences: prefill-shaped runs, then
/// decode-shaped ones.
const PASSES: [[&[u32]; 3]; 2] = [
    [&[5, 9, 13, 2, 7], &[31_000, 4, 8], &[77]],
    [&[1], &[2], &[3, 4]],
];

const ROWS: [LogitRows; 4] = [
    LogitRows::Last,
    LogitRows::All,
    LogitRows::Greedy,
    LogitRows::None,
];

fn config() -> ModelConfig {
    ModelConfig {
        n_layers: 2,
        ..ModelConfig::stories15m()
    }
}

/// Where a pass runs.
#[derive(Clone, Copy, Debug)]
enum Via {
    /// The CPU backend: its verbs for `Last`, `All` and `Greedy` (slots
    /// marked argmax-only), and for `None`, which no verb asks for, the
    /// walk call its verbs make over a `KvSpace`.
    Cpu,
    /// `accel::Engine::forward_runs`.
    Engine,
}

/// Every logit of `PASSES` over fresh sequences.
fn passes(weights: &Arc<ResidentWeights>, via: Via, paged: bool, rows: LogitRows) -> Vec<f32> {
    let cfg = config();
    let blocks = paged.then_some(BLOCKS);
    let mut alloc = BlockAllocator::new(BLOCKS);
    let mut grant = |mut seq: SeqKv| {
        if let Some(table) = seq.table_mut() {
            table.push_block(alloc.alloc().expect("a free block"));
        }
        seq
    };
    let model = || Transformer::with_weights(Arc::clone(weights));
    let mut logits = Vec::new();
    match (via, rows) {
        (Via::Cpu, LogitRows::Last | LogitRows::All | LogitRows::Greedy) => {
            let mut backend = match blocks {
                Some(b) => CpuBackend::new_paged(model(), b),
                None => CpuBackend::new(model()),
            };
            let mut seqs: Vec<ServeSlot> = (0..3)
                .map(|_| {
                    let mut slot = backend.new_slot();
                    slot.kv = grant(slot.kv);
                    slot.set_argmax_only(rows == LogitRows::Greedy);
                    slot
                })
                .collect();
            for runs in PASSES {
                let mut slots: Vec<&mut ServeSlot> = seqs.iter_mut().collect();
                let (out, _) = if rows == LogitRows::All {
                    backend.verify(&mut slots, &runs)
                } else {
                    backend.forward_mixed(&mut slots, &runs)
                };
                logits.extend(out.concat());
            }
        }
        (Via::Cpu, _) => {
            let mut model = model();
            let mut space = KvSpace::new(&cfg, blocks);
            let mut seqs: Vec<SeqKv> = (0..3).map(|_| grant(space.new_seq())).collect();
            for runs in PASSES {
                let mut slots: Vec<&mut SeqKv> = seqs.iter_mut().collect();
                let starts: Vec<usize> = slots.iter().map(|s| s.len()).collect();
                let counts: Vec<usize> = runs.iter().map(|r| r.len()).collect();
                let mut kv = space.batch(&mut slots);
                let out = model.forward_runs(&mut kv, &runs.concat(), &counts, &starts, rows);
                logits.extend_from_slice(out);
            }
        }
        (Via::Engine, _) => {
            let opt = match weights.mode() {
                QuantMode::F32 => OptConfig::full(),
                QuantMode::Int8 => OptConfig::full_int8(),
                QuantMode::Int4 => OptConfig::full_int4(),
            };
            let mut engine = Engine::new(Arc::clone(weights), opt).expect("engine builds");
            let mut space = KvSpace::new(&cfg, blocks);
            let mut seqs: Vec<SeqKv> = (0..3).map(|_| grant(space.new_seq())).collect();
            for runs in PASSES {
                let mut slots: Vec<&mut SeqKv> = seqs.iter_mut().collect();
                let (out, _) = engine.forward_runs(&mut space.batch(&mut slots), &runs, rows);
                logits.extend(out.concat());
            }
        }
    }
    logits
}

/// The value of telemetry counter `name`, 0 before its first add.
fn counter(name: &str) -> u64 {
    let snap = tel::metrics::snapshot();
    let found = snap.counters.iter().find(|(k, _)| *k == name);
    found.map_or(0, |&(_, v)| v)
}

fn helper_rows() -> u64 {
    counter("cpu.gemm_helper_rows")
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every `Via` × layout × `LogitRows` cell at `mode`: the helper's walk
/// against the serial one.
fn helper_walks_match_serial_walks(mode: QuantMode) {
    // Telemetry is process-global and every test here only adds to the
    // counter, so each reads its own growth as "at least".
    tel::set_enabled(true);
    let weights = TransformerWeights::synthetic(config(), 42).into_resident(mode);
    let before = helper_rows();
    for via in [Via::Cpu, Via::Engine] {
        for paged in [false, true] {
            for rows in ROWS {
                let case = format!("{mode:?} {via:?} paged {paged} {rows:?}");
                let serial = with_spawn_refused(|| passes(&weights, via, paged, rows));
                let split = passes(&weights, via, paged, rows);
                assert_eq!(split.len(), serial.len(), "{case}");
                assert!(
                    bits(&split) == bits(&serial),
                    "{case}: the split walk moved a logit"
                );
            }
        }
    }
    let two_cores = std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2);
    if two_cores {
        assert!(
            helper_rows() > before,
            "{mode:?}: the helper never ran a job"
        );
    }
}

#[test]
fn f32_helper_walks_match_serial_walks() {
    helper_walks_match_serial_walks(QuantMode::F32);
}

#[test]
fn int8_helper_walks_match_serial_walks() {
    helper_walks_match_serial_walks(QuantMode::Int8);
}

#[test]
fn int4_helper_walks_match_serial_walks() {
    helper_walks_match_serial_walks(QuantMode::Int4);
}

/// Passes over four sequences whose attention work passes the split
/// bound: a 48-token prefill in three 16-token chunks each (prefill-chunk
/// shape), a decode row each, then decode rows beside a chunk (mixed).
fn attention_passes() -> Vec<Vec<Vec<u32>>> {
    let tokens =
        |seq: u32, from: u32, n: u32| (from..from + n).map(move |t| (seq * 977 + t * 31) % 32_000);
    let mut passes: Vec<Vec<Vec<u32>>> = (0..3)
        .map(|c| {
            (0..4)
                .map(|seq| tokens(seq, 16 * c, 16).collect())
                .collect()
        })
        .collect();
    passes.push((0..4).map(|seq| tokens(seq, 48, 1).collect()).collect());
    passes.push(vec![
        vec![7],
        tokens(1, 49, 12).collect(),
        vec![9],
        vec![11],
    ]);
    passes
}

/// Every logit of [`attention_passes`] over fresh sequences, scored
/// `Last`, through the CPU walk or the engine, flat or paged.
fn attention_walk(weights: &Arc<ResidentWeights>, via: Via, paged: bool) -> Vec<f32> {
    let cfg = config();
    let blocks = BlockConfig {
        block_size: 16,
        n_blocks: 24,
    };
    let mut space = KvSpace::new(&cfg, paged.then_some(blocks));
    let mut alloc = BlockAllocator::new(blocks);
    let mut seqs: Vec<SeqKv> = (0..4)
        .map(|_| {
            let mut seq = space.new_seq();
            if let Some(table) = seq.table_mut() {
                for _ in 0..5 {
                    table.push_block(alloc.alloc().expect("a free block"));
                }
            }
            seq
        })
        .collect();
    let mut model = Transformer::with_weights(Arc::clone(weights));
    let mut engine = matches!(via, Via::Engine)
        .then(|| Engine::new(Arc::clone(weights), OptConfig::full_int8()).expect("engine builds"));
    let mut logits = Vec::new();
    for pass in attention_passes() {
        let runs: Vec<&[u32]> = pass.iter().map(Vec::as_slice).collect();
        let mut slots: Vec<&mut SeqKv> = seqs.iter_mut().collect();
        let mut kv = space.batch(&mut slots);
        if let Some(engine) = engine.as_mut() {
            let (out, _) = engine.forward_runs(&mut kv, &runs, LogitRows::Last);
            logits.extend(out.concat());
        } else {
            let starts: Vec<usize> = (0..runs.len()).map(|i| kv.kv_len(i)).collect();
            let counts: Vec<usize> = runs.iter().map(|r| r.len()).collect();
            let out =
                model.forward_runs(&mut kv, &runs.concat(), &counts, &starts, LogitRows::Last);
            logits.extend_from_slice(out);
        }
    }
    logits
}

#[test]
fn attention_on_the_helper_matches_serial_walks() {
    tel::set_enabled(true);
    let weights = TransformerWeights::synthetic(config(), 43).into_resident(QuantMode::Int8);
    let before = counter("cpu.helper_items");
    for via in [Via::Cpu, Via::Engine] {
        for paged in [false, true] {
            let case = format!("{via:?} paged {paged}");
            let serial = with_spawn_refused(|| attention_walk(&weights, via, paged));
            let split = attention_walk(&weights, via, paged);
            assert_eq!(split.len(), serial.len(), "{case}");
            assert!(
                bits(&split) == bits(&serial),
                "{case}: attention on the helper moved a logit"
            );
        }
    }
    let two_cores = std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2);
    if two_cores {
        assert!(
            counter("cpu.helper_items") > before,
            "the helper never ran an attention item"
        );
    }
}
