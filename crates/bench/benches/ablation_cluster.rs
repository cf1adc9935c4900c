//! Ablation bench for the **cluster router** (extension beyond the
//! paper, DESIGN.md §17): serves the same seeded open-loop shared-prefix
//! workload through clusters of 1, 2, 4, and 8 replicas at an *equal
//! per-replica KV budget*, reporting aggregate throughput and TTFT p99
//! on the cluster clock. A second table pins the replica count and
//! compares prefix-cache-aware placement against blind round-robin: the
//! shared prompt prefix concentrates on one warm replica under the
//! prefix policy, so placement-time cache hits rise and TTFT falls while
//! the emitted token streams stay bit-identical (seeded per-request
//! samplers). JSONL rows are stamped with `replicas` and `policy`.

use speedllm_bench::harness::{is_smoke, Runner};
use speedllm_llama::config::ModelConfig;
use speedllm_llama::forward::Transformer;
use speedllm_llama::sampler::SamplerKind;
use speedllm_llama::weights::TransformerWeights;
use speedllm_pagedkv::BlockConfig;
use speedllm_router::{Cluster, ClusterConfig, Policy};
use speedllm_serve::{ArrivalMode, CpuBackend, LoadGen, LoadGenConfig, ServeConfig, ServeEngine};
use std::hint::black_box;

/// Open-loop workload where every prompt opens with `shared` common
/// tokens before its unique tail — arrivals are independent of the
/// cluster, so replica counts compare on the same offered load.
fn workload(cfg: ModelConfig, n_requests: usize, shared: usize) -> LoadGenConfig {
    LoadGenConfig {
        n_requests,
        // Dense enough to saturate a single replica: replica scaling then
        // shows up as queue-wait (TTFT) relief, not just idle capacity.
        mode: ArrivalMode::Open {
            mean_interarrival: 1,
        },
        prompt_len: (shared + 2, shared + 4),
        shared_prefix_len: shared,
        max_new_tokens: (2, 6),
        sampler: SamplerKind::Temperature(0.8),
        stop_at_eos: true,
        vocab_size: cfg.vocab_size,
        seq_len: cfg.seq_len,
        seed: 42,
    }
}

/// `n_replicas` identical paged CPU replicas, each with the same KV
/// budget (`flat_slots * seq_len` tokens as a block arena).
fn replicas(
    cfg: ModelConfig,
    n_replicas: usize,
    flat_slots: usize,
    block_size: usize,
) -> Vec<ServeEngine<CpuBackend>> {
    let bc = BlockConfig {
        block_size,
        n_blocks: flat_slots * cfg.seq_len.div_ceil(block_size),
    };
    (0..n_replicas)
        .map(|_| {
            let model = Transformer::new(TransformerWeights::synthetic(cfg, 42));
            // One cluster tick = one batch step per replica, so replica
            // scaling only shows on the cluster clock when a single
            // round's capacity is small relative to the offered load.
            ServeEngine::new(
                CpuBackend::new_paged(model, bc),
                ServeConfig {
                    slots: bc.n_blocks,
                    max_batch: 2,
                    prefill_chunk: 2,
                    queue_cap: 64,
                    unified: None,
                },
            )
        })
        .collect()
}

fn cluster_once(
    cfg: ModelConfig,
    n_replicas: usize,
    policy: Policy,
    cap: usize,
    flat_slots: usize,
    block_size: usize,
    lcfg: &LoadGenConfig,
) -> Cluster<CpuBackend> {
    let mut cluster = Cluster::new(
        replicas(cfg, n_replicas, flat_slots, block_size),
        ClusterConfig {
            policy,
            max_outstanding_tokens: cap,
            ..ClusterConfig::default()
        },
    );
    cluster.run(&mut LoadGen::new(lcfg));
    cluster
}

/// Mean arrival→first-token latency in cluster ticks.
fn mean_ttft(cluster: &Cluster<CpuBackend>) -> f64 {
    let (sum, n) = cluster
        .completions()
        .iter()
        .filter_map(|c| c.first_token.map(|ft| ft.saturating_sub(c.arrival)))
        .fold((0u64, 0u64), |(s, n), t| (s + t, n + 1));
    sum as f64 / (n as f64).max(1.0)
}

/// A backpressure cap of about two max-size requests per replica: under
/// it, overload waits at the *router*, where queueing is visible in
/// cluster ticks — that is what the replica-scaling table measures.
const TIGHT_CAP: usize = 28;

fn print_ablation() {
    let (cfg, n, shared, bs) = if is_smoke() {
        (ModelConfig::test_tiny(), 24, 8, 4)
    } else {
        (ModelConfig::stories260k(), 48, 12, 4)
    };
    let flat_slots = 2;
    println!(
        "--- cluster scaling ablation ({cfg}, {n} requests, shared prefix {shared}, \
         KV budget = {flat_slots} x seq_len per replica) ---"
    );
    let lcfg = workload(cfg, n, shared);
    for n_replicas in [1usize, 2, 4, 8] {
        let r = cluster_once(
            cfg,
            n_replicas,
            Policy::Prefix,
            TIGHT_CAP,
            flat_slots,
            bs,
            &lcfg,
        )
        .report();
        println!(
            "replicas {n_replicas}: {:>8.3} tok/ktick, ttft p99 {:>4} ticks, \
             e2e p99 {:>4} ticks, prefix hits {:>4.1}%",
            r.tokens as f64 / (r.makespan as f64).max(1.0) * 1000.0,
            r.ttft.p99,
            r.e2e.p99,
            r.router.prefix_hit_rate() * 100.0,
        );
    }
    // The policy comparison runs uncapped at a gentler arrival rate and
    // a wide cluster: with headroom everywhere the router has a genuine
    // choice, so prefix placement pays ONE cold prefill and then chases
    // the single warm replica, while round-robin pays a cold prefill per
    // replica it scatters the shared prefix across.
    println!("--- placement policy at 8 replicas (uncapped, mean gap 4) ---");
    let light = LoadGenConfig {
        mode: ArrivalMode::Open {
            mean_interarrival: 4,
        },
        ..lcfg
    };
    let mut digests = Vec::new();
    for policy in [Policy::Prefix, Policy::LeastLoaded, Policy::RoundRobin] {
        let c = cluster_once(cfg, 8, policy, usize::MAX, flat_slots, bs, &light);
        let r = c.report();
        digests.push(r.digest);
        println!(
            "{:<13} ttft mean {:>4.1} / p95 {:>3} ticks, prefix hits {:>4.1}%",
            format!("{policy}:"),
            mean_ttft(&c),
            r.ttft.p95,
            r.router.prefix_hit_rate() * 100.0,
        );
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "routing policy must not change the emitted token streams"
    );
    println!("-----------------------------------------------------------------------");
}

fn bench_cluster(c: &mut Runner) {
    print_ablation();
    let cfg = ModelConfig::test_tiny();
    let lcfg = workload(cfg, 12, 4);
    for n_replicas in [1usize, 2, 4, 8] {
        c.set_meta("replicas", &n_replicas.to_string());
        c.set_meta("policy", "prefix");
        c.bench_function(&format!("ablation/cluster_replicas_{n_replicas}"), |b| {
            b.iter(|| {
                black_box(
                    cluster_once(cfg, n_replicas, Policy::Prefix, TIGHT_CAP, 2, 4, &lcfg)
                        .report()
                        .tokens,
                )
            })
        });
    }
    for policy in [Policy::Prefix, Policy::RoundRobin] {
        c.set_meta("replicas", "8");
        c.set_meta("policy", policy.name());
        c.bench_function(
            &format!(
                "ablation/cluster_policy_{}",
                policy.name().replace('-', "_")
            ),
            |b| {
                b.iter(|| {
                    black_box(
                        cluster_once(cfg, 8, policy, usize::MAX, 2, 4, &lcfg)
                            .report()
                            .tokens,
                    )
                })
            },
        );
    }
}

fn main() {
    let mut c = Runner::from_env().sample_size(10);
    bench_cluster(&mut c);
    c.finish();
}
