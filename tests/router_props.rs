//! Property tests (speedllm-testkit) over the cluster router: for random
//! workloads × routing policies × replica counts × fault plans, every
//! request completes exactly once, no routing decision ever targets a
//! downed replica, faulted runs emit token streams bit-identical to
//! no-fault runs, round-robin rotation is deterministic, and the cluster
//! report renders byte-identical across double runs.

use speedllm_testkit::prelude::*;

use speedllm::llama::config::ModelConfig;
use speedllm::llama::forward::Transformer;
use speedllm::llama::rng::Xoshiro256;
use speedllm::llama::sampler::SamplerKind;
use speedllm::llama::tokenizer::TOKEN_BOS;
use speedllm::llama::weights::TransformerWeights;
use speedllm::pagedkv::BlockConfig;
use speedllm::router::{Cluster, ClusterConfig, FaultPlan, Policy, RouteReason};
use speedllm::serve::{CpuBackend, Request, ServeConfig, ServeEngine, TrafficSource};

/// A pre-generated arrival list as a [`TrafficSource`]: deterministic
/// cluster-tick arrivals, independent of router behavior.
struct ListSource {
    pending: std::collections::VecDeque<Request>,
}

impl ListSource {
    fn new(mut reqs: Vec<Request>) -> Self {
        reqs.sort_by_key(|r| (r.arrival, r.id));
        Self {
            pending: reqs.into(),
        }
    }
}

impl TrafficSource for ListSource {
    fn poll(&mut self, now: u64, _outstanding: usize, room: usize) -> Vec<Request> {
        let mut due = Vec::new();
        while due.len() < room {
            if self.pending.front().is_none_or(|r| r.arrival > now) {
                break;
            }
            due.push(self.pending.pop_front().expect("checked above"));
        }
        due
    }

    fn next_arrival(&self, _outstanding: usize) -> Option<u64> {
        self.pending.front().map(|r| r.arrival)
    }

    fn is_exhausted(&self) -> bool {
        self.pending.is_empty()
    }
}

/// Identical paged CPU replicas (same synthetic weights, so any replica
/// serves any request identically — the cluster analogue of identical
/// devices behind a load balancer).
fn replicas(n: usize) -> Vec<ServeEngine<CpuBackend>> {
    let cfg = ModelConfig::test_tiny();
    (0..n)
        .map(|_| {
            let model = Transformer::new(TransformerWeights::synthetic(cfg, 42));
            let bc = BlockConfig {
                block_size: 2,
                n_blocks: 2 * cfg.seq_len.div_ceil(2),
            };
            ServeEngine::new(
                CpuBackend::new_paged(model, bc),
                ServeConfig {
                    slots: bc.n_blocks,
                    max_batch: 4,
                    prefill_chunk: 4,
                    queue_cap: 64,
                    unified: None,
                },
            )
        })
        .collect()
}

/// A random workload with spread-out arrivals; about half the prompts
/// share a 4-token prefix so the radix caches (and the prefix policy)
/// have something to hit. Greedy when `greedy`, else per-request seeded
/// temperature sampling.
fn workload(seed: u64, n: usize, greedy: bool) -> Vec<Request> {
    let cfg = ModelConfig::test_tiny();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let shared: Vec<u32> = (0..3)
        .map(|_| 3 + rng.below(cfg.vocab_size as u64 - 3) as u32)
        .collect();
    (0..n as u64)
        .map(|id| {
            let mut prompt = vec![TOKEN_BOS];
            if rng.below(2) == 0 {
                prompt.extend_from_slice(&shared);
            }
            let extra = 1 + rng.below(3) as usize;
            for _ in 0..extra {
                prompt.push(3 + rng.below(cfg.vocab_size as u64 - 3) as u32);
            }
            Request {
                id,
                prompt,
                max_new_tokens: rng.below(6) as usize,
                stop_at_eos: true,
                sampler: if greedy {
                    SamplerKind::Argmax
                } else {
                    SamplerKind::Temperature(0.8)
                },
                seed: rng.next_u64(),
                arrival: rng.below(24),
            }
        })
        .collect()
}

fn policy_of(k: u64) -> Policy {
    match k % 3 {
        0 => Policy::Prefix,
        1 => Policy::LeastLoaded,
        _ => Policy::RoundRobin,
    }
}

/// Builds, runs, and returns the cluster for one configuration.
fn run_cluster(
    n_replicas: usize,
    policy: Policy,
    faults: Vec<FaultPlan>,
    cap: usize,
    seed: u64,
    n: usize,
    greedy: bool,
) -> Cluster<CpuBackend> {
    let mut cluster = Cluster::new(
        replicas(n_replicas),
        ClusterConfig {
            policy,
            max_outstanding_tokens: cap,
            faults,
        },
    );
    let mut source = ListSource::new(workload(seed, n, greedy));
    cluster.run(&mut source);
    cluster
}

props! {
    #![config(cases = 64)]

    fn exactly_once_across_policies_replicas_and_faults(
        n in 1usize..10,
        n_replicas in 1usize..5,
        policy_k in any_u64(),
        seed in any_u64(),
        with_fault in any_bool(),
    ) {
        let policy = policy_of(policy_k);
        // A fault window over a random replica; single-replica clusters
        // get a finite outage (the cluster must be servable again).
        let faults = if with_fault {
            let down = 2 + seed % 20;
            let replica = (seed >> 8) as usize % n_replicas;
            if n_replicas == 1 {
                vec![FaultPlan { replica, down_tick: down, up_tick: down + 6 }]
            } else {
                vec![FaultPlan::down_forever(replica, down)]
            }
        } else {
            Vec::new()
        };
        let cluster = run_cluster(n_replicas, policy, faults.clone(), usize::MAX, seed, n, false);
        let mut ids: Vec<u64> = cluster.completions().iter().map(|c| c.completion.id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids.len(), n, "a request was lost or duplicated");
        for (i, id) in ids.iter().enumerate() {
            prop_assert_eq!(*id, i as u64, "ids must cover 0..n exactly once");
        }
        // No routing decision may target a replica inside its outage.
        for d in cluster.decisions() {
            for f in &faults {
                let downed = usize::from(d.replica) == f.replica
                    && d.tick >= f.down_tick
                    && d.tick < f.up_tick;
                prop_assert!(!downed, "req {} routed to downed replica {} at tick {}",
                    d.req, d.replica, d.tick);
            }
        }
        // Completions never come from a replica while it is down either.
        for c in cluster.completions() {
            for f in &faults {
                let downed = usize::from(c.replica) == f.replica
                    && c.finished >= f.down_tick
                    && c.finished < f.up_tick;
                prop_assert!(!downed, "req {} completed on downed replica", c.completion.id);
            }
        }
    }

    fn faulted_streams_match_the_no_fault_oracle(
        n in 2usize..9,
        n_replicas in 2usize..5,
        policy_k in any_u64(),
        seed in any_u64(),
    ) {
        let policy = policy_of(policy_k);
        let down = 2 + seed % 16;
        let fault = FaultPlan::down_forever((seed >> 8) as usize % n_replicas, down);
        // Greedy sampling per the acceptance bar; the equivalence in fact
        // holds for any per-request seeded sampler.
        let faulted = run_cluster(n_replicas, policy, vec![fault], usize::MAX, seed, n, true);
        let oracle = run_cluster(n_replicas, policy, Vec::new(), usize::MAX, seed, n, true);
        let streams = |c: &Cluster<CpuBackend>| {
            let mut v: Vec<(u64, Vec<u32>)> = c
                .completions()
                .iter()
                .map(|c| (c.completion.id, c.completion.tokens.clone()))
                .collect();
            v.sort_by_key(|(id, _)| *id);
            v
        };
        prop_assert_eq!(streams(&faulted), streams(&oracle),
            "failover changed a token stream");
        // Nothing completes on the dead replica after its outage starts.
        for c in faulted.completions() {
            prop_assert!(
                usize::from(c.replica) != fault.replica || c.finished < down,
                "req {} completed on the dead replica", c.completion.id
            );
        }
    }

    fn double_runs_render_byte_identical_reports(
        n in 1usize..8,
        n_replicas in 1usize..4,
        policy_k in any_u64(),
        seed in any_u64(),
        cap in 12usize..64,
    ) {
        let policy = policy_of(policy_k);
        let a = run_cluster(n_replicas, policy, Vec::new(), cap, seed, n, false);
        let b = run_cluster(n_replicas, policy, Vec::new(), cap, seed, n, false);
        prop_assert_eq!(a.report().render(), b.report().render(),
            "cluster report must be byte-identical run to run");
        // Round-robin rotation must replay the exact same decision
        // sequence (and actually rotate when several replicas exist).
        if policy == Policy::RoundRobin {
            let seq = |c: &Cluster<CpuBackend>| -> Vec<(u64, u16)> {
                c.decisions().iter().map(|d| (d.req, d.replica)).collect()
            };
            prop_assert_eq!(seq(&a), seq(&b), "round-robin decisions must be deterministic");
            for d in a.decisions() {
                prop_assert!(matches!(d.reason, RouteReason::RoundRobin));
            }
        }
    }
}

#[test]
fn prefix_policy_routes_shared_prefixes_to_the_warm_replica() {
    // One warm replica: a long shared prefix, requests trickling in so
    // earlier completions populate the radix cache before later
    // placements are decided.
    let cfg = ModelConfig::test_tiny();
    let mut rng = Xoshiro256::seed_from_u64(7);
    let shared: Vec<u32> = (0..6)
        .map(|_| 3 + rng.below(cfg.vocab_size as u64 - 3) as u32)
        .collect();
    let reqs: Vec<Request> = (0..6u64)
        .map(|id| {
            let mut prompt = vec![TOKEN_BOS];
            prompt.extend_from_slice(&shared);
            prompt.push(3 + rng.below(cfg.vocab_size as u64 - 3) as u32);
            Request {
                id,
                prompt,
                max_new_tokens: 3,
                stop_at_eos: true,
                sampler: SamplerKind::Argmax,
                seed: 11 + id,
                arrival: id * 40, // strictly serial: each sees the last one's cache
            }
        })
        .collect();
    let mut cluster = Cluster::new(
        replicas(3),
        ClusterConfig {
            policy: Policy::Prefix,
            ..ClusterConfig::default()
        },
    );
    let mut source = ListSource::new(reqs);
    cluster.run(&mut source);
    assert_eq!(cluster.completions().len(), 6);
    let stats = cluster.router_stats();
    assert!(
        stats.routed_prefix >= 4,
        "later requests should chase the warm cache (prefix decisions: {})",
        stats.routed_prefix
    );
    // Every post-warmup placement should land on the same replica.
    let homes: Vec<u16> = cluster.decisions().iter().map(|d| d.replica).collect();
    assert!(
        homes[1..].iter().all(|&r| r == homes[0]),
        "shared-prefix requests scattered: {homes:?}"
    );
    assert!(stats.prefix_hit_tokens_at_placement > 0);
}

#[test]
fn merged_event_log_carries_replica_stamps_and_analyzes() {
    let mut cluster = Cluster::new(
        replicas(2),
        ClusterConfig {
            policy: Policy::RoundRobin,
            ..ClusterConfig::default()
        },
    );
    cluster.attach_recorders();
    let mut source = ListSource::new(workload(99, 6, true));
    cluster.run(&mut source);
    let events = cluster.take_events();
    assert!(!events.is_empty());
    assert!(events.iter().all(|e| e.replica.is_some()));
    let used: std::collections::BTreeSet<u16> = events.iter().filter_map(|e| e.replica).collect();
    assert!(used.len() >= 2, "round-robin over 2 replicas must use both");
    let jsonl: String = events.iter().map(|e| e.to_json() + "\n").collect();
    let parsed = speedllm::serve::parse_events_jsonl(&jsonl).unwrap();
    assert_eq!(
        parsed, events,
        "replica stamps must round-trip through JSONL"
    );
    let text =
        speedllm::serve::render_analysis(&parsed, &speedllm::serve::AnalyzeOptions::default());
    assert!(text.contains("phase breakdown by replica"));
    assert!(text.contains("replica 0 —"));
    assert!(text.contains("replica 1 —"));
}
