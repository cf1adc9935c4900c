//! The cluster front-end: N independent [`ServeEngine`] replicas behind
//! one router queue, driven by a deterministic virtual-tick **cluster
//! clock** (DESIGN.md §17).
//!
//! One cluster tick = apply fault transitions, poll arrivals, dispatch
//! from the router queue, then step every live non-idle replica once in
//! replica-index order. Each replica keeps its own virtual clock (ticks
//! = token rows / device cycles, advancing only while it works); the
//! cluster clock counts scheduler rounds. Both are virtual, so a run is
//! a pure function of (engines, workload, config) and every report and
//! event export is byte-reproducible.
//!
//! Failover leans on a serve-layer invariant: per-request seeded
//! samplers make token streams independent of batch composition, so a
//! request drained off a dead replica and re-run from scratch elsewhere
//! emits the *same* stream a no-fault run would — which is exactly what
//! `tests/router_props.rs` asserts.

use std::collections::{BTreeMap, VecDeque};

use speedllm_serve::{
    Backend, Completion, Event, Percentiles, Request, ServeEngine, ServeReport, TrafficSource,
};

use crate::fault::FaultPlan;
use crate::policy::{Candidate, Policy, RouteReason};
use crate::report::{stream_digest, ClusterReport, RouterStats};

/// Router configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Routing policy.
    pub policy: Policy,
    /// Per-replica backpressure cap on outstanding tokens (prompt +
    /// token budget of every request routed but not yet completed).
    /// When every live replica is at its cap the head request *waits at
    /// the router* instead of piling onto a replica queue.
    pub max_outstanding_tokens: usize,
    /// Scheduled replica outages.
    pub faults: Vec<FaultPlan>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            policy: Policy::Prefix,
            max_outstanding_tokens: usize::MAX,
            faults: Vec::new(),
        }
    }
}

/// One completed request, on the cluster clock.
#[derive(Debug, Clone)]
pub struct ClusterCompletion {
    /// The replica-local completion (its timestamps are on that
    /// replica's own virtual clock).
    pub completion: Completion,
    /// Replica that finished the request.
    pub replica: u16,
    /// Cluster tick the request arrived at the router.
    pub arrival: u64,
    /// Cluster tick of the final dispatch to a replica.
    pub dispatched: u64,
    /// Cluster tick whose replica step sampled the first token.
    pub first_token: Option<u64>,
    /// Cluster tick whose replica step completed the request.
    pub finished: u64,
    /// Times the request was dispatched (1 + failovers it rode out).
    pub times_routed: u32,
}

/// One routing decision, for the property suite (e.g. "no decision ever
/// targets a downed replica").
#[derive(Debug, Clone, Copy)]
pub struct RouteDecision {
    /// Cluster tick of the decision.
    pub tick: u64,
    /// Request id.
    pub req: u64,
    /// Chosen replica.
    pub replica: u16,
    /// Why the policy chose it.
    pub reason: RouteReason,
}

/// A request waiting at the router.
struct Waiting {
    req: Request,
    /// Cluster tick the request first arrived at the router.
    arrival: u64,
    times_routed: u32,
    /// Replica a failover drained it from, if any.
    prev_replica: Option<u16>,
}

/// Router-side bookkeeping for a dispatched request.
struct InFlight {
    arrival: u64,
    dispatched: u64,
    cost: usize,
    times_routed: u32,
}

struct Replica<B: Backend> {
    engine: ServeEngine<B>,
    up: bool,
    /// Outstanding tokens routed to it (decremented on completion).
    outstanding_tokens: usize,
    /// `(cluster_tick, replica_now_after_step)` per step taken, used to
    /// map replica-clock timestamps back onto the cluster clock.
    clock_history: Vec<(u64, u64)>,
}

/// The cluster front-end. Owns the replicas and the router queue; see
/// the module docs for the tick discipline.
pub struct Cluster<B: Backend> {
    replicas: Vec<Replica<B>>,
    cfg: ClusterConfig,
    queue: VecDeque<Waiting>,
    tick: u64,
    inflight: BTreeMap<u64, InFlight>,
    completions: Vec<ClusterCompletion>,
    stats: RouterStats,
    decisions: Vec<RouteDecision>,
    rr_next: usize,
}

impl<B: Backend> Cluster<B> {
    /// Builds a cluster over `engines` (replica index = position).
    ///
    /// # Panics
    /// Panics on an empty replica set, more than `u16::MAX` replicas, or
    /// a fault plan naming a replica that does not exist.
    pub fn new(engines: Vec<ServeEngine<B>>, cfg: ClusterConfig) -> Self {
        assert!(!engines.is_empty(), "a cluster needs at least one replica");
        assert!(
            engines.len() <= usize::from(u16::MAX),
            "replica indices must fit the event stamp (u16)"
        );
        for f in &cfg.faults {
            assert!(
                f.replica < engines.len(),
                "fault plan names replica {} of {}",
                f.replica,
                engines.len()
            );
        }
        let replicas = engines
            .into_iter()
            .map(|engine| Replica {
                engine,
                up: true,
                outstanding_tokens: 0,
                clock_history: Vec::new(),
            })
            .collect();
        Self {
            replicas,
            cfg,
            queue: VecDeque::new(),
            tick: 0,
            inflight: BTreeMap::new(),
            completions: Vec::new(),
            stats: RouterStats::default(),
            decisions: Vec::new(),
            rr_next: 0,
        }
    }

    /// Attaches a fresh [`speedllm_serve::ServeRecorder`] to every
    /// replica so [`Cluster::take_events`] can merge their lifecycle
    /// logs after the run.
    pub fn attach_recorders(&mut self) {
        for r in &mut self.replicas {
            r.engine
                .attach_recorder(speedllm_serve::ServeRecorder::new());
        }
    }

    /// Current cluster tick.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Requests at the router plus requests inside replicas.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.queue.len() + self.inflight.len()
    }

    /// Completions so far, in completion order.
    #[must_use]
    pub fn completions(&self) -> &[ClusterCompletion] {
        &self.completions
    }

    /// Every routing decision taken, in order.
    #[must_use]
    pub fn decisions(&self) -> &[RouteDecision] {
        &self.decisions
    }

    /// Router counters.
    #[must_use]
    pub fn router_stats(&self) -> &RouterStats {
        &self.stats
    }

    /// Runs the cluster until the source is exhausted and every request
    /// has completed. Requests stranded with *every* replica down wait
    /// at the router until one rejoins; a workload whose fault plan
    /// downs all replicas forever would spin, so [`Cluster::new`]'s
    /// caller picks plans that leave the cluster servable.
    pub fn run(&mut self, source: &mut dyn TrafficSource) {
        loop {
            self.apply_faults();
            for req in source.poll(self.tick, self.outstanding(), usize::MAX) {
                let arrival = req.arrival;
                self.queue.push_back(Waiting {
                    req,
                    arrival,
                    times_routed: 0,
                    prev_replica: None,
                });
            }
            self.dispatch();
            self.step_replicas();
            self.sample_imbalance();
            let idle = self.replicas.iter().all(|r| r.engine.is_idle());
            if source.is_exhausted() && self.queue.is_empty() && idle {
                break;
            }
            self.tick = self.next_tick(source, idle);
        }
    }

    /// Takes every replica's recorded lifecycle events, stamped with the
    /// replica id and concatenated in replica order (each replica's
    /// slice stays chronological on its own clock). Empty when
    /// [`Cluster::attach_recorders`] was never called.
    pub fn take_events(&mut self) -> Vec<Event> {
        let mut out = Vec::new();
        for (i, r) in self.replicas.iter_mut().enumerate() {
            if let Some(rec) = r.engine.take_recorder() {
                out.extend(rec.events.events().iter().map(|&e| Event {
                    replica: Some(i as u16),
                    ..e
                }));
            }
        }
        out
    }

    /// Builds the cluster report from the completed run.
    #[must_use]
    pub fn report(&self) -> ClusterReport {
        let requests = self.completions.len();
        let tokens: u64 = self
            .completions
            .iter()
            .map(|c| c.completion.tokens.len() as u64)
            .sum();
        let first_arrival = self
            .completions
            .iter()
            .map(|c| c.arrival)
            .min()
            .unwrap_or(0);
        let last_finish = self
            .completions
            .iter()
            .map(|c| c.finished)
            .max()
            .unwrap_or(0);
        let ttft = Percentiles::of(
            self.completions
                .iter()
                .filter_map(|c| c.first_token.map(|ft| ft.saturating_sub(c.arrival)))
                .collect(),
        );
        let e2e = Percentiles::of(
            self.completions
                .iter()
                .map(|c| c.finished.saturating_sub(c.arrival))
                .collect(),
        );
        let queue_wait = Percentiles::of(
            self.completions
                .iter()
                .map(|c| c.dispatched.saturating_sub(c.arrival))
                .collect(),
        );
        let locals: Vec<Completion> = self
            .completions
            .iter()
            .map(|c| c.completion.clone())
            .collect();
        let per_replica = self
            .replicas
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mine: Vec<Completion> = self
                    .completions
                    .iter()
                    .filter(|c| usize::from(c.replica) == i)
                    .map(|c| c.completion.clone())
                    .collect();
                ServeReport::from_run(&mine, r.engine.stats(), r.engine.slot_reuses())
            })
            .collect();
        ClusterReport {
            replicas: self.replicas.len(),
            policy: self.cfg.policy,
            requests,
            tokens,
            makespan: last_finish.saturating_sub(first_arrival),
            ttft,
            e2e,
            queue_wait,
            router: self.stats,
            digest: stream_digest(&locals),
            per_replica,
            backend: self.replicas[0].engine.backend().name().to_string(),
        }
    }

    /// Applies every fault transition scheduled for the current tick:
    /// downed replicas are drained back into the router queue (at the
    /// front, preserving their admission order), revived replicas
    /// become routable again.
    fn apply_faults(&mut self) {
        let faults = self.cfg.faults.clone();
        for f in &faults {
            if f.down_tick == self.tick && self.replicas[f.replica].up {
                self.replicas[f.replica].up = false;
                let drained = self.replicas[f.replica].engine.take_incomplete();
                self.replicas[f.replica].outstanding_tokens = 0;
                self.stats.failed_over += drained.len() as u64;
                for req in drained.into_iter().rev() {
                    let (arrival, times_routed) = match self.inflight.remove(&req.id) {
                        Some(info) => (info.arrival, info.times_routed),
                        None => (req.arrival, 0),
                    };
                    self.queue.push_front(Waiting {
                        req,
                        arrival,
                        times_routed,
                        prev_replica: Some(f.replica as u16),
                    });
                }
            }
            if f.up_tick == self.tick {
                self.replicas[f.replica].up = true;
            }
        }
    }

    /// Dispatches from the head of the router queue until the queue is
    /// empty or the head request cannot be placed (strict FIFO — no
    /// overtaking, so admission order is deterministic and starvation-
    /// free).
    fn dispatch(&mut self) {
        while let Some(head) = self.queue.front() {
            let cost = head.req.prompt.len() + head.req.max_new_tokens;
            let cands: Vec<Candidate> = self
                .replicas
                .iter()
                .enumerate()
                .filter(|(_, r)| {
                    r.up && r.outstanding_tokens.saturating_add(cost)
                        <= self.cfg.max_outstanding_tokens
                })
                .map(|(i, r)| Candidate {
                    index: i,
                    outstanding_tokens: r.outstanding_tokens,
                    prefix_hit: r.engine.prefix_hit_len(&head.req.prompt),
                })
                .collect();
            let Some((idx, reason)) = self.cfg.policy.choose(&cands, &mut self.rr_next) else {
                break;
            };
            let chosen = cands.iter().find(|c| c.index == idx).expect("chosen");
            let hit = chosen.prefix_hit;
            let mut w = self.queue.pop_front().expect("head");
            // The replica clock is the engine's arrival domain: stamp
            // dispatch time so replica-local TTFT stays well-defined.
            w.req.arrival = self.replicas[idx].engine.now();
            let id = w.req.id;
            let prompt_len = w.req.prompt.len();
            match self.replicas[idx].engine.submit(w.req) {
                Ok(()) => {}
                Err(req) => {
                    // Replica queue full despite the token cap: hold the
                    // request at the router and stop for this tick.
                    w.req = req;
                    self.queue.push_front(w);
                    break;
                }
            }
            self.stats.routed += 1;
            match reason {
                RouteReason::PrefixHit => self.stats.routed_prefix += 1,
                RouteReason::LeastLoaded => self.stats.routed_least_loaded += 1,
                RouteReason::RoundRobin => self.stats.routed_round_robin += 1,
            }
            self.stats.prefix_hit_tokens_at_placement += hit as u64;
            self.stats.prompt_tokens_at_placement += prompt_len as u64;
            if matches!(w.prev_replica, Some(p) if usize::from(p) != idx) {
                self.stats.rebalanced += 1;
            }
            self.decisions.push(RouteDecision {
                tick: self.tick,
                req: id,
                replica: idx as u16,
                reason,
            });
            self.replicas[idx].outstanding_tokens += cost;
            self.inflight.insert(
                id,
                InFlight {
                    arrival: w.arrival,
                    dispatched: self.tick,
                    cost,
                    times_routed: w.times_routed + 1,
                },
            );
        }
    }

    /// Steps every live, non-idle replica once in index order and
    /// collects completions onto the cluster clock.
    fn step_replicas(&mut self) {
        for i in 0..self.replicas.len() {
            if !self.replicas[i].up || self.replicas[i].engine.is_idle() {
                continue;
            }
            let done = self.replicas[i].engine.step();
            let now_after = self.replicas[i].engine.now();
            self.replicas[i].clock_history.push((self.tick, now_after));
            for c in done {
                let info = self
                    .inflight
                    .remove(&c.id)
                    .expect("completion for a request the router never dispatched");
                self.replicas[i].outstanding_tokens = self.replicas[i]
                    .outstanding_tokens
                    .saturating_sub(info.cost);
                let first_token = c.first_token_at.map(|ft| {
                    let h = &self.replicas[i].clock_history;
                    let pos = h.partition_point(|&(_, rn)| rn < ft);
                    h.get(pos).map_or(self.tick, |&(ct, _)| ct)
                });
                self.completions.push(ClusterCompletion {
                    completion: c,
                    replica: i as u16,
                    arrival: info.arrival,
                    dispatched: info.dispatched,
                    first_token,
                    finished: self.tick,
                    times_routed: info.times_routed,
                });
            }
        }
    }

    /// Samples the live-replica load spread (max/min outstanding-token
    /// ratio) once per tick, when at least two live replicas carry load.
    fn sample_imbalance(&mut self) {
        let loads: Vec<usize> = self
            .replicas
            .iter()
            .filter(|r| r.up)
            .map(|r| r.outstanding_tokens)
            .collect();
        if loads.len() < 2 {
            return;
        }
        let max = *loads.iter().max().expect("non-empty");
        let min = *loads.iter().min().expect("non-empty");
        if min > 0 {
            self.stats.imbalance_sum += max as f64 / min as f64;
            self.stats.imbalance_samples += 1;
        }
    }

    /// The next cluster tick: +1 while there is work anywhere, else a
    /// jump to the next arrival or fault transition (never past one, so
    /// outages land on schedule relative to arrivals).
    fn next_tick(&self, source: &dyn TrafficSource, idle: bool) -> u64 {
        if !idle || !self.queue.is_empty() {
            return self.tick + 1;
        }
        let mut target = u64::MAX;
        if let Some(a) = source.next_arrival(self.outstanding()) {
            if a > self.tick {
                target = target.min(a);
            }
        }
        for f in &self.cfg.faults {
            if f.down_tick > self.tick {
                target = target.min(f.down_tick);
            }
            if f.up_tick > self.tick && f.up_tick != u64::MAX {
                target = target.min(f.up_tick);
            }
        }
        if target == u64::MAX {
            self.tick + 1
        } else {
            target
        }
    }
}
