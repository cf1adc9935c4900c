//! Tests of the harness itself: the tick→wall mapping against the
//! engine's own recorder, `TimedBackend`'s transparency, the plan's
//! dependence on the seed alone, and the round rule.

use std::collections::HashMap;
use std::time::Instant;

use speedllm_benchmark::drive::{drive, drive_observed, plan, Arrivals, Stop};
use speedllm_benchmark::serve::{backend, engine};
use speedllm_benchmark::spec::{kind, Kind, ServeSpec, RUN_SECONDS};
use speedllm_benchmark::stats::tail_percentile;
use speedllm_benchmark::timed::TimedBackend;
use speedllm_serve::events::{EventKind, ServeRecorder};

const SERVE_WORKLOADS: [&str; 4] = [
    "decode15m_f32_c1",
    "spec15m_f32_k4_c1",
    "serve15m_int8_open",
    "prefill15m_int4_c4",
];

fn smoke_spec(name: &str) -> ServeSpec {
    match kind(name, true) {
        Some(Kind::Serve(s)) => s,
        other => panic!("{name} is not a serve workload: {other:?}"),
    }
}

/// Every `FirstToken` event the engine's recorder logs lands in the step
/// the tick→wall mapping names for that request, and a request's token
/// wall times never go backwards.
#[test]
fn tick_mapping_agrees_with_the_recorder() {
    for name in SERVE_WORKLOADS {
        let spec = smoke_spec(name);
        let plan = plan(&spec, 11, Stop::Requests(spec.smoke_requests));
        let mut engine = engine(&spec, backend(&spec));
        engine.attach_recorder(ServeRecorder::new());
        let mut seen = engine.recorder().expect("attached").events.len();
        // Request id → the step during which its FirstToken was logged.
        let mut logged: HashMap<u64, usize> = HashMap::new();
        let pass = drive_observed(&mut engine, &plan, Instant::now(), |engine, step| {
            let events = engine.recorder().expect("attached").events.events();
            for e in &events[seen..] {
                if e.kind == EventKind::FirstToken {
                    logged.insert(e.req, step);
                }
            }
            seen = events.len();
        });
        assert_eq!(pass.finished.len(), plan.requests.len(), "{name}");
        for f in &pass.finished {
            let id = f.completion.id;
            assert_eq!(
                pass.first_token_step(f),
                logged.get(&id).copied(),
                "{name}: request {id}'s first token"
            );
            let walls = pass.token_walls(f);
            assert_eq!(walls.len(), f.completion.tokens.len(), "{name}");
            assert!(
                walls.windows(2).all(|w| w[0] <= w[1]),
                "{name}: request {id}"
            );
            let sent = &pass.sent[id as usize];
            assert!(
                walls[0] >= sent.submit_s,
                "{name}: a token before its request"
            );
            assert!(
                *walls.last().unwrap() <= pass.steps[f.step].end_s,
                "{name}: a token after its completion"
            );
        }
    }
}

/// Wrapping the backend changes nothing the engine does: same streams,
/// same scheduler counters.
#[test]
fn timed_backend_is_transparent() {
    for name in SERVE_WORKLOADS {
        let spec = smoke_spec(name);
        let plan = plan(&spec, 5, Stop::Requests(spec.smoke_requests));
        let epoch = Instant::now();
        let mut bare = engine(&spec, backend(&spec));
        let mut timed = engine(&spec, TimedBackend::new(backend(&spec), epoch));
        let streams = |pass: &speedllm_benchmark::drive::Pass| {
            let mut s: Vec<(u64, Vec<u32>)> = pass
                .finished
                .iter()
                .map(|f| (f.completion.id, f.completion.tokens.clone()))
                .collect();
            s.sort();
            s
        };
        let a = drive(&mut bare, &plan, epoch);
        let b = drive(&mut timed, &plan, epoch);
        // The open loop admits by wall time, so only its streams (which
        // do not depend on batch composition) must agree, not its counts.
        assert_eq!(streams(&a), streams(&b), "{name}");
        if matches!(plan.arrivals, Arrivals::Closed { .. }) {
            assert_eq!(
                format!("{:?}", bare.stats()),
                format!("{:?}", timed.stats()),
                "{name}"
            );
            let rows: usize = timed.backend().calls().iter().map(|c| c.rows).sum();
            assert_eq!(rows as u64, timed.now(), "{name}: one tick per timed row");
        }
    }
}

#[test]
fn a_plan_depends_on_the_seed_alone() {
    for name in SERVE_WORKLOADS {
        let spec = smoke_spec(name);
        let stop = Stop::Requests(spec.smoke_requests);
        let key = |seed| {
            let p = plan(&spec, seed, stop);
            let reqs: Vec<_> = p
                .requests
                .iter()
                .map(|r| (r.id, r.prompt.clone(), r.max_new_tokens, r.seed))
                .collect();
            (reqs, p.arrivals)
        };
        assert_eq!(key(3), key(3), "{name}");
        assert_ne!(key(3), key(4), "{name}");
        let p = plan(&spec, 3, stop);
        assert!(
            p.requests.iter().enumerate().all(|(i, r)| r.id == i as u64),
            "{name}: ids are send order"
        );
    }
}

/// A time-bounded plan only adds requests behind a count-bounded one, so
/// the checked requests are the same however long a run is.
#[test]
fn longer_plans_extend_shorter_ones() {
    let spec = smoke_spec("decode15m_f32_c1");
    let short = plan(&spec, 9, Stop::Requests(4));
    let long = plan(&spec, 9, Stop::Seconds(1.0));
    assert!(long.requests.len() > short.requests.len());
    for (a, b) in short.requests.iter().zip(&long.requests) {
        assert_eq!((&a.prompt, a.seed), (&b.prompt, b.seed));
    }
}

#[test]
fn an_open_plan_offers_bursts_at_the_stated_rate() {
    let spec = smoke_spec("serve15m_int8_open");
    let p = plan(&spec, 1, Stop::Requests(16));
    let Arrivals::Open { due_s } = &p.arrivals else {
        panic!("open-loop workload");
    };
    // Bursts of four at 400 requests a second: one every 10 ms.
    let want: Vec<f64> = (0..16).map(|i| (i / 4) as f64 * 0.010).collect();
    assert_eq!(due_s, &want);
    // A time-bounded plan offers rate × seconds requests.
    assert_eq!(plan(&spec, 1, Stop::Seconds(0.1)).requests.len(), 40);
}

/// `ttft_ms_p90` needs 100 requests (ten beyond the 90th). At the declared
/// run length the full-size open loop offers them, so the untraced pass
/// measures that tail instead of reporting it as missing.
#[test]
fn the_open_loop_offers_enough_requests_for_its_ttft_tail() {
    let Some(Kind::Serve(spec)) = kind("serve15m_int8_open", false) else {
        panic!("a serve workload");
    };
    let offered = plan(&spec, 7, Stop::Seconds(RUN_SECONDS as f64))
        .requests
        .len();
    let ttft_ms: Vec<f64> = (0..offered).map(|i| i as f64).collect();
    assert!(
        tail_percentile(&ttft_ms, 90.0).is_some(),
        "{offered} requests in {RUN_SECONDS} s"
    );
}
