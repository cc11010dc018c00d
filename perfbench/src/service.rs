//! `service_mixed`: the threaded `SolveService` under one closed-loop
//! client, checked against a deterministic `ServiceCore::run_workload`
//! replay of the same payloads, which also gives the modeled metrics.
//!
//! The client works in rounds: it pauses the worker, submits `ROUND`
//! requests, resumes the worker and waits for all of them. Every round
//! is then one coalescing tick of one batch per key. Without the pause
//! the worker wakes on the first submission, and how the round splits
//! into ticks changes from run to run.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use gpu_sim::{DeviceGroup, DeviceSpec};
use tridiag_core::generators::random_batch;
use tridiag_core::SystemBatch;
use tridiag_gpu::GpuScalar;
use tridiag_service::{
    coalesce, Payload, ServiceConfig, ServiceCore, ServiceReport, ServiceStats, SolveRequest,
    SolveService, Ticket,
};

use crate::replay::{plan_and_run, replay, Replayed};
use crate::spans::{SpanId, Spans};
use crate::{check_residual, Args, Outcome, Timed};

/// Distinct payloads per run; the client cycles through them.
const POOL: usize = 400;
/// Systems per request.
const PER_REQUEST_M: usize = 2;
/// Requests per client round, four per coalescing key.
const ROUND: usize = 16;
/// Closed-loop warm-up in each set-up.
const WARM_UP: Duration = Duration::from_millis(100);
/// Modeled gap between replay arrivals (µs). Requests arrive faster
/// than the device drains them, so the makespan measures device time
/// rather than the arrival schedule; the backlog still stays under the
/// default queue depth of 64 over the pool (3 µs overflows it). Modeled
/// time does not depend on the data, so this holds for every seed.
const ARRIVAL_GAP_US: f64 = 4.0;

/// Request `i`: n alternates 256/512 and precision alternates every two
/// requests, so the pool spans four coalescing keys.
fn payload(seed: u64, i: usize) -> Payload {
    let n = [256, 512][i % 2];
    let s = seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
    if i % 4 < 2 {
        Payload::F64(random_batch::<f64>(PER_REQUEST_M, n, s))
    } else {
        Payload::F32(random_batch::<f32>(PER_REQUEST_M, n, s))
    }
}

fn unknowns(p: &Payload) -> usize {
    p.num_systems() * p.system_len()
}

struct Setup {
    pool: Vec<Payload>,
    /// Solution hash of each pool payload in the replay.
    hashes: Vec<u64>,
    replay: ServiceReport,
    service: SolveService,
}

/// Replay the pool on the modeled clock; every answer must be correct.
fn replay_pool(
    group: &DeviceGroup,
    pool: &[Payload],
    out: &mut Outcome,
) -> (ServiceReport, Vec<u64>) {
    let requests = pool
        .iter()
        .enumerate()
        .map(|(i, p)| SolveRequest {
            id: i as u64,
            arrival_us: i as f64 * ARRIVAL_GAP_US,
            payload: p.clone(),
        })
        .collect();
    let report = ServiceCore::new(group.clone(), ServiceConfig::default()).run_workload(requests);
    let mut hashes = vec![0; pool.len()];
    for r in &report.responses {
        let i = r.id as usize;
        let checked = match (&r.result, &pool[i]) {
            (Ok(tridiag_service::Solution::F64(x)), Payload::F64(b)) => check_residual(b, x),
            (Ok(tridiag_service::Solution::F32(x)), Payload::F32(b)) => check_residual(b, x),
            (Ok(_), _) => Err("solution precision differs from its payload".into()),
            (Err(e), _) => Err(e.to_string()),
        };
        match (&r.result, checked) {
            (Ok(sol), Ok(())) => hashes[i] = sol.hash(),
            (_, Err(e)) => out.fail(format!("replay request {i}: {e}")),
            (Err(_), Ok(())) => unreachable!("an error never checks out"),
        }
    }
    (report, hashes)
}

/// One closed-loop client: runs rounds of `ROUND` requests until `dur`
/// has passed. `spans`, when given, gets an `op` span per request with
/// its `service.submit` call inside.
fn client(
    s: &Setup,
    dur: Duration,
    modeled_us: f64,
    mut spans: Option<&mut Spans>,
    out: &mut Outcome,
) -> Timed {
    let mut timed = Timed::default();
    let mut inflight: VecDeque<(usize, Instant, Option<SpanId>, Ticket)> = VecDeque::new();
    let mut next = 0usize;
    let start = Instant::now();
    loop {
        if inflight.is_empty() {
            if start.elapsed() >= dur {
                break;
            }
            timed.calibrate();
            s.service.pause();
            for _ in 0..ROUND {
                let i = next % POOL;
                next += 1;
                let payload = s.pool[i].clone();
                let t = Instant::now();
                let ids = spans.as_deref_mut().map(|sp| {
                    let root = sp.open("op", next as u64, None);
                    (root, sp.open("service.submit", next as u64, Some(root)))
                });
                let ticket = s.service.submit(payload);
                if let (Some(sp), Some((_, submit))) = (spans.as_deref_mut(), ids) {
                    sp.close(submit);
                }
                match ticket {
                    Ok(ticket) => inflight.push_back((i, t, ids.map(|(root, _)| root), ticket)),
                    Err(e) => out.fail(format!("submit: {e}")),
                }
            }
            s.service.resume();
        }
        let Some((i, t, root, ticket)) = inflight.pop_front() else {
            continue;
        };
        let resp = ticket.wait();
        let dt = t.elapsed();
        if let (Some(sp), Some(root)) = (spans.as_deref_mut(), root) {
            sp.close(root);
        }
        match resp.result {
            Ok(sol) if sol.hash() == s.hashes[i] => {
                timed.ok(out, dt, modeled_us, unknowns(&s.pool[i]))
            }
            Ok(_) => out.fail(format!("request {i}: answer differs from the replay")),
            Err(e) => out.fail(format!("request {i}: {e}")),
        }
    }
    timed.wall_s = start.elapsed().as_secs_f64();
    timed
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let group = DeviceGroup::single(DeviceSpec::gtx480());
    let (s, setup) = crate::repeated_setup(|| {
        let pool: Vec<Payload> = (0..POOL).map(|i| payload(args.seed, i)).collect();
        let (replay, hashes) = replay_pool(&group, &pool, &mut out);
        let service = SolveService::start(group.clone(), ServiceConfig::default());
        let s = Setup {
            pool,
            hashes,
            replay,
            service,
        };
        // Warm-up: a few rounds, checked but not timed.
        let mut warm = Outcome::default();
        client(&s, WARM_UP, 0.0, None, &mut warm);
        if warm.failed > 0 {
            out.fail(format!(
                "warm-up: {} of {} requests failed",
                warm.failed, warm.attempted
            ));
        }
        s
    });
    setup.report(&mut out);

    let requests = s.replay.responses.len() as f64;
    let modeled_us = s.replay.makespan_us / requests;
    let before = s.service.stats();
    let timed = client(&s, args.untraced_time(), modeled_us, None, &mut out);
    timed.report(&mut out);
    out.set("modeled_p99_us", s.replay.p99_us);
    out.notes.push(format!(
        "ledger        : none for this mix; replay makespan {} us_modeled over {requests} requests",
        s.replay.makespan_us
    ));
    service_counts(&before, &s.service.stats(), &s.replay, &mut out);
    if args.trace {
        traced(&s, timed.p50_ms(), args, &mut out);
    }
    out
}

/// Threaded batching and plan-cache counts over the untraced loop, and
/// the replay's mean modeled spans.
fn service_counts(
    before: &ServiceStats,
    after: &ServiceStats,
    r: &ServiceReport,
    out: &mut Outcome,
) {
    let batches = (after.batches - before.batches) as f64;
    let completed = (after.completed - before.completed) as f64;
    let lookups = (after.cache.lookups - before.cache.lookups) as f64;
    let hits = (after.cache.hits - before.cache.hits) as f64;
    out.set("service.batches", batches);
    out.set("service.requests_per_batch", completed / batches);
    out.set("service.cache_hit_ratio", hits / lookups);
    let ok: Vec<_> = r.responses.iter().filter(|x| x.result.is_ok()).collect();
    let mean = |f: fn(&tridiag_service::RequestSpans) -> f64| {
        ok.iter().map(|x| f(&x.spans)).sum::<f64>() / ok.len() as f64
    };
    out.set("service.modeled_queue_us", mean(|s| s.queue_us));
    out.set("service.modeled_coalesce_us", mean(|s| s.coalesce_us));
    out.set("service.modeled_kernel_us", mean(|s| s.kernel_us));
    out.set("service.modeled_scatter_us", mean(|s| s.scatter_us));
}

/// Half the traced time runs the client with request spans; the other
/// half replays the worker's layer calls for each client round from
/// outside: `coalesce` over the round's requests, then plan, run and
/// replay of each coalesced batch under the service's pinned config.
/// Layer times are per round, which is what each request's latency
/// spans.
fn traced(s: &Setup, untraced_p50_ms: f64, args: &Args, out: &mut Outcome) {
    let mut spans = Spans::new();
    let half = args.traced_time() / 2;
    client(s, half, 0.0, Some(&mut spans), out);

    let group = DeviceGroup::single(DeviceSpec::gtx480());
    let spec = group.primary().clone();
    let mut core = ServiceCore::new(group, ServiceConfig::default());
    let mut last = None;
    let end = Instant::now() + half;
    let mut round = 0usize;
    while Instant::now() < end {
        let op = 1u64 << 32 | round as u64;
        let requests: Vec<SolveRequest> = (0..ROUND)
            .map(|j| {
                let i = (round * ROUND + j) % POOL;
                SolveRequest {
                    id: i as u64,
                    arrival_us: 0.0,
                    payload: s.pool[i].clone(),
                }
            })
            .collect();
        round += 1;
        let root = spans.open("service.round", op, None);
        let sp = spans.open("service.coalesce", op, Some(root));
        let batches = coalesce(&requests);
        spans.close(sp);
        let mut sum = Replayed::default();
        let mut max_k = 0u32;
        for b in batches.iter().flatten() {
            let cfg = match core.pinned_config(b.payload.system_len(), b.payload.elem_bytes()) {
                Ok(cfg) => cfg,
                Err(e) => {
                    out.fail(format!("pinned config: {e}"));
                    continue;
                }
            };
            let res = match &b.payload {
                Payload::F64(batch) => traced_batch(&spec, &cfg, batch, &mut spans, op, root),
                Payload::F32(batch) => traced_batch(&spec, &cfg, batch, &mut spans, op, root),
            };
            match res {
                Ok((r, k)) => {
                    out.attempted += 1;
                    sum.add(&r);
                    max_k = max_k.max(k);
                }
                Err(e) => out.fail(e),
            }
        }
        if let Err(e) = batches {
            out.fail(format!("coalesce: {e}"));
        }
        spans.close(root);
        last = Some((sum, max_k, requests));
    }

    let attributed_ms = crate::layer_times(&spans, "service.round", out)
        + spans.self_median_us("op", "service.submit") * 1e-3;
    out.set(
        "service.submit_us",
        spans.self_median_us("op", "service.submit"),
    );
    crate::coverage(&spans, untraced_p50_ms, attributed_ms, out);
    if let Some((sum, k, requests)) = last {
        out.set("plan.k", k as f64);
        let unknowns: usize = requests.iter().map(|r| unknowns(&r.payload)).sum();
        crate::sim_counts(&sum, unknowns, out);
        let cpu_ms = crate::median_ms(|| {
            for r in &requests {
                match &r.payload {
                    Payload::F64(b) => black_box(cpu_ref::solve_batch_sequential(b).is_ok()),
                    Payload::F32(b) => black_box(cpu_ref::solve_batch_sequential(b).is_ok()),
                };
            }
        });
        out.set("cpu_ref.solve_ms", cpu_ms);
        out.set("cpu_ref.slowdown", untraced_p50_ms / cpu_ms);
    }
    crate::write_trace(&spans, args, out);
}

/// Plan, run, check and replay one coalesced batch; returns its replay
/// and the plan's k.
fn traced_batch<S: GpuScalar>(
    spec: &DeviceSpec,
    cfg: &tridiag_gpu::GpuSolverConfig,
    batch: &SystemBatch<S>,
    spans: &mut Spans,
    op: u64,
    parent: SpanId,
) -> Result<(Replayed, u32), String> {
    let (res, run) = plan_and_run(spec, cfg, batch, spans, op, parent);
    let (plan, x, _) = res.map_err(|e| e.to_string())?;
    check_residual(batch, &x)?;
    let r = replay(spec, cfg.exec, &plan, batch, spans, op, run).map_err(|e| e.to_string())?;
    Ok((r, plan.k))
}
