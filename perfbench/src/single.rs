//! `hybrid_pcr` and `pthomas_wide`: one f64 batch per op through
//! `GpuTridiagSolver::solve_batch` on a simulated GTX480.

use std::hint::black_box;
use std::time::Instant;

use gpu_sim::DeviceSpec;
use tridiag_core::generators::random_batch;
use tridiag_core::SystemBatch;
use tridiag_gpu::{GpuSolveReport, GpuSolverConfig, GpuTridiagSolver};

use crate::replay::{plan_and_run, replay};
use crate::spans::Spans;
use crate::{check_residual, Args, Outcome, Timed};

/// A batch geometry and its point in the modeled ledger.
pub struct Geometry {
    pub m: usize,
    pub n: usize,
    pub ledger_label: &'static str,
}

/// Fig. 13's hybrid point: k = 7 tiled PCR, then p-Thomas.
pub const HYBRID_PCR: Geometry = Geometry {
    m: 16,
    n: 1024,
    ledger_label: "fig13/f64/m16/n1024",
};

/// Fig. 12's wide point: k = 0, p-Thomas only, on an interleaved copy.
pub const PTHOMAS_WIDE: Geometry = Geometry {
    m: 1024,
    n: 512,
    ledger_label: "fig12/f64/m1024/n512",
};

/// The modeled µs of a correct solve, or why it is a failure.
fn check(
    batch: &SystemBatch<f64>,
    res: gpu_sim::Result<(Vec<f64>, GpuSolveReport)>,
) -> Result<f64, String> {
    let (x, report) = res.map_err(|e| e.to_string())?;
    check_residual(batch, &x)?;
    Ok(report.total_us)
}

pub fn run(g: &Geometry, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let spec = DeviceSpec::gtx480();
    let cfg = GpuSolverConfig::default();
    let solver = GpuTridiagSolver::new(spec.clone(), cfg);
    let (batch, setup) = crate::repeated_setup(|| {
        let batch = random_batch::<f64>(g.m, g.n, args.seed);
        // Warm-up op, checked but not timed.
        if let Err(e) = check(&batch, solver.solve_batch(&batch)) {
            out.fail(format!("warm-up: {e}"));
        }
        batch
    });
    setup.report(&mut out);

    let mut timed = Timed::default();
    let end = Instant::now() + args.untraced_time();
    while Instant::now() < end {
        timed.calibrate();
        let t = Instant::now();
        let res = solver.solve_batch(&batch);
        let dt = t.elapsed();
        match check(&batch, res) {
            Ok(us) => {
                timed.ok(&mut out, dt, us, g.m * g.n);
                timed.wall_s += dt.as_secs_f64();
            }
            Err(e) => out.fail(e),
        }
    }
    timed.report(&mut out);
    crate::ledger_note("solver", g.ledger_label, out.values["modeled_us"], &mut out);
    if args.trace {
        traced(g, &spec, cfg, &batch, timed.p50_ms(), args, &mut out);
    }
    out
}

/// Traced ops: `SolvePlan::build_for_host` then `PlanExecutor::run` —
/// the two calls `solve_batch` makes — each in a span, then a replay of
/// the executor's layer calls.
fn traced(
    g: &Geometry,
    spec: &DeviceSpec,
    cfg: GpuSolverConfig,
    batch: &SystemBatch<f64>,
    untraced_p50_ms: f64,
    args: &Args,
    out: &mut Outcome,
) {
    let mut spans = Spans::new();
    let mut last = None;
    let end = Instant::now() + args.traced_time();
    let mut op = 0u64;
    while Instant::now() < end {
        op += 1;
        let root = spans.open("op", op, None);
        let (res, run) = plan_and_run(spec, &cfg, batch, &mut spans, op, root);
        spans.close(root);
        let plan = match res.map_err(|e| e.to_string()).and_then(|(plan, x, _)| {
            check_residual(batch, &x)?;
            Ok(plan)
        }) {
            Ok(plan) => plan,
            Err(e) => {
                out.fail(e);
                continue;
            }
        };
        out.attempted += 1;
        match replay(spec, cfg.exec, &plan, batch, &mut spans, op, run) {
            Ok(r) => last = Some((r, plan.k)),
            Err(e) => out.fail(format!("replay: {e}")),
        }
    }
    let attributed_ms = crate::layer_times(&spans, "op", out);
    crate::coverage(&spans, untraced_p50_ms, attributed_ms, out);
    if let Some((r, k)) = last {
        out.set("plan.k", k as f64);
        crate::sim_counts(&r, g.m * g.n, out);
    }
    let cpu_ms = crate::median_ms(|| {
        black_box(cpu_ref::solve_batch_sequential(batch).ok());
    });
    out.set("cpu_ref.solve_ms", cpu_ms);
    out.set("cpu_ref.slowdown", untraced_p50_ms / cpu_ms);
    crate::write_trace(&spans, args, out);
}
