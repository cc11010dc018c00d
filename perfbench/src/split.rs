//! `split_rows`: one 32 768-row f64 system row-split across two
//! simulated GTX480s through `GpuTridiagSolver::solve_batch_split`.

use std::hint::black_box;
use std::time::Instant;

use gpu_sim::{DeviceGroup, DeviceSpec, ExecConfig};
use tridiag_core::generators::random_batch;
use tridiag_core::SystemBatch;
use tridiag_gpu::{verify_distributed_plan, DistributedExecutor, GpuSolveReport, GpuTridiagSolver};

use crate::spans::Spans;
use crate::{Args, Outcome, Timed};

const N: usize = 32_768;
/// Two devices keep the executor's chunk threads at the host's two
/// cores.
const DEVICES: usize = 2;
const LEDGER_LABEL: &str = "n32768_d2_wall_us";
/// Largest deviation from the one-device solve, and largest relative
/// residual, accepted as a correct answer.
const TOL: f64 = 1e-9;

struct Setup {
    group: DeviceGroup,
    batch: SystemBatch<f64>,
    /// The one-device (D = 1) solution the split must agree with.
    reference: Vec<f64>,
}

/// The report of a correct split solve, or why it is a failure.
fn check(
    s: &Setup,
    res: gpu_sim::Result<(Vec<f64>, GpuSolveReport)>,
) -> Result<GpuSolveReport, String> {
    let (x, report) = res.map_err(|e| e.to_string())?;
    if x.len() != s.reference.len() {
        return Err(format!(
            "{} unknowns, expected {}",
            x.len(),
            s.reference.len()
        ));
    }
    let worst = x
        .iter()
        .zip(&s.reference)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    let resid = s
        .batch
        .max_relative_residual(&x)
        .map_err(|e| e.to_string())?;
    if worst < TOL && resid < TOL && report.distributed.is_some() {
        Ok(report)
    } else {
        Err(format!("deviation {worst:e}, residual {resid:e}"))
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let solver = GpuTridiagSolver::gtx480();
    let (s, setup) = crate::repeated_setup(|| {
        let batch = random_batch::<f64>(1, N, args.seed);
        let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), DEVICES)
            .expect("a homogeneous group of two GTX480s");
        let reference = match solver.solve_batch(&batch) {
            Ok((x, _)) => x,
            Err(e) => {
                out.fail(format!("one-device reference: {e}"));
                Vec::new()
            }
        };
        let s = Setup {
            group,
            batch,
            reference,
        };
        if let Err(e) = check(&s, solver.solve_batch_split(&s.group, &s.batch)) {
            out.fail(format!("warm-up: {e}"));
        }
        s
    });
    setup.report(&mut out);

    let mut timed = Timed::default();
    let end = Instant::now() + args.untraced_time();
    while Instant::now() < end {
        timed.calibrate();
        let t = Instant::now();
        let res = solver.solve_batch_split(&s.group, &s.batch);
        let dt = t.elapsed();
        match check(&s, res) {
            Ok(report) => {
                timed.ok(&mut out, dt, report.total_us, N);
                timed.wall_s += dt.as_secs_f64();
            }
            Err(e) => out.fail(e),
        }
    }
    timed.report(&mut out);
    crate::ledger_note(
        "distributed",
        LEDGER_LABEL,
        out.values["modeled_us"],
        &mut out,
    );
    if args.trace {
        traced(&solver, &s, timed.p50_ms(), args, &mut out);
    }
    out
}

/// Traced ops: `DistributedPlan::build` then `DistributedExecutor::run`
/// — the calls `solve_batch_split` makes — then a replay of the
/// executor's `verify_distributed_plan` call.
fn traced(
    solver: &GpuTridiagSolver,
    s: &Setup,
    untraced_p50_ms: f64,
    args: &Args,
    out: &mut Outcome,
) {
    let exec = ExecConfig::default();
    let mut spans = Spans::new();
    let mut last = None;
    let end = Instant::now() + args.traced_time();
    let mut op = 0u64;
    while Instant::now() < end {
        op += 1;
        let root = spans.open("op", op, None);
        let sp = spans.open("distributed.plan", op, Some(root));
        let plan = solver.plan_geometry_split(&s.group, N, 8);
        spans.close(sp);
        let run = spans.open("distributed.run", op, Some(root));
        let res = match &plan {
            Ok(p) => DistributedExecutor::new(s.group.clone(), exec).run(p, &s.batch),
            Err(e) => Err(e.clone()),
        };
        spans.close(run);
        spans.close(root);
        match check(s, res) {
            Ok(report) => {
                out.attempted += 1;
                last = Some(report);
            }
            Err(e) => {
                out.fail(e);
                continue;
            }
        }
        let plan = plan.expect("the op succeeded, so the plan was built");
        let sp = spans.open("distributed.verify", op, Some(run));
        black_box(verify_distributed_plan(&s.group, &plan));
        spans.close(sp);
    }
    let attributed_ms = crate::layer_times(&spans, "op", out);
    crate::coverage(&spans, untraced_p50_ms, attributed_ms, out);
    if let Some(report) = last {
        let d = report.distributed.as_ref().expect("checked above");
        out.set("distributed.wall_clock_us", d.wall_clock_us);
        out.set("distributed.serialized_us", d.serialized_us);
        out.set("distributed.gather_bytes", d.gather_bytes as f64);
        out.set("distributed.backsub_flops", d.backsub_flops as f64);
        out.set("plan.k", report.k as f64);
        out.set("plan.launches", report.kernels.len() as f64);
        for kr in &report.kernels {
            let metric = match kr.timing.name {
                "p_thomas" => "modeled.p_thomas_us",
                _ => "modeled.tiled_pcr_us",
            };
            let sum = out.values.get(metric).copied().unwrap_or(0.0) + kr.timing.total_us;
            out.set(metric, sum);
        }
    }
    let cpu_ms = crate::median_ms(|| {
        black_box(cpu_ref::solve_batch_sequential(&s.batch).ok());
    });
    out.set("cpu_ref.solve_ms", cpu_ms);
    out.set("cpu_ref.slowdown", untraced_p50_ms / cpu_ms);
    crate::write_trace(&spans, args, out);
}
