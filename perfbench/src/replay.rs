//! Layer replay: after a traced op, walk the same built plan on the same
//! batch from outside and time each layer's public function — the
//! verifier, the layout conversion, every kernel's simulation and its
//! timing model. `PlanExecutor::run` makes exactly these calls; the
//! replayed spans are recorded as its children, so its self time is
//! what remains (uploads, downloads, convert-back, bookkeeping).

use std::hint::black_box;

use gpu_sim::timing::time_kernel;
use gpu_sim::{launch_with, BlockStats, BufId, ExecConfig, GpuMemory, LaunchConfig, Precision};
use gpu_sim::{DeviceSpec, Result};
use tridiag_core::SystemBatch;
use tridiag_gpu::kernels::fused::FusedKernel;
use tridiag_gpu::kernels::p_thomas::PThomasKernel;
use tridiag_gpu::kernels::tiled_pcr::TiledPcrKernel;
use tridiag_gpu::plan::{CoefArray, KernelOp};
use tridiag_gpu::{
    verify_plan, GpuScalar, GpuSolveReport, GpuSolverConfig, PlanExecutor, SolvePlan, Step,
};

use crate::spans::{SpanId, Spans};

/// Exact counts and modeled times of one replayed plan.
#[derive(Debug, Default, Clone)]
pub struct Replayed {
    /// Counters summed over every launch.
    pub stats: BlockStats,
    pub tiled_pcr_us: f64,
    pub p_thomas_us: f64,
    /// Occupancy weighted by each launch's modeled time.
    pub occupancy_us: f64,
    pub launches: usize,
}

impl Replayed {
    pub fn add(&mut self, o: &Replayed) {
        self.stats.merge(&o.stats);
        self.tiled_pcr_us += o.tiled_pcr_us;
        self.p_thomas_us += o.p_thomas_us;
        self.occupancy_us += o.occupancy_us;
        self.launches += o.launches;
    }

    pub fn modeled_us(&self) -> f64 {
        self.tiled_pcr_us + self.p_thomas_us
    }

    pub fn occupancy(&self) -> f64 {
        self.occupancy_us / self.modeled_us()
    }
}

/// `SolvePlan::build_for_host` then `PlanExecutor::run` — the two calls
/// `GpuTridiagSolver::solve_batch` makes — each in a span of op `op`
/// under `parent`. Returns the plan with the executor's answer, and the
/// executor's span (the parent of a later replay).
pub fn plan_and_run<S: GpuScalar>(
    spec: &DeviceSpec,
    cfg: &GpuSolverConfig,
    batch: &SystemBatch<S>,
    spans: &mut Spans,
    op: u64,
    parent: SpanId,
) -> (Result<(SolvePlan, Vec<S>, GpuSolveReport)>, SpanId) {
    let sp = spans.open("plan.build", op, Some(parent));
    let plan = SolvePlan::build_for_host(
        spec,
        cfg,
        batch.layout(),
        batch.num_systems(),
        batch.system_len(),
        <S as gpu_sim::Elem>::BYTES,
    );
    spans.close(sp);
    let run = spans.open("executor.run", op, Some(parent));
    let res = plan.and_then(|plan| {
        let (x, report) = PlanExecutor::new(spec.clone(), cfg.exec).run(&plan, batch)?;
        Ok((plan, x, report))
    });
    spans.close(run);
    (res, run)
}

/// Replay `plan` on `batch`, recording spans of op `op` under `parent`.
pub fn replay<S: GpuScalar>(
    spec: &DeviceSpec,
    exec: ExecConfig,
    plan: &SolvePlan,
    batch: &SystemBatch<S>,
    spans: &mut Spans,
    op: u64,
    parent: SpanId,
) -> Result<Replayed> {
    let precision = if <S as gpu_sim::Elem>::BYTES == 4 {
        Precision::F32
    } else {
        Precision::F64
    };
    let sp = spans.open("verify.plan", op, Some(parent));
    black_box(verify_plan(spec, plan));
    spans.close(sp);

    let mut out = Replayed::default();
    let mut mem: GpuMemory<S> = GpuMemory::new();
    let mut slots: Vec<BufId> = Vec::with_capacity(plan.buffers.len());
    let mut host: Option<SystemBatch<S>> = None;
    for step in &plan.steps {
        match step {
            Step::Convert { to } => {
                let sp = spans.open("core.convert", op, Some(parent));
                host = Some(batch.to_layout(*to));
                spans.close(sp);
            }
            Step::Upload { source, .. } => {
                let (a, b, c, d) = host.as_ref().unwrap_or(batch).arrays();
                let arr = match source {
                    CoefArray::Lower => a,
                    CoefArray::Diag => b,
                    CoefArray::Upper => c,
                    CoefArray::Rhs => d,
                };
                slots.push(mem.alloc_from(arr.to_vec()));
            }
            Step::Alloc { slot } => slots.push(mem.alloc(plan.buffers[*slot].elems)),
            Step::Launch(ls) => {
                let cfg = LaunchConfig::new(ls.name, ls.grid_blocks, ls.threads_per_block)
                    .with_regs(ls.regs_per_thread);
                // The fused kernel runs tiled PCR and p-Thomas in one
                // launch; it is booked as tiled PCR.
                let (sim_span, tiled) = match &ls.op {
                    KernelOp::PThomas { .. } => ("sim.p_thomas", false),
                    _ => ("sim.tiled_pcr", true),
                };
                let sp = spans.open(sim_span, op, Some(parent));
                let res = launch_op(spec, &cfg, exec, &ls.op, &slots, &mut mem)?;
                spans.close(sp);
                let sp = spans.open("timing.model", op, Some(parent));
                let timing = time_kernel(spec, &res, precision);
                spans.close(sp);
                out.stats.merge(&res.stats.total);
                if tiled {
                    out.tiled_pcr_us += timing.total_us;
                } else {
                    out.p_thomas_us += timing.total_us;
                }
                out.occupancy_us += timing.occupancy_fraction * timing.total_us;
                out.launches += 1;
            }
            Step::Download { slot } => {
                black_box(mem.read(slots[*slot])?);
            }
            Step::ConvertBack { .. } => {}
        }
    }
    Ok(out)
}

fn launch_op<S: GpuScalar>(
    spec: &DeviceSpec,
    cfg: &LaunchConfig,
    exec: ExecConfig,
    op: &KernelOp,
    slots: &[BufId],
    mem: &mut GpuMemory<S>,
) -> Result<gpu_sim::LaunchResult> {
    match op {
        KernelOp::PThomas {
            a,
            b,
            c,
            d,
            c_prime,
            d_prime,
            x,
            map,
        } => {
            let kernel = PThomasKernel {
                a: slots[*a],
                b: slots[*b],
                c: slots[*c],
                d: slots[*d],
                c_prime: slots[*c_prime],
                d_prime: slots[*d_prime],
                x: slots[*x],
                map: *map,
            };
            launch_with(spec, cfg, &exec, &kernel, mem)
        }
        KernelOp::TiledPcr {
            input,
            output,
            n,
            k,
            sub_tile,
            assignments,
        } => {
            let kernel = TiledPcrKernel {
                input: input.map(|s| slots[s]),
                output: output.map(|s| slots[s]),
                n: *n,
                k: *k,
                sub_tile: *sub_tile,
                assignments: assignments.clone(),
            };
            launch_with(spec, cfg, &exec, &kernel, mem)
        }
        KernelOp::Fused {
            input,
            c_prime,
            d_prime,
            x,
            n,
            k,
            sub_tile,
            m,
        } => {
            let kernel = FusedKernel {
                input: input.map(|s| slots[s]),
                c_prime: slots[*c_prime],
                d_prime: slots[*d_prime],
                x: slots[*x],
                n: *n,
                k: *k,
                sub_tile: *sub_tile,
                m: *m,
            };
            launch_with(spec, cfg, &exec, &kernel, mem)
        }
    }
}
