//! Multi-device solves: one plan type and one executor for both ways
//! of dividing a solve across a [`DeviceGroup`].
//!
//! A [`DistributedPlan`] is a list of per-device [`PlanPart`]s plus a
//! [`Split`]:
//!
//! - [`Split::Systems`] shards a batch. Each device solves a contiguous
//!   range of whole systems with its own [`SolvePlan`]. The primary
//!   device plans the full batch once and its pipeline decisions
//!   ([`Pinned`]: `k`, mapping, fusion, layout) are pinned into every
//!   part, so a homogeneous group reproduces the single-device solution
//!   bit for bit. A weaker device in a heterogeneous group may still
//!   clamp `k` down (a documented deviation).
//! - [`Split::Rows`] splits **one** system by rows, for a system that
//!   outgrows one device's memory (substructuring):
//!   1. **Partition** the `n` rows into `D` contiguous chunks, each at
//!      least 2 rows so it owns an interface pair.
//!   2. **Partial elimination** per device: a chunk's first and last
//!      rows are its *interface* unknowns; the `L - 2` interior rows
//!      form an independent tridiagonal system once the couplings to
//!      the interface pair move to the right-hand side. Each device runs
//!      **one** `m = 1` interior plan three times — for the original
//!      right-hand side `y` and the unit loads `u` (left interface) and
//!      `w` (right interface) — so its peak footprint is that of an
//!      `n/D`-row plan.
//!   3. **Gather** the modified interface rows (two per chunk, four
//!      coefficients each) to the primary over PCIe.
//!   4. **Reduced solve**: the `2D` interface unknowns form a
//!      tridiagonal system, solved on the primary by the ordinary
//!      kernel pipeline (the plan's `reduced` plan).
//!   5. **Scatter** each chunk's interface pair back, serialized over
//!      one bus in device order, then **back-substitute**
//!      `x_interior = y - x_first * u - x_last * w` on each device —
//!      device 0's back-substitution overlaps device `D-1`'s wait.
//!
//! A one-device plan (either split) is a single part whose plan is the
//! whole single-device plan, and [`DistributedExecutor::run`] is then
//! exactly the single-device path, report and all.
//!
//! Numerics of the row split: the interior eliminations reorder the
//! single-device arithmetic, so for `D >= 2` the result matches it to a
//! condition-derived tolerance rather than bit for bit (DESIGN.md §10).
//! The three right-hand sides cost roughly 3x the interior flops of one
//! Thomas sweep: the price of capacity, not a speedup at small `D`.

use crate::buffers::GpuScalar;
use crate::executor::{kernel_spans, PlanExecutor};
use crate::plan::{validate_plan_json, SolvePlan, Step};
use crate::solver::{
    DistributedSummary, GpuSolveReport, GpuSolverConfig, KernelReport, LayoutChoice,
    MappingVariant, ShardSummary,
};
use crate::verify::{structure_findings, verify_distributed_plan, Geometry, PartShape, PlanShape};
use gpu_sim::group::copy_us;
use gpu_sim::json::schema::Check;
use gpu_sim::trace::Trace;
use gpu_sim::{
    DeviceGroup, DeviceSpec, ExecConfig, GroupTimeline, Json, KernelStats, Result, SimError,
    StreamOp,
};
use tridiag_core::transition::TransitionPolicy;
use tridiag_core::{Layout, SystemBatch, TridiagError, TridiagonalSystem};

/// How a [`DistributedPlan`] divides a solve across devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// Each device solves a contiguous range of whole systems.
    Systems,
    /// Each device owns a contiguous range of one system's rows.
    Rows,
}

impl Split {
    /// What one part is called in diagnostics: `"shard"` or `"chunk"`.
    pub fn noun(self) -> &'static str {
        match self {
            Split::Systems => "shard",
            Split::Rows => "chunk",
        }
    }

    /// The unit a part owns: `"system"` or `"row"`.
    pub fn unit(self) -> &'static str {
        match self {
            Split::Systems => "system",
            Split::Rows => "row",
        }
    }

    /// Stable lower-case name, used in JSON and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            Split::Systems => "systems",
            Split::Rows => "rows",
        }
    }

    /// Smallest part: one system, or a chunk's two interface rows.
    pub fn min_part(self) -> usize {
        match self {
            Split::Systems => 1,
            Split::Rows => 2,
        }
    }

    /// Contiguous, balanced partition of `total` units across `d`
    /// devices: part `i` gets `total / d` plus one of the first
    /// `total % d` remainders, so sizes differ by at most 1 and every
    /// unit lands in exactly one part, in order. Returns `(start,
    /// count)` per part.
    ///
    /// Fails with [`SimError::InvalidPlan`] when `d == 0` or a part
    /// would get fewer than [`Split::min_part`] units.
    pub fn partition(self, total: usize, d: usize) -> Result<Vec<(usize, usize)>> {
        if d == 0 {
            return Err(SimError::InvalidPlan("device group is empty".into()));
        }
        if total < self.min_part() * d {
            return Err(SimError::InvalidPlan(format!(
                "cannot split {total} {}(s) across {d} device(s): each {} needs at least {}",
                self.unit(),
                self.noun(),
                self.min_part()
            )));
        }
        let (base, rem) = (total / d, total % d);
        let mut start = 0usize;
        Ok((0..d)
            .map(|i| {
                let count = base + usize::from(i < rem);
                start += count;
                (start - count, count)
            })
            .collect())
    }
}

/// The pipeline decisions the primary device made for a whole batch.
/// A [`Split::Systems`] plan pins them into every part (the solve
/// service pins them per geometry the same way), and the verifier
/// checks every part against them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pinned {
    /// Device the decisions were made on.
    pub device: &'static str,
    /// PCR step count.
    pub k: u32,
    /// Resolved grid mapping.
    pub mapping: MappingVariant,
    /// Whether the fused pipeline runs.
    pub fused: bool,
    /// Device-side layout.
    pub layout: Layout,
}

impl Pinned {
    /// The decisions `plan` made.
    pub fn of(plan: &SolvePlan) -> Self {
        Self {
            device: plan.device,
            k: plan.k,
            mapping: plan.mapping,
            fused: plan.fused,
            layout: plan.layout,
        }
    }

    /// `base` with these decisions fixed, so they replay verbatim
    /// instead of being re-decided at another batch size; per-device
    /// clamps still apply.
    pub fn config(&self, base: &GpuSolverConfig) -> GpuSolverConfig {
        GpuSolverConfig {
            policy: TransitionPolicy::Fixed(self.k),
            mapping: self.mapping,
            fused: self.fused,
            layout: LayoutChoice::pin(self.layout),
            ..*base
        }
    }
}

/// One device's share of a [`DistributedPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanPart {
    /// Index into the [`DeviceGroup`] this part runs on.
    pub device_index: usize,
    /// First system (`Systems`) or row (`Rows`) this part owns.
    pub start: usize,
    /// Number of systems or rows this part owns.
    pub count: usize,
    /// The part's plan, built against its own device: a shard's
    /// sub-batch plan; a chunk's `m = 1` interior plan (`None` for a
    /// 2-row, interface-only chunk); or, on a one-device plan, the whole
    /// single-device plan.
    pub plan: Option<SolvePlan>,
}

/// A solve divided across a [`DeviceGroup`]; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedPlan {
    /// How the work is divided.
    pub split: Split,
    /// Systems in the batch (1 for a row split).
    pub m: usize,
    /// Rows per system.
    pub n: usize,
    /// Scalar width in bytes (4 or 8).
    pub elem_bytes: usize,
    /// Precision label (`"f32"` / `"f64"`).
    pub precision: &'static str,
    /// The primary's decisions pinned into every part. `Some` iff the
    /// split is [`Split::Systems`].
    pub pinned: Option<Pinned>,
    /// One part per device, in device order.
    pub parts: Vec<PlanPart>,
    /// `m = 1, n = 2D` plan for the reduced interface system on the
    /// primary. `Some` iff the split is [`Split::Rows`] with `D >= 2`.
    pub reduced: Option<SolvePlan>,
}

/// Prefix an [`SimError::InvalidPlan`] message with `ctx`.
fn in_context(ctx: String) -> impl Fn(SimError) -> SimError {
    move |e| match e {
        SimError::InvalidPlan(msg) => SimError::InvalidPlan(format!("{ctx}: {msg}")),
        other => other,
    }
}

impl DistributedPlan {
    /// Plan a solve of `m` systems of `n` rows divided across `group`
    /// by `split` (a row split takes exactly one system). Pure, like
    /// [`SolvePlan::build`].
    ///
    /// Fails with [`SimError::InvalidPlan`] on an empty or too-small
    /// geometry (fewer than [`Split::min_part`] units per device), an
    /// unsupported scalar width, or any per-part plan failure (e.g. a
    /// footprint beyond that device's global memory).
    pub fn build(
        group: &DeviceGroup,
        config: &GpuSolverConfig,
        split: Split,
        m: usize,
        n: usize,
        elem_bytes: usize,
    ) -> Result<DistributedPlan> {
        let precision = match elem_bytes {
            4 => "f32",
            8 => "f64",
            other => {
                return Err(SimError::InvalidPlan(format!(
                    "unsupported scalar width: {other} bytes (expected 4 or 8)"
                )))
            }
        };
        if split == Split::Rows && m != 1 {
            return Err(SimError::InvalidPlan(format!(
                "a row split solves exactly one system, got m = {m}"
            )));
        }
        // A systems split plans the full batch on the primary first: its
        // decisions are pinned into every part.
        let reference = match split {
            Split::Systems => Some(SolvePlan::build(group.primary(), config, m, n, elem_bytes)?),
            Split::Rows => None,
        };
        let pinned = reference.as_ref().map(Pinned::of);
        let d = group.len();
        let total = if split == Split::Systems { m } else { n };
        let (parts, reduced) = if d == 1 {
            let plan = match reference {
                Some(plan) => plan,
                None => SolvePlan::build(group.primary(), config, 1, n, elem_bytes)?,
            };
            let whole = PlanPart {
                device_index: 0,
                start: 0,
                count: total,
                plan: Some(plan),
            };
            (vec![whole], None)
        } else {
            let part_config = pinned.map_or(*config, |p| p.config(config));
            let parts = split
                .partition(total, d)?
                .into_iter()
                .enumerate()
                .map(|(i, (start, count))| {
                    let geometry = match split {
                        Split::Systems => Some((count, n)),
                        Split::Rows if count == 2 => None,
                        Split::Rows => Some((1, count - 2)),
                    };
                    let plan = geometry
                        .map(|(pm, pn)| {
                            SolvePlan::build(&group.devices()[i], &part_config, pm, pn, elem_bytes)
                        })
                        .transpose()
                        .map_err(in_context(format!(
                            "{} {i} ({}s [{start}, {}))",
                            split.noun(),
                            split.unit(),
                            start + count
                        )))?;
                    Ok(PlanPart {
                        device_index: i,
                        start,
                        count,
                        plan,
                    })
                })
                .collect::<Result<Vec<_>>>()?;
            let reduced = match split {
                Split::Systems => None,
                Split::Rows => Some(
                    SolvePlan::build(group.primary(), config, 1, 2 * d, elem_bytes)
                        .map_err(in_context("reduced interface system".into()))?,
                ),
            };
            (parts, reduced)
        };
        Ok(DistributedPlan {
            split,
            m,
            n,
            elem_bytes,
            precision,
            pinned,
            parts,
            reduced,
        })
    }

    /// Number of devices (= parts).
    pub fn num_devices(&self) -> usize {
        self.parts.len()
    }

    /// Total device bytes summed over every embedded plan.
    pub fn device_bytes(&self) -> usize {
        self.parts
            .iter()
            .filter_map(|p| p.plan.as_ref())
            .chain(&self.reduced)
            .map(SolvePlan::device_bytes)
            .sum()
    }

    /// The structural facts the verifier and the JSON validator share,
    /// for a group of `devices` devices.
    pub(crate) fn shape(&self, devices: usize) -> PlanShape {
        let geometry = |p: &SolvePlan| (p.m, p.n, p.elem_bytes);
        PlanShape {
            split: self.split,
            m: self.m,
            n: self.n,
            elem_bytes: self.elem_bytes,
            devices,
            pinned: self.pinned.is_some(),
            parts: self
                .parts
                .iter()
                .map(|p| PartShape {
                    device_index: p.device_index,
                    start: p.start,
                    count: p.count,
                    plan: p.plan.as_ref().map(geometry),
                })
                .collect(),
            reduced: self.reduced.as_ref().map(geometry),
        }
    }

    /// Multi-line human description: the split, the pinned decisions,
    /// each part's range and plan, and the reduced interface system.
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let summary = |p: &SolvePlan| {
            format!(
                "on {} m={} n={} k={} kernels={} device_bytes={}",
                p.device,
                p.m,
                p.n,
                p.k,
                p.launches()
                    .map(|l| l.name)
                    .collect::<Vec<_>>()
                    .join(" -> "),
                p.device_bytes()
            )
        };
        let mut s = String::new();
        let _ = writeln!(
            s,
            "distributed plan: split={} m={} n={} {} across {} device(s)",
            self.split.label(),
            self.m,
            self.n,
            self.precision,
            self.parts.len()
        );
        if let Some(p) = &self.pinned {
            let _ = writeln!(
                s,
                "  pinned: k={} mapping={:?} fused={} layout={:?} (decided on {} for the full batch)",
                p.k, p.mapping, p.fused, p.layout, p.device
            );
        }
        let rhs = if self.reduced.is_some() {
            " (x3 RHS: y, u, w)"
        } else {
            ""
        };
        for part in &self.parts {
            let _ = write!(
                s,
                "  {} {}: {}s [{}, {}) ",
                self.split.noun(),
                part.device_index,
                self.split.unit(),
                part.start,
                part.start + part.count
            );
            let _ = match &part.plan {
                Some(p) => writeln!(s, "{}{rhs}", summary(p)),
                None => writeln!(s, "interface-only (no interior elimination)"),
            };
        }
        if let Some(r) = &self.reduced {
            let _ = writeln!(s, "  reduced: {}", summary(r));
        }
        s
    }

    /// Serialize as a JSON object (schema `tridiag.distributed_plan/v2`);
    /// [`validate_distributed_plan_json`] checks the shape.
    pub fn to_json(&self) -> Json {
        let plan_json = |p: &Option<SolvePlan>| p.as_ref().map_or(Json::Null, SolvePlan::to_json);
        let pinned = self.pinned.map_or(Json::Null, |p| {
            Json::Obj(vec![
                ("device".into(), Json::str(p.device)),
                ("k".into(), Json::num(p.k)),
                ("mapping".into(), Json::str(format!("{:?}", p.mapping))),
                ("fused".into(), Json::Bool(p.fused)),
                ("layout".into(), Json::str(format!("{:?}", p.layout))),
            ])
        });
        let parts = self
            .parts
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("device_index".into(), Json::num(p.device_index as f64)),
                    ("start".into(), Json::num(p.start as f64)),
                    ("count".into(), Json::num(p.count as f64)),
                    ("plan".into(), plan_json(&p.plan)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::str(DISTRIBUTED_PLAN_SCHEMA)),
            ("split".into(), Json::str(self.split.label())),
            ("m".into(), Json::num(self.m as f64)),
            ("n".into(), Json::num(self.n as f64)),
            ("elem_bytes".into(), Json::num(self.elem_bytes as f64)),
            ("precision".into(), Json::str(self.precision)),
            ("devices".into(), Json::num(self.parts.len() as f64)),
            ("device_bytes".into(), Json::num(self.device_bytes() as f64)),
            ("pinned".into(), pinned),
            ("parts".into(), Json::Arr(parts)),
            ("reduced".into(), plan_json(&self.reduced)),
        ])
    }
}

/// Schema identifier emitted by [`DistributedPlan::to_json`]. `v2`
/// covers both splits; the separate `tridiag.sharded_plan` schema and
/// `v1` documents are rejected outright.
pub const DISTRIBUTED_PLAN_SCHEMA: &str = "tridiag.distributed_plan/v2";

/// Validate a parsed distributed-plan document against the
/// `tridiag.distributed_plan/v2` schema: field shapes, every embedded
/// plan (via [`validate_plan_json`]), and the same partition, geometry
/// and split-kind invariants [`verify_distributed_plan`] checks.
/// Returns every problem found (empty = valid).
pub fn validate_distributed_plan_json(doc: &Json) -> Vec<String> {
    let mut c = Check::new(doc);
    c.schema(DISTRIBUTED_PLAN_SCHEMA);
    c.req_str("precision");
    c.req_uints(&["m", "n", "elem_bytes", "devices", "device_bytes"]);
    let split = match c.str_enum("split", &["systems", "rows"]) {
        Some("rows") => Split::Rows,
        Some(_) => Split::Systems,
        None => return c.finish(),
    };
    let uint = |j: &Json, key: &str| j.get(key).and_then(Json::as_num).unwrap_or(0.0) as usize;
    // An embedded plan field: `null`, or a plan reduced to its geometry.
    let embedded = |c: &mut Check, key: &str, owner: &Json| -> Option<Geometry> {
        match owner.get(key) {
            None => {
                c.problem(format!("missing field \"{key}\""));
                None
            }
            Some(Json::Null) => None,
            Some(plan) => {
                c.absorb_with(&format!("{key}: "), validate_plan_json(plan));
                Some((uint(plan, "m"), uint(plan, "n"), uint(plan, "elem_bytes")))
            }
        }
    };
    let pinned = match doc.get("pinned") {
        Some(Json::Null) => false,
        Some(p) => {
            let mut pc = c.child(p, "pinned ");
            pc.req_strs(&["device", "mapping"]);
            pc.req_uint("k");
            pc.req_bool("fused");
            pc.str_enum("layout", &["Contiguous", "Interleaved"]);
            c.absorb(pc);
            true
        }
        None => {
            c.problem("missing field \"pinned\"");
            false
        }
    };
    let mut parts = Vec::new();
    for (i, part) in c.req_arr("parts").iter().enumerate() {
        let mut pc = c.child(part, format!("parts[{i}] "));
        let fields = (
            pc.req_uint("device_index"),
            pc.req_uint("start"),
            pc.req_uint("count"),
        );
        let plan = embedded(&mut pc, "plan", part);
        c.absorb(pc);
        if let (Some(device_index), Some(start), Some(count)) = fields {
            parts.push(PartShape {
                device_index: device_index as usize,
                start: start as usize,
                count: count as usize,
                plan,
            });
        }
    }
    let reduced = embedded(&mut c, "reduced", doc);
    let shape = PlanShape {
        split,
        m: uint(doc, "m"),
        n: uint(doc, "n"),
        elem_bytes: uint(doc, "elem_bytes"),
        devices: uint(doc, "devices"),
        pinned,
        parts,
        reduced,
    };
    for f in structure_findings(&shape) {
        c.problem(f.to_string());
    }
    c.finish()
}

/// Run `work(i)` for every `i in 0..count` on its own scoped thread and
/// collect the results in index order. The first failure by index wins
/// (deterministic), dropping the other results; a kernel fault —
/// including a worker panic — is attributed as `"{noun} {i}: …"`.
pub(crate) fn fan_out<T: Send>(
    count: usize,
    noun: &str,
    work: impl Fn(usize) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let panicked = || SimError::KernelFault("worker thread panicked".into());
    let joined: Vec<Result<T>> = crossbeam::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..count).map(|i| scope.spawn(move |_| work(i))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err(panicked())))
            .collect()
    })
    .unwrap_or_else(|_| vec![Err(panicked())]);
    joined
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            r.map_err(|e| match e {
                SimError::KernelFault(msg) => SimError::KernelFault(format!("{noun} {i}: {msg}")),
                other => other,
            })
        })
        .collect()
}

/// What running one plan over a list of inputs hands back: one
/// `(solution, report)` per input, and the exact kernel counters summed
/// over every run.
#[derive(Default)]
struct PlanRuns<S> {
    runs: Vec<(Vec<S>, GpuSolveReport)>,
    flops: u64,
    global_transactions: u64,
    global_bytes: u64,
}

/// Run `plan` over each batch `inputs` yields on one private executor
/// for `spec`.
fn run_plan<S: GpuScalar>(
    spec: DeviceSpec,
    exec: ExecConfig,
    plan: &SolvePlan,
    inputs: impl Iterator<Item = Result<SystemBatch<S>>>,
) -> Result<PlanRuns<S>> {
    let mut ex = PlanExecutor::new(spec, exec);
    let runs = inputs
        .map(|batch| ex.run(plan, &batch?))
        .collect::<Result<Vec<_>>>()?;
    let sum = |f: fn(&KernelStats) -> u64| ex.stats.iter().map(f).sum();
    Ok(PlanRuns {
        runs,
        flops: sum(|s| s.total.flops),
        global_transactions: sum(|s| s.total.global_transactions()),
        global_bytes: sum(|s| s.total.global_bytes()),
    })
}

/// The batches a part's plan runs over: a shard's own systems, or a
/// chunk's interior system once per right-hand side (`y`, `u`, `w`).
/// Built lazily, so a device holds one input batch at a time.
fn part_inputs<'a, S: GpuScalar>(
    split: Split,
    part: &'a PlanPart,
    batch: &'a SystemBatch<S>,
) -> Box<dyn Iterator<Item = Result<SystemBatch<S>>> + 'a> {
    let invalid = move |e: TridiagError| {
        SimError::InvalidPlan(format!(
            "building {} {} input: {e}",
            split.noun(),
            part.device_index
        ))
    };
    if split == Split::Systems {
        let shard = (part.start..part.start + part.count)
            .map(|sys| batch.system(sys))
            .collect::<std::result::Result<Vec<_>, _>>()
            .and_then(SystemBatch::from_systems)
            .map_err(invalid);
        return Box::new(std::iter::once(shard));
    }
    // Interior rows start+1 ..= end-1. Their couplings to the interface
    // pair (lower on the first interior row, upper on the last) move to
    // the right-hand side as the unit loads u and w;
    // TridiagonalSystem::new zeroes lower[0] and upper[li-1], which is
    // exactly that decoupling.
    let li = part.count - 2;
    let column = |f: fn((S, S, S, S)) -> S| {
        (1..=li)
            .map(|t| f(batch.row(0, part.start + t)))
            .collect::<Vec<S>>()
    };
    let (lower, diag, upper) = (column(|r| r.0), column(|r| r.1), column(|r| r.2));
    let mut rhs_u = vec![S::ZERO; li];
    rhs_u[0] = lower[0];
    let mut rhs_w = vec![S::ZERO; li];
    rhs_w[li - 1] = upper[li - 1];
    Box::new([column(|r| r.3), rhs_u, rhs_w].into_iter().map(move |rhs| {
        TridiagonalSystem::new(lower.clone(), diag.clone(), upper.clone(), rhs)
            .and_then(|sys| SystemBatch::from_systems(vec![sys]))
            .map_err(invalid)
    }))
}

/// A chunk's two interface rows in reduced-system coefficients: its
/// first and last rows with the interior solutions substituted in
///   x_{s+1} = y[0]    - u[0]    x_s - w[0]    x_e
///   x_{e-1} = y[li-1] - u[li-1] x_s - w[li-1] x_e.
/// An interface-only chunk's rows pass through unchanged.
fn interface_rows<S: GpuScalar>(
    batch: &SystemBatch<S>,
    part: &PlanPart,
    runs: &PlanRuns<S>,
) -> [(S, S, S, S); 2] {
    let (a_s, b_s, c_s, d_s) = batch.row(0, part.start);
    let (a_e, b_e, c_e, d_e) = batch.row(0, part.start + part.count - 1);
    match runs.runs.as_slice() {
        [(y, _), (u, _), (w, _)] => {
            let l = y.len() - 1;
            [
                (a_s, b_s - c_s * u[0], -(c_s * w[0]), d_s - c_s * y[0]),
                (-(a_e * u[l]), b_e - a_e * w[l], c_e, d_e - a_e * y[l]),
            ]
        }
        _ => [(a_s, b_s, c_s, d_s), (a_e, b_e, c_e, d_e)],
    }
}

/// Append `from`'s launches and findings to `into`, prefixing the
/// mismatch lines with `prefix`.
fn absorb(into: &mut GpuSolveReport, from: &GpuSolveReport, prefix: &str) {
    into.kernels.extend(from.kernels.iter().cloned());
    into.violations.extend(from.violations.iter().cloned());
    into.lints.extend(from.lints.iter().cloned());
    for (dst, src) in [
        (&mut into.lint_mismatches, &from.lint_mismatches),
        (&mut into.phase_sum_mismatches, &from.phase_sum_mismatches),
        (&mut into.verify_mismatches, &from.verify_mismatches),
    ] {
        dst.extend(src.iter().map(|s| format!("{prefix}{s}")));
    }
}

/// The modeled per-device streams of a multi-device solve, with one
/// Chrome-trace track per device whose spans are emitted as each event
/// is recorded.
struct Streams {
    timeline: GroupTimeline,
    spans: Trace,
}

impl Streams {
    fn copy(&mut self, device: usize, op: StreamOp, name: String, bytes: usize) {
        let ev = self
            .timeline
            .stream_mut(device)
            .record(op, name.clone(), copy_us(bytes), bytes);
        let (start, dur) = (ev.start_us, ev.dur_us);
        let args = vec![("bytes".into(), Json::num(bytes as f64))];
        self.spans
            .span(name, "copy", device as u32, start, dur, args);
    }

    fn launch(&mut self, device: usize, kr: &KernelReport) {
        let t = &kr.timing;
        let start = self
            .timeline
            .stream_mut(device)
            .record(StreamOp::Launch, t.name, t.total_us, 0)
            .start_us;
        kernel_spans(&mut self.spans, device as u32, start, kr);
    }

    /// Replay one run of `plan` onto `device`'s stream: its uploads,
    /// its launches (modeled kernel times from `report`) and its
    /// download. `tag` labels the copies of repeated runs.
    fn replay(
        &mut self,
        device: usize,
        plan: &SolvePlan,
        report: &GpuSolveReport,
        tag: &str,
    ) -> Result<()> {
        let mut kernels = report.kernels.iter();
        let bytes = |slot: usize| plan.buffers[slot].elems * plan.elem_bytes;
        for step in &plan.steps {
            match step {
                Step::Upload { slot, source } => self.copy(
                    device,
                    StreamOp::CopyH2D,
                    format!("h2d:{}{tag}", source.label()),
                    bytes(*slot),
                ),
                Step::Launch(_) => {
                    let kr = kernels.next().ok_or_else(|| {
                        SimError::InvalidPlan("run report is missing a kernel launch".into())
                    })?;
                    self.launch(device, kr);
                }
                Step::Download { slot } => self.copy(
                    device,
                    StreamOp::CopyD2H,
                    format!("d2h:{}{tag}", plan.buffers[*slot].name),
                    bytes(*slot),
                ),
                _ => {}
            }
        }
        Ok(())
    }
}

/// Drives a [`DistributedPlan`] across a [`DeviceGroup`]: one thread
/// and one [`PlanExecutor`] per part, then (for a row split) the
/// reduced interface solve on the primary, merged into one
/// [`GpuSolveReport`].
#[derive(Debug, Clone)]
pub struct DistributedExecutor {
    group: DeviceGroup,
    exec: ExecConfig,
}

impl DistributedExecutor {
    /// An executor for `group` with execution options `exec` (applied
    /// to every part's kernels and the reduced solve).
    pub fn new(group: DeviceGroup, exec: ExecConfig) -> Self {
        Self { group, exec }
    }

    /// The device group this executor drives.
    pub fn group(&self) -> &DeviceGroup {
        &self.group
    }

    /// Execute `plan` over `batch`. Returns the solutions in the batch's
    /// layout plus the merged report: `total_us` is the kernel
    /// wall-clock (max over devices), `shards` has one summary per part,
    /// and `distributed` is set for a row split across `D >= 2` devices.
    ///
    /// Fails with [`SimError::InvalidPlan`] when the batch does not
    /// match the plan's geometry or width, or when
    /// [`verify_distributed_plan`] finds a problem (including a plan
    /// built for another device count). Any part's failure aborts the
    /// whole solve; a kernel fault or worker panic surfaces as
    /// [`SimError::KernelFault`] naming the part (`"shard 2: …"`).
    pub fn run<S: GpuScalar>(
        &self,
        plan: &DistributedPlan,
        batch: &SystemBatch<S>,
    ) -> Result<(Vec<S>, GpuSolveReport)> {
        if batch.num_systems() != plan.m || batch.system_len() != plan.n {
            return Err(SimError::InvalidPlan(format!(
                "batch is {}x{} but the plan was built for {}x{}",
                batch.num_systems(),
                batch.system_len(),
                plan.m,
                plan.n
            )));
        }
        if <S as gpu_sim::Elem>::BYTES != plan.elem_bytes {
            return Err(SimError::InvalidPlan(format!(
                "batch scalar is {} bytes but the plan was built for {}",
                <S as gpu_sim::Elem>::BYTES,
                plan.elem_bytes
            )));
        }
        // Cross-device static verification gates execution.
        let verified = verify_distributed_plan(&self.group, plan);
        if !verified.is_clean() {
            return Err(SimError::InvalidPlan(format!(
                "{} plan failed static verification: {}",
                plan.split.label(),
                verified.messages().join("; ")
            )));
        }
        let split = plan.split;
        let part_plan = |i: usize| plan.parts[i].plan.as_ref();
        if plan.parts.len() == 1 {
            // D == 1 is the identity: exactly the single-device path.
            let single = part_plan(0).expect("a verified one-part plan carries its plan");
            return PlanExecutor::new(self.group.primary().clone(), self.exec).run(single, batch);
        }
        let runs = fan_out(plan.parts.len(), split.noun(), |i| {
            let spec = self.group.devices()[i].clone();
            match part_plan(i) {
                Some(p) => run_plan(
                    spec,
                    self.exec,
                    p,
                    part_inputs(split, &plan.parts[i], batch),
                ),
                // An interface-only chunk has no interior to eliminate.
                None => Ok(PlanRuns::default()),
            }
        })?;

        let mut streams = Streams {
            timeline: GroupTimeline::new(&self.group),
            spans: Trace::new(""),
        };
        let tags: &[&str] = match split {
            Split::Systems => &[""],
            Split::Rows => &["#y", "#u", "#w"],
        };
        for (i, run) in runs.iter().enumerate() {
            if let Some(p) = part_plan(i) {
                for (tag, (_, report)) in tags.iter().zip(&run.runs) {
                    streams.replay(i, p, report, tag)?;
                }
            }
        }
        let mut out = vec![S::ZERO; batch.total_len()];
        let mut backsub_us = vec![0.0f64; runs.len()];
        let (reduced, mut distributed) = match split {
            Split::Systems => {
                for (part, run) in plan.parts.iter().zip(&runs) {
                    // A shard's sub-batch is contiguous: its `local`-th
                    // system is the `local`-th run of `n` values.
                    for (local, xs) in run.runs[0].0.chunks(plan.n).enumerate() {
                        for (row, &v) in xs.iter().enumerate() {
                            out[batch.index(part.start + local, row)] = v;
                        }
                    }
                }
                (None, None)
            }
            Split::Rows => {
                let (reduced, summary) =
                    self.reduce(plan, batch, &runs, &mut streams, &mut out, &mut backsub_us)?;
                (Some(reduced), Some(summary))
            }
        };
        let timeline = &streams.timeline;
        let (wall_clock, kernel_wall) = (timeline.wall_clock_us(), timeline.kernel_wall_clock_us());
        let serialized = timeline.serialized_us();
        if let Some(summary) = &mut distributed {
            summary.wall_clock_us = wall_clock;
            summary.serialized_us = serialized;
        }

        let shards = plan
            .parts
            .iter()
            .zip(&runs)
            .enumerate()
            .map(|(i, (part, run))| {
                let backsub_rows = match split {
                    Split::Systems => 0,
                    Split::Rows => part.count - 2,
                };
                ShardSummary {
                    device: self.group.devices()[i].name,
                    device_index: i,
                    sys_start: part.start,
                    sys_count: part.count,
                    k: part.plan.as_ref().map_or(0, |p| p.k),
                    kernel_us: run.runs.iter().map(|(_, r)| r.total_us).sum::<f64>()
                        + backsub_us[i],
                    completion_us: timeline.streams()[i].completion_us(),
                    flops: run.flops + 4 * backsub_rows as u64,
                    global_transactions: run.global_transactions,
                    global_bytes: run.global_bytes,
                }
            })
            .collect::<Vec<_>>();

        let (word, decision) = match split {
            Split::Systems => ("sharded", "pinned_decisions"),
            Split::Rows => ("distributed", "reduced_system"),
        };
        let mut trace = Trace::new(format!("tridiag {word} solve on {}", self.group.label()));
        trace.span(
            format!("{word}_solve"),
            "solver",
            0,
            0.0,
            wall_clock,
            vec![
                ("m".into(), Json::num(plan.m as f64)),
                ("n".into(), Json::num(plan.n as f64)),
                ("precision".into(), Json::str(plan.precision)),
                ("devices".into(), Json::num(plan.parts.len() as f64)),
                ("kernel_wall_us".into(), Json::num(kernel_wall)),
                ("serialized_us".into(), Json::num(serialized)),
            ],
        );
        let parts: Vec<String> = plan
            .parts
            .iter()
            .map(|p| format!("{}:{}", p.device_index, p.count))
            .collect();
        trace.instant(
            "partition",
            "solver",
            0,
            0.0,
            vec![
                ("split".into(), Json::str(split.label())),
                ("parts".into(), Json::str(parts.join("+"))),
            ],
        );
        // The merged report describes the primary's plan: shard 0's (it
        // carries the pinned decisions) or the reduced interface plan,
        // with the certificate the group verifier already produced.
        let (lead, lead_verify) = match split {
            Split::Systems => (part_plan(0), verified.parts[0].as_ref()),
            Split::Rows => (plan.reduced.as_ref(), verified.reduced.as_ref()),
        };
        let lead = lead.expect("a verified plan carries its primary plan");
        trace.instant(
            decision,
            "solver",
            0,
            0.0,
            vec![
                ("device".into(), Json::str(lead.device)),
                ("n".into(), Json::num(lead.n as f64)),
                ("k".into(), Json::num(lead.k)),
                ("mapping".into(), Json::str(format!("{:?}", lead.mapping))),
                ("fused".into(), Json::Bool(lead.fused)),
                ("layout".into(), Json::str(format!("{:?}", lead.layout))),
            ],
        );
        trace.events.append(&mut streams.spans.events);

        let mut report = GpuSolveReport {
            k: lead.k,
            mapping: lead.mapping,
            fused: lead.fused,
            kernels: Vec::new(),
            total_us: kernel_wall,
            precision: plan.precision,
            violations: Vec::new(),
            lints: Vec::new(),
            lint_mismatches: Vec::new(),
            phase_sum_mismatches: Vec::new(),
            verify: lead_verify
                .expect("a verified plan certifies its primary plan")
                .clone(),
            verify_mismatches: Vec::new(),
            trace,
            plan: lead.clone(),
            shards,
            distributed,
        };
        for (i, run) in runs.iter().enumerate() {
            for (_, r) in &run.runs {
                absorb(&mut report, r, &format!("dev{i}: "));
            }
        }
        if let Some(reduced) = &reduced {
            absorb(&mut report, &reduced.runs[0].1, "reduced: ");
        }
        Ok((out, report))
    }

    /// The second half of a row split, after every chunk's interior
    /// elimination: gather the interface rows, solve the reduced system
    /// on the primary, scatter the interface values back and
    /// back-substitute every interior into `out`. Records all of it on
    /// `streams`; returns the reduced run and the cross-device summary
    /// (its wall-clock fields are filled in by the caller).
    fn reduce<S: GpuScalar>(
        &self,
        plan: &DistributedPlan,
        batch: &SystemBatch<S>,
        runs: &[PlanRuns<S>],
        streams: &mut Streams,
        out: &mut [S],
        backsub_us: &mut [f64],
    ) -> Result<(PlanRuns<S>, DistributedSummary)> {
        let reduced_plan = plan
            .reduced
            .as_ref()
            .expect("a verified row split carries its reduced plan");
        let d = plan.parts.len();
        let eb = plan.elem_bytes;
        let (gather_bytes, scatter_bytes) = (8 * eb, 2 * eb); // 2 rows x 4 coefficients; 2 values
                                                              // Unknown order (x_first_0, x_last_0, x_first_1, ...): each
                                                              // interface row couples only to its in-chunk partner and to the
                                                              // adjacent row of the neighbouring chunk, so the reduced system
                                                              // is tridiagonal.
        let mut rows = Vec::with_capacity(2 * d);
        for (i, (part, run)) in plan.parts.iter().zip(runs).enumerate() {
            rows.extend(interface_rows(batch, part, run));
            streams.copy(
                i,
                StreamOp::CopyD2H,
                "gather:interface".into(),
                gather_bytes,
            );
        }
        let column = |f: fn(&(S, S, S, S)) -> S| rows.iter().map(f).collect::<Vec<S>>();
        let assembled = TridiagonalSystem::new(
            column(|r| r.0),
            column(|r| r.1),
            column(|r| r.2),
            column(|r| r.3),
        )
        .and_then(|sys| SystemBatch::from_systems(vec![sys]))
        .map_err(|e| SimError::InvalidPlan(format!("assembling the reduced system: {e}")))?;
        let reduced = run_plan(
            self.group.primary().clone(),
            self.exec,
            reduced_plan,
            std::iter::once(Ok(assembled)),
        )
        .map_err(|e| match e {
            SimError::KernelFault(msg) => {
                SimError::KernelFault(format!("reduced interface solve: {msg}"))
            }
            other => other,
        })?;
        // The reduced solve starts once every chunk's rows have arrived.
        let gathered = streams.timeline.wall_clock_us();
        streams.timeline.stream_mut(0).wait_until(gathered);
        streams.replay(0, reduced_plan, &reduced.runs[0].1, "#reduced")?;
        // Scatter the interface pairs back, serialized over one PCIe bus
        // in device order; each device back-substitutes as soon as its
        // own pair lands.
        let mut bus = streams.timeline.streams()[0].completion_us();
        for i in 0..d {
            streams.timeline.stream_mut(i).wait_until(bus);
            streams.copy(
                i,
                StreamOp::CopyH2D,
                "scatter:interface".into(),
                scatter_bytes,
            );
            bus = streams.timeline.streams()[i].completion_us();
        }
        let xr = &reduced.runs[0].0;
        let mut backsub_flops = 0u64;
        for (i, (part, run)) in plan.parts.iter().zip(runs).enumerate() {
            let (xs, xe) = (xr[2 * i], xr[2 * i + 1]);
            out[batch.index(0, part.start)] = xs;
            out[batch.index(0, part.start + part.count - 1)] = xe;
            let [(y, _), (u, _), (w, _)] = run.runs.as_slice() else {
                continue;
            };
            for t in 0..y.len() {
                out[batch.index(0, part.start + 1 + t)] = y[t] - u[t] * xs - w[t] * xe;
            }
            backsub_flops += 4 * y.len() as u64;
            // A streaming pass over y/u/w plus the write of x:
            // bandwidth-bound at 4 elements per interior row, plus the
            // launch cost.
            let spec = &self.group.devices()[i];
            let dur = spec.launch_overhead_us
                + (4 * y.len() * eb) as f64 / (spec.dram_bandwidth_gbps * 1e3);
            backsub_us[i] = dur;
            let start = streams
                .timeline
                .stream_mut(i)
                .record(StreamOp::Launch, "back_substitute", dur, 0)
                .start_us;
            let args = vec![("interior_rows".into(), Json::num(y.len() as f64))];
            streams.spans.span(
                "kernel:back_substitute",
                "kernel",
                i as u32,
                start,
                dur,
                args,
            );
        }
        let summary = DistributedSummary {
            devices: d,
            reduced_n: 2 * d,
            reduced_k: reduced_plan.k,
            reduced_flops: reduced.flops,
            reduced_transactions: reduced.global_transactions,
            reduced_bytes: reduced.global_bytes,
            backsub_flops,
            gather_bytes: (d * gather_bytes) as u64,
            scatter_bytes: (d * scatter_bytes) as u64,
            wall_clock_us: 0.0,
            serialized_us: 0.0,
        };
        Ok((reduced, summary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::GpuTridiagSolver;
    use tridiag_core::generators::random_batch;

    fn group_of(d: usize) -> DeviceGroup {
        DeviceGroup::homogeneous(DeviceSpec::gtx480(), d).unwrap()
    }

    fn plan(group: &DeviceGroup, split: Split, m: usize, n: usize) -> DistributedPlan {
        DistributedPlan::build(group, &GpuSolverConfig::default(), split, m, n, 8).unwrap()
    }

    fn worst_abs(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn partition_covers_balanced_contiguously() {
        for (split, total, d) in [
            (Split::Systems, 10usize, 3usize),
            (Split::Systems, 5, 5),
            (Split::Systems, 64, 4),
            (Split::Rows, 10, 3),
            (Split::Rows, 8, 4),
        ] {
            let parts = split.partition(total, d).unwrap();
            assert_eq!(parts.len(), d);
            let mut cursor = 0;
            for &(start, count) in &parts {
                assert_eq!(start, cursor, "{split:?} total={total} d={d}");
                assert!(count >= split.min_part());
                cursor += count;
            }
            assert_eq!(cursor, total);
            let min = parts.iter().map(|p| p.1).min().unwrap();
            let max = parts.iter().map(|p| p.1).max().unwrap();
            assert!(
                max - min <= 1,
                "{split:?} total={total} d={d}: skew {min}..{max}"
            );
        }
        assert_eq!(
            Split::Rows.partition(10, 3).unwrap(),
            vec![(0, 4), (4, 3), (7, 3)]
        );
        assert_eq!(Split::Systems.partition(5, 1).unwrap(), vec![(0, 5)]);
    }

    #[test]
    fn partition_degenerate_cases_are_typed_errors() {
        for (split, total, d) in [
            (Split::Systems, 0usize, 2usize),
            (Split::Systems, 4, 0),
            (Split::Systems, 3, 4),
            (Split::Rows, 5, 3),
            (Split::Rows, 0, 2),
            (Split::Rows, 8, 0),
        ] {
            let err = split.partition(total, d).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidPlan(_)),
                "{split:?} {total} {d}"
            );
        }
    }

    #[test]
    fn one_device_plans_are_the_identity() {
        let single = DeviceGroup::single(DeviceSpec::gtx480());
        for (split, m, n) in [(Split::Systems, 8usize, 64usize), (Split::Rows, 1, 64)] {
            let batch = random_batch::<f64>(m, n, 22);
            let p = plan(&single, split, m, n);
            assert_eq!(p.parts.len(), 1);
            assert!(p.reduced.is_none());
            assert_eq!(
                p.parts[0].count,
                if split == Split::Systems { m } else { n }
            );
            let (x1, r1) = GpuTridiagSolver::gtx480().solve_batch(&batch).unwrap();
            let (x2, r2) = DistributedExecutor::new(single.clone(), ExecConfig::default())
                .run(&p, &batch)
                .unwrap();
            assert_eq!(x1, x2, "{split:?}: D == 1 must be bit-identical");
            assert_eq!(
                r1, r2,
                "{split:?}: D == 1 must be byte-identical, report and all"
            );
        }
    }

    #[test]
    fn systems_split_pins_the_reference_decisions() {
        let p = plan(&group_of(4), Split::Systems, 64, 512);
        let pinned = p.pinned.expect("a systems split records its pins");
        // Unsharded m = 16 would choose a different pipeline (k = 7,
        // BlockGroupPerSystem); pinning keeps every shard on the
        // reference decision so outputs stay bit-identical.
        let solo = SolvePlan::build(
            &DeviceSpec::gtx480(),
            &GpuSolverConfig::default(),
            16,
            512,
            8,
        )
        .unwrap();
        assert_ne!((solo.k, solo.mapping), (pinned.k, pinned.mapping));
        for part in &p.parts {
            let sp = part.plan.as_ref().unwrap();
            assert_eq!(
                (sp.k, sp.mapping, sp.fused),
                (pinned.k, pinned.mapping, pinned.fused)
            );
            assert_eq!((part.count, sp.m), (16, 16));
        }
    }

    #[test]
    fn systems_split_pins_the_reference_layout() {
        // The full batch at m = 1024 picks interleaved p-Thomas; a
        // 4-way shard (m = 256) on its own would pick the hybrid —
        // pinning keeps every shard on the reference.
        let cfg = GpuSolverConfig::default();
        let p = DistributedPlan::build(&group_of(4), &cfg, Split::Systems, 1024, 512, 8).unwrap();
        let pinned = p.pinned.unwrap();
        assert_eq!(pinned.layout, Layout::Interleaved);
        let solo = SolvePlan::build(&DeviceSpec::gtx480(), &cfg, 256, 512, 8).unwrap();
        assert_ne!(solo.layout, pinned.layout);
        for part in &p.parts {
            let sp = part.plan.as_ref().unwrap();
            assert_eq!((sp.layout, sp.k), (pinned.layout, pinned.k));
        }
    }

    #[test]
    fn heterogeneous_shard_reclamps_k_to_its_device() {
        // GTX280 has 16 KiB shared per block vs the GTX480's 48 KiB, so
        // the pinned k must clamp down on that shard.
        let group =
            DeviceGroup::from_specs(vec![DeviceSpec::gtx480(), DeviceSpec::gtx280()]).unwrap();
        let p = plan(&group, Split::Systems, 16, 1024);
        let k = p.pinned.unwrap().k;
        assert_eq!(p.parts[0].plan.as_ref().unwrap().k, k);
        assert!(p.parts[1].plan.as_ref().unwrap().k <= k);
        assert!(verify_distributed_plan(&group, &p).is_clean());
    }

    #[test]
    fn small_sharded_solve_is_bit_identical_to_single_device() {
        let batch = random_batch::<f64>(10, 64, 24);
        let solver = GpuTridiagSolver::gtx480();
        let (x1, r1) = solver.solve_batch(&batch).unwrap();
        let (x2, r2) = solver.solve_batch_group(&group_of(4), &batch).unwrap();
        assert_eq!(x1, x2, "sharded solutions must be bit-identical");
        assert_eq!(r2.k, r1.k);
        assert!(r2.total_us <= r1.total_us + 1e-9);
        assert_eq!(r2.shards.iter().map(|s| s.sys_count).sum::<usize>(), 10);
        for w in r2.shards.windows(2) {
            assert_eq!(w[0].sys_start + w[0].sys_count, w[1].sys_start);
        }
        for s in &r2.shards {
            assert!(s.flops > 0);
            assert!(s.completion_us > s.kernel_us, "copies add stream time");
        }
    }

    #[test]
    fn row_split_matches_single_device_within_tolerance() {
        let solver = GpuTridiagSolver::gtx480();
        // n = 8 at D = 4: every chunk is interface-only.
        for (n, d) in [(256usize, 2usize), (256, 4), (8, 4)] {
            let batch = random_batch::<f64>(1, n, 11);
            let (x1, _) = solver.solve_batch(&batch).unwrap();
            let p = plan(&group_of(d), Split::Rows, 1, n);
            assert_eq!(p.parts.iter().all(|c| c.plan.is_none()), n == 2 * d);
            let (x2, r2) = DistributedExecutor::new(group_of(d), ExecConfig::default())
                .run(&p, &batch)
                .unwrap();
            let worst = worst_abs(&x1, &x2);
            assert!(worst < 1e-9, "n = {n} D = {d}: max abs deviation {worst}");
            let dist = r2.distributed.as_ref().expect("distributed summary");
            assert_eq!((dist.devices, dist.reduced_n), (d, 2 * d));
            assert!(batch.max_relative_residual(&x2).unwrap() < 1e-9);
        }
    }

    #[test]
    fn geometry_mismatch_is_a_typed_error() {
        let ex = |d| DistributedExecutor::new(group_of(d), ExecConfig::default());
        let sharded = plan(&group_of(2), Split::Systems, 8, 64);
        let split = plan(&group_of(2), Split::Rows, 1, 64);
        for err in [
            ex(2)
                .run(&sharded, &random_batch::<f64>(8, 32, 23))
                .unwrap_err(),
            ex(2)
                .run(&sharded, &random_batch::<f32>(8, 64, 23))
                .unwrap_err(),
            ex(2)
                .run(&split, &random_batch::<f64>(2, 64, 17))
                .unwrap_err(),
            // Plans built for 2 devices, executor driving 4.
            ex(4)
                .run(&sharded, &random_batch::<f64>(8, 64, 23))
                .unwrap_err(),
            ex(4)
                .run(&split, &random_batch::<f64>(1, 64, 17))
                .unwrap_err(),
        ] {
            assert!(matches!(err, SimError::InvalidPlan(_)), "{err:?}");
        }
        let err = DistributedPlan::build(
            &group_of(2),
            &GpuSolverConfig::default(),
            Split::Rows,
            2,
            64,
            8,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidPlan(_)), "{err:?}");
    }

    #[test]
    fn plan_json_round_trips_through_the_validator() {
        for d in [1usize, 2, 4] {
            for (split, m) in [(Split::Systems, 64usize), (Split::Rows, 1)] {
                let p = plan(&group_of(d), split, m, 128);
                let doc = gpu_sim::json::parse(&p.to_json().to_string()).unwrap();
                let problems = validate_distributed_plan_json(&doc);
                assert!(problems.is_empty(), "{split:?} D = {d}: {problems:?}");
            }
        }
    }

    #[test]
    fn json_validator_rejects_drift() {
        let p = plan(&group_of(2), Split::Systems, 64, 512);
        let edit = |f: &dyn Fn(&mut DistributedPlan)| {
            let mut q = p.clone();
            f(&mut q);
            validate_distributed_plan_json(&q.to_json())
        };
        // A shard whose embedded plan solves more systems than it owns.
        let problems = edit(&|q| q.parts[0].plan.as_mut().unwrap().m = 64);
        assert!(
            problems.iter().any(|s| s.contains("but the shard owns")),
            "{problems:?}"
        );
        // The first shard shifted off zero.
        assert!(!edit(&|q| q.parts[0].start = 1).is_empty());
        // Parts missing, and a superseded schema id.
        let mut doc = p.to_json();
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "parts");
            for (k, v) in fields.iter_mut() {
                if k == "schema" {
                    *v = Json::str("tridiag.sharded_plan/v2");
                }
            }
        }
        let problems = validate_distributed_plan_json(&doc);
        assert!(
            problems.iter().any(|s| s.contains("schema")),
            "{problems:?}"
        );
        assert!(problems.iter().any(|s| s.contains("parts")), "{problems:?}");
    }

    #[test]
    fn scatter_is_pcie_serialized_and_backsub_overlaps() {
        let p = plan(&group_of(4), Split::Rows, 1, 1 << 12);
        let batch = random_batch::<f64>(1, 1 << 12, 19);
        let (_, r) = DistributedExecutor::new(group_of(4), ExecConfig::default())
            .run(&p, &batch)
            .unwrap();
        // Device 0's scatter lands first on the serialized bus, so its
        // back-substitution finishes before the last device's.
        let first = r.shards.first().unwrap().completion_us;
        let last = r.shards.last().unwrap().completion_us;
        assert!(
            first < last,
            "pipelined back-substitution: dev0 {first}, dev3 {last}"
        );
    }

    #[test]
    fn worker_faults_name_the_part() {
        let err = fan_out(3, "shard", |i| match i {
            1 => Err(SimError::KernelFault("zero pivot".into())),
            2 => panic!("worker panics are contained"),
            _ => Ok(i),
        })
        .unwrap_err();
        assert_eq!(err, SimError::KernelFault("shard 1: zero pivot".into()));
    }
}
