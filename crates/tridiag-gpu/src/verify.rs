//! Plan-level static verifier: abstract interpretation of a
//! [`SolvePlan`]'s step sequence.
//!
//! [`SolvePlan::validate`] checks *structure* (slots created once, in
//! order; exactly one download). This module checks *meaning*: it walks
//! the step sequence with an abstract machine whose state is, per slot,
//! "created? written? last used where?", and certifies
//!
//! - **dataflow** — every slot a launch binds or a download reads was
//!   `Upload`ed/`Alloc`ed first ([`FindingKind::UseBeforeDef`]), and
//!   `Alloc`-only scratch is written by some kernel before anything
//!   reads it ([`FindingKind::UnwrittenScratchRead`]), using the
//!   per-kernel read/write signatures [`crate::plan::KernelOp::reads`] /
//!   [`crate::plan::KernelOp::writes`];
//! - **slot hygiene** — duplicate creations
//!   ([`FindingKind::DuplicateDef`]), slots that are declared or
//!   created but feed nothing ([`FindingKind::DanglingSlot`]), and
//!   bindings past the buffer table
//!   ([`FindingKind::SlotOutOfRange`]);
//! - **layout pairing** — exactly one `Convert` before the uploads and
//!   one `ConvertBack` after the download, both matching the plan's
//!   device layout ([`FindingKind::LayoutMismatch`]); plans whose host
//!   layout equals the device layout legitimately elide both steps;
//! - **aliasing** — no slot bound as both input and output of a single
//!   launch, and no output bound twice
//!   ([`FindingKind::AliasHazard`]);
//! - **memory** — a liveness-based high-water mark: buffers become
//!   resident at their `Upload`/`Alloc` step and die after their last
//!   use, and the exact peak must fit the device's global memory
//!   ([`FindingKind::PeakMemoryOverflow`]). [`SolvePlan::build`]
//!   delegates its plan-time OOM check to the same computation
//!   ([`peak_resident_bytes`]), so there is one memory model.
//!
//! The verifier also emits a [`PlanPrediction`] — bytes H2D/D2H per
//! step, peak resident bytes, launch counts per kernel — that
//! [`crate::executor::PlanExecutor`] cross-checks **exactly** against
//! the stats of the real run (mirroring the access-plan lint's
//! "predicted == measured" discipline). [`verify_distributed_plan`]
//! extends all of this across devices: every part's plan is verified
//! against *its* device, plus the cross-device invariants (contiguous
//! disjoint balanced partition, part geometry, pinned decisions for a
//! systems split, interface and reduced-system checks for a row split).

use crate::distributed::{DistributedPlan, Split};
use crate::plan::{Slot, SolvePlan, Step};
use gpu_sim::{DeviceGroup, DeviceSpec, Json};
use std::fmt;

/// Diagnostic class of a [`PlanFinding`] — the negative suite proves
/// every class fires on a corrupted plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// A launch or download touches a slot before any step creates it.
    UseBeforeDef,
    /// A read of `Alloc`-only scratch that no prior step wrote.
    UnwrittenScratchRead,
    /// A slot is created (uploaded/allocated) more than once.
    DuplicateDef,
    /// A slot is declared or created but never used by any launch or
    /// download.
    DanglingSlot,
    /// `Convert`/`ConvertBack` missing, duplicated, misplaced, or not
    /// matching the plan's device layout.
    LayoutMismatch,
    /// A slot bound as both input and output of one launch, or bound
    /// twice as output.
    AliasHazard,
    /// The liveness-based peak resident bytes exceed the device's
    /// global memory.
    PeakMemoryOverflow,
    /// A step references a slot past the buffer table.
    SlotOutOfRange,
    /// Shards do not tile the batch contiguously, disjointly, and
    /// balanced.
    ShardPartition,
    /// A shard contradicts the pinned reference decisions or the group
    /// geometry.
    ShardConsistency,
    /// Distributed chunks do not tile the system's rows contiguously,
    /// disjointly, and balanced, or a chunk is too small to own its two
    /// interface rows.
    ChunkPartition,
    /// A distributed chunk contradicts the group geometry or its
    /// interior plan's geometry does not match the chunk.
    ChunkConsistency,
    /// The interface exchange is broken: a chunk's interface
    /// coefficients would be used before any interior elimination
    /// defines them, or an interior plan exists with no interior rows.
    InterfaceExchange,
    /// The reduced interface system is missing or its size does not
    /// match `2·D` interface unknowns.
    ReducedSystem,
}

impl FindingKind {
    /// Stable kebab-case label (used in JSON and CLI output).
    pub fn label(self) -> &'static str {
        match self {
            FindingKind::UseBeforeDef => "use-before-def",
            FindingKind::UnwrittenScratchRead => "unwritten-scratch-read",
            FindingKind::DuplicateDef => "duplicate-def",
            FindingKind::DanglingSlot => "dangling-slot",
            FindingKind::LayoutMismatch => "layout-mismatch",
            FindingKind::AliasHazard => "alias-hazard",
            FindingKind::PeakMemoryOverflow => "peak-memory-overflow",
            FindingKind::SlotOutOfRange => "slot-out-of-range",
            FindingKind::ShardPartition => "shard-partition",
            FindingKind::ShardConsistency => "shard-consistency",
            FindingKind::ChunkPartition => "chunk-partition",
            FindingKind::ChunkConsistency => "chunk-consistency",
            FindingKind::InterfaceExchange => "interface-exchange",
            FindingKind::ReducedSystem => "reduced-system",
        }
    }
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One verifier diagnostic, attributed to the step (and, under
/// [`verify_distributed_plan`], the part) that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanFinding {
    /// Diagnostic class.
    pub kind: FindingKind,
    /// Step index in the plan's step sequence, when attributable.
    pub step: Option<usize>,
    /// Part (shard or chunk) index, when the finding belongs to one
    /// part of a [`DistributedPlan`].
    pub part: Option<usize>,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for PlanFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(part) = self.part {
            write!(f, "part {part}")?;
            f.write_str(if self.step.is_some() { ", " } else { ": " })?;
        }
        if let Some(step) = self.step {
            write!(f, "step {step}: ")?;
        }
        write!(f, "{}: {}", self.kind, self.message)
    }
}

/// Lifetime of one buffer slot: the step that creates it and the last
/// step that uses it (launch binding or download). The executor frees
/// each buffer right after its `last_use_step`, which is what makes the
/// static peak and the dynamic arena peak coincide exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlotLiveness {
    /// Step that uploads or allocates the slot (first creation wins).
    pub def_step: Option<usize>,
    /// Last step that binds or downloads the slot.
    pub last_use_step: Option<usize>,
}

/// Static resource certificate for a plan: what the executor *must*
/// observe if the plan and the machine model agree.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlanPrediction {
    /// `(step index, bytes)` per host-to-device upload, in step order.
    pub h2d: Vec<(usize, usize)>,
    /// `(step index, bytes)` per device-to-host download, in step order.
    pub d2h: Vec<(usize, usize)>,
    /// Total upload bytes.
    pub h2d_total_bytes: usize,
    /// Total download bytes.
    pub d2h_total_bytes: usize,
    /// Liveness-based memory high-water mark.
    pub peak_resident_bytes: usize,
    /// Step at which the peak is reached (an `Upload`/`Alloc` step).
    pub peak_step: Option<usize>,
    /// `(kernel name, launch count)` in first-launch order.
    pub launches: Vec<(&'static str, usize)>,
}

impl PlanPrediction {
    /// Compare this certificate against the stats of a real run.
    /// Returns one message per discrepancy (empty = exact match).
    pub fn cross_check(&self, dynamic: &DynamicPlanStats) -> Vec<String> {
        let mut out = Vec::new();
        diff_transfers("H2D", &self.h2d, &dynamic.h2d, &mut out);
        diff_transfers("D2H", &self.d2h, &dynamic.d2h, &mut out);
        if self.peak_resident_bytes != dynamic.peak_resident_bytes {
            out.push(format!(
                "peak resident bytes: predicted {} != measured {}",
                self.peak_resident_bytes, dynamic.peak_resident_bytes
            ));
        }
        if self.launches.len() != dynamic.launches.len() {
            out.push(format!(
                "launches: predicted {} kernel(s) != measured {}",
                self.launches.len(),
                dynamic.launches.len()
            ));
        }
        for (&(pn, pc), &(mn, mc)) in self.launches.iter().zip(&dynamic.launches) {
            if pn != mn || pc != mc {
                out.push(format!(
                    "launches: predicted {pn} x{pc} != measured {mn} x{mc}"
                ));
            }
        }
        out
    }

    /// Serialize as a JSON object.
    pub fn to_json(&self) -> Json {
        let xfer = |v: &[(usize, usize)]| {
            Json::Arr(
                v.iter()
                    .map(|&(step, bytes)| {
                        Json::Obj(vec![
                            ("step".into(), Json::num(step as f64)),
                            ("bytes".into(), Json::num(bytes as f64)),
                        ])
                    })
                    .collect(),
            )
        };
        Json::Obj(vec![
            ("h2d_total_bytes".into(), Json::num(self.h2d_total_bytes as f64)),
            ("d2h_total_bytes".into(), Json::num(self.d2h_total_bytes as f64)),
            (
                "peak_resident_bytes".into(),
                Json::num(self.peak_resident_bytes as f64),
            ),
            ("peak_step".into(), opt_num(self.peak_step)),
            ("h2d".into(), xfer(&self.h2d)),
            ("d2h".into(), xfer(&self.d2h)),
            (
                "launches".into(),
                Json::Arr(
                    self.launches
                        .iter()
                        .map(|&(name, count)| {
                            Json::Obj(vec![
                                ("kernel".into(), Json::str(name)),
                                ("count".into(), Json::num(count as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// What the executor actually observed while running a plan — the
/// dynamic half of the [`PlanPrediction`] cross-check.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DynamicPlanStats {
    /// `(step index, bytes)` per upload actually performed.
    pub h2d: Vec<(usize, usize)>,
    /// `(step index, bytes)` per download actually performed.
    pub d2h: Vec<(usize, usize)>,
    /// Peak resident bytes reported by the device memory arena.
    pub peak_resident_bytes: usize,
    /// `(kernel name, launch count)` in first-launch order.
    pub launches: Vec<(&'static str, usize)>,
}

fn diff_transfers(
    label: &str,
    pred: &[(usize, usize)],
    meas: &[(usize, usize)],
    out: &mut Vec<String>,
) {
    if pred.len() != meas.len() {
        out.push(format!(
            "{label}: predicted {} transfer(s) != measured {}",
            pred.len(),
            meas.len()
        ));
    }
    for (&(ps, pb), &(ms, mb)) in pred.iter().zip(meas) {
        if ps != ms || pb != mb {
            out.push(format!(
                "{label}: predicted {pb} bytes at step {ps} != measured {mb} bytes at step {ms}"
            ));
        }
    }
}

fn opt_num(v: Option<usize>) -> Json {
    match v {
        Some(n) => Json::num(n as f64),
        None => Json::Null,
    }
}

/// Result of statically verifying one [`SolvePlan`] against one device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Device the plan was certified against.
    pub device: &'static str,
    /// Every diagnostic found (empty = certified clean).
    pub findings: Vec<PlanFinding>,
    /// The static resource certificate the executor cross-checks.
    pub prediction: PlanPrediction,
    /// Per-slot lifetimes (indexed by slot), driving executor frees.
    pub liveness: Vec<SlotLiveness>,
}

impl VerifyReport {
    /// `true` when no diagnostic fired.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Serialize as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("device".into(), Json::str(self.device)),
            ("clean".into(), Json::Bool(self.is_clean())),
            (
                "findings".into(),
                Json::Arr(self.findings.iter().map(finding_json).collect()),
            ),
            ("prediction".into(), self.prediction.to_json()),
            (
                "liveness".into(),
                Json::Arr(
                    self.liveness
                        .iter()
                        .enumerate()
                        .map(|(slot, lv)| {
                            Json::Obj(vec![
                                ("slot".into(), Json::num(slot as f64)),
                                ("def_step".into(), opt_num(lv.def_step)),
                                ("last_use_step".into(), opt_num(lv.last_use_step)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn finding_json(f: &PlanFinding) -> Json {
    Json::Obj(vec![
        ("kind".into(), Json::str(f.kind.label())),
        ("step".into(), opt_num(f.step)),
        ("part".into(), opt_num(f.part)),
        ("message".into(), Json::str(f.message.clone())),
    ])
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            let launches: usize = self.prediction.launches.iter().map(|&(_, c)| c).sum();
            write!(
                f,
                "verify {}: clean (peak resident {} bytes, {} B H2D, {} B D2H, {} launch(es))",
                self.device,
                self.prediction.peak_resident_bytes,
                self.prediction.h2d_total_bytes,
                self.prediction.d2h_total_bytes,
                launches
            )
        } else {
            write!(f, "verify {}: {} finding(s)", self.device, self.findings.len())?;
            for finding in &self.findings {
                write!(f, "\n  {finding}")?;
            }
            Ok(())
        }
    }
}

/// Per-slot lifetimes of `plan` (first creation, last binding or
/// download), tolerant of malformed plans (out-of-range slots are
/// ignored here and reported by [`verify_plan`]).
pub fn slot_liveness(plan: &SolvePlan) -> Vec<SlotLiveness> {
    let n = plan.buffers.len();
    let mut lv = vec![SlotLiveness::default(); n];
    for (i, step) in plan.steps.iter().enumerate() {
        match step {
            Step::Upload { slot, .. } | Step::Alloc { slot } => {
                if *slot < n && lv[*slot].def_step.is_none() {
                    lv[*slot].def_step = Some(i);
                }
            }
            Step::Launch(ls) => {
                for s in ls.op.binds() {
                    if s < n {
                        lv[s].last_use_step = Some(i);
                    }
                }
            }
            Step::Download { slot } => {
                if *slot < n {
                    lv[*slot].last_use_step = Some(i);
                }
            }
            Step::Convert { .. } | Step::ConvertBack { .. } => {}
        }
    }
    lv
}

/// Liveness-based memory high-water mark of `plan`: each buffer is
/// resident from its `Upload`/`Alloc` step until just after its last
/// use. Returns `(peak bytes, step reaching the peak)`. This is the
/// single memory model: [`SolvePlan::build`]'s OOM check and the
/// verifier's [`FindingKind::PeakMemoryOverflow`] both use it, and the
/// executor's arena reproduces it exactly by freeing buffers after
/// their last use.
pub fn peak_resident_bytes(plan: &SolvePlan) -> (usize, Option<usize>) {
    let lv = slot_liveness(plan);
    let nslots = plan.buffers.len();
    let bytes = |s: Slot| plan.buffers[s].elems * plan.elem_bytes;
    let mut ends: Vec<Vec<Slot>> = vec![Vec::new(); plan.steps.len()];
    for (s, l) in lv.iter().enumerate() {
        if l.def_step.is_some() {
            if let Some(last) = l.last_use_step {
                ends[last].push(s);
            }
        }
    }
    let mut resident = 0usize;
    let mut peak = 0usize;
    let mut peak_step = None;
    for (i, step) in plan.steps.iter().enumerate() {
        if let Step::Upload { slot, .. } | Step::Alloc { slot } = step {
            if *slot < nslots && lv[*slot].def_step == Some(i) {
                resident += bytes(*slot);
                if resident > peak {
                    peak = resident;
                    peak_step = Some(i);
                }
            }
        }
        for &s in &ends[i] {
            resident = resident.saturating_sub(bytes(s));
        }
    }
    (peak, peak_step)
}

/// Statically verify `plan` against `spec`. Always returns a full
/// report (findings, prediction, liveness) — callers decide whether
/// findings are fatal.
pub fn verify_plan(spec: &DeviceSpec, plan: &SolvePlan) -> VerifyReport {
    let nslots = plan.buffers.len();
    let name = |s: Slot| plan.buffers.get(s).map(|b| b.name).unwrap_or("?");
    let bytes = |s: Slot| plan.buffers[s].elems * plan.elem_bytes;

    #[derive(Clone, Copy, Default)]
    struct SlotState {
        created: Option<usize>,
        written: bool,
        used: bool,
    }
    let mut slots = vec![SlotState::default(); nslots];
    let mut findings: Vec<PlanFinding> = Vec::new();
    let push = |findings: &mut Vec<PlanFinding>,
                    kind: FindingKind,
                    step: Option<usize>,
                    message: String| {
        findings.push(PlanFinding {
            kind,
            step,
            part: None,
            message,
        });
    };

    let mut convert_at: Option<usize> = None;
    let mut convert_back_at: Option<usize> = None;
    let mut download_at: Option<usize> = None;
    let mut h2d: Vec<(usize, usize)> = Vec::new();
    let mut d2h: Vec<(usize, usize)> = Vec::new();
    let mut launches: Vec<(&'static str, usize)> = Vec::new();

    for (i, step) in plan.steps.iter().enumerate() {
        match step {
            Step::Convert { to } => {
                if let Some(first) = convert_at {
                    push(
                        &mut findings,
                        FindingKind::LayoutMismatch,
                        Some(i),
                        format!("second layout conversion (first at step {first})"),
                    );
                }
                if *to != plan.layout {
                    push(
                        &mut findings,
                        FindingKind::LayoutMismatch,
                        Some(i),
                        format!(
                            "converts to {to:?} but the plan's device layout is {:?}",
                            plan.layout
                        ),
                    );
                }
                convert_at.get_or_insert(i);
            }
            Step::Upload { slot, source } => {
                // An elided plan (host layout == device layout) uploads
                // the caller's batch directly, with no Convert step.
                if convert_at.is_none() && plan.host_layout != plan.layout {
                    push(
                        &mut findings,
                        FindingKind::LayoutMismatch,
                        Some(i),
                        format!(
                            "uploads {} before the batch is converted to the device layout",
                            source.label()
                        ),
                    );
                }
                if *slot >= nslots {
                    push(
                        &mut findings,
                        FindingKind::SlotOutOfRange,
                        Some(i),
                        format!("upload targets slot {slot} but only {nslots} buffers are declared"),
                    );
                } else if let Some(prev) = slots[*slot].created {
                    push(
                        &mut findings,
                        FindingKind::DuplicateDef,
                        Some(i),
                        format!(
                            "slot {slot} ({}) was already created at step {prev}",
                            name(*slot)
                        ),
                    );
                } else {
                    slots[*slot].created = Some(i);
                    slots[*slot].written = true;
                    h2d.push((i, bytes(*slot)));
                }
            }
            Step::Alloc { slot } => {
                if *slot >= nslots {
                    push(
                        &mut findings,
                        FindingKind::SlotOutOfRange,
                        Some(i),
                        format!("alloc targets slot {slot} but only {nslots} buffers are declared"),
                    );
                } else if let Some(prev) = slots[*slot].created {
                    push(
                        &mut findings,
                        FindingKind::DuplicateDef,
                        Some(i),
                        format!(
                            "slot {slot} ({}) was already created at step {prev}",
                            name(*slot)
                        ),
                    );
                } else {
                    slots[*slot].created = Some(i);
                }
            }
            Step::Launch(ls) => {
                let reads = ls.op.reads();
                let writes = ls.op.writes();
                for &s in &reads {
                    if s >= nslots {
                        push(
                            &mut findings,
                            FindingKind::SlotOutOfRange,
                            Some(i),
                            format!(
                                "{} binds input slot {s} but only {nslots} buffers are declared",
                                ls.name
                            ),
                        );
                        continue;
                    }
                    match slots[s].created {
                        None => push(
                            &mut findings,
                            FindingKind::UseBeforeDef,
                            Some(i),
                            format!("{} reads slot {s} ({}) before it is created", ls.name, name(s)),
                        ),
                        Some(_) if !slots[s].written => push(
                            &mut findings,
                            FindingKind::UnwrittenScratchRead,
                            Some(i),
                            format!(
                                "{} reads slot {s} ({}): allocated scratch no prior step wrote",
                                ls.name,
                                name(s)
                            ),
                        ),
                        Some(_) => {}
                    }
                    slots[s].used = true;
                }
                for (wi, &s) in writes.iter().enumerate() {
                    if s >= nslots {
                        push(
                            &mut findings,
                            FindingKind::SlotOutOfRange,
                            Some(i),
                            format!(
                                "{} binds output slot {s} but only {nslots} buffers are declared",
                                ls.name
                            ),
                        );
                        continue;
                    }
                    if slots[s].created.is_none() {
                        push(
                            &mut findings,
                            FindingKind::UseBeforeDef,
                            Some(i),
                            format!(
                                "{} writes slot {s} ({}) before it is created",
                                ls.name,
                                name(s)
                            ),
                        );
                    }
                    if reads.contains(&s) {
                        push(
                            &mut findings,
                            FindingKind::AliasHazard,
                            Some(i),
                            format!(
                                "{} binds slot {s} ({}) as both input and output",
                                ls.name,
                                name(s)
                            ),
                        );
                    }
                    if writes[..wi].contains(&s) {
                        push(
                            &mut findings,
                            FindingKind::AliasHazard,
                            Some(i),
                            format!(
                                "{} writes slot {s} ({}) through two bindings",
                                ls.name,
                                name(s)
                            ),
                        );
                    }
                    slots[s].used = true;
                    if slots[s].created.is_some() {
                        slots[s].written = true;
                    }
                }
                match launches.iter_mut().find(|(n, _)| *n == ls.name) {
                    Some((_, c)) => *c += 1,
                    None => launches.push((ls.name, 1)),
                }
            }
            Step::Download { slot } => {
                download_at.get_or_insert(i);
                if *slot >= nslots {
                    push(
                        &mut findings,
                        FindingKind::SlotOutOfRange,
                        Some(i),
                        format!(
                            "download reads slot {slot} but only {nslots} buffers are declared"
                        ),
                    );
                } else {
                    match slots[*slot].created {
                        None => push(
                            &mut findings,
                            FindingKind::UseBeforeDef,
                            Some(i),
                            format!(
                                "downloads slot {slot} ({}) before it is created",
                                name(*slot)
                            ),
                        ),
                        Some(_) if !slots[*slot].written => push(
                            &mut findings,
                            FindingKind::UnwrittenScratchRead,
                            Some(i),
                            format!(
                                "downloads slot {slot} ({}) which no step wrote",
                                name(*slot)
                            ),
                        ),
                        Some(_) => {}
                    }
                    slots[*slot].used = true;
                    d2h.push((i, bytes(*slot)));
                }
            }
            Step::ConvertBack { from } => {
                if let Some(first) = convert_back_at {
                    push(
                        &mut findings,
                        FindingKind::LayoutMismatch,
                        Some(i),
                        format!("second convert-back (first at step {first})"),
                    );
                }
                if download_at.is_none() {
                    push(
                        &mut findings,
                        FindingKind::LayoutMismatch,
                        Some(i),
                        "convert-back before the solution is downloaded".into(),
                    );
                }
                if *from != plan.layout {
                    push(
                        &mut findings,
                        FindingKind::LayoutMismatch,
                        Some(i),
                        format!(
                            "converts back from {from:?} but the device layout is {:?}",
                            plan.layout
                        ),
                    );
                }
                convert_back_at.get_or_insert(i);
            }
        }
    }

    // Conversion pairing is only required when the caller's layout
    // differs from the device layout; elided plans legitimately have
    // neither step (the download already is the caller's layout).
    if plan.host_layout != plan.layout {
        if convert_at.is_none() {
            push(
                &mut findings,
                FindingKind::LayoutMismatch,
                None,
                "plan never converts the batch to the device layout".into(),
            );
        }
        if convert_back_at.is_none() {
            push(
                &mut findings,
                FindingKind::LayoutMismatch,
                None,
                "plan never converts the solution back to the caller's layout".into(),
            );
        }
    }
    for (s, st) in slots.iter().enumerate() {
        match st.created {
            Some(def) if !st.used => push(
                &mut findings,
                FindingKind::DanglingSlot,
                Some(def),
                format!(
                    "slot {s} ({}) is created but never bound by any launch or download",
                    name(s)
                ),
            ),
            None => push(
                &mut findings,
                FindingKind::DanglingSlot,
                None,
                format!("slot {s} ({}) is declared but never created", name(s)),
            ),
            Some(_) => {}
        }
    }

    let liveness = slot_liveness(plan);
    let (peak, peak_step) = peak_resident_bytes(plan);
    if peak > spec.global_mem_bytes {
        push(
            &mut findings,
            FindingKind::PeakMemoryOverflow,
            peak_step,
            format!(
                "peak resident device memory {peak} bytes exceeds {} global memory \
                 ({} bytes) for m = {}, n = {} at {}",
                spec.name, spec.global_mem_bytes, plan.m, plan.n, plan.precision
            ),
        );
    }

    let prediction = PlanPrediction {
        h2d_total_bytes: h2d.iter().map(|&(_, b)| b).sum(),
        d2h_total_bytes: d2h.iter().map(|&(_, b)| b).sum(),
        h2d,
        d2h,
        peak_resident_bytes: peak,
        peak_step,
        launches,
    };
    VerifyReport {
        device: spec.name,
        findings,
        prediction,
        liveness,
    }
}

/// `(m, n, elem_bytes)` of an embedded plan.
pub(crate) type Geometry = (usize, usize, usize);

/// One part of a [`PlanShape`].
pub(crate) struct PartShape {
    pub device_index: usize,
    pub start: usize,
    pub count: usize,
    pub plan: Option<Geometry>,
}

/// What a multi-device plan's structural invariants are stated over:
/// the plan with every embedded plan reduced to its geometry. The
/// verifier builds it from a [`DistributedPlan`], the JSON validator
/// from the serialized document, and both hand it to
/// [`structure_findings`] — so the two enforce one set of rules.
pub(crate) struct PlanShape {
    pub split: Split,
    pub m: usize,
    pub n: usize,
    pub elem_bytes: usize,
    /// Devices the plan is checked against (the group size, or the
    /// document's declared count).
    pub devices: usize,
    /// Whether pinned reference decisions are recorded.
    pub pinned: bool,
    pub parts: Vec<PartShape>,
    pub reduced: Option<Geometry>,
}

impl Split {
    /// The `(partition, consistency)` finding kinds of this split.
    fn finding_kinds(self) -> (FindingKind, FindingKind) {
        match self {
            Split::Systems => (FindingKind::ShardPartition, FindingKind::ShardConsistency),
            Split::Rows => (FindingKind::ChunkPartition, FindingKind::ChunkConsistency),
        }
    }
}

/// The device-independent invariants of a multi-device plan: parts
/// tile `[0, total)` contiguously, disjointly and balanced (skew ≤ 1),
/// each at least [`Split::min_part`] units, one per device in device
/// order; every part carries the plan its split requires, with the
/// right geometry; pinned decisions are recorded exactly for a systems
/// split; and a reduced interface plan of `2D` unknowns is present
/// exactly for a row split across `D >= 2` devices.
pub(crate) fn structure_findings(s: &PlanShape) -> Vec<PlanFinding> {
    let (partition, consistency) = s.split.finding_kinds();
    let (noun, unit) = (s.split.noun(), s.split.unit());
    let (total, whole) = match s.split {
        Split::Systems => (s.m, "batch"),
        Split::Rows => (s.n, "system"),
    };
    let d = s.parts.len();
    let mut out = Vec::new();
    let mut push = |kind, part, message: String| {
        out.push(PlanFinding {
            kind,
            step: None,
            part,
            message,
        })
    };
    if d == 0 {
        push(partition, None, "plan has no parts".into());
    }
    if d != s.devices {
        push(
            consistency,
            None,
            format!(
                "plan has {d} part(s) but the group has {} device(s)",
                s.devices
            ),
        );
    }
    match (s.split, s.pinned) {
        (Split::Systems, false) => push(
            consistency,
            None,
            "a systems split must record its pinned reference decisions".into(),
        ),
        (Split::Rows, true) => push(
            consistency,
            None,
            "a row split pins no reference decisions".into(),
        ),
        _ => {}
    }
    if s.split == Split::Rows && s.m != 1 {
        push(
            consistency,
            None,
            format!("a row split solves one system, not m = {}", s.m),
        );
    }
    let (mut cursor, mut min, mut max) = (0usize, usize::MAX, 0usize);
    for (i, p) in s.parts.iter().enumerate() {
        if p.device_index != i {
            push(
                consistency,
                Some(i),
                format!(
                    "device_index is {} ({noun}s must be in device order)",
                    p.device_index
                ),
            );
        }
        if p.start != cursor {
            push(
                partition,
                Some(i),
                format!(
                    "starts at {unit} {} but {cursor} {unit}s are covered so far \
                     ({noun}s must tile the {whole} contiguously and disjointly)",
                    p.start
                ),
            );
        }
        if p.count < s.split.min_part() {
            push(
                partition,
                Some(i),
                format!(
                    "owns {} {unit}(s): a {noun} needs at least {}",
                    p.count,
                    s.split.min_part()
                ),
            );
        }
        cursor = p.start + p.count;
        min = min.min(p.count);
        max = max.max(p.count);
        // The `(m, n)` plan the part must carry: a shard solves its own
        // systems, a one-device row split the whole system, and a chunk
        // its interior rows (none for an interface-only chunk).
        let expected = match s.split {
            Split::Systems => Some((p.count, s.n)),
            Split::Rows if d == 1 => Some((1, s.n)),
            Split::Rows if p.count <= 2 => None,
            Split::Rows => Some((1, p.count - 2)),
        };
        match (expected, p.plan) {
            (Some(_), None) if s.split == Split::Rows => push(
                FindingKind::InterfaceExchange,
                Some(i),
                format!(
                    "chunk has {} rows but no interior elimination plan: its \
                     interface coefficients are used before being defined",
                    p.count
                ),
            ),
            (Some(_), None) => push(
                consistency,
                Some(i),
                format!("{noun} owns {} {unit}(s) but carries no plan", p.count),
            ),
            (None, Some(_)) => push(
                FindingKind::InterfaceExchange,
                Some(i),
                "chunk is interface-only (2 rows) but carries an interior plan".into(),
            ),
            (Some((em, en)), Some((pm, pn, peb))) => {
                if pm != em {
                    push(
                        consistency,
                        Some(i),
                        format!("plan solves m = {pm} but the {noun} owns {em} system(s)"),
                    );
                }
                if pn != en {
                    push(
                        consistency,
                        Some(i),
                        format!("plan has n = {pn} but the {noun} needs n = {en}"),
                    );
                }
                if peb != s.elem_bytes {
                    push(
                        consistency,
                        Some(i),
                        format!(
                            "plan is {peb} bytes/elem but the {whole} is {}",
                            s.elem_bytes
                        ),
                    );
                }
            }
            (None, None) => {}
        }
    }
    if d > 0 {
        if cursor != total {
            push(
                partition,
                None,
                format!("{noun}s cover [0, {cursor}) but the {whole} has {total} {unit}s"),
            );
        }
        if max - min > 1 {
            push(
                partition,
                None,
                format!("{noun} sizes unbalanced: min {min}, max {max} (allowed skew 1)"),
            );
        }
    }
    let reduced = FindingKind::ReducedSystem;
    match (s.split == Split::Rows && d > 1, s.reduced) {
        (true, None) => push(
            reduced,
            None,
            format!("a row split across {d} devices has no reduced interface plan"),
        ),
        (false, Some(_)) => push(
            reduced,
            None,
            format!(
                "a {} carries a reduced interface plan",
                if s.split == Split::Systems {
                    "systems split"
                } else {
                    "one-device row split"
                }
            ),
        ),
        (true, Some((rm, rn, reb))) => {
            if rm != 1 {
                push(
                    reduced,
                    None,
                    format!("reduced plan solves m = {rm}, not 1"),
                );
            }
            if rn != 2 * d {
                push(
                    reduced,
                    None,
                    format!(
                        "reduced plan solves n = {rn} but {d} chunk(s) need {} \
                         interface unknowns",
                        2 * d
                    ),
                );
            }
            if reb != s.elem_bytes {
                push(
                    reduced,
                    None,
                    format!(
                        "reduced plan is {reb} bytes/elem but the system is {}",
                        s.elem_bytes
                    ),
                );
            }
        }
        (false, None) => {}
    }
    out
}

/// Result of verifying a [`DistributedPlan`]: the cross-device findings
/// plus one [`VerifyReport`] per part's plan (`None` for an
/// interface-only chunk, or a part whose device index is out of range)
/// and the reduced interface plan's report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistributedVerifyReport {
    /// How the verified plan divides the solve.
    pub split: Split,
    /// Cross-device findings, part-attributed where possible.
    pub findings: Vec<PlanFinding>,
    /// Per-part plan verification, in device order.
    pub parts: Vec<Option<VerifyReport>>,
    /// Reduced interface plan verification (row splits with `D >= 2`).
    pub reduced: Option<VerifyReport>,
}

impl DistributedVerifyReport {
    /// `true` when there are no cross-device findings and every
    /// embedded plan report is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
            && self
                .parts
                .iter()
                .flatten()
                .chain(&self.reduced)
                .all(VerifyReport::is_clean)
    }

    /// Every finding as a display string; part findings carry their
    /// part index, reduced-plan findings a `reduced: ` prefix.
    pub fn messages(&self) -> Vec<String> {
        let parts = self.parts.iter().flatten().flat_map(|r| &r.findings);
        let reduced = self.reduced.iter().flat_map(|r| &r.findings);
        self.findings
            .iter()
            .chain(parts)
            .map(|f| f.to_string())
            .chain(reduced.map(|f| format!("reduced: {f}")))
            .collect()
    }

    /// Serialize as a JSON object.
    pub fn to_json(&self) -> Json {
        let opt = |r: Option<&VerifyReport>| r.map_or(Json::Null, VerifyReport::to_json);
        Json::Obj(vec![
            ("clean".into(), Json::Bool(self.is_clean())),
            ("split".into(), Json::str(self.split.label())),
            (
                "findings".into(),
                Json::Arr(self.findings.iter().map(finding_json).collect()),
            ),
            (
                "parts".into(),
                Json::Arr(self.parts.iter().map(|r| opt(r.as_ref())).collect()),
            ),
            ("reduced".into(), opt(self.reduced.as_ref())),
        ])
    }
}

impl fmt::Display for DistributedVerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = self.split.label();
        if !self.is_clean() {
            let msgs = self.messages();
            write!(f, "verify {label} split: {} finding(s)", msgs.len())?;
            for m in &msgs {
                write!(f, "\n  {m}")?;
            }
            return Ok(());
        }
        write!(
            f,
            "verify {label} split: clean across {} {}(s)",
            self.parts.len(),
            self.split.noun()
        )?;
        for r in self.parts.iter().flatten() {
            write!(f, "\n  {r}")?;
        }
        if let Some(r) = &self.reduced {
            write!(f, "\n  reduced: {r}")?;
        }
        Ok(())
    }
}

/// Statically verify a [`DistributedPlan`] against its [`DeviceGroup`]:
/// the device-independent invariants the JSON validator also enforces
/// (partition tiling and balance, one part per device, each part's plan
/// geometry, the split kind's pinned/reduced plans), every part's plan
/// against its own device (with part attribution), the
/// reduced interface plan against the primary, and — for a systems
/// split — the pinned decisions: made on the primary; no part's `k`
/// above the pinned `k`; a part on the same device model as the primary
/// keeps `k`, mapping, fusion and layout exactly.
pub fn verify_distributed_plan(
    group: &DeviceGroup,
    plan: &DistributedPlan,
) -> DistributedVerifyReport {
    let (_, consistency) = plan.split.finding_kinds();
    let noun = plan.split.noun();
    let mut findings = structure_findings(&plan.shape(group.len()));
    let mut push = |part, message: String| {
        findings.push(PlanFinding {
            kind: consistency,
            step: None,
            part,
            message,
        })
    };
    let primary = group.primary();
    if let Some(pin) = &plan.pinned {
        if pin.device != primary.name {
            push(
                None,
                format!(
                    "pinned decisions were made on {} but the group's primary is {}",
                    pin.device, primary.name
                ),
            );
        }
    }
    let mut parts = Vec::with_capacity(plan.parts.len());
    for (i, part) in plan.parts.iter().enumerate() {
        let Some(spec) = group.devices().get(part.device_index) else {
            push(
                Some(i),
                format!(
                    "device_index {} is out of range for a {}-device group",
                    part.device_index,
                    group.len()
                ),
            );
            parts.push(None);
            continue;
        };
        let Some(sub) = &part.plan else {
            parts.push(None);
            continue;
        };
        if sub.device != spec.name {
            push(
                Some(i),
                format!(
                    "{noun} plan was built for {} but device {} is {}",
                    sub.device, part.device_index, spec.name
                ),
            );
        }
        if let Some(pin) = &plan.pinned {
            if sub.k > pin.k {
                push(
                    Some(i),
                    format!(
                        "{noun} k = {} exceeds the pinned k = {} (per-device clamps \
                         may only lower k)",
                        sub.k, pin.k
                    ),
                );
            }
            // Same device model as the primary: the pinned decisions
            // hold exactly (another model may legitimately clamp k).
            if spec.name == pin.device {
                let drift = [
                    ("k", sub.k.to_string(), pin.k.to_string()),
                    (
                        "mapping",
                        format!("{:?}", sub.mapping),
                        format!("{:?}", pin.mapping),
                    ),
                    ("fused", sub.fused.to_string(), pin.fused.to_string()),
                    (
                        "layout",
                        format!("{:?}", sub.layout),
                        format!("{:?}", pin.layout),
                    ),
                ];
                for (what, got, pinned) in drift {
                    if got != pinned {
                        push(
                            Some(i),
                            format!(
                                "{noun} on {} has {what} = {got} but the pinned {what} is {pinned}",
                                spec.name
                            ),
                        );
                    }
                }
            }
        }
        let mut report = verify_plan(spec, sub);
        for f in &mut report.findings {
            f.part = Some(i);
        }
        parts.push(Some(report));
    }
    let reduced = plan.reduced.as_ref().map(|r| {
        if r.device != primary.name {
            push(
                None,
                format!(
                    "reduced plan was built for {} but the group's primary is {}",
                    r.device, primary.name
                ),
            );
        }
        verify_plan(primary, r)
    });
    DistributedVerifyReport {
        split: plan.split,
        findings,
        parts,
        reduced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::GpuSolverConfig;
    use crate::solver::MappingVariant;

    fn plan(m: usize, n: usize, bytes: usize) -> SolvePlan {
        SolvePlan::build(&DeviceSpec::gtx480(), &GpuSolverConfig::default(), m, n, bytes).unwrap()
    }

    #[test]
    fn planner_built_plans_verify_clean() {
        for (m, n, bytes) in [
            (2048usize, 128usize, 8usize), // k = 0: pure p-Thomas
            (64, 512, 8),                  // split pipeline
            (16, 1024, 4),
            (1, 16384, 8),
        ] {
            let p = plan(m, n, bytes);
            let report = verify_plan(&DeviceSpec::gtx480(), &p);
            assert!(report.is_clean(), "m={m} n={n}: {report}");
            assert_eq!(report.prediction.h2d.len(), 4);
            assert_eq!(report.prediction.d2h.len(), 1);
            assert_eq!(report.prediction.h2d_total_bytes, 4 * m * n * bytes);
            assert_eq!(report.prediction.d2h_total_bytes, m * n * bytes);
        }
    }

    #[test]
    fn fused_plan_verifies_clean() {
        let p = SolvePlan::build(
            &DeviceSpec::gtx480(),
            &GpuSolverConfig {
                fused: true,
                mapping: MappingVariant::BlockPerSystem,
                ..Default::default()
            },
            64,
            512,
            8,
        )
        .unwrap();
        let report = verify_plan(&DeviceSpec::gtx480(), &p);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.prediction.launches, vec![("fused_pcr_thomas", 1)]);
        // Fused pipeline: all 7 buffers live at the single launch.
        assert_eq!(report.prediction.peak_resident_bytes, 7 * 64 * 512 * 8);
    }

    #[test]
    fn peak_is_liveness_based_not_sum_of_allocs() {
        // Split pipeline: 11 buffers total, but a..d die at the PCR
        // launch before c'/d' are allocated — peak is 9 buffers, at the
        // last out-buffer alloc.
        let p = plan(64, 512, 8);
        assert_eq!(p.buffers.len(), 11);
        let (peak, step) = peak_resident_bytes(&p);
        assert_eq!(peak, 9 * 64 * 512 * 8);
        assert!(peak < p.device_bytes());
        // The peak step is an Alloc step (the 9th creation).
        assert!(matches!(p.steps[step.unwrap()], Step::Alloc { .. }));

        // k = 0 pipeline: all 7 buffers live at the launch.
        let p0 = plan(2048, 128, 8);
        assert_eq!(p0.buffers.len(), 7);
        let (peak0, _) = peak_resident_bytes(&p0);
        assert_eq!(peak0, 7 * 2048 * 128 * 8);
    }

    #[test]
    fn peak_overflow_fires_with_step_attribution() {
        let p = plan(64, 512, 8);
        let mut tiny = DeviceSpec::gtx480();
        tiny.global_mem_bytes = 1024;
        let report = verify_plan(&tiny, &p);
        let f = report
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::PeakMemoryOverflow)
            .expect("overflow finding");
        assert!(f.step.is_some());
        assert!(f.message.contains("global memory"), "{}", f.message);
    }

    #[test]
    fn distributed_plans_verify_clean() {
        // The GTX280 shard legitimately re-clamps k down; the verifier
        // must accept that while still pinning same-model shards.
        let hetero =
            DeviceGroup::from_specs(vec![DeviceSpec::gtx480(), DeviceSpec::gtx280()]).unwrap();
        for d in [1usize, 2, 4] {
            let group = DeviceGroup::homogeneous(DeviceSpec::gtx480(), d).unwrap();
            for (group, split, m, n) in [
                (&group, Split::Systems, 64usize, 512usize),
                (&group, Split::Rows, 1, 512),
                (&hetero, Split::Systems, 16, 1024),
            ] {
                let config = GpuSolverConfig::default();
                let dp = DistributedPlan::build(group, &config, split, m, n, 8).unwrap();
                let report = verify_distributed_plan(group, &dp);
                assert!(report.is_clean(), "{split:?} d={d}: {report}");
                assert_eq!(report.parts.len(), group.len());
            }
        }
    }

    #[test]
    fn report_json_is_well_formed() {
        let p = plan(64, 512, 8);
        let report = verify_plan(&DeviceSpec::gtx480(), &p);
        let text = report.to_json().to_string();
        let doc = gpu_sim::json::parse(&text).unwrap();
        assert_eq!(doc.get("clean"), Some(&Json::Bool(true)));
        assert!(doc.get("prediction").is_some());
    }

    #[test]
    fn cross_check_reports_discrepancies() {
        let p = plan(64, 512, 8);
        let report = verify_plan(&DeviceSpec::gtx480(), &p);
        let mut stats = DynamicPlanStats {
            h2d: report.prediction.h2d.clone(),
            d2h: report.prediction.d2h.clone(),
            peak_resident_bytes: report.prediction.peak_resident_bytes,
            launches: report.prediction.launches.clone(),
        };
        assert!(report.prediction.cross_check(&stats).is_empty());
        stats.peak_resident_bytes += 8;
        stats.h2d[0].1 += 1;
        stats.launches[0].1 += 1;
        let mismatches = report.prediction.cross_check(&stats);
        assert_eq!(mismatches.len(), 3, "{mismatches:?}");
    }
}
