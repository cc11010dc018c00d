//! Two-clock benchmark of the simulated-GPU tridiagonal solver.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload hybrid_pcr --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. Each run builds its inputs from
//! `--seed`, sets up three times (the median is `setup_s`), then times
//! public entry points on the host clock for `--seconds` (calibrated
//! for machine contention, see `calib.rs`), reads the modeled device
//! clock from the solve reports, and checks every answer. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! spends a third of the time untraced and the rest on traced ops, and
//! reports per-layer metrics, writing the spans as a Chrome trace to
//! `perfbench/out/<workload>.trace.json`. The human-readable summary
//! goes first; the last line of standard output is the JSON result.
//! Workloads, and the metric each layer should move, are described in
//! `BENCHMARK.json`.

mod calib;
mod replay;
mod service;
mod single;
mod spans;
mod split;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gpu_sim::Json;

use crate::spans::Spans;
use crate::stats::{median, quantile};

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: &[(&str, &str)] = &[
    ("host_ms_p50", "ms_ref"),
    ("host_ms_p90", "ms_ref"),
    ("unknowns_per_s", "1/s_ref"),
    ("modeled_us", "us_modeled"),
    ("modeled_p99_us", "us_modeled"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does
/// not reach reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.tiled_pcr_ms", "ms"),
    ("sim.p_thomas_ms", "ms"),
    ("sim.ns_per_unknown", "ns"),
    ("sim.global_transactions", "count"),
    ("sim.global_bytes", "B"),
    ("sim.shared_accesses", "count"),
    ("sim.bank_conflict_replays", "count"),
    ("sim.flops", "count"),
    ("sim.barriers", "count"),
    ("timing.model_us", "us"),
    ("modeled.tiled_pcr_us", "us_modeled"),
    ("modeled.p_thomas_us", "us_modeled"),
    ("modeled.occupancy", "ratio"),
    ("core.convert_ms", "ms"),
    ("plan.build_us", "us"),
    ("verify.plan_us", "us"),
    ("plan.k", "count"),
    ("plan.launches", "count"),
    ("executor.run_ms", "ms"),
    ("executor.self_ms", "ms"),
    ("service.submit_us", "us"),
    ("service.coalesce_us", "us"),
    ("service.batches", "count"),
    ("service.requests_per_batch", "ratio"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.modeled_queue_us", "us_modeled"),
    ("service.modeled_coalesce_us", "us_modeled"),
    ("service.modeled_kernel_us", "us_modeled"),
    ("service.modeled_scatter_us", "us_modeled"),
    ("distributed.plan_us", "us"),
    ("distributed.verify_us", "us"),
    ("distributed.run_ms", "ms"),
    ("distributed.wall_clock_us", "us_modeled"),
    ("distributed.serialized_us", "us_modeled"),
    ("distributed.gather_bytes", "B"),
    ("distributed.backsub_flops", "count"),
    ("cpu_ref.solve_ms", "ms"),
    ("cpu_ref.slowdown", "ratio"),
    ("trace.host_ms_p50", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("host.wall_ms_p50", "ms"),
    ("host.wall_ms_p90", "ms"),
    ("host.wall_unknowns_per_s", "1/s"),
    ("host.probe_ms", "ms"),
    ("host.wall_setup_s", "s"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Repetitions behind each `cpu_ref.solve_ms` median.
const CPU_REF_REPS: usize = 15;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut map = BTreeMap::new();
        for pair in argv.chunks(2) {
            match pair {
                [k, v]
                    if ["--workload", "--seed", "--seconds", "--trace"].contains(&k.as_str()) =>
                {
                    map.insert(k.as_str(), v.as_str());
                }
                _ => return Err(format!("unexpected arguments {pair:?}")),
            }
        }
        let get = |k: &str| map.get(k).copied().ok_or(format!("missing {k}"));
        let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
        let trace = num("--trace")?;
        if trace > 1 {
            return Err("--trace takes 0 or 1".into());
        }
        let seconds = num("--seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args {
            workload: get("--workload")?.to_string(),
            seed: num("--seed")?,
            seconds,
            trace: trace == 1,
        })
    }

    /// How long the untraced loop runs: all of the run, or a third of
    /// it when the rest goes to traced ops.
    pub fn untraced_time(&self) -> Duration {
        let total = Duration::from_secs(self.seconds);
        if self.trace {
            total / 3
        } else {
            total
        }
    }

    pub fn traced_time(&self) -> Duration {
        Duration::from_secs(self.seconds) - self.untraced_time()
    }
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Extra human-readable lines (ledger, sample counts, trace file).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Record a failed op; the run goes on.
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("failed op: {what}");
        }
    }
}

/// Host-clock samples of one timed loop.
pub struct Timed {
    cal: calib::Calibrator,
    /// Calibration scale of the ops timed now.
    scale: f64,
    /// Raw wall-clock per op (ms).
    host_ms: Vec<f64>,
    /// Wall-clock per op scaled to the reference host speed (ms).
    ref_ms: Vec<f64>,
    scales: Vec<f64>,
    modeled_us: Vec<f64>,
    /// Unknowns (m·n) solved by successful ops.
    unknowns: f64,
    /// Wall seconds the throughput is taken over.
    pub wall_s: f64,
}

impl Default for Timed {
    fn default() -> Self {
        Self {
            cal: calib::Calibrator::new(),
            scale: 1.0,
            host_ms: Vec::new(),
            ref_ms: Vec::new(),
            scales: Vec::new(),
            modeled_us: Vec::new(),
            unknowns: 0.0,
            wall_s: 0.0,
        }
    }
}

impl Timed {
    /// Probe the machine's speed if due; call before starting op clocks.
    pub fn calibrate(&mut self) {
        self.scale = self.cal.scale();
    }

    pub fn ok(&mut self, out: &mut Outcome, elapsed: Duration, modeled_us: f64, unknowns: usize) {
        out.attempted += 1;
        let ms = elapsed.as_secs_f64() * 1e3;
        self.host_ms.push(ms);
        self.ref_ms.push(ms * self.scale);
        self.scales.push(self.scale);
        self.modeled_us.push(modeled_us);
        self.unknowns += unknowns as f64;
    }

    /// Median raw wall-clock per op (ms).
    pub fn p50_ms(&self) -> f64 {
        median(&self.host_ms)
    }

    /// Fill the end-to-end metrics except `setup_s` and `peak_rss_mb`.
    pub fn report(&self, out: &mut Outcome) {
        out.set("host_ms_p50", median(&self.ref_ms));
        out.set("host_ms_p90", quantile(&self.ref_ms, 0.9));
        out.set(
            "unknowns_per_s",
            self.unknowns / (self.wall_s * median(&self.scales)),
        );
        out.set("modeled_us", median(&self.modeled_us));
        out.set("modeled_p99_us", quantile(&self.modeled_us, 0.99));
        out.set("host.wall_ms_p50", median(&self.host_ms));
        out.set("host.wall_ms_p90", quantile(&self.host_ms, 0.9));
        out.set("host.wall_unknowns_per_s", self.unknowns / self.wall_s);
        out.set("host.probe_ms", median(&self.cal.probes_ms));
        out.notes.push(format!(
            "timed ops     : {} ({} beyond p90)",
            self.host_ms.len(),
            self.host_ms.len() / 10
        ));
        out.notes.push(format!(
            "raw wall-clock: p50 {:.3} ms, p90 {:.3} ms, {:.0} unknowns/s; probe median {:.3} ms \
             (reference {} ms)",
            median(&self.host_ms),
            quantile(&self.host_ms, 0.9),
            self.unknowns / self.wall_s,
            median(&self.cal.probes_ms),
            calib::REFERENCE_MS
        ));
    }
}

/// `Ok` when every system's relative residual is below the precision's
/// tolerance: 1e-9 for f64, 1e-4 for f32.
pub fn check_residual<S: tridiag_gpu::GpuScalar>(
    batch: &tridiag_core::SystemBatch<S>,
    x: &[S],
) -> Result<(), String> {
    let tol = if <S as gpu_sim::Elem>::BYTES == 4 {
        1e-4
    } else {
        1e-9
    };
    let resid = batch.max_relative_residual(x).map_err(|e| e.to_string())?;
    if resid < tol {
        Ok(())
    } else {
        Err(format!("relative residual {resid:e} (tolerance {tol:e})"))
    }
}

/// Median set-up time of a run, calibrated and raw.
pub struct SetupTime {
    ref_s: f64,
    wall_s: f64,
}

impl SetupTime {
    pub fn report(&self, out: &mut Outcome) {
        out.set("setup_s", self.ref_s);
        out.set("host.wall_setup_s", self.wall_s);
        out.notes.push(format!(
            "set-up        : {:.6} s raw wall-clock (median of {SETUP_REPS})",
            self.wall_s
        ));
    }
}

/// Run `setup` `SETUP_REPS` times, dropping each result before the
/// next; returns the last result and the median set-up time. Each
/// set-up is calibrated by probes taken just before it.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, SetupTime) {
    let mut cal = calib::Calibrator::new();
    let (mut ref_s, mut wall_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let scale = cal.fresh_scale();
        let t = Instant::now();
        last = Some(setup());
        let secs = t.elapsed().as_secs_f64();
        wall_s.push(secs);
        ref_s.push(secs * scale);
    }
    let time = SetupTime {
        ref_s: median(&ref_s),
        wall_s: median(&wall_s),
    };
    (last.expect("at least one set-up"), time)
}

/// Median wall milliseconds of `CPU_REF_REPS` calls of `f`.
pub fn median_ms(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..CPU_REF_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Every layer span the benchmark records around a public function,
/// with the metric its self time is reported as (and the scale from
/// µs). `distributed.run` reports its full duration instead, below.
const LAYER_SPANS: &[(&str, Option<&str>, f64)] = &[
    ("plan.build", Some("plan.build_us"), 1.0),
    ("verify.plan", Some("verify.plan_us"), 1.0),
    ("core.convert", Some("core.convert_ms"), 1e-3),
    ("sim.tiled_pcr", Some("sim.tiled_pcr_ms"), 1e-3),
    ("sim.p_thomas", Some("sim.p_thomas_ms"), 1e-3),
    ("timing.model", Some("timing.model_us"), 1.0),
    ("executor.run", Some("executor.self_ms"), 1e-3),
    ("service.coalesce", Some("service.coalesce_us"), 1.0),
    ("distributed.plan", Some("distributed.plan_us"), 1.0),
    ("distributed.verify", Some("distributed.verify_us"), 1.0),
    ("distributed.run", None, 1e-3),
];

/// Per-layer self times of the ops rooted at `root`; returns the
/// attributed host milliseconds (their sum).
pub fn layer_times(spans: &Spans, root: &str, out: &mut Outcome) -> f64 {
    let mut attributed_ms = 0.0;
    for &(span, metric, scale) in LAYER_SPANS {
        let self_us = spans.self_median_us(root, span);
        attributed_ms += self_us * 1e-3;
        if let Some(metric) = metric {
            out.set(metric, self_us * scale);
        }
    }
    out.set(
        "executor.run_ms",
        spans.dur_median_us(root, "executor.run") * 1e-3,
    );
    out.set(
        "distributed.run_ms",
        spans.dur_median_us(root, "distributed.run") * 1e-3,
    );
    attributed_ms
}

/// Tracing overhead (traced minus untraced median), and the share of
/// the traced median the layer spans account for. Coverage is taken
/// against the traced ops, not the untraced ones: the two run at
/// different times, and on a shared host their medians differ by more
/// than the tracing costs.
pub fn coverage(spans: &Spans, untraced_p50_ms: f64, attributed_ms: f64, out: &mut Outcome) {
    let traced_ms = spans.dur_median_us("op", "op") * 1e-3;
    out.set("trace.host_ms_p50", traced_ms);
    out.set("trace.overhead_ms", traced_ms - untraced_p50_ms);
    out.set("trace.unattributed_ms", traced_ms - attributed_ms);
    out.set("trace.coverage", attributed_ms / traced_ms);
}

/// Exact kernel counters of one op.
pub fn sim_counts(r: &replay::Replayed, unknowns: usize, out: &mut Outcome) {
    let s = &r.stats;
    out.set("sim.global_transactions", s.global_transactions() as f64);
    out.set("sim.global_bytes", s.global_bytes() as f64);
    out.set("sim.shared_accesses", s.shared_accesses as f64);
    out.set("sim.bank_conflict_replays", s.bank_conflict_replays as f64);
    out.set("sim.flops", s.flops as f64);
    out.set("sim.barriers", s.barriers as f64);
    out.set("modeled.tiled_pcr_us", r.tiled_pcr_us);
    out.set("modeled.p_thomas_us", r.p_thomas_us);
    out.set("modeled.occupancy", r.occupancy());
    out.set("plan.launches", r.launches as f64);
    let sim_ms = out.values["sim.tiled_pcr_ms"] + out.values["sim.p_thomas_ms"];
    out.set("sim.ns_per_unknown", sim_ms * 1e6 / unknowns as f64);
}

/// Write the spans as a Chrome trace under `perfbench/out/`.
pub fn write_trace(spans: &Spans, args: &Args, out: &mut Outcome) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("{}.trace.json", args.workload));
    let process = format!("perfbench host clock: {} seed {}", args.workload, args.seed);
    let json = spans.to_trace(process).to_chrome_json();
    if let Err(errors) = gpu_sim::validate_chrome_json(&json) {
        out.fail(format!("trace fails its schema: {}", errors.join("; ")));
    }
    let written = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, json));
    out.notes.push(match written {
        Ok(()) => format!("trace         : {}", path.display()),
        Err(e) => format!("trace         : not written ({e})"),
    });
}

/// Note the committed modeled ledger value beside `modeled_us`.
pub fn ledger_note(bench: &str, label: &str, modeled_us: f64, out: &mut Outcome) {
    out.notes.push(match stats::ledger_value(bench, label) {
        // The solver ledger keeps six decimals.
        Some(v) => format!(
            "ledger        : {bench} {label} = {v} us_modeled; modeled_us = {modeled_us} ({})",
            if (v - modeled_us).abs() <= 5e-7 {
                "equal"
            } else {
                "DIFFERS"
            }
        ),
        None => format!("ledger        : no {bench} {label} entry in BENCH_history.jsonl"),
    });
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "hybrid_pcr" => single::run(&single::HYBRID_PCR, &args),
        "pthomas_wide" => single::run(&single::PTHOMAS_WIDE, &args),
        "service_mixed" => service::run(&args),
        "split_rows" => split::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    out.set("peak_rss_mb", stats::peak_rss_mib());

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "workload {}  seed {}  seconds {}  trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &out.notes {
        println!("  {note}");
    }
    let mut metrics = Vec::new();
    let shown = if args.trace { PER_LAYER } else { &[] };
    for &(name, unit) in END_TO_END.iter().chain(shown) {
        let value = out.values.get(name).copied().unwrap_or(0.0);
        println!("  {name:<28} {value:>16.6} {unit}");
        if table.iter().any(|(n, _)| *n == name) {
            let m = Json::Obj(vec![
                ("value".into(), Json::num(value)),
                ("unit".into(), Json::str(unit)),
            ]);
            metrics.push((name.to_string(), m));
        }
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<28} {error_rate:>16.6} ratio ({} of {} ops failed)",
        "error_rate", out.failed, out.attempted
    );
    let result = Json::Obj(vec![
        (
            "correct".into(),
            Json::Bool(out.failed == 0 && out.attempted > 0),
        ),
        ("attempted".into(), Json::num(out.attempted as f64)),
        ("failed".into(), Json::num(out.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}
