//! Machine-speed calibration for the host clock.
//!
//! On a shared host the same code runs up to twice as slow for stretches
//! of seconds to minutes, because other tenants contend for the shared
//! cache and memory. The simulator is sensitive to that contention, so
//! raw wall-clock medians of the same build differ between runs by far
//! more than any bound a regression gate could use. A fixed probe, a
//! dependent random gather over an 8 MiB table that the same contention
//! slows down, runs at most every `PERIOD`. Each op's wall time is
//! scaled by `REFERENCE_MS` ÷ the median of the latest `WINDOW` probe
//! times (one probe alone is noisy). The result (unit `ms_ref`) is the
//! op's time on the host when the probe takes `REFERENCE_MS`, about its
//! speed when uncontended. It tracks about half of the swing; raw
//! wall-clock figures are reported beside it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Entries in the probe's table (8 MiB of f64, beyond the 2 MiB L2).
const ENTRIES: usize = 1 << 20;
/// Probe time (ms) on the reference host (2-core Xeon VM) when idle.
pub const REFERENCE_MS: f64 = 6.5;
/// Longest an op goes without a fresh probe.
const PERIOD: Duration = Duration::from_millis(250);
/// Probes the scale is the median of.
const WINDOW: usize = 5;
/// Probes taken before each set-up.
const SETUP_PROBES: usize = 3;

pub struct Calibrator {
    table: Vec<f64>,
    next: Vec<u32>,
    last: Option<Instant>,
    /// Every probe time (ms).
    pub probes_ms: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Self {
        // A fixed xorshift permutation walk: the same on every run.
        let mut x = 0x9E37_79B9u32;
        let next = (0..ENTRIES)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x % ENTRIES as u32
            })
            .collect();
        Self {
            table: vec![1.0; ENTRIES],
            next,
            last: None,
            probes_ms: Vec::new(),
        }
    }

    fn probe(&mut self) {
        let t = Instant::now();
        let mut acc = 0.0f64;
        for (i, &j) in self.next.iter().enumerate() {
            let v = self.table[j as usize] * 0.999 + acc * 1e-9;
            self.table[i] = v;
            acc += v;
        }
        black_box(acc);
        self.probes_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.last = Some(Instant::now());
    }

    /// Factor from host ms measured now to reference ms, probing first
    /// when the latest probe is older than `PERIOD`.
    pub fn scale(&mut self) -> f64 {
        if self.last.is_none_or(|at| at.elapsed() >= PERIOD) {
            self.probe();
        }
        self.recent_scale()
    }

    /// `scale` from `SETUP_PROBES` probes taken now, for work that
    /// starts without a probe history.
    pub fn fresh_scale(&mut self) -> f64 {
        for _ in 0..SETUP_PROBES {
            self.probe();
        }
        self.recent_scale()
    }

    fn recent_scale(&self) -> f64 {
        let recent = &self.probes_ms[self.probes_ms.len().saturating_sub(WINDOW)..];
        REFERENCE_MS / median(recent)
    }
}
