//! The four workloads. Each runs closed-loop on one thread: the next
//! operation is issued when the previous one returns. A workload repeats
//! one pass — the same operations on the same inputs — for `seconds` of
//! wall time (always at least one full pass).
//!
//! The host these figures come from is shared with other tenants: its speed
//! alternates between levels 1.3–1.9× apart, in phases of seconds to
//! minutes, whatever the benchmark runs. A mean or median over a run reads
//! that phase mix, not the program. Because every pass repeats the same
//! work, each operation is timed by the least wall time it took over the
//! run's passes: that keeps every cost the program has, including its
//! deterministic slow operations, and drops the host's slow phases. For the
//! least time to find the host's fast level, every operation must be
//! sampled while the host is fast, so passes are kept short — a fraction of
//! a second to about a second — and any fast stretch that long during a run
//! samples every operation of a pass. A run with no such stretch still reads
//! slow.

pub mod fleet;
pub mod gridftp;
pub mod matrix;
pub mod planet;

use std::path::Path;

use crate::trace::Tracer;
use crate::{stats, Checks, Metric};

/// Per-index least wall times over repeated passes.
#[derive(Debug, Default, Clone)]
pub struct Least(Vec<f64>);

impl Least {
    /// Record that item `i` of a pass took `secs`.
    pub fn record(&mut self, i: usize, secs: f64) {
        if i >= self.0.len() {
            self.0.resize(i + 1, f64::INFINITY);
        }
        self.0[i] = self.0[i].min(secs);
    }

    /// The least time of each item, in item order.
    pub fn times(&self) -> &[f64] {
        &self.0
    }

    /// Sum of the least times.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// What one measurement phase of a workload produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Least wall time of each operation of a pass, seconds.
    pub ops: Least,
    /// Least wall time of each piece of per-pass work the workload counts
    /// as part of its loop besides the operations (never set-up), seconds.
    pub others: Least,
    /// Busy seconds of each pass: its operations and other work.
    pub pass_s: Vec<f64>,
    busy_s: f64,
    /// Least set-up time over the passes, seconds.
    pub setup_s: f64,
    /// Passes run.
    pub passes: u32,
    /// Peak resident memory at the end of the first pass, MB. Later passes
    /// repeat the same work; reading the peak there keeps allocator
    /// fragmentation across a varying number of passes out of the figure.
    pub peak_rss_mb: f64,
    /// The workload's own end-to-end figures, printed and stamped.
    pub report: Vec<Metric>,
    /// Simulated outputs; they repeat bit for bit for a given seed.
    pub sim: Vec<Metric>,
    /// Per-layer figures (filled when the tracer is on).
    pub layer: Vec<Metric>,
    /// Workload parameters, stamped into the result file.
    pub params: Vec<(&'static str, String)>,
}

impl Measured {
    /// Record one set-up.
    pub fn setup(&mut self, secs: f64) {
        self.setup_s = if self.passes == 0 {
            secs
        } else {
            self.setup_s.min(secs)
        };
    }

    /// Record that operation `i` of the current pass took `secs`.
    pub fn op(&mut self, i: usize, secs: f64) {
        self.ops.record(i, secs);
        self.busy_s += secs;
    }

    /// Record that other work `i` of the current pass took `secs`.
    pub fn other(&mut self, i: usize, secs: f64) {
        self.others.record(i, secs);
        self.busy_s += secs;
    }

    /// Close a pass.
    pub fn end_pass(&mut self) {
        if self.passes == 0 {
            self.peak_rss_mb = crate::stamp::peak_rss_mb().unwrap_or(0.0);
        }
        self.passes += 1;
        self.pass_s.push(std::mem::take(&mut self.busy_s));
    }

    /// Operations per second of a pass run at the least times.
    pub fn ops_per_s(&self) -> f64 {
        self.ops.times().len() as f64 / (self.ops.total() + self.others.total()).max(1e-12)
    }

    /// Median and tail of the operations' least times.
    pub fn latency(&self) -> stats::Summary {
        stats::summarize(self.ops.times())
    }
}

/// A runnable workload.
pub type RunFn = fn(&Ctx, &mut Tracer, &mut Checks) -> Measured;

/// Inputs every workload receives.
#[derive(Debug, Clone)]
pub struct Ctx<'a> {
    /// Input seed.
    pub seed: u64,
    /// Wall seconds to keep issuing passes for.
    pub seconds: f64,
    /// Worker threads / data channels available (`nproc`).
    pub nproc: usize,
    /// Directory for files the workload writes (inside the checkout).
    pub scratch: &'a Path,
}

impl Ctx<'_> {
    /// Whether another pass should start, `passes` having run since `t0`.
    pub fn more(&self, passes: u32, t0: std::time::Instant) -> bool {
        passes == 0 || t0.elapsed().as_secs_f64() < self.seconds
    }
}

/// Every workload that runs by name: the manifest's, and `planet-chaos`.
pub const NAMES: [&str; 4] = [
    "fleet-deepqueue",
    "planet-chaos",
    "paper-matrix",
    "gridftp-stripe",
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<RunFn> {
    match name {
        "fleet-deepqueue" => Some(fleet::run),
        "planet-chaos" => Some(planet::run),
        "paper-matrix" => Some(matrix::run),
        "gridftp-stripe" => Some(gridftp::run),
        _ => None,
    }
}

/// Time `f`, returning its result and elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}
