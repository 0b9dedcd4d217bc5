//! End-to-end benchmark of xferopt. See `README.md` in this directory for
//! the workloads, the metrics and the layer each metric belongs to.

#![forbid(unsafe_code)]

pub mod json;
pub mod manifest;
pub mod stamp;
pub mod stats;
pub mod trace;
pub mod workloads;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of every tuning run of the benchmark and the program;
/// only used to confirm a claimed gain (`--seed 7919`).
pub const HELD_OUT_SEED: u64 = 7919;

/// SplitMix64: the benchmark's own input generator, so the inputs depend on
/// `--seed` alone and not on any RNG inside the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// `(0..n)` in a random order (Fisher–Yates). Workloads draw their
    /// inputs as a seeded permutation of a fixed, evenly spread set of
    /// values, so every seed carries the same total load and only the
    /// pairing of values to jobs changes.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
        v
    }
}

/// Pass/fail tally of the run's operations and correctness checks.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Checks that failed and operations that returned an error.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Checks {
    /// Count `n` operations that completed without error.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one check; record `what` when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

/// A named value with its unit.
pub type Metric = (&'static str, f64, &'static str);
