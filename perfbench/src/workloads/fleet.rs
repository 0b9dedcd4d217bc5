//! `fleet-deepqueue`: one site, tens of thousands of jobs, SJF under a tight
//! per-link stream budget. About 90 % of the jobs are queued at t = 0 and
//! the rest arrive one per tick, so the queue stays deep while only a few
//! flows are on the wire: admission and policy do most of the work, the
//! network solver little.
//!
//! A pass builds one fleet fresh (set-up), ticks it with `FleetSim::tick`
//! for a fixed window of ticks (the timed operations), then finishes it and
//! checks every job's accounting. Every pass replays the same inputs, so the
//! simulated outputs must repeat bit for bit. The pass is kept short (about
//! a quarter of a second on a fast host) so that any fast stretch of the
//! host that long gives every tick a sample; see [`super`].

use xferopt_orchestrator::{
    FleetConfig, FleetOutcome, FleetSim, HistoryStore, JobSpec, JobState, Policy, ShardedFleetSim,
    Workload,
};
use xferopt_scenarios::Route;
use xferopt_tuners::TunerKind;

use super::{timed, Ctx, Measured};
use crate::trace::Tracer;
use crate::{stats, Checks, Rng};

/// Jobs in the fleet. A deep-queue tick costs about linearly in the queue
/// length; 20,000 keeps a tick near 2 ms and a pass short.
pub const JOBS: usize = 20_000;
/// Share of jobs queued at t = 0.
const PRELOAD_FRAC: f64 = 0.9;
/// Ticks per pass: enough for the tail to sit at p90 (at least ten ticks
/// beyond it).
pub const WINDOW: u64 = 120;
/// Per-link stream budget: four 16-stream jobs fill the shared NIC.
const LINK_BUDGET: u32 = 64;
/// Ticks per pool round trip in the sharding comparison.
const SHARD_BATCH: u64 = 50;
/// Runs of each side of the sharding comparison.
const SHARD_REPS: usize = 3;

fn config(seed: u64) -> FleetConfig {
    FleetConfig {
        policy: Policy::Sjf,
        seed,
        horizon_s: 1e7,
        link_budget: LINK_BUDGET,
        ..FleetConfig::default()
    }
}

/// The generated jobs: sizes spread log-uniformly over 20 GB–1 TB, 70 % on
/// the UChicago route, tuners cs/nm/cd in equal shares, each assigned to
/// jobs by a seeded permutation; 16-stream reservations; late jobs arrive
/// one per 5 s tick.
pub fn jobs(seed: u64, sites: u32) -> Workload {
    let mut rng = Rng::new(seed, 1);
    let preload = (JOBS as f64 * PRELOAD_FRAC) as usize;
    let tuners = [TunerKind::Cs, TunerKind::Nm, TunerKind::Cd];
    let (size, route, tuner) = (
        rng.permutation(JOBS),
        rng.permutation(JOBS),
        rng.permutation(JOBS),
    );
    Workload::new(
        (0..JOBS)
            .map(|i| {
                let arrival = if i < preload {
                    0.0
                } else {
                    (i - preload + 1) as f64 * 5.0
                };
                let q = (size[i] as f64 + 0.5) / JOBS as f64;
                let size_mb = (20_000.0 * 50f64.powf(q)).round();
                let route = if route[i] * 10 < JOBS * 7 {
                    Route::UChicago
                } else {
                    Route::Tacc
                };
                JobSpec::new(i as u64, arrival, size_mb)
                    .with_route(route)
                    .with_tuner(tuners[tuner[i] % tuners.len()])
                    .with_max_streams(16)
                    .with_site(i as u32 % sites)
            })
            .collect(),
    )
}

/// Accounting checks shared by both fleet workloads: every job has exactly
/// one outcome, and no job moved more than its size (a completed job moved
/// exactly its size, up to float rounding of the byte integrator).
pub fn check_accounting(out: &FleetOutcome, workload: &Workload, checks: &mut Checks) {
    let mut ids: Vec<u64> = out.report.outcomes.iter().map(|o| o.id.0).collect();
    ids.sort_unstable();
    ids.dedup();
    let all = ids.len() == workload.len()
        && out.report.outcomes.len() == workload.len()
        && out.report.submitted == workload.len();
    checks.check(all, || {
        format!(
            "{} outcomes ({} distinct) for {} jobs",
            out.report.outcomes.len(),
            ids.len(),
            workload.len()
        )
    });
    let mut bad = Vec::new();
    for o in &out.report.outcomes {
        let size = o.spec.size_mb;
        let tol = size * 1e-9;
        let over = o.moved_mb > size + tol || o.moved_mb < 0.0;
        let short = o.state == JobState::Completed && (o.moved_mb - size).abs() > tol;
        if over || short {
            bad.push(format!(
                "job {} ({}): moved {} of {}",
                o.id.0,
                o.state.name(),
                o.moved_mb,
                size
            ));
        }
    }
    checks.check(bad.is_empty(), || bad.join("; "));
}

/// Run passes until `ctx.seconds` have elapsed.
pub fn run(ctx: &Ctx, tracer: &mut Tracer, checks: &mut Checks) -> Measured {
    let workload = jobs(ctx.seed, 1);
    let config = config(ctx.seed);
    let mut m = Measured {
        params: vec![
            ("jobs", JOBS.to_string()),
            ("preload_frac", PRELOAD_FRAC.to_string()),
            ("window_ticks", WINDOW.to_string()),
            ("link_budget", LINK_BUDGET.to_string()),
            ("policy", "sjf".to_string()),
        ],
        ..Measured::default()
    };
    let mut first_moved: Option<f64> = None;
    let mut admitted = 0usize;
    let mut waits = Vec::new();
    let mut appends = 0usize;
    let mut solves = 0u64;
    let mut component_solves = 0u64;
    let mut components = 0usize;
    let mut active_sum = 0usize;
    let t0 = std::time::Instant::now();
    while ctx.more(m.passes, t0) {
        let mut history = HistoryStore::in_memory();
        let (mut sim, setup) = timed(|| {
            tracer.span("orchestrator.new", |_| {
                FleetSim::new(&workload, &config, &mut history)
            })
        });
        for i in 0..WINDOW as usize {
            let (alive, dt) = timed(|| tracer.span("orchestrator.tick", |_| sim.tick()));
            m.op(i, dt);
            checks.ops(1);
            if !alive {
                checks.check(false, || "fleet ended inside the window".to_string());
                break;
            }
            if tracer.is_on() {
                active_sum += sim.world().active_transfer_count();
            }
        }
        let net = sim.world().net();
        solves += net.allocation_solves();
        component_solves += net.component_solves();
        components = net.component_count();
        appends += sim.history_appended();
        let out = tracer.span("orchestrator.finish", |_| sim.finish());
        check_accounting(&out, &workload, checks);
        let moved = out.report.total_moved_mb();
        for o in &out.report.outcomes {
            if let Some(a) = o.admitted_s {
                admitted += 1;
                waits.push(a - o.spec.arrival_s);
            }
        }
        m.setup(setup);
        let first = *first_moved.get_or_insert(moved);
        checks.check(moved.to_bits() == first.to_bits(), || {
            format!(
                "pass {} moved {moved} MB, first pass {first} MB",
                m.passes + 1
            )
        });
        m.end_pass();
    }
    let tick = m.latency();
    m.report = vec![
        ("ticks_per_s", m.ops_per_s(), "1/s"),
        ("tick_ms_p50", tick.p50 * 1e3, "ms"),
        ("tick_ms_tail", tick.tail * 1e3, "ms"),
        ("tick_tail_percentile", tick.tail_p, "%"),
    ];
    m.sim = vec![("sim_moved_mb", first_moved.unwrap_or(0.0), "MB")];
    if tracer.is_on() {
        let ticks = (WINDOW * u64::from(m.passes)) as f64;
        let (calls, busy) = tracer.totals("orchestrator.tick");
        let per_call = |name: &str| {
            let (n, total) = tracer.totals(name);
            total / n.max(1) as f64
        };
        let (new_s, finish_s) = (
            per_call("orchestrator.new"),
            per_call("orchestrator.finish"),
        );
        let (inline_tps, pool_tps) = shard_rates(ctx, tracer, checks);
        m.layer = vec![
            ("orchestrator.tick_calls", calls as f64, "count"),
            ("orchestrator.tick_busy_s", busy, "s"),
            ("orchestrator.admitted", admitted as f64, "count"),
            ("orchestrator.queue_wait_s_p50", stats::median(&waits), "s"),
            ("orchestrator.history_appends", appends as f64, "count"),
            ("orchestrator.new_s", new_s, "s"),
            ("orchestrator.finish_s", finish_s, "s"),
            ("net.solves", solves as f64, "count"),
            ("net.component_solves", component_solves as f64, "count"),
            ("net.solves_per_tick", solves as f64 / ticks, "count"),
            ("net.components", components as f64, "count"),
            (
                "transfer.active_transfers_mean",
                active_sum as f64 / ticks,
                "count",
            ),
            ("orchestrator.shard_inline_ticks_per_s", inline_tps, "1/s"),
            ("orchestrator.shard_pool_ticks_per_s", pool_tps, "1/s"),
        ];
        // Route search, the checkpoint journal, resume and supervision run
        // only under chaos: one traced planet-chaos episode measures them.
        m.layer
            .extend(super::planet::chaos_layers(ctx, tracer, checks));
    }
    m
}

/// Like-for-like sharding: the same jobs partitioned over two sites, ticked
/// through `ShardedFleetSim` inline (1 shard) and on a worker pool
/// (`min(2, nproc)` shards), alternating, `SHARD_REPS` times each. Returns
/// both rates in ticks/s at each side's least time; every run must produce
/// the same bytes.
fn shard_rates(ctx: &Ctx, tracer: &mut Tracer, checks: &mut Checks) -> (f64, f64) {
    let workload = jobs(ctx.seed, 2);
    let config = config(ctx.seed);
    let mut best = [f64::INFINITY; 2];
    let mut moved: Option<f64> = None;
    for _ in 0..SHARD_REPS {
        for (side, (shards, name)) in [
            (1, "orchestrator.shard_inline"),
            (ctx.nproc.min(2), "orchestrator.shard_pool"),
        ]
        .into_iter()
        .enumerate()
        {
            let mut history = HistoryStore::in_memory();
            let mut sim = ShardedFleetSim::new(&workload, &config, &mut history, shards);
            let mut left = WINDOW;
            let (_, secs) = timed(|| {
                tracer.span(name, |_| {
                    while left > 0 {
                        let advanced = sim.run_ticks(left.min(SHARD_BATCH));
                        if advanced == 0 {
                            break;
                        }
                        left -= advanced;
                    }
                })
            });
            checks.check(left == 0, || {
                format!("{name}: fleet ended {left} ticks early")
            });
            best[side] = best[side].min(secs);
            let out = sim.finish();
            check_accounting(&out, &workload, checks);
            let got = out.report.total_moved_mb();
            let want = *moved.get_or_insert(got);
            checks.check(got.to_bits() == want.to_bits(), || {
                format!("{name}: moved {got} MB, the other shard count {want} MB")
            });
        }
    }
    (WINDOW as f64 / best[0], WINDOW as f64 / best[1])
}
