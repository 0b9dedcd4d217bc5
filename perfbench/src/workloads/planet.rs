//! `planet-chaos`: a five-region mesh planet under the `rolling-outage`
//! campaign, with the self-healing control plane, two-path multipath and
//! weighted-fair admission, hundreds of jobs run to the horizon. Fault
//! churn drives network re-solves, and breakers, the governor and placement
//! refinement do the work.
//!
//! A pass runs `EPISODES` episodes, each under its own seed drawn from
//! `--seed`. An episode searches routes and builds the catalog and the
//! `FleetSim` (set-up), ticks to the horizon while appending a checkpoint
//! block to a journal file every `CHECKPOINT_EVERY` ticks, finishes, then
//! reads the journal back and resumes from its newest block with
//! `parse_journal` and `resume_fleet`. The read must find every block
//! written and none torn, and the resumed run must reproduce the
//! uninterrupted one.
//!
//! This workload runs by name but `BENCHMARK.json` does not list it: a chaos
//! tick costs anything from microseconds to a millisecond, and where the
//! median and tail of that spread fall moves by about ±20 % from one seed to
//! the next. [`chaos_layers`] runs one traced episode for the traced run of
//! `fleet-deepqueue`, so the layers only this workload calls (route search,
//! checkpoint journal and resume, supervision) are still measured.

use std::io::Write as _;
use std::path::Path;

use xferopt_orchestrator::{
    parse_journal, resume_fleet, FleetConfig, FleetSim, HistoryStore, JobRoute, JobSpec, JobState,
    Policy, TopoFleetConfig, Workload,
};
use xferopt_topo::{search_routes, PlacementTable, Planet, RouteCatalog, SearchConfig};

use super::fleet::check_accounting;
use super::{timed, Ctx, Least, Measured};
use crate::trace::Tracer;
use crate::{Checks, Metric, Rng};

/// Episodes per pass.
pub const EPISODES: usize = 6;
/// Jobs per episode.
pub const JOBS: usize = 600;
/// Simulated horizon, seconds (300 ticks of 5 s; the outage rolls over
/// two of the five regions).
const HORIZON_S: f64 = 1500.0;
/// Arrival slots: the 5 s ticks of the first 1000 s.
const ARRIVAL_SLOTS: usize = 200;
/// Ticks between checkpoint blocks.
const CHECKPOINT_EVERY: u64 = 60;
const PRESET: &str = "mesh";
const CAMPAIGN: &str = "rolling-outage";
const K: usize = 3;

fn config(seed: u64) -> FleetConfig {
    let mut topo = TopoFleetConfig::preset(PRESET);
    topo.k = K;
    topo.campaign = Some(CAMPAIGN.to_string());
    topo.multipath = 2;
    topo.selfheal = true;
    FleetConfig {
        policy: Policy::WeightedFair,
        seed,
        horizon_s: HORIZON_S,
        topo: Some(topo),
        ..FleetConfig::default()
    }
}

/// The generated jobs: the placement pairs in equal shares, each riding its
/// rank-0 route with the searched stream shape; sizes spread over 20–60 GB,
/// priorities 1–4 in equal shares, arrivals spread over `ARRIVAL_SLOTS`
/// ticks — each assigned to jobs by a seeded permutation.
fn jobs(seed: u64, placement: &PlacementTable, catalog: &RouteCatalog) -> Workload {
    let mut rng = Rng::new(seed, 0);
    let (pair, size, arrival, priority) = (
        rng.permutation(JOBS),
        rng.permutation(JOBS),
        rng.permutation(JOBS),
        rng.permutation(JOBS),
    );
    Workload::new(
        (0..JOBS)
            .map(|i| {
                let e = &placement.entries[pair[i] % placement.entries.len()];
                let name = &e.routes[0];
                let path = catalog
                    .route_by_name(name)
                    .expect("placement routes come from the catalog");
                let size_mb = (20_000.0 + 40_000.0 * (size[i] as f64 + 0.5) / JOBS as f64).round();
                let arrival_s = (arrival[i] % ARRIVAL_SLOTS) as f64 * 5.0;
                JobSpec::new(i as u64, arrival_s, size_mb)
                    .with_route(JobRoute::new(name.clone(), e.links[0].clone(), path))
                    .with_np(e.np)
                    .with_max_streams((e.nc * e.np).max(8))
                    .with_priority(1 + (priority[i] % 4) as u32)
            })
            .collect(),
    )
}

/// Tallies over the episodes of one pass.
#[derive(Default)]
struct Tally {
    moved_mb: f64,
    completed: usize,
    checkpoint_bytes: usize,
    ticks: usize,
    active_sum: usize,
    solves: u64,
    component_solves: u64,
    components: usize,
    requeues: u64,
    reroutes: u64,
    replans: u64,
    brownouts: u64,
}

/// Indices of the next operation and the next other work of a pass; both
/// repeat in the same order every pass.
#[derive(Default)]
struct Cursor {
    op: usize,
    other: usize,
}

impl Cursor {
    fn op(&mut self, m: &mut Measured, secs: f64) {
        m.op(self.op, secs);
        self.op += 1;
    }

    fn other(&mut self, m: &mut Measured, secs: f64) {
        m.other(self.other, secs);
        self.other += 1;
    }
}

/// Where an episode records what it measured.
struct Sink<'a> {
    tracer: &'a mut Tracer,
    checks: &'a mut Checks,
    m: &'a mut Measured,
    at: Cursor,
    resume: &'a mut Least,
    tally: Tally,
}

/// Run episode `k` under `seed`; returns its set-up seconds, or `None` when
/// set-up failed (recorded as a failed check).
fn episode(seed: u64, k: usize, planet: &Planet, journal: &Path, s: &mut Sink) -> Option<f64> {
    let tracer = &mut *s.tracer;
    let search_cfg = SearchConfig {
        k: K,
        ..SearchConfig::default()
    };
    let (placement, search) =
        timed(|| tracer.span("topo.search", |_| search_routes(planet, &search_cfg)));
    let (catalog, enumerate) =
        timed(|| tracer.span("topo.catalog", |_| RouteCatalog::enumerate(planet, K)));
    let (placement, catalog) = match (placement, catalog) {
        (Ok(p), Ok(c)) => (p, c),
        (p, c) => {
            s.checks
                .check(false, || format!("planet set-up failed: {p:?} / {c:?}"));
            return None;
        }
    };
    let workload = jobs(seed, &placement, &catalog);
    let config = config(seed);
    let mut history = HistoryStore::in_memory();
    let (mut sim, build) = timed(|| {
        tracer.span("orchestrator.new", |_| {
            FleetSim::new(&workload, &config, &mut history)
        })
    });

    let mut file = match std::fs::File::create(journal) {
        Ok(f) => f,
        Err(e) => {
            s.checks.check(false, || {
                format!("cannot create {}: {e}", journal.display())
            });
            return None;
        }
    };
    // Blocks appended to the journal and the tick of the newest one.
    let (mut blocks, mut last_tick) = (0usize, 0u64);
    loop {
        let (alive, dt) = timed(|| tracer.span("orchestrator.tick", |_| sim.tick()));
        s.at.op(s.m, dt);
        if !alive {
            break;
        }
        s.checks.ops(1);
        s.tally.ticks += 1;
        if tracer.is_on() {
            s.tally.active_sum += sim.world().active_transfer_count();
        }
        if sim.tick_index() % CHECKPOINT_EVERY == 0 {
            let (written, dt) = timed(|| {
                tracer.span("orchestrator.checkpoint", |_| {
                    let block = sim.checkpoint();
                    file.write_all(block.as_bytes()).map(|_| block.len())
                })
            });
            s.at.other(s.m, dt);
            match written {
                Ok(n) => {
                    s.tally.checkpoint_bytes += n;
                    blocks += 1;
                    last_tick = sim.tick_index();
                }
                Err(e) => s
                    .checks
                    .check(false, || format!("journal write failed: {e}")),
            }
        }
    }
    drop(file);
    let net = sim.world().net();
    s.tally.solves += net.allocation_solves();
    s.tally.component_solves += net.component_solves();
    s.tally.components = net.component_count();
    let (_, dt) = timed(|| tracer.span("orchestrator.digest", |_| sim.digest_hash()));
    s.at.other(s.m, dt);
    let (out, dt) = timed(|| tracer.span("orchestrator.finish", |_| sim.finish()));
    s.at.other(s.m, dt);
    check_accounting(&out, &workload, s.checks);
    let moved = out.report.total_moved_mb();
    s.tally.moved_mb += moved;
    s.tally.completed += out.report.count(JobState::Completed);
    let sup = &out.report.supervision;
    s.tally.requeues += sup.requeues;
    s.tally.reroutes += sup.reroutes;
    s.tally.replans += sup.replans;
    s.tally.brownouts += sup.brownouts;

    let (read, parse_s) = timed(|| {
        tracer.span("orchestrator.parse_journal", |_| {
            std::fs::read_to_string(journal)
                .map_err(|e| e.to_string())
                .and_then(|t| parse_journal(&t))
        })
    });
    s.at.other(s.m, parse_s);
    let resumed = read.and_then(|read| {
        // Resume must start from the newest block, not a salvaged older one.
        s.checks.check(
            !read.salvaged() && read.blocks_total == blocks && read.checkpoint.tick == last_tick,
            || {
                format!(
                    "journal read {} of {blocks} blocks ({} dropped) at tick {}, newest written at tick {last_tick}",
                    read.blocks_total,
                    read.blocks_dropped,
                    read.checkpoint.tick
                )
            },
        );
        let mut history = HistoryStore::in_memory();
        let (resumed, replay_s) = timed(|| {
            tracer.span("orchestrator.replay", |_| {
                resume_fleet(&read.checkpoint, &mut history)
            })
        });
        s.at.other(s.m, replay_s);
        s.resume.record(k, parse_s + replay_s);
        resumed
    });
    s.checks.ops(1);
    match resumed {
        Ok(r) => {
            let got = r.report.total_moved_mb();
            s.checks.check(got.to_bits() == moved.to_bits(), || {
                format!("resume moved {got} MB, uninterrupted run {moved} MB")
            });
        }
        Err(e) => s.checks.check(false, || format!("resume failed: {e}")),
    }
    Some(search + enumerate + build)
}

/// Per-layer metrics that only this workload produces.
const CHAOS_ONLY: [&str; 11] = [
    "orchestrator.checkpoint_s",
    "orchestrator.checkpoint_bytes",
    "orchestrator.parse_journal_s",
    "orchestrator.replay_s",
    "orchestrator.digest_s",
    "orchestrator.requeues",
    "orchestrator.reroutes",
    "orchestrator.replans",
    "orchestrator.brownouts",
    "topo.search_s",
    "topo.catalog_s",
];

/// Run passes of `EPISODES` episodes until `ctx.seconds` have elapsed.
pub fn run(ctx: &Ctx, tracer: &mut Tracer, checks: &mut Checks) -> Measured {
    run_episodes(ctx, EPISODES, tracer, checks)
}

/// One traced pass of a single episode under `ctx.seed`, checked as in
/// [`run`]: the per-layer metrics only this workload produces, for another
/// workload's traced run. Spans of the names both share are left out.
pub fn chaos_layers(ctx: &Ctx, tracer: &mut Tracer, checks: &mut Checks) -> Vec<Metric> {
    let ctx = Ctx {
        seconds: 0.0,
        ..ctx.clone()
    };
    run_episodes(&ctx, 1, tracer, checks)
        .layer
        .into_iter()
        .filter(|(name, ..)| CHAOS_ONLY.contains(name))
        .collect()
}

fn run_episodes(ctx: &Ctx, episodes: usize, tracer: &mut Tracer, checks: &mut Checks) -> Measured {
    let planet = Planet::preset(PRESET).expect("mesh is a preset");
    let journal = ctx
        .scratch
        .join(format!("planet-journal-{}.jsonl", std::process::id()));
    // Episode seeds `episodes * seed + k`: the fleet seed is also the world
    // seed and is written into every checkpoint.
    let seeds: Vec<u64> = (0..episodes as u64)
        .map(|k| ctx.seed.wrapping_mul(episodes as u64).wrapping_add(k))
        .collect();
    let mut m = Measured {
        params: vec![
            ("episodes_per_pass", episodes.to_string()),
            ("jobs_per_episode", JOBS.to_string()),
            ("planet", PRESET.to_string()),
            ("campaign", CAMPAIGN.to_string()),
            ("horizon_s", HORIZON_S.to_string()),
            ("checkpoint_every_ticks", CHECKPOINT_EVERY.to_string()),
            ("multipath", "2".to_string()),
            ("selfheal", "true".to_string()),
            ("policy", "wfair".to_string()),
        ],
        ..Measured::default()
    };
    let mut resume = Least::default();
    let mut first: Option<(f64, usize)> = None;
    let mut tally = Tally::default();
    let t0 = std::time::Instant::now();
    'passes: while ctx.more(m.passes, t0) {
        let mut sink = Sink {
            tracer: &mut *tracer,
            checks: &mut *checks,
            m: &mut m,
            at: Cursor::default(),
            resume: &mut resume,
            tally: Tally::default(),
        };
        let mut setup = 0.0;
        for (k, &seed) in seeds.iter().enumerate() {
            match episode(seed, k, &planet, &journal, &mut sink) {
                Some(s) => setup += s,
                None => break 'passes,
            }
        }
        tally = sink.tally;
        m.setup(setup);
        let (want_moved, want_completed) = *first.get_or_insert((tally.moved_mb, tally.completed));
        checks.check(
            tally.moved_mb.to_bits() == want_moved.to_bits() && tally.completed == want_completed,
            || {
                format!(
                    "pass {}: {} MB / {} jobs, first pass {want_moved} MB / {want_completed} jobs",
                    m.passes + 1,
                    tally.moved_mb,
                    tally.completed
                )
            },
        );
        m.end_pass();
    }
    let _ = std::fs::remove_file(&journal);
    let tick = m.latency();
    let (moved, completed) = first.unwrap_or((0.0, 0));
    m.report = vec![
        (
            "ticks_per_s",
            tick.n as f64 / m.ops.total().max(1e-12),
            "1/s",
        ),
        ("tick_ms_p50", tick.p50 * 1e3, "ms"),
        ("tick_ms_tail", tick.tail * 1e3, "ms"),
        ("tick_tail_percentile", tick.tail_p, "%"),
        ("resume_s", resume.total() / episodes as f64, "s"),
    ];
    m.sim = vec![
        ("sim_moved_mb", moved, "MB"),
        ("jobs_completed", completed as f64, "count"),
    ];
    if tracer.is_on() {
        let ticks = tally.ticks.max(1) as f64;
        let per_call = |name: &str| {
            let (n, total) = tracer.totals(name);
            total / n.max(1) as f64
        };
        let (tick_calls, tick_busy) = tracer.totals("orchestrator.tick");
        m.layer = vec![
            ("net.solves", tally.solves as f64, "count"),
            (
                "net.component_solves",
                tally.component_solves as f64,
                "count",
            ),
            ("net.solves_per_tick", tally.solves as f64 / ticks, "count"),
            ("net.components", tally.components as f64, "count"),
            (
                "transfer.active_transfers_mean",
                tally.active_sum as f64 / ticks,
                "count",
            ),
            ("orchestrator.tick_calls", tick_calls as f64, "count"),
            ("orchestrator.tick_busy_s", tick_busy, "s"),
            (
                "orchestrator.checkpoint_s",
                per_call("orchestrator.checkpoint"),
                "s",
            ),
            (
                "orchestrator.checkpoint_bytes",
                tally.checkpoint_bytes as f64,
                "bytes",
            ),
            (
                "orchestrator.parse_journal_s",
                per_call("orchestrator.parse_journal"),
                "s",
            ),
            (
                "orchestrator.replay_s",
                per_call("orchestrator.replay"),
                "s",
            ),
            (
                "orchestrator.digest_s",
                per_call("orchestrator.digest"),
                "s",
            ),
            (
                "orchestrator.finish_s",
                per_call("orchestrator.finish"),
                "s",
            ),
            ("orchestrator.requeues", tally.requeues as f64, "count"),
            ("orchestrator.reroutes", tally.reroutes as f64, "count"),
            ("orchestrator.replans", tally.replans as f64, "count"),
            ("orchestrator.brownouts", tally.brownouts as f64, "count"),
            ("topo.search_s", per_call("topo.search"), "s"),
            ("topo.catalog_s", per_call("topo.catalog"), "s"),
            ("orchestrator.new_s", per_call("orchestrator.new"), "s"),
        ];
    }
    m
}
