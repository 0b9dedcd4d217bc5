//! `paper-matrix`: the paper's tuning matrix — routes uc/tacc × tuners
//! default/heur1/heur2/cd/cs/nm × the five Fig. 5 loads × dims nc/ncnp —
//! over several seeds. No orchestrator: each transfer is driven epoch by
//! epoch through `PaperWorld`, `World::begin_epoch/step/end_epoch` and
//! `OnlineTuner::observe` on the paper's two-flow network, exactly as
//! `drive_transfer` does (checked on one sampled cell per pass).
//!
//! An operation is one cell: a whole tuned transfer of 60 epochs. A pass
//! runs the matrix under `SEEDS` seeds drawn from `--seed`.

use xferopt_scenarios::experiments::FIG5_LOADS;
use xferopt_scenarios::{drive_transfer, DriveConfig, LoadSchedule, PaperWorld, Route, TuneDims};
use xferopt_simcore::SimDuration;
use xferopt_transfer::{EpochReport, StreamParams, TransferConfig, TransferId, World};
use xferopt_tuners::TunerKind;

use super::{timed, Ctx, Measured};
use crate::trace::Tracer;
use crate::{Checks, Rng};

const ROUTES: [Route; 2] = [Route::UChicago, Route::Tacc];
const TUNERS: [TunerKind; 6] = [
    TunerKind::Default,
    TunerKind::Heur1,
    TunerKind::Heur2,
    TunerKind::Cd,
    TunerKind::Cs,
    TunerKind::Nm,
];
const DIMS: [TuneDims; 2] = [TuneDims::NcOnly { np: 8 }, TuneDims::NcNp];
/// Seeds the matrix runs under in each pass.
pub const SEEDS: usize = 2;

/// Every cell of one pass, as the paper's drive configuration.
fn cells(seed: u64) -> Vec<DriveConfig> {
    let mut rng = Rng::new(seed, 3);
    let mut out = Vec::new();
    for _ in 0..SEEDS {
        let seed = rng.next_u64();
        for route in ROUTES {
            for tuner in TUNERS {
                for load in FIG5_LOADS {
                    for dims in DIMS {
                        out.push(
                            DriveConfig::paper(route, tuner, dims, LoadSchedule::constant(load))
                                .with_seed(seed),
                        );
                    }
                }
            }
        }
    }
    out
}

/// Per-pass tallies.
#[derive(Default)]
struct Tally {
    epochs: u64,
    mean_mbs_sum: f64,
    overhead_sum: f64,
    changed: u64,
    solves: u64,
}

/// Apply the external load in force at `t_s` (compute hogs plus the
/// competing transfer's stream count), as `drive_transfer` does.
fn apply_load(
    world: &mut World,
    cfg: &DriveConfig,
    src: xferopt_transfer::HostId,
    ext: TransferId,
    t_s: f64,
) {
    let load = cfg.schedule.load_at(t_s);
    world.set_compute_jobs(src, load.cmp);
    world.set_params(ext, StreamParams::new(load.tfr, 1), false);
}

/// Drive one cell epoch by epoch. Returns its epoch reports, the set-up
/// seconds (world, transfers, tuner) and the seconds of the epoch loop.
fn drive_cell(
    cfg: &DriveConfig,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> (Vec<EpochReport>, f64, f64) {
    let ((mut pw, ext, tid, mut tuner), setup_s) = timed(|| {
        let mut pw = tracer.span("scenarios.paper_world", |_| PaperWorld::new(cfg.seed));
        let src = pw.source;
        let load0 = cfg.schedule.load_at(0.0);
        let ext = pw.world.add_transfer(
            TransferConfig::memory_to_memory(src, pw.path(cfg.route))
                .with_params(StreamParams::new(load0.tfr, 1))
                .with_noise(cfg.noise_sigma, 45.0),
        );
        pw.world.set_compute_jobs(src, load0.cmp);
        let tid = pw.world.add_transfer(
            TransferConfig::memory_to_memory(src, pw.path(cfg.route))
                .with_params(cfg.x0)
                .with_noise(cfg.noise_sigma, 45.0),
        );
        let tuner = tracer.span("tuners.build", |_| {
            cfg.tuner
                .build(cfg.dims.domain(), cfg.dims.to_point(cfg.x0))
        });
        (pw, ext, tid, tuner)
    });
    let src = pw.source;
    let restarts = cfg.tuner != TunerKind::Default;
    let epochs = (cfg.duration_s / cfg.epoch_s).round() as usize;
    let (reports, loop_s) = timed(|| {
        let mut reports = Vec::with_capacity(epochs);
        let mut x = tuner.initial();
        let world = &mut pw.world;
        for _ in 0..epochs {
            let (r, next) = tracer.span("bench.epoch", |tr| {
                let params = cfg.dims.to_params(&x);
                let es = tr.span("transfer.begin_epoch", |_| {
                    world.begin_epoch(tid, params, restarts)
                });
                // `drive_transfer`'s `step_through`: step to each load
                // change inside the epoch, apply it, step the rest.
                let from = world.now().as_secs_f64();
                let to = from + cfg.epoch_s;
                let mut cursor = from;
                for change in cfg.schedule.changes_between(from, to) {
                    let piece = change - cursor;
                    if piece > 0.0 {
                        tr.span("transfer.step", |_| {
                            world.step(SimDuration::from_secs_f64(piece))
                        });
                    }
                    apply_load(world, cfg, src, ext, change);
                    cursor = change;
                }
                if to > cursor {
                    tr.span("transfer.step", |_| {
                        world.step(SimDuration::from_secs_f64(to - cursor))
                    });
                }
                let r = tr.span("transfer.end_epoch", |_| world.end_epoch(es));
                let next = tr.span("tuners.observe", |_| tuner.observe(&x, r.observed_mbs));
                (r, next)
            });
            tally.overhead_sum += r.overhead_fraction();
            tally.changed += u64::from(next != x);
            reports.push(r);
            x = next;
        }
        reports
    });
    tally.epochs += reports.len() as u64;
    tally.solves += pw.world.net().allocation_solves();
    tally.mean_mbs_sum +=
        reports.iter().map(|r| r.observed_mbs).sum::<f64>() / reports.len().max(1) as f64;
    (reports, setup_s, loop_s)
}

/// Run matrix passes until `ctx.seconds` have elapsed.
pub fn run(ctx: &Ctx, tracer: &mut Tracer, checks: &mut Checks) -> Measured {
    let cells = cells(ctx.seed);
    let mut sample = Rng::new(ctx.seed, 4);
    let mut m = Measured {
        params: vec![
            ("cells_per_pass", cells.len().to_string()),
            ("seeds_per_pass", SEEDS.to_string()),
            ("epochs_per_cell", "60".to_string()),
            ("epoch_s", "30".to_string()),
        ],
        ..Measured::default()
    };
    let mut first: Option<(f64, f64)> = None;
    let mut all = Tally::default();
    let mut epochs_per_pass = 0;
    let t0 = std::time::Instant::now();
    while ctx.more(m.passes, t0) {
        let checked = sample.below(cells.len() as u64) as usize;
        let mut tally = Tally::default();
        let mut setup = 0.0;
        for (i, cfg) in cells.iter().enumerate() {
            let (reports, setup_s, loop_s) = drive_cell(cfg, tracer, &mut tally);
            setup += setup_s;
            m.op(i, loop_s);
            checks.ops(1);
            if i == checked {
                let want = tracer.span("scenarios.drive_transfer", |_| drive_transfer(cfg).epochs);
                checks.check(reports == want, || {
                    format!(
                        "cell {i} ({} {} seed {}): epoch loop differs from drive_transfer",
                        cfg.route.name(),
                        cfg.tuner.name(),
                        cfg.seed
                    )
                });
            }
        }
        m.setup(setup);
        let tuned = tally.mean_mbs_sum / cells.len() as f64;
        let overhead = tally.overhead_sum / tally.epochs.max(1) as f64;
        let (want_tuned, want_overhead) = *first.get_or_insert((tuned, overhead));
        checks.check(
            tuned.to_bits() == want_tuned.to_bits() && overhead.to_bits() == want_overhead.to_bits(),
            || format!("pass {}: tuned {tuned} MB/s, overhead {overhead}; first pass {want_tuned}, {want_overhead}", m.passes + 1),
        );
        epochs_per_pass = tally.epochs;
        all.epochs += tally.epochs;
        all.changed += tally.changed;
        all.solves += tally.solves;
        m.end_pass();
    }
    let cell = m.latency();
    let (tuned, overhead) = first.unwrap_or((0.0, 0.0));
    m.report = vec![
        (
            "epochs_per_s",
            epochs_per_pass as f64 / m.ops.total().max(1e-12),
            "1/s",
        ),
        ("cell_ms_p50", cell.p50 * 1e3, "ms"),
        ("cell_ms_tail", cell.tail * 1e3, "ms"),
        ("cell_tail_percentile", cell.tail_p, "%"),
    ];
    m.sim = vec![
        ("tuned_mean_mbs", tuned, "MB/s"),
        ("restart_overhead_frac", overhead, "1"),
    ];
    if tracer.is_on() {
        let epochs = all.epochs.max(1) as f64;
        let (steps, step_busy) = tracer.totals("transfer.step");
        let (_, begin) = tracer.totals("transfer.begin_epoch");
        let (_, end) = tracer.totals("transfer.end_epoch");
        let (observes, observe_busy) = tracer.totals("tuners.observe");
        m.layer = vec![
            ("transfer.step_calls", steps as f64, "count"),
            ("transfer.step_busy_s", step_busy, "s"),
            ("transfer.epoch_io_s", begin + end, "s"),
            ("tuners.observe_calls", observes as f64, "count"),
            ("tuners.observe_busy_s", observe_busy, "s"),
            (
                "tuners.param_change_ratio",
                all.changed as f64 / epochs,
                "1",
            ),
            ("net.solves", all.solves as f64, "count"),
            ("net.solves_per_epoch", all.solves as f64 / epochs, "count"),
        ];
    }
    m
}
