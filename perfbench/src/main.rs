//! `perfbench`: run one workload (or every workload `BENCHMARK.json` lists)
//! and print its metrics.
//!
//! ```text
//! perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --write-manifest
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The exit code
//! is non-zero when any correctness check failed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use xferopt_perfbench::manifest::{Manifest, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use xferopt_perfbench::trace::{self_times_ns, Tracer};
use xferopt_perfbench::workloads::{self, Ctx, Measured};
use xferopt_perfbench::{json, stamp, Checks, DEFAULT_SEED, HELD_OUT_SEED};

/// Directory (inside the checkout) for result files, spans and journals.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: "all".to_string(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        write_manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value("--workload")?,
            "--seed" => {
                let v = value("--seed")?;
                a.seed = v.parse().map_err(|_| format!("bad --seed: {v}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                a.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds: {v}"))?;
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace: {v} (use 0 or 1)")),
                }
            }
            "--write-manifest" => a.write_manifest = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if a.workload != "all" && workloads::by_name(&a.workload).is_none() {
        return Err(format!(
            "unknown workload: {} (use {} or all)",
            a.workload,
            workloads::NAMES.join("|")
        ));
    }
    Ok(a)
}

/// One workload run's results.
struct RunResult {
    metrics: BTreeMap<String, (f64, String)>,
    checks: Checks,
}

fn metric_map(ms: &[xferopt_perfbench::Metric]) -> BTreeMap<String, (f64, String)> {
    ms.iter()
        .map(|(n, v, u)| (n.to_string(), (*v, u.to_string())))
        .collect()
}

fn end_to_end(m: &Measured) -> BTreeMap<String, (f64, String)> {
    let latency = m.latency();
    let values = [
        m.setup_s,
        m.ops_per_s(),
        latency.p50 * 1e3,
        latency.tail * 1e3,
        m.peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit, _, _), v)| (name.to_string(), (v, unit.to_string())))
        .collect()
}

fn run_one(name: &str, args: &Args, root: &Path, out: &mut String) -> RunResult {
    let run = workloads::by_name(name).expect("workload names are validated");
    let scratch = root.join(OUT_DIR);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        nproc: stamp::nproc(),
        scratch: &scratch,
    };
    let run_id = format!(
        "{name}-{}-{:x}",
        args.seed,
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis())
    );
    let mut checks = Checks::default();
    // `VmHWM` only rises; reset it to the current resident set so no
    // workload reports an earlier one's peak.
    checks.check(stamp::reset_peak_rss(), || {
        "cannot reset the peak RSS (/proc/self/clear_refs)".to_string()
    });
    let mut tracer = Tracer::new(false, run_id);
    let base = run(&ctx, &mut tracer, &mut checks);
    let e2e = end_to_end(&base);
    let mut stamped = e2e.clone();
    stamped.extend(metric_map(&base.report));
    stamped.extend(metric_map(&base.sim));
    let metrics = if args.trace {
        // One pass traced: enough spans for every layer figure while the
        // span log stays bounded on the fastest workloads.
        tracer.set_on(true);
        let traced = run(
            &Ctx {
                seconds: 0.0,
                ..ctx.clone()
            },
            &mut tracer,
            &mut checks,
        );
        // Tracing must not change a single simulated output.
        for (a, b) in base.sim.iter().zip(&traced.sim) {
            checks.check(a.1.to_bits() == b.1.to_bits(), || {
                format!("{}: {} untraced, {} traced", a.0, a.1, b.1)
            });
        }
        let mut layer: BTreeMap<String, (f64, String)> = PER_LAYER
            .iter()
            .map(|(n, u, _)| (n.to_string(), (0.0, u.to_string())))
            .collect();
        let mut put = |n: &str, v: f64| {
            let slot = layer
                .get_mut(n)
                .unwrap_or_else(|| panic!("{n} is not a per-layer metric"));
            slot.0 = v;
        };
        for (n, v, _) in &traced.layer {
            put(n, *v);
        }
        let per_call = |n: &str| {
            let (c, total) = tracer.totals(n);
            total / c.max(1) as f64
        };
        put("scenarios.paper_world_s", per_call("scenarios.paper_world"));
        put("gridftp.server_start_s", per_call("gridftp.server_start"));
        // The traced pass against the fastest untraced pass: the untraced
        // figures are least times too, so both sides read the host's fast
        // phase when the traced pass lands in it.
        let least = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
        let untraced_s = least(&base.pass_s);
        let traced_s = least(&traced.pass_s);
        put("bench.pass_s_untraced", untraced_s);
        put("bench.pass_s_traced", traced_s);
        put(
            "bench.trace_overhead_frac",
            traced_s / untraced_s.max(1e-12) - 1.0,
        );
        put("bench.spans", tracer.spans().len() as f64);
        write_spans(&tracer, &scratch, name, args.seed, out);
        stamped.extend(layer.clone());
        layer
    } else {
        e2e
    };
    stamped.insert(
        "failed_ops_frac".to_string(),
        (
            checks.failed as f64 / checks.attempted.max(1) as f64,
            "1".to_string(),
        ),
    );
    for (k, (v, u)) in &stamped {
        let _ = writeln!(out, "{name}  {k:<40} {} {u}", json::num(*v));
    }
    let _ = writeln!(
        out,
        "{name}  checks: {} attempted, {} failed",
        checks.attempted, checks.failed
    );
    for note in &checks.notes {
        let _ = writeln!(out, "{name}  FAILED: {note}");
    }
    write_stamp(name, args, root, &base, &stamped, &checks, out);
    RunResult { metrics, checks }
}

/// Write the spans as JSONL and print where, then each span name's total
/// self time.
fn write_spans(tracer: &Tracer, dir: &Path, name: &str, seed: u64, out: &mut String) {
    let path = dir.join(format!("{name}-seed{seed}.spans.jsonl"));
    match std::fs::write(&path, tracer.to_jsonl()) {
        Ok(()) => {
            let _ = writeln!(out, "{name}  spans -> {}", path.display());
        }
        Err(e) => {
            let _ = writeln!(out, "{name}  cannot write {}: {e}", path.display());
        }
    }
    let mut self_s: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, ns) in tracer.spans().iter().zip(self_times_ns(tracer.spans())) {
        *self_s.entry(s.name).or_default() += ns as f64 * 1e-9;
    }
    for (span, secs) in self_s {
        let _ = writeln!(out, "{name}  self time {span:<36} {secs:.6} s");
    }
}

/// Write the stamped result file for one run.
fn write_stamp(
    name: &str,
    args: &Args,
    root: &Path,
    m: &Measured,
    metrics: &BTreeMap<String, (f64, String)>,
    checks: &Checks,
    out: &mut String,
) {
    let params: Vec<String> = m
        .params
        .iter()
        .map(|(k, v)| format!("{}: {}", json::quote(k), json::quote(v)))
        .collect();
    let notes: Vec<String> = checks.notes.iter().map(|n| json::quote(n)).collect();
    let text = format!(
        "{{\"workload\": {}, \"seed\": {}, \"held_out\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"git_revision\": {}, \"profile\": {}, \"default_seed\": {DEFAULT_SEED}, \
         \"held_out_seed\": {HELD_OUT_SEED}, \"params\": {{{}}}, \"attempted\": {}, \"failed\": {}, \
         \"failures\": [{}], \"metrics\": {}}}\n",
        json::quote(name),
        args.seed,
        args.seed == HELD_OUT_SEED,
        json::num(args.seconds),
        u8::from(args.trace),
        stamp::nproc(),
        json::quote(&stamp::git_revision(root)),
        json::quote(stamp::profile()),
        params.join(", "),
        checks.attempted,
        checks.failed,
        notes.join(", "),
        json::metrics_object(metrics),
    );
    let path = root.join(OUT_DIR).join(format!(
        "{name}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    match std::fs::write(&path, text) {
        Ok(()) => {
            let _ = writeln!(out, "{name}  result -> {}", path.display());
        }
        Err(e) => {
            let _ = writeln!(out, "{name}  cannot write {}: {e}", path.display());
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --write-manifest"
            );
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.write_manifest {
        let path = root.join("BENCHMARK.json");
        return match std::fs::write(&path, Manifest::current().render()) {
            Ok(()) => {
                println!("wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }
    if let Err(e) = std::fs::create_dir_all(root.join(OUT_DIR)) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.iter().map(|(n, _)| *n).collect()
    } else {
        vec![args.workload.as_str()]
    };
    println!(
        "perfbench: seed {}{} seconds {} trace {} nproc {} profile {} rev {}",
        args.seed,
        if args.seed == HELD_OUT_SEED {
            " (held out)"
        } else {
            ""
        },
        args.seconds,
        u8::from(args.trace),
        stamp::nproc(),
        stamp::profile(),
        stamp::git_revision(&root),
    );
    let mut metrics = BTreeMap::new();
    let mut checks = Checks::default();
    for name in &names {
        let mut out = String::new();
        let r = run_one(name, &args, &root, &mut out);
        print!("{out}");
        if names.len() == 1 {
            metrics = r.metrics;
        } else {
            metrics.extend(
                r.metrics
                    .into_iter()
                    .map(|(k, v)| (format!("{name}.{k}"), v)),
            );
        }
        checks.absorb(r.checks);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        json::metrics_object(&metrics)
    );
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
