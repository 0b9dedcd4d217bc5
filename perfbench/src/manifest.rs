//! The benchmark's manifest: its command, workloads and metrics. The
//! repository's `BENCHMARK.json` is this module rendered
//! (`perfbench --write-manifest`), and a test checks the round trip.

use crate::json::{self, quote, Json};

/// How the benchmark is invoked, from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark.
pub const PATHS: [&str; 1] = ["perfbench"];

/// Wall seconds one run measures for. A longer run samples more of the
/// host's fast stretches; 40 s keeps a full evaluation of the three
/// workloads (4 + 22 runs per workload, about 42 s each with start-up and
/// set-up, plus two builds) under 3420 s.
pub const RUN_SECONDS: u64 = 40;

/// `(name, why)` of each workload. `planet-chaos` runs by name but is not
/// listed: its tick latencies swing by about ±20 % with the seed, past the
/// bound a listed workload must hold. One traced chaos episode runs inside
/// `fleet-deepqueue`'s traced run, so its layers are still measured.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "fleet-deepqueue",
        "deep SJF queue, few flows on the wire: admission and policy dominate each fleet tick",
    ),
    (
        "paper-matrix",
        "the paper's tuner x load x dims matrix: transfer, net, host and tuners with no orchestrator",
    ),
    (
        "gridftp-stripe",
        "real localhost sockets: verified striped GridFTP put and get; no simulator code runs",
    ),
];

/// An end-to-end metric: `(name, unit, better, bound)`.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [EndToEnd; 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_tail", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
];

/// A per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// Per-layer metrics, reported by every workload with tracing on (0 for a
/// layer the workload does not call).
pub const PER_LAYER: [PerLayer; 45] = [
    ("orchestrator.tick_calls", "count", "higher"),
    ("orchestrator.tick_busy_s", "s", "lower"),
    ("orchestrator.admitted", "count", "higher"),
    ("orchestrator.queue_wait_s_p50", "s", "lower"),
    ("orchestrator.history_appends", "count", "higher"),
    ("orchestrator.shard_inline_ticks_per_s", "1/s", "higher"),
    ("orchestrator.shard_pool_ticks_per_s", "1/s", "higher"),
    ("orchestrator.checkpoint_s", "s", "lower"),
    ("orchestrator.checkpoint_bytes", "bytes", "lower"),
    ("orchestrator.parse_journal_s", "s", "lower"),
    ("orchestrator.replay_s", "s", "lower"),
    ("orchestrator.digest_s", "s", "lower"),
    ("orchestrator.finish_s", "s", "lower"),
    ("orchestrator.new_s", "s", "lower"),
    ("orchestrator.requeues", "count", "lower"),
    ("orchestrator.reroutes", "count", "lower"),
    ("orchestrator.replans", "count", "lower"),
    ("orchestrator.brownouts", "count", "lower"),
    ("topo.search_s", "s", "lower"),
    ("topo.catalog_s", "s", "lower"),
    ("net.solves", "count", "lower"),
    ("net.component_solves", "count", "lower"),
    ("net.solves_per_tick", "count", "lower"),
    ("net.solves_per_epoch", "count", "lower"),
    ("net.components", "count", "higher"),
    ("transfer.active_transfers_mean", "count", "higher"),
    ("transfer.step_calls", "count", "lower"),
    ("transfer.step_busy_s", "s", "lower"),
    ("transfer.epoch_io_s", "s", "lower"),
    ("tuners.observe_calls", "count", "higher"),
    ("tuners.observe_busy_s", "s", "lower"),
    ("tuners.param_change_ratio", "1", "lower"),
    ("scenarios.paper_world_s", "s", "lower"),
    ("gridftp.server_start_s", "s", "lower"),
    ("gridftp.put_call_s", "s", "lower"),
    ("gridftp.put_data_s", "s", "lower"),
    ("gridftp.put_outside_data_s", "s", "lower"),
    ("gridftp.get_call_s", "s", "lower"),
    ("gridftp.verified_ratio", "1", "higher"),
    ("loopback.unshaped_mbs", "MB/s", "higher"),
    ("loopback.shaper_ratio", "1", "higher"),
    ("bench.trace_overhead_frac", "1", "lower"),
    ("bench.pass_s_untraced", "s", "lower"),
    ("bench.pass_s_traced", "s", "lower"),
    ("bench.spans", "count", "lower"),
];

/// The manifest as owned data, for comparing a parsed file.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Command and arguments.
    pub command: Vec<String>,
    /// Benchmark directories.
    pub paths: Vec<String>,
    /// Seconds per run.
    pub run_seconds: u64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    /// `(name, unit, better, bound)`.
    pub end_to_end: Vec<(String, String, String, f64)>,
    /// `(name, unit, better)`.
    pub per_layer: Vec<(String, String, String)>,
}

impl Manifest {
    /// The manifest this build of the benchmark implements.
    pub fn current() -> Self {
        let s = |x: &str| x.to_string();
        Manifest {
            command: COMMAND.iter().map(|x| s(x)).collect(),
            paths: PATHS.iter().map(|x| s(x)).collect(),
            run_seconds: RUN_SECONDS,
            workloads: WORKLOADS.iter().map(|(n, w)| (s(n), s(w))).collect(),
            end_to_end: END_TO_END
                .iter()
                .map(|(n, u, b, x)| (s(n), s(u), s(b), *x))
                .collect(),
            per_layer: PER_LAYER
                .iter()
                .map(|(n, u, b)| (s(n), s(u), s(b)))
                .collect(),
        }
    }

    /// Render as `BENCHMARK.json` text.
    pub fn render(&self) -> String {
        let list = |xs: &[String]| {
            let q: Vec<String> = xs.iter().map(|x| quote(x)).collect();
            format!("[{}]", q.join(", "))
        };
        let rows = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
        let workloads = rows(
            self.workloads
                .iter()
                .map(|(n, w)| format!("{{\"name\": {}, \"why\": {}}}", quote(n), quote(w)))
                .collect(),
        );
        let e2e = rows(
            self.end_to_end
                .iter()
                .map(|(n, u, b, x)| {
                    format!(
                        "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                        quote(n),
                        quote(u),
                        quote(b),
                        json::num(*x)
                    )
                })
                .collect(),
        );
        let layer = rows(
            self.per_layer
                .iter()
                .map(|(n, u, b)| {
                    format!(
                        "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                        quote(n),
                        quote(u),
                        quote(b)
                    )
                })
                .collect(),
        );
        format!(
            "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \"workloads\": {workloads},\n  \"end_to_end\": {e2e},\n  \"per_layer\": {layer}\n}}\n",
            list(&self.command),
            list(&self.paths),
            self.run_seconds,
        )
    }

    /// Read a manifest back from `BENCHMARK.json` text.
    ///
    /// # Errors
    /// Returns a message when the text is not JSON, has keys other than the
    /// six manifest keys, or a field has the wrong shape.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = json::parse(text)?;
        let want = [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ];
        if doc.keys() != want {
            return Err(format!("manifest keys {:?}, want {want:?}", doc.keys()));
        }
        let arr = |k: &str| {
            doc.get(k)
                .and_then(Json::as_arr)
                .ok_or(format!("{k}: not a list"))
        };
        let strs = |k: &str| -> Result<Vec<String>, String> {
            arr(k)?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or(format!("{k}: not a string"))
                })
                .collect()
        };
        let field = |row: &Json, k: &str| -> Result<String, String> {
            row.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("missing string field {k}"))
        };
        let exact = |row: &Json, keys: &[&str]| -> Result<(), String> {
            if row.keys() == keys {
                Ok(())
            } else {
                Err(format!("row keys {:?}, want {keys:?}", row.keys()))
            }
        };
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .filter(|x| x.fract() == 0.0 && *x >= 1.0)
            .ok_or("run_seconds: not a positive whole number")? as u64;
        Ok(Manifest {
            command: strs("command")?,
            paths: strs("paths")?,
            run_seconds,
            workloads: arr("workloads")?
                .iter()
                .map(|r| {
                    exact(r, &["name", "why"])?;
                    Ok((field(r, "name")?, field(r, "why")?))
                })
                .collect::<Result<_, String>>()?,
            end_to_end: arr("end_to_end")?
                .iter()
                .map(|r| {
                    exact(r, &["name", "unit", "better", "bound"])?;
                    let bound = r
                        .get("bound")
                        .and_then(Json::as_f64)
                        .ok_or("bound: not a number")?;
                    Ok((
                        field(r, "name")?,
                        field(r, "unit")?,
                        field(r, "better")?,
                        bound,
                    ))
                })
                .collect::<Result<_, String>>()?,
            per_layer: arr("per_layer")?
                .iter()
                .map(|r| {
                    exact(r, &["name", "unit", "better"])?;
                    Ok((field(r, "name")?, field(r, "unit")?, field(r, "better")?))
                })
                .collect::<Result<_, String>>()?,
        })
    }
}
