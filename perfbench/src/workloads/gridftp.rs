//! `gridftp-stripe`: real bytes over localhost. A pass starts a server
//! (set-up) and runs one round on it: a verified striped `put` of a file,
//! then a verified `get` of it (the two operations), over at most `nproc`
//! data channels. The run ends with one
//! unshaped and one shaped `LoopbackHarness::measure` epoch. Only the real
//! data-plane crates run, so no simulator change should move this workload.

use std::time::Duration;

use xferopt_gridftp::{get, put, GridFtpServer, PutConfig};
use xferopt_loopback::{LoopbackHarness, ShaperConfig};

use super::{timed, Ctx, Measured};
use crate::trace::Tracer;
use crate::{stats, Checks};

/// File size per round, bytes.
pub const FILE_BYTES: u64 = 32 << 20;
/// EBLOCK payload size, bytes.
const BLOCK_BYTES: usize = 256 << 10;
/// Loopback epoch length.
const LOOPBACK_EPOCH: Duration = Duration::from_millis(300);
/// Cap of the shaped loopback epoch, MB/s.
const SHAPED_MBS: f64 = 100.0;

/// Run rounds until `ctx.seconds` have elapsed.
pub fn run(ctx: &Ctx, tracer: &mut Tracer, checks: &mut Checks) -> Measured {
    let np = ctx.nproc.clamp(1, 2) as u32;
    let mut m = Measured {
        params: vec![
            ("file_bytes", FILE_BYTES.to_string()),
            ("block_bytes", BLOCK_BYTES.to_string()),
            ("channels", np.to_string()),
            ("shaped_cap_mbs", SHAPED_MBS.to_string()),
        ],
        ..Measured::default()
    };
    let mb = FILE_BYTES as f64 / 1e6;
    let (mut put_call, mut put_data, mut put_outside, mut get_call) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut verified = 0u64;
    let mut calls = 0u64;
    let t0 = std::time::Instant::now();
    while ctx.more(m.passes, t0) {
        let (server, setup) =
            timed(|| tracer.span("gridftp.server_start", |_| GridFtpServer::start()));
        m.setup(setup);
        let addr = match server {
            Ok(ref s) => s.control_addr(),
            Err(e) => {
                checks.check(false, || format!("GridFtpServer::start: {e}"));
                break;
            }
        };
        let name = format!("round-{}", m.passes);
        let (p, g) = tracer.span("bench.round", |tr| {
            let cfg = PutConfig::new(name.as_str(), FILE_BYTES)
                .with_parallelism(np)
                .with_block_bytes(BLOCK_BYTES);
            let p = timed(|| tr.span("gridftp.put", |_| put(addr, cfg)));
            let g = timed(|| tr.span("gridftp.get", |_| get(addr, &name, FILE_BYTES, np)));
            (p, g)
        });
        drop(server);
        m.op(0, p.1);
        m.op(1, g.1);
        m.end_pass();
        calls += 2;
        match p {
            (Ok(r), call) => {
                put_call.push(call);
                put_data.push(r.elapsed_s);
                put_outside.push(call - r.elapsed_s);
                let ok = r.complete && r.verified && r.bytes_sent == FILE_BYTES;
                verified += u64::from(ok);
                checks.check(ok, || format!("{name}: put not verified: {r:?}"));
            }
            (Err(e), _) => checks.check(false, || format!("{name}: put failed: {e}")),
        }
        match g {
            (Ok(r), call) => {
                get_call.push(call);
                let ok = r.verified && r.bytes_received == FILE_BYTES;
                verified += u64::from(ok);
                checks.check(ok, || format!("{name}: get not verified: {r:?}"));
            }
            (Err(e), _) => checks.check(false, || format!("{name}: get failed: {e}")),
        }
    }

    let epoch = |shaper: ShaperConfig, tracer: &mut Tracer, checks: &mut Checks| {
        let measured = LoopbackHarness::start(shaper)
            .and_then(|h| tracer.span("loopback.measure", |_| h.measure(1, np, LOOPBACK_EPOCH)));
        match measured {
            Ok(mbs) => {
                checks.check(mbs > 0.0, || "loopback epoch moved no bytes".to_string());
                mbs
            }
            Err(e) => {
                checks.check(false, || format!("loopback epoch failed: {e}"));
                0.0
            }
        }
    };
    let unshaped = epoch(ShaperConfig::unshaped(), tracer, checks);
    let shaped = epoch(ShaperConfig::rate_mbs(SHAPED_MBS), tracer, checks);

    let least = m.ops.times();
    m.report = vec![
        (
            "put_mbs",
            mb / least.first().unwrap_or(&f64::INFINITY),
            "MB/s",
        ),
        (
            "get_mbs",
            mb / least.get(1).unwrap_or(&f64::INFINITY),
            "MB/s",
        ),
    ];
    if tracer.is_on() {
        m.layer = vec![
            ("gridftp.put_call_s", stats::median(&put_call), "s"),
            ("gridftp.put_data_s", stats::median(&put_data), "s"),
            (
                "gridftp.put_outside_data_s",
                stats::median(&put_outside),
                "s",
            ),
            ("gridftp.get_call_s", stats::median(&get_call), "s"),
            (
                "gridftp.verified_ratio",
                verified as f64 / calls.max(1) as f64,
                "1",
            ),
            ("loopback.unshaped_mbs", unshaped, "MB/s"),
            ("loopback.shaper_ratio", shaped / SHAPED_MBS, "1"),
        ];
    }
    m
}
