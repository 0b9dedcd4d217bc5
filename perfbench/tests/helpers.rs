//! Tests of the benchmark's own helpers: the tail-percentile rule, self
//! time from nested spans, and the `BENCHMARK.json` round trip.

use xferopt_perfbench::json;
use xferopt_perfbench::manifest::{Manifest, END_TO_END, PER_LAYER, WORKLOADS};
use xferopt_perfbench::stats::{beyond, percentile, summarize, tail_level};
use xferopt_perfbench::trace::{self_times_ns, Span, Tracer};

#[test]
fn tail_is_the_highest_ladder_level_with_ten_samples_beyond() {
    assert_eq!(tail_level(0), None);
    assert_eq!(tail_level(19), None);
    assert_eq!(tail_level(20), Some(50.0));
    assert_eq!(tail_level(99), Some(50.0));
    assert_eq!(tail_level(100), Some(90.0));
    assert_eq!(tail_level(999), Some(90.0));
    assert_eq!(tail_level(1000), Some(99.0));
    assert_eq!(tail_level(1_000_000), Some(99.0));
    for n in [20, 57, 100, 345, 1000, 4321] {
        let p = tail_level(n).unwrap();
        assert!(beyond(n, p) >= 10, "n={n} p={p}");
    }
}

#[test]
fn percentiles_use_the_nearest_rank() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&xs, 50.0), 50.0);
    assert_eq!(percentile(&xs, 90.0), 90.0);
    assert_eq!(percentile(&xs, 100.0), 100.0);
    assert_eq!(beyond(100, 90.0), 10);

    let mut shuffled: Vec<f64> = (0..1000).map(|i| f64::from((i * 7919) % 1000)).collect();
    shuffled.reverse();
    let s = summarize(&shuffled);
    assert_eq!((s.n, s.tail_p), (1000, 99.0));
    assert_eq!(s.p50, 499.0);
    assert_eq!(s.tail, 989.0);

    // Too few samples for any ladder level: the tail is the maximum.
    let s = summarize(&[3.0, 1.0, 2.0]);
    assert_eq!((s.p50, s.tail, s.tail_p), (2.0, 3.0, 100.0));
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
    }
}

#[test]
fn self_time_subtracts_the_union_of_direct_children() {
    let spans = vec![
        span("root", 0, 100, None),
        span("a", 10, 40, Some(0)),
        span("a.inner", 15, 20, Some(1)),
        span("b", 30, 60, Some(0)),
        span("c", 80, 90, Some(0)),
        span("other", 200, 250, None),
    ];
    // root: children cover [10, 60] and [80, 90] -> 60 ns, self 40.
    // a: its child covers 5 ns; grandchildren do not count for root.
    assert_eq!(self_times_ns(&spans), vec![40, 25, 5, 30, 10, 50]);
}

#[test]
fn tracer_records_nesting_and_only_when_on() {
    let mut off = Tracer::new(false, "off".to_string());
    assert_eq!(off.span("x", |t| t.span("y", |_| 7)), 7);
    assert!(off.spans().is_empty());

    let mut t = Tracer::new(true, "run-1".to_string());
    t.span("outer", |t| {
        t.span("inner", |_| std::hint::black_box(1 + 1));
        t.span("inner", |_| ());
    });
    let spans = t.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[0].parent, None);
    assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
    assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);
    let (count, total) = t.totals("inner");
    assert_eq!(count, 2);
    assert!(total >= 0.0);

    // Every JSONL line parses and carries the shared run id.
    for line in t.to_jsonl().lines() {
        let v = json::parse(line).unwrap();
        assert_eq!(v.get("run").and_then(json::Json::as_str), Some("run-1"));
        assert_eq!(
            v.keys(),
            ["run", "id", "name", "start_ns", "end_ns", "parent"]
        );
    }
}

#[test]
fn manifest_round_trips_and_matches_the_committed_file() {
    let m = Manifest::current();
    let text = m.render();
    assert_eq!(Manifest::parse(&text).unwrap(), m);

    let committed = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    )
    .expect("BENCHMARK.json sits at the repository root");
    assert_eq!(
        committed, text,
        "BENCHMARK.json is stale: regenerate it with `perfbench --write-manifest`"
    );
}

#[test]
fn manifest_stays_within_its_limits() {
    let m = Manifest::current();
    assert!((1..=60).contains(&m.run_seconds));
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!(END_TO_END
        .iter()
        .any(|(n, u, b, _)| (*n, *u, *b) == ("setup_s", "s", "lower")));
    let max_bound = END_TO_END.iter().map(|e| e.3).fold(0.0, f64::max);
    assert!(END_TO_END
        .iter()
        .all(|(n, _, _, bound)| *bound <= 0.25 && (*n != "setup_s" || *bound == max_bound)));
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    names.extend(END_TO_END.iter().map(|e| e.0));
    names.extend(PER_LAYER.iter().map(|e| e.0));
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "a name is used twice");
    for name in names {
        assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
    }
    for (_, why) in WORKLOADS {
        assert!(why.len() <= 200 && !why.contains('\n'));
    }
}

#[test]
fn manifest_parse_rejects_other_shapes() {
    assert!(Manifest::parse("{}").is_err());
    assert!(Manifest::parse("not json").is_err());
    let extra = Manifest::current()
        .render()
        .replacen('{', "{\"extra\": 1, ", 1);
    assert!(Manifest::parse(&extra).is_err());
}

#[test]
fn json_strings_round_trip_through_quote() {
    let s = "a \"quoted\" \\ path\nwith\ttabs and é";
    assert_eq!(
        json::parse(&json::quote(s)).unwrap(),
        json::Json::Str(s.to_string())
    );
    assert_eq!(json::num(0.1), "0.1");
    assert_eq!(json::num(f64::NAN), "null");
}

#[test]
fn each_item_keeps_its_least_time_over_passes() {
    use xferopt_perfbench::workloads::Measured;
    let mut m = Measured::default();
    m.setup(5.0);
    m.op(0, 3.0);
    m.op(1, 5.0);
    m.other(0, 1.0);
    m.end_pass();
    m.setup(4.0);
    m.op(0, 4.0);
    m.op(1, 2.0);
    m.other(0, 2.0);
    m.end_pass();
    assert_eq!(m.ops.times(), [3.0, 2.0]);
    assert_eq!(m.others.times(), [1.0]);
    assert_eq!(m.pass_s, [9.0, 8.0]);
    assert_eq!(m.setup_s, 4.0);
    assert_eq!(m.passes, 2);
    assert_eq!(m.ops_per_s(), 2.0 / 6.0);
    assert_eq!((m.latency().p50, m.latency().tail), (2.0, 3.0));
}
