//! The ledger: one end-to-end benchmark for upload → relabel → FT-DMP
//! round → online `Infer` over a real loopback fleet, with a per-layer
//! budget from a separate traced run. See `README.md` beside this
//! package for the workloads, the metrics and how to read the output.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload
//! ledger [--seed <n>] [--seconds <s>] [--runs <k>] [--trace] [--out <file>]   all four, medians of k runs
//! ledger --agree <runA.json> <runB.json> [--bench <BENCHMARK.json>]
//! ```

mod agree;
mod fleet;
mod json;
mod pacing;
mod probes;
mod stats;
mod trace;
mod workloads;

use json::{obj, Value};
use std::process::{Command, ExitCode};
use workloads::{Ctx, Measured, Metric, Sizes};

/// End-to-end metrics, in `BENCHMARK.json` order, with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("photos_per_s", "1/s"),
    ("op_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("wire_bytes_per_photo", "B"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, in `BENCHMARK.json` order, with their units. A
/// workload whose path does not touch a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 64] = [
    ("data.deflate.compress_ns_per_byte", "ns/B"),
    ("data.deflate.inflate_ns_per_byte", "ns/B"),
    ("data.deflate.ratio", "ratio"),
    ("core.placement.replicas_for_ns", "ns"),
    ("core.placement.primary_max_over_mean", "ratio"),
    ("core.rpc.wire.put_encode_ns_per_byte", "ns/B"),
    ("core.rpc.wire.put_decode_ns_per_byte", "ns/B"),
    ("core.rpc.wire.infer_frame_ns", "ns"),
    ("core.rpc.wire.features_ns_per_byte", "ns/B"),
    ("core.rpc.wire.overhead_bytes_per_frame", "B"),
    ("core.rpc.cluster.put_photo_us", "us"),
    ("core.rpc.cluster.offline_infer_s", "s"),
    ("core.rpc.client.infer_rtt_us", "us"),
    ("core.rpc.client.generator_late_us", "us"),
    ("core.rpc.server.op_s.put_photo.p50", "s"),
    ("core.rpc.server.op_s.put_photo.p99", "s"),
    ("core.rpc.server.op_s.infer.p50", "s"),
    ("core.rpc.server.op_s.infer.p99", "s"),
    ("core.rpc.server.op_s.offline_infer.p50", "s"),
    ("core.rpc.server.op_s.offline_infer.p99", "s"),
    ("core.rpc.server.op_s.extract_slice.p50", "s"),
    ("core.rpc.server.op_s.extract_slice.p99", "s"),
    ("core.rpc.server.op_s.apply_delta.p50", "s"),
    ("core.rpc.server.op_s.apply_delta.p99", "s"),
    ("core.rpc.server.residual_us.infer", "us"),
    ("core.rpc.server.residual_us.put_photo", "us"),
    ("core.online.batch_rows_mean", "count"),
    ("core.online.coalesced_share", "ratio"),
    ("core.pipestore.store_record_us", "us"),
    ("core.pipestore.photo_record_us", "us"),
    ("core.npe.occupancy.load", "ratio"),
    ("core.npe.occupancy.decode", "ratio"),
    ("core.npe.occupancy.fe", "ratio"),
    ("core.npe.queue_depth_mean.in", "count"),
    ("core.npe.queue_depth_mean.mid", "count"),
    ("core.npe.batches", "count"),
    ("core.npe.stage_errors", "count"),
    ("dnn.mlp.forward_us.b1", "us"),
    ("dnn.mlp.forward_us.b32", "us"),
    ("dnn.mlp.forward_us.b128", "us"),
    ("dnn.mlp.features_us_per_row", "us"),
    ("tensor.linalg.fe_gflops", "GFLOP/s"),
    ("core.tuner.train_us_per_example", "us"),
    ("core.ftdmp.bubble_share", "ratio"),
    ("core.ftdmp.micro_batches", "count"),
    ("core.ftdmp.steals", "count"),
    ("core.ftdmp.stale_steps", "count"),
    ("core.ftdmp.reroutes", "count"),
    ("core.ftdmp.replica_top1", "fraction"),
    ("core.checknrun.between_us", "us"),
    ("core.checknrun.encode_us", "us"),
    ("core.checknrun.decode_apply_us", "us"),
    ("core.checknrun.reduction_x", "x"),
    ("core.checknrun.delta_wire_bytes", "B"),
    ("core.labeldb.apply_relabels_ns_per_photo", "ns"),
    ("objstore.persist_mb_per_s", "MB/s"),
    ("objstore.restore_mb_per_s", "MB/s"),
    ("objstore.bytes_per_user_byte", "ratio"),
    ("telemetry.scrape_ms", "ms"),
    ("telemetry.snapshot_bytes", "B"),
    ("ledger.trace_overhead_share", "ratio"),
    ("ledger.budget_explained_share", "ratio"),
    ("ledger.spans", "count"),
    ("ledger.timed_wall_s", "s"),
];

/// Where traces, result sets and probe scratch files go (git-ignored).
const OUT_DIR: &str = "results/ledger";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
    runs: u64,
    agree: Option<(String, String)>,
    bench: String,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 11,
        seconds: 20,
        runs: 1,
        bench: "BENCHMARK.json".to_string(),
        ..Args::default()
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |s: String, flag: &str| {
        s.parse::<u64>()
            .map_err(|_| format!("{flag}: `{s}` is not a whole number"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => a.workload = Some(value(&mut it, arg)?),
            "--seed" => a.seed = number(value(&mut it, arg)?, arg)?,
            "--seconds" => a.seconds = number(value(&mut it, arg)?, arg)?,
            "--tiny" => a.tiny = true,
            "--runs" => a.runs = number(value(&mut it, arg)?, arg)?,
            "--bench" => a.bench = value(&mut it, arg)?,
            "--out" => a.out = Some(value(&mut it, arg)?),
            "--agree" => a.agree = Some((value(&mut it, arg)?, value(&mut it, arg)?)),
            // `--trace 0|1` from the driver, a bare `--trace` by hand.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    a.trace = false;
                }
                Some("1") => {
                    it.next();
                    a.trace = true;
                }
                _ => a.trace = true,
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// First line of a command's standard output, `unknown` if it cannot
/// run (the driver's checkout is not a git repository).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host fingerprint: what a number from this run depends on besides
/// the code. Math policy and kernel are what a store reports through
/// `Cluster::describe`.
fn fingerprint(a: &Args) -> Value {
    let fleet = fleet::Fleet::boot(vec![ndpipe::PipeStore::new(
        0,
        fleet::dataset(
            &fleet::universe(&mut rand::SeedableRng::seed_from_u64(0)),
            fleet::CLASSES,
            &mut rand::SeedableRng::seed_from_u64(0),
        ),
    )]);
    let cluster = fleet.cluster();
    let desc = cluster.describe().into_values().into_iter().next();
    cluster.shutdown();
    fleet.drain();
    let env = |k: &str| Value::Str(std::env::var(k).unwrap_or_else(|_| "unset".to_string()));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj([
        ("nproc", Value::Num(nproc as f64)),
        (
            "math",
            Value::Str(desc.map_or("unknown", |d| d.math.as_str()).to_string()),
        ),
        (
            "kernel",
            Value::Str(desc.map_or("unknown", |d| d.kernel.as_str()).to_string()),
        ),
        ("NDPIPE_THREADS", env("NDPIPE_THREADS")),
        ("NDPIPE_MATH", env("NDPIPE_MATH")),
        ("rustc", Value::Str(first_line("rustc", &["--version"]))),
        (
            "git_rev",
            Value::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Value::Num(a.seed as f64)),
        ("seconds", Value::Num(a.seconds as f64)),
        ("tiny", Value::Bool(a.tiny)),
    ])
}

/// `VmHWM` of this process, megabytes.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `metrics` object of the result line: every metric of `table`,
/// with the value `found` has for it (0 where it has none; JSON cannot
/// carry a non-finite number, so those read 0 too).
fn metrics_object(table: &[(&str, &str)], found: &[Metric]) -> Value {
    Value::Obj(
        table
            .iter()
            .map(|&(name, unit)| {
                let v = found
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value);
                let v = if v.is_finite() { v } else { 0.0 };
                (
                    name.to_string(),
                    obj([("value", Value::Num(v)), ("unit", Value::Str(unit.into()))]),
                )
            })
            .collect(),
    )
}

fn print_metrics(workload: &str, title: &str, metrics: &[Metric]) {
    println!("\n{title}");
    for m in metrics {
        println!(
            "  {workload:<20} {:<44} {:>16.6} {:<8} n={}",
            m.name, m.value, m.unit, m.n
        );
    }
}

/// Runs one workload and prints its report; the last line is the result
/// object the benchmark contract asks for.
fn run_workload(a: &Args, name: &str) -> ExitCode {
    println!("fingerprint {}", fingerprint(a).render());
    let ctx = Ctx {
        seed: a.seed,
        sizes: if a.tiny {
            Sizes::tiny()
        } else {
            Sizes::for_seconds(a.seconds)
        },
        trace: a.trace,
    };
    let Some(Measured {
        outcome,
        setup_s,
        recorders,
    }) = workloads::run(name, &ctx)
    else {
        eprintln!("unknown workload `{name}`; known: {:?}", workloads::NAMES);
        return ExitCode::from(2);
    };

    let s = outcome.slots;
    let end_to_end = [
        Metric::new("photos_per_s", s.photos_per_s, "1/s", 0),
        Metric::new("op_ms", s.op_ms, "ms", 0),
        Metric::new("op_tail_ms", s.op_tail_ms, "ms", 0),
        Metric::new("wire_bytes_per_photo", s.wire_bytes_per_photo, "B", 0),
        Metric::new("setup_s", setup_s, "s", workloads::SETUPS),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1),
    ];
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!("workload {name}  seed {}  trace {}", a.seed, a.trace);
    println!("timed_wall_s {}", outcome.timed_wall_s);
    println!(
        "ops attempted {}  succeeded {}  failed {}  failed_share {failed_share}",
        outcome.attempted,
        outcome.attempted - outcome.failed,
        outcome.failed
    );
    print_metrics(name, "end-to-end (BENCHMARK.json names)", &end_to_end);
    print_metrics(
        name,
        "end-to-end (this workload's own names)",
        &outcome.named,
    );
    for e in &outcome.errors {
        println!("CHECK FAILED: {e}");
    }

    let correct = outcome.errors.is_empty() && outcome.failed == 0;
    let metrics = if a.trace {
        let spans: usize = recorders.iter().map(|r| r.spans().len()).sum();
        let overhead = spans as f64 * trace::span_cost_ns(100_000) / 1e9 / outcome.timed_wall_s;
        let mut layers = outcome.layers;
        layers.extend([
            Metric::new("ledger.trace_overhead_share", overhead, "ratio", spans),
            Metric::new(
                "ledger.budget_explained_share",
                workloads::explained_share(&outcome.budget),
                "ratio",
                outcome.budget.len(),
            ),
            Metric::new("ledger.spans", spans as f64, "count", spans),
            Metric::new("ledger.timed_wall_s", outcome.timed_wall_s, "s", 1),
        ]);
        print_metrics(name, "per-layer", &layers);
        println!("\nbudget (time per op on the blocking path)");
        let mut total = 0.0;
        for row in outcome.budget.iter().rev() {
            // Rows of one op end with its total, which the reversed walk
            // meets first.
            if row.layer == "end_to_end" {
                total = row.per_op_us;
            }
            println!(
                "  {name:<20} {:<8} {:<34} {:>14.3} us {:>7.1} %",
                row.op,
                row.layer,
                row.per_op_us,
                100.0 * row.per_op_us / total
            );
        }
        let path = format!("{OUT_DIR}/trace_{name}.json");
        match std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, trace::chrome_json(&recorders)))
        {
            Ok(()) => println!("\ntrace written to {path} ({spans} spans)"),
            Err(e) => println!("\ntrace not written to {path}: {e}"),
        }
        metrics_object(&PER_LAYER, &layers)
    } else {
        metrics_object(&END_TO_END, &end_to_end)
    };
    let line = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    ExitCode::SUCCESS
}

/// Re-executes this binary for one workload, echoing its report and
/// returning `(result line, timed wall)`.
fn spawn_workload(a: &Args, name: &str, trace: bool) -> Result<(Value, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if a.tiny {
        cmd.arg("--tiny");
    }
    let out = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    if !out.status.success() {
        return Err(format!("{name} exited with {}", out.status));
    }
    let line = text
        .lines()
        .last()
        .ok_or_else(|| format!("{name}: no output"))?;
    let wall = text
        .lines()
        .find_map(|l| l.strip_prefix("timed_wall_s "))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    Ok((json::parse(line)?, wall))
}

/// Folds the result lines of repeated runs of one workload into one:
/// each metric's median, operations summed, correct only if every run
/// was. Single runs on a shared host differ by more than the bounds now
/// and then; medians of a few are what `--agree` can hold to them.
fn fold_runs(lines: &[Value]) -> Value {
    let sum = |key: &str| -> f64 {
        lines
            .iter()
            .filter_map(|l| l.get(key).and_then(Value::as_f64))
            .sum()
    };
    let mut metrics = std::collections::BTreeMap::new();
    if let Some(Value::Obj(first)) = lines.first().and_then(|l| l.get("metrics")) {
        for (name, m) in first {
            let values: Vec<f64> = lines
                .iter()
                .filter_map(|l| l.get("metrics")?.get(name)?.get("value")?.as_f64())
                .collect();
            let unit = m.get("unit").cloned().unwrap_or(Value::Null);
            metrics.insert(
                name.clone(),
                obj([
                    ("value", Value::Num(stats::median(&values))),
                    ("unit", unit),
                ]),
            );
        }
    }
    obj([
        (
            "correct",
            Value::Bool(
                lines
                    .iter()
                    .all(|l| l.get("correct") == Some(&Value::Bool(true))),
            ),
        ),
        ("attempted", Value::Num(sum("attempted"))),
        ("failed", Value::Num(sum("failed"))),
        ("runs", Value::Num(lines.len() as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
}

/// Runs all four workloads, one child process per run (so set-up time
/// and peak memory are per workload), `--runs` times each, and writes the
/// result set `--agree` compares.
fn run_all(a: &Args) -> Result<bool, String> {
    let mut sets = Vec::new();
    let mut layers = Vec::new();
    for name in workloads::NAMES {
        let mut lines = Vec::new();
        let mut wall = 0.0;
        let runs = a.runs.max(1);
        for run in 1..=runs {
            println!("\n==== {name} (run {run} of {runs}) ====");
            let (line, w) = spawn_workload(a, name, false)?;
            lines.push(line);
            wall = w;
        }
        sets.push((name, fold_runs(&lines)));
        if a.trace {
            println!("\n==== {name} (traced) ====");
            let (line, traced_wall) = spawn_workload(a, name, true)?;
            println!(
                "{name}: traced wall / untraced wall - 1 = {:+.4}",
                traced_wall / wall - 1.0
            );
            layers.push((name, line));
        }
    }
    let all_correct = sets
        .iter()
        .chain(&layers)
        .all(|(_, line)| line.get("correct") == Some(&Value::Bool(true)));
    let set = obj([
        ("fingerprint", fingerprint(a)),
        ("workloads", obj(sets)),
        ("layers", obj(layers)),
    ]);
    let path = a
        .out
        .clone()
        .unwrap_or_else(|| format!("{OUT_DIR}/run-seed{}.json", a.seed));
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, set.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
    println!("\nresult set written to {path}");
    Ok(all_correct)
}

fn run_agree(a: &Args, run_a: &str, run_b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let rows = agree::compare(&load(&a.bench)?, &load(run_a)?, &load(run_b)?)?;
    print!("{}", agree::render(&rows));
    Ok(rows.iter().all(agree::Row::within))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let verdict = match (&a.agree, &a.workload) {
        (Some((run_a, run_b)), _) => run_agree(&a, run_a, run_b),
        (None, Some(name)) => return run_workload(&a, name),
        (None, None) => run_all(&a),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_and_the_by_hand_command_lines() {
        let a = parse_args(&argv(
            "--workload online_infer --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("online_infer"), 7, 20, true)
        );
        let a = parse_args(&argv("--trace 0 --workload x")).unwrap();
        assert!(!a.trace && a.workload.as_deref() == Some("x"));
        let a = parse_args(&argv("--trace --seed 12")).unwrap();
        assert!(a.trace && a.seed == 12 && a.workload.is_none());
        let a = parse_args(&argv("--agree a.json b.json")).unwrap();
        assert_eq!(a.agree, Some(("a.json".into(), "b.json".into())));
        assert!(parse_args(&argv("--seed x")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
    }

    #[test]
    fn repeated_runs_fold_into_medians() {
        let line = |p50: f64, correct: bool| {
            json::parse(&format!(
                r#"{{"correct": {correct}, "attempted": 10, "failed": 0,
                    "metrics": {{"op_ms": {{"value": {p50}, "unit": "ms"}}}}}}"#
            ))
            .unwrap()
        };
        let folded = fold_runs(&[line(2.0, true), line(9.0, true), line(3.0, true)]);
        let op = folded.get("metrics").unwrap().get("op_ms").unwrap();
        assert_eq!(op.get("value").unwrap().as_f64(), Some(3.0));
        assert_eq!(op.get("unit").unwrap().as_str(), Some("ms"));
        assert_eq!(folded.get("attempted").unwrap().as_f64(), Some(30.0));
        assert_eq!(folded.get("correct"), Some(&Value::Bool(true)));
        let folded = fold_runs(&[line(2.0, true), line(2.0, false)]);
        assert_eq!(folded.get("correct"), Some(&Value::Bool(false)));
    }

    #[test]
    fn result_line_is_valid_json_with_every_metric() {
        let found = [
            Metric::new("op_ms", 1.9032, "ms", 5000),
            Metric::new("setup_s", f64::NAN, "s", 3),
        ];
        let line = obj([
            ("correct", Value::Bool(true)),
            ("attempted", Value::Num(5000.0)),
            ("failed", Value::Num(0.0)),
            ("metrics", metrics_object(&END_TO_END, &found)),
        ])
        .render();
        telemetry::export::validate_json(&line).expect("valid JSON");
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        let Some(Value::Obj(metrics)) = v.get("metrics") else {
            panic!("metrics is an object");
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics["op_ms"].get("value").unwrap().as_f64(),
            Some(1.9032)
        );
        assert_eq!(metrics["setup_s"].get("value").unwrap().as_f64(), Some(0.0));
        assert_eq!(v.get("attempted").unwrap().as_f64(), Some(5000.0));
    }

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// and workloads this binary reports, within the contract's limits.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            bench
                .get(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    let field =
                        |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&END_TO_END));
        assert_eq!(names("per_layer"), table(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, workloads::NAMES);
        for m in bench.get("end_to_end").unwrap().as_arr().unwrap() {
            let bound = m.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        }
        let Value::Obj(top) = &bench else {
            panic!("BENCHMARK.json is an object");
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }

    /// The `--tiny` configuration: all four workloads, traced, with every
    /// correctness check, in a debug build in seconds. Every per-layer
    /// metric a workload emits is in the table (so none is silently
    /// dropped from the result line), with the table's unit.
    #[test]
    fn tiny_runs_every_workload_correctly() {
        let ctx = Ctx {
            seed: 5,
            sizes: Sizes::tiny(),
            trace: true,
        };
        for name in workloads::NAMES {
            let m = workloads::run(name, &ctx).expect("known workload");
            let o = &m.outcome;
            assert!(o.errors.is_empty(), "{name}: {:?}", o.errors);
            assert_eq!(o.failed, 0, "{name}");
            assert!(o.attempted > 0 && m.setup_s > 0.0, "{name}");
            let s = o.slots;
            for v in [
                s.photos_per_s,
                s.op_ms,
                s.op_tail_ms,
                s.wire_bytes_per_photo,
            ] {
                assert!(v.is_finite() && v > 0.0, "{name}: {s:?}");
            }
            assert!(!o.named.is_empty() && !o.layers.is_empty(), "{name}");
            assert!(m.recorders.iter().any(|r| !r.spans().is_empty()), "{name}");
            assert!(o.budget.iter().any(|r| r.layer == "end_to_end"), "{name}");
            for layer in &o.layers {
                let row = PER_LAYER.iter().find(|(n, _)| *n == layer.name);
                assert_eq!(row.map(|r| r.1), Some(layer.unit), "{name}: {}", layer.name);
            }
        }
        assert!(workloads::run("no_such_workload", &ctx).is_none());
    }
}
