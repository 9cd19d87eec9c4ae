//! `bench-e2e`: runs one workload (the form the benchmark contract calls)
//! or the whole suite, checks every answer, and prints every metric by
//! name with its unit as JSON. `benchmark/run.sh` builds everything and
//! then hands its arguments to this program.

use bench_e2e::json::Json;
use bench_e2e::proc;
use bench_e2e::spec::{self, Sizes};
use bench_e2e::stats::{rel_diff, samples_beyond};
use bench_e2e::workloads::{self, Ctx, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: bench-e2e --julienne <bin> --layers <bin> --out <dir>
  [--workload <name>]   run one workload and print the result object as the
                        last line; without it the whole suite runs, one
                        result line per workload
  [--seed <n>]          seeds inputs, sources, update batches, arrivals (default 1)
  [--seconds <s>]       measuring window per workload (default 20; 2 with --smoke)
  [--trace <0|1>]       1: the traced run (per-layer metrics) instead of the
                        end-to-end run
  [--traced]            suite only: run each workload both ways
  [--smoke]             scale-12 inputs, one set-up: a seconds-long check that
                        every workload still works, not a measurement
  [--repeat <k>]        suite only: run it k times on the same build and print,
                        per workload and end-to-end metric, the relative
                        difference between the first two against its bound
  [--commit <id>] [--rustc <version>]   recorded with every run";

struct Args {
    julienne: PathBuf,
    layers: PathBuf,
    out: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    traced: bool,
    smoke: bool,
    repeat: usize,
    commit: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        julienne: PathBuf::new(),
        layers: PathBuf::new(),
        out: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        traced: false,
        smoke: false,
        repeat: 1,
        commit: "unknown".to_string(),
        rustc: "unknown".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: {v:?} is not a number"))
        };
        match flag.as_str() {
            "--julienne" => a.julienne = value()?.into(),
            "--layers" => a.layers = value()?.into(),
            "--out" => a.out = value()?.into(),
            "--workload" => a.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                a.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: {v:?} is not a whole number"))?;
            }
            "--seconds" => a.seconds = Some(number(value()?)?),
            "--trace" => a.trace = number(value()?)? != 0.0,
            "--repeat" => a.repeat = number(value()?)? as usize,
            "--traced" => a.traced = true,
            "--smoke" => a.smoke = true,
            "--commit" => a.commit = value()?,
            "--rustc" => a.rustc = value()?,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    for (name, path) in [
        ("--julienne", &a.julienne),
        ("--layers", &a.layers),
        ("--out", &a.out),
    ] {
        if path.as_os_str().is_empty() {
            return Err(format!("{name} is required\n{USAGE}"));
        }
    }
    if a.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(a)
}

fn unit_of(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .chain(spec::PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

fn metrics_json(outcome: &Outcome) -> Json {
    Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|(name, value)| {
                (
                    name.clone(),
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(unit_of(name))),
                    ]),
                )
            })
            .collect(),
    )
}

/// The object the benchmark contract reads from the last line of stdout.
fn result_json(outcome: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(outcome)),
    ])
}

/// Runs one workload, writes its record (and trace) under `--out`, and
/// returns the outcome.
fn run_one(args: &Args, workload: &str, trace: bool) -> Result<Outcome, String> {
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 2.0 } else { spec::RUN_SECONDS });
    let ctx = Ctx {
        julienne: args.julienne.clone(),
        layers: args.layers.clone(),
        out_dir: args.out.clone(),
        seed: args.seed,
        seconds,
        trace,
        sizes: if args.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        },
    };
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let outcome = workloads::run(&ctx, workload)?;
    for failure in failures_of(&outcome) {
        eprintln!("{workload}: {failure}");
    }
    // The sample-count rule, stated with the run: how many ops lay beyond
    // the percentile `lat.tail_ms` reports (ten or more make it a tail).
    let tail = spec::tail_percentile(workload);
    let samples = outcome
        .info
        .get("samples")
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as usize;
    let record = Json::obj([
        ("workload", Json::str(workload)),
        ("trace", Json::Bool(trace)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("nproc", Json::Num(proc::nproc() as f64)),
        ("threads", Json::Num(f64::from(proc::THREADS))),
        ("commit", Json::str(args.commit.as_str())),
        ("rustc", Json::str(args.rustc.as_str())),
        ("cpu_model", Json::str(proc::cpu_model())),
        ("tail_percentile", Json::Num(tail)),
        (
            "samples_beyond_tail",
            Json::Num(samples_beyond(samples, tail) as f64),
        ),
        ("result", result_json(&outcome)),
        ("run", outcome.info.clone()),
    ]);
    let tag = format!(
        "{workload}-seed{}-trace{}{}",
        args.seed,
        u8::from(trace),
        if args.smoke { "-smoke" } else { "" }
    );
    write_file(&args.out.join(format!("run-{tag}.json")), &record.render())?;
    if trace {
        write_file(
            &args.out.join(format!("trace-{workload}.json")),
            &Json::Arr(outcome.spans.clone()).render(),
        )?;
    }
    Ok(outcome)
}

/// The first few failure messages a run recorded.
fn failures_of(outcome: &Outcome) -> impl Iterator<Item = &str> {
    outcome
        .info
        .get("failures")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(Json::as_str)
}

fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    std::fs::write(path, format!("{text}\n")).map_err(|e| format!("write {}: {e}", path.display()))
}

/// `(metric name, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "BENCHMARK.json: an end_to_end entry lacks name or bound".to_string())
}

/// One suite pass: `(workload, traced, outcome)` per run.
type Pass = Vec<(String, bool, Outcome)>;

fn suite_pass(args: &Args) -> Result<Pass, String> {
    let mut pass = Vec::new();
    for workload in spec::WORKLOADS {
        for trace in [false, true] {
            if trace && !args.traced {
                continue;
            }
            let outcome = run_one(args, workload, trace)?;
            let mut line = vec![
                ("workload".to_string(), Json::str(workload)),
                ("trace".to_string(), Json::Bool(trace)),
            ];
            if let Json::Obj(fields) = result_json(&outcome) {
                line.extend(fields);
            }
            println!("{}", Json::Obj(line).render());
            pass.push((workload.to_string(), trace, outcome));
        }
    }
    Ok(pass)
}

/// The `--repeat` self-check: how far apart two passes over the same build
/// are, against each end-to-end metric's bound; and whether the counters
/// of the traced run, which should repeat exactly, did.
fn compare(first: &Pass, second: &Pass) -> Result<(), String> {
    let bounds = bounds()?;
    println!("self-check: relative difference between pass 1 and pass 2");
    for ((workload, trace, a), (_, _, b)) in first.iter().zip(second) {
        for ((name, va), (_, vb)) in a.metrics.iter().zip(&b.metrics) {
            if !trace {
                let bound = bounds
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(f64::NAN, |(_, b)| *b);
                let diff = rel_diff(*va, *vb);
                let verdict = if diff <= bound { "within" } else { "OVER" };
                println!("  {workload:<13} {name:<14} {va:>14.4} {vb:>14.4}  diff {diff:.4}  bound {bound:.2}  {verdict}");
            } else if unit_of(name) == "count"
                && !name.starts_with("loadgen.")
                && (*va, *vb) != (0.0, 0.0)
            {
                let verdict = if va == vb { "same" } else { "DIFFERS" };
                println!("  {workload:<13} {name:<32} {va:>12} {vb:>12}  {verdict}");
            }
        }
    }
    Ok(())
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if let Some(workload) = &args.workload {
        let outcome = run_one(&args, workload, args.trace)?;
        println!("{}", result_json(&outcome).render());
        return Ok(outcome.failed == 0);
    }
    let mut passes = Vec::new();
    for _ in 0..args.repeat.max(1) {
        passes.push(suite_pass(&args)?);
    }
    if let [first, second, ..] = passes.as_slice() {
        compare(first, second)?;
    }
    Ok(passes.iter().flatten().all(|(_, _, o)| o.failed == 0))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        // A failed output check: the result was printed, the exit code says
        // it must not be trusted.
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("bench-e2e: {msg}");
            ExitCode::from(2)
        }
    }
}
