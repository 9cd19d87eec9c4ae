//! The six workloads. Each sets its inputs up (several times — `setup_s`
//! is the median), computes its oracles, drives load for the window,
//! checks every answer, and returns the metrics of the requested set.

use crate::check::{split_stats, Check};
use crate::json::Json;
use crate::proc::{self, cli_ok, kv};
use crate::spec::{self, Sizes};
use crate::stats::{grouped_low, median, percentile, LOW};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

mod batch;
mod serve;

/// Everything one run needs to know.
pub struct Ctx {
    pub julienne: PathBuf,
    pub layers: PathBuf,
    pub out_dir: PathBuf,
    pub seed: u64,
    /// `--seconds`. An untraced run spends all of it driving load; a traced
    /// run spends half driving load and gives `bench-layers` the rest.
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
}

/// A span recorded by the driver around one op (a CLI invocation or a
/// request/reply pair). Times are microseconds since the window opened.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    pub op: usize,
}

/// What a run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end set with tracing off, the per-layer set with it on.
    pub metrics: Vec<(String, f64)>,
    /// Loop kind, client count or rate, sample counts, inputs with n, m and
    /// hashes, first failure messages: recorded with the run.
    pub info: Json,
    /// Driver-side spans followed by the ones `bench-layers` recorded.
    pub spans: Vec<Json>,
}

/// One generated input file.
struct Input {
    role: &'static str,
    path: PathBuf,
    n: u64,
    m: u64,
}

/// Failure messages are kept (the first few) so a red run says why.
#[derive(Default)]
struct Failures {
    count: u64,
    first: Vec<String>,
}

impl Failures {
    fn push(&mut self, msg: String) {
        self.count += 1;
        if self.first.len() < 5 {
            self.first.push(msg);
        }
    }

    fn merge(&mut self, other: Failures) {
        self.count += other.count;
        for m in other.first {
            if self.first.len() < 5 {
                self.first.push(m);
            }
        }
    }

    fn json(&self) -> Json {
        Json::Arr(self.first.iter().map(Json::str).collect())
    }
}

pub fn run(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    let dir = ctx.out_dir.join(format!(
        "work-{workload}-{}-{}",
        ctx.seed,
        u8::from(ctx.trace)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = match workload {
        "kcore-rmat" | "sssp-road" | "sssp-rmat-z" => batch::batch(ctx, workload, &dir),
        "serve-mixed" => serve::serve_mixed(ctx, &dir),
        "serve-hot" => serve::serve_hot(ctx, &dir),
        "serve-mutate" => serve::serve_mutate(ctx, &dir),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            spec::WORKLOADS.join(", ")
        )),
    };
    // Inputs are up to 100 MB each; none outlives its run.
    let _ = std::fs::remove_dir_all(&dir);
    result
}

impl Ctx {
    fn window(&self) -> Duration {
        Duration::from_secs_f64(if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        })
    }

    /// `julienne gen …`, returning the `n=`/`m=` it printed.
    fn gen(&self, role: &'static str, out: &Path, pairs: &[(&str, &str)]) -> Result<Input, String> {
        let seed = self.seed.to_string();
        let out_s = path_str(out);
        let mut args = vec![("seed", seed.as_str()), ("out", out_s.as_str())];
        args.extend_from_slice(pairs);
        let run = cli_ok(&self.julienne, &argv("gen", &args))?;
        let parse = |key| {
            crate::check::field(&run.stdout, key)
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("gen printed no {key}=: {:?}", run.stdout))
        };
        Ok(Input {
            role,
            path: out.to_path_buf(),
            n: parse("n")?,
            m: parse("m")?,
        })
    }

    /// `julienne convert in= out= …`; the output inherits `n`/`m`.
    fn convert(
        &self,
        role: &'static str,
        from: &Input,
        out: &Path,
        pairs: &[(&str, &str)],
    ) -> Result<Input, String> {
        let (in_s, out_s) = (path_str(&from.path), path_str(out));
        let mut args = vec![("in", in_s.as_str()), ("out", out_s.as_str())];
        args.extend_from_slice(pairs);
        cli_ok(&self.julienne, &argv("convert", &args))?;
        Ok(Input {
            role,
            path: out.to_path_buf(),
            n: from.n,
            m: from.m,
        })
    }

    /// The sssp oracle: what sequential Dijkstra (`algo=dijkstra`) reports
    /// for `src` on the weighted container `file`, as the check any other
    /// sssp answer for that source must pass.
    fn dijkstra_check(&self, file: &str, src: u32) -> Result<Check, String> {
        let args = argv(
            "sssp",
            &[
                ("in", file),
                ("algo", "dijkstra"),
                ("src", &src.to_string()),
                ("backend", "mapped"),
            ],
        );
        Check::sssp_from(&cli_ok(&self.julienne, &args)?.stdout)
    }

    /// The second half of a traced run: `bench-layers measure args…` with
    /// the other half of `--seconds` as its budget. Copies the metrics it
    /// reports into `m` and returns the spans it recorded.
    fn layers(&self, m: &mut LayerMetrics, args: &[String]) -> Result<Vec<Json>, String> {
        let mut args = args.to_vec();
        args.extend(["--budget-s".to_string(), (self.seconds / 2.0).to_string()]);
        let run = proc::cli(&self.layers, &args)?;
        if !run.ok {
            return Err(format!(
                "bench-layers {} failed: {}",
                args.join(" "),
                run.stderr.lines().last().unwrap_or("(no stderr)")
            ));
        }
        let doc =
            Json::parse(run.stdout.trim()).map_err(|e| format!("bench-layers output: {e}"))?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("bench-layers printed no metrics object")?;
        for (name, value) in metrics {
            let value = value.as_f64().filter(|_| m.has(name));
            m.set(
                name,
                value.ok_or_else(|| format!("bench-layers: bad metric {name}"))?,
            );
        }
        Ok(doc
            .get("spans")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default())
    }
}

/// `cmd key=value …` as an argument vector.
fn argv(cmd: &str, pairs: &[(&str, &str)]) -> Vec<String> {
    let mut out = vec![cmd.to_string()];
    out.extend(kv(pairs));
    out
}

fn strings(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

fn path_str(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// Runs `setup` `reps` times, tearing each result down with `teardown`
/// except the last, which the measurement uses. Returns the median set-up
/// time: a later change that moves work from the op into `gen`, `convert`
/// or server start-up shows here.
fn repeated_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        if let Some(prev) = last.take() {
            teardown(prev)?;
        }
        let started = Instant::now();
        last = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((median(&times), last.expect("at least one set-up ran")))
}

fn inputs_json(inputs: &[Input]) -> Result<Json, String> {
    let mut out = Vec::new();
    for input in inputs {
        let (hash, bytes) = proc::file_hash(&input.path)?;
        out.push(Json::obj([
            ("role", Json::str(input.role)),
            ("n", Json::Num(input.n as f64)),
            ("m", Json::Num(input.m as f64)),
            ("bytes", Json::Num(bytes as f64)),
            ("fnv1a64", Json::Str(format!("{hash:016x}"))),
        ]));
    }
    Ok(Json::Arr(out))
}

/// One completed, correct op: when it finished (seconds after the window
/// opened), how long it took, and which of the workload's distinct
/// requests it was (ops of one group sent the identical request).
#[derive(Clone, Copy)]
struct Done {
    at_s: f64,
    latency_ms: f64,
    group: u32,
}

/// A server's window is cut into this many equal sub-windows for its CPU
/// time per op, which can only be read per stretch of time, not per op.
const SUB_WINDOWS: usize = 10;

/// The ops that finished in each sub-window, with the sub-window's bounds
/// in seconds; empty sub-windows are left out. An op that finished after
/// the window closed (an open loop draining) belongs to the last one.
fn sub_windows(ops: &[Done], window_s: f64) -> Vec<(f64, f64, Vec<Done>)> {
    let width = window_s / SUB_WINDOWS as f64;
    (0..SUB_WINDOWS)
        .map(|i| {
            let (start, end) = (i as f64 * width, (i + 1) as f64 * width);
            let last = i + 1 == SUB_WINDOWS;
            let inside = ops
                .iter()
                .filter(|op| op.at_s >= start && (op.at_s < end || last))
                .copied()
                .collect::<Vec<_>>();
            (start, end, inside)
        })
        .filter(|(_, _, inside)| !inside.is_empty())
        .collect()
}

/// What the program cost while the window was open.
struct Usage {
    window_s: f64,
    /// CPU seconds over the whole window.
    cpu_s: f64,
    /// CPU seconds per completed op, read at the undisturbed end like the
    /// latency: the grouped lower decile of a CLI child's own CPU time, or
    /// the lower quartile over sub-windows of the server's CPU time divided
    /// by the ops it completed in them.
    cpu_s_per_op: f64,
    /// Resident memory, read at the lower decile like the timings: over ops,
    /// of a CLI child's peak; over the looks taken through the window, of a
    /// server's resident set. A server runs a thread per job, and how many
    /// jobs allocate at the same moment is timing, not program.
    rss_kb: f64,
    /// The peak: the largest child, or the server's high-water mark.
    peak_rss_kb: f64,
}

/// The end-to-end set. `op_p10_ms` is the grouped lower decile of the op
/// latencies (`stats::grouped_low`): on this kind of host an op's time is
/// its own cost plus whatever a neighbour added, so the fast end of the
/// samples is the program's and the middle is the host's.
fn end_to_end(setup_s: f64, ops: &[Done], usage: &Usage) -> Vec<(String, f64)> {
    let latencies: Vec<(u32, f64)> = ops.iter().map(|op| (op.group, op.latency_ms)).collect();
    vec![
        ("setup_s".to_string(), setup_s),
        ("op_p10_ms".to_string(), grouped_low(&latencies)),
        ("cpu_s_per_op".to_string(), usage.cpu_s_per_op),
        ("rss_mb".to_string(), usage.rss_kb / 1024.0),
    ]
}

/// The whole-run latency figures of the traced set: the median, the tail
/// percentile `spec::tail_percentile` fixes for the workload, and the rate
/// of completed ops. They describe the run, host included; nothing is held
/// to them.
fn latency_layer_metrics(m: &mut LayerMetrics, workload: &str, ops: &[Done], window_s: f64) {
    let latencies: Vec<f64> = ops.iter().map(|op| op.latency_ms).collect();
    m.set("lat.p50_ms", median(&latencies));
    m.set(
        "lat.tail_ms",
        percentile(&latencies, spec::tail_percentile(workload)),
    );
    m.set("loadgen.ops_per_s", ops.len() as f64 / window_s);
}

/// The per-layer set, all zero; a workload fills in what applies to it.
struct LayerMetrics(Vec<(String, f64)>);

impl LayerMetrics {
    fn new() -> LayerMetrics {
        LayerMetrics(
            spec::PER_LAYER
                .iter()
                .map(|(name, _)| (name.to_string(), 0.0))
                .collect(),
        )
    }

    fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => panic!("{name} is not a per-layer metric"),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|(n, _)| n == name).map_or(0.0, |m| m.1)
    }
}

fn spans_json(spans: &[Span]) -> Vec<Json> {
    spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name.as_str())),
                ("start_us", Json::Num(s.start_us as f64)),
                ("end_us", Json::Num(s.end_us as f64)),
                ("parent", Json::Null),
                ("op", Json::Num(s.op as f64)),
            ])
        })
        .collect()
}
