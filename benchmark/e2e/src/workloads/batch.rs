//! The three batch workloads: the `julienne` CLI run as a child process,
//! one caller, closed loop.

use super::*;

/// A batch workload, set up: its inputs, its pool of ops, and how to
/// replay it in `bench-layers`.
struct BatchPlan {
    /// The generated file and the `.jgr` container converted from it.
    inputs: Vec<Input>,
    /// One CLI argument vector per op; the run cycles through them.
    ops: Vec<Vec<String>>,
    /// The source of each op, in the same order; empty for k-core, whose
    /// one op has none.
    sources: Vec<u32>,
    /// `bench-layers measure …` arguments for the traced run.
    layers_args: Vec<String>,
}

fn batch_setup(ctx: &Ctx, workload: &str, dir: &Path) -> Result<BatchPlan, String> {
    let plan = if workload == "kcore-rmat" {
        let scale = ctx.sizes.kcore_scale.to_string();
        let bin = ctx.gen(
            "generated",
            &dir.join("g.bin"),
            &[("kind", "rmat"), ("scale", &scale)],
        )?;
        let jgr = ctx.convert("container", &bin, &dir.join("g.jgr"), &[])?;
        let file = path_str(&jgr.path);
        BatchPlan {
            ops: vec![argv(
                "kcore",
                &[("in", &file), ("top", "3"), ("backend", "mapped")],
            )],
            sources: Vec::new(),
            layers_args: strings(&[
                "measure",
                "--algo",
                "kcore",
                "--graph",
                &file,
                "--backend",
                "mapped",
            ]),
            inputs: vec![bin, jgr],
        }
    } else {
        let road = workload == "sssp-road";
        let (kind, scale, backend, payload) = if road {
            ("grid", ctx.sizes.road_scale, "mapped", "false")
        } else {
            ("rmat", ctx.sizes.rmat_z_scale, "compressed", "true")
        };
        let bin = ctx.gen(
            "generated",
            &dir.join("w.bin"),
            &[
                ("kind", kind),
                ("scale", &scale.to_string()),
                ("weights", "heavy"),
            ],
        )?;
        let jgr = ctx.convert(
            "container",
            &bin,
            &dir.join("w.jgr"),
            &[("weighted", "true"), ("compressed_payload", payload)],
        )?;
        let file = path_str(&jgr.path);
        let sources = if road {
            spec::road_sources(ctx.seed, scale)
        } else {
            spec::hub_sources(ctx.seed, "rmat-z-sources", 8)
        };
        let delta = spec::DELTA_HEAVY.to_string();
        let source_list = sources
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let mut layers_args = strings(&[
            "measure",
            "--algo",
            "sssp",
            "--weighted",
            "--graph",
            &file,
            "--backend",
            backend,
            "--delta",
            &delta,
            "--sources",
            &source_list,
        ]);
        if !road {
            layers_args.push("--uncompressed-twin".into());
        }
        BatchPlan {
            ops: sources
                .iter()
                .map(|src| {
                    argv(
                        "sssp",
                        &[
                            ("in", &file),
                            ("algo", "delta"),
                            ("delta", &delta),
                            ("src", &src.to_string()),
                            ("backend", backend),
                        ],
                    )
                })
                .collect(),
            sources,
            layers_args,
            inputs: vec![bin, jgr],
        }
    };
    // Warm-up: one op, so the first timed op does not pay for paging the
    // binary and the input in.
    cli_ok(&ctx.julienne, &plan.ops[0])?;
    Ok(plan)
}

/// One check per op of the plan: sequential Batagelj–Zaversnik coreness
/// (computed by `bench-layers`) for k-core, `algo=dijkstra` for sssp.
/// Computed once, outside the timed set-up.
fn batch_oracles(ctx: &Ctx, plan: &BatchPlan) -> Result<Vec<Check>, String> {
    let file = path_str(&plan.inputs[1].path);
    if plan.sources.is_empty() {
        let run = proc::cli(&ctx.layers, &strings(&["oracle-kcore", &file, "3"]))?;
        if !run.ok {
            return Err(format!("bench-layers oracle-kcore failed: {}", run.stderr));
        }
        return Ok(vec![Check::kcore_from(&run.stdout)?]);
    }
    plan.sources
        .iter()
        .map(|&src| ctx.dijkstra_check(&file, src))
        .collect()
}

pub(super) fn batch(ctx: &Ctx, workload: &str, dir: &Path) -> Result<Outcome, String> {
    let (setup_s, plan) = repeated_setup(
        ctx.sizes.setup_reps,
        || batch_setup(ctx, workload, dir),
        |plan| {
            plan.inputs
                .iter()
                .try_for_each(|i| std::fs::remove_file(&i.path).map_err(|e| e.to_string()))
        },
    )?;
    let checks = batch_oracles(ctx, &plan)?;

    let window = ctx.window();
    let mut failures = Failures::default();
    let mut done = Vec::new();
    let mut spans = Vec::new();
    let mut cpu_s = Vec::new();
    let mut rss_kb = Vec::new();
    let opened = Instant::now();
    let mut elapsed = Duration::ZERO;
    let mut i = 0usize;
    while elapsed < window {
        let (op, check) = (&plan.ops[i % plan.ops.len()], &checks[i % checks.len()]);
        let start = opened.elapsed();
        let run = proc::cli(&ctx.julienne, op)?;
        elapsed = opened.elapsed();
        let verdict = if run.ok {
            check.verify(&run.stdout)
        } else {
            Err(format!(
                "exit status non-zero: {}",
                run.stderr.lines().next().unwrap_or("")
            ))
        };
        match verdict {
            Ok(()) => {
                let group = (i % plan.ops.len()) as u32;
                done.push(Done {
                    at_s: elapsed.as_secs_f64(),
                    latency_ms: run.wall_s * 1e3,
                    group,
                });
                cpu_s.push((group, run.cpu_s));
                rss_kb.push(run.max_rss_kb as f64);
            }
            Err(msg) => failures.push(format!("op {i} ({}): {msg}", op.join(" "))),
        }
        if ctx.trace {
            spans.push(Span {
                name: format!("cli.{}", op[0]),
                start_us: start.as_micros() as u64,
                end_us: elapsed.as_micros() as u64,
                op: i,
            });
        }
        i += 1;
    }
    let usage = Usage {
        window_s: elapsed.as_secs_f64(),
        cpu_s: cpu_s.iter().map(|(_, s)| s).sum(),
        cpu_s_per_op: grouped_low(&cpu_s),
        rss_kb: percentile(&rss_kb, LOW),
        peak_rss_kb: rss_kb.iter().copied().fold(0.0, f64::max),
    };
    let info = Json::obj([
        ("loop", Json::str("closed")),
        ("clients", Json::Num(1.0)),
        ("samples", Json::Num(done.len() as f64)),
        ("op", Json::str(plan.ops[0].join(" "))),
        ("inputs", inputs_json(&plan.inputs)?),
        ("failures", failures.json()),
    ]);
    let mut all_spans = spans_json(&spans);
    let metrics = if ctx.trace {
        let mut m = LayerMetrics::new();
        let spawn_ms: Vec<f64> = (0..15)
            .map(|_| proc::cli(&ctx.julienne, &["help".to_string()]).map(|r| r.wall_s * 1e3))
            .collect::<Result<_, _>>()?;
        m.set("cli.spawn_ms", median(&spawn_ms));
        all_spans.extend(ctx.layers(&mut m, &plan.layers_args)?);
        // What the CLI op costs beyond spawning, opening and running:
        // argument parsing, registry dispatch, rendering and printing.
        latency_layer_metrics(&mut m, workload, &done, usage.window_s);
        m.set(
            "registry.emit_ms",
            m.get("lat.p50_ms")
                - m.get("cli.spawn_ms")
                - m.get("graph.open_ms")
                - m.get("algo.run_ms"),
        );
        m.set("loadgen.sent", i as f64);
        m.set("loadgen.ok", done.len() as f64);
        m.set("loadgen.failed", failures.count as f64);
        m.set("mem.rss_mb", usage.rss_kb / 1024.0);
        m.set("mem.peak_rss_mb", usage.peak_rss_kb / 1024.0);
        m.0
    } else {
        end_to_end(setup_s, &done, &usage)
    };
    Ok(Outcome {
        attempted: i as u64,
        failed: failures.count,
        metrics,
        info,
        spans: all_spans,
    })
}
