//! The three serve workloads: a `julienne serve` child process driven
//! over its line-JSON wire protocol.

use super::*;
use crate::proc::{query_line, recv_line, send_line, Conn, Server};
use crate::spec::MixedKind;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};

/// One look at the server process.
struct ServerSample {
    t_s: f64,
    rss_kb: f64,
    cpu_s: f64,
}

/// Samples the server's resident set and CPU time every 50 ms from the
/// moment the window opens until `stop` is set, and once more after.
fn sample_server(server: &Server, opened: Instant, stop: &AtomicBool) -> Vec<ServerSample> {
    let look = || ServerSample {
        t_s: opened.elapsed().as_secs_f64(),
        rss_kb: server.vm_rss_kb() as f64,
        cpu_s: server.cpu_s(),
    };
    let mut samples = vec![look()];
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
        samples.push(look());
    }
    samples
}

/// One request of a closed-loop caller.
struct WireOp {
    kind: &'static str,
    /// Ops that send the identical request share a group.
    group: u32,
    algo: &'static str,
    params: Vec<(&'static str, String)>,
    check: Check,
    /// Ask for the per-round trace (traced runs only, on a sample of ops):
    /// what is left of the latency after the rounds' own time and the wire
    /// floor is queueing and batch hold.
    stats: bool,
}

/// One answered request.
struct WireSample {
    kind: &'static str,
    group: u32,
    /// Seconds after the window opened; set by the loop that owns the clock.
    done_s: f64,
    latency_ms: f64,
    batched: bool,
    cached: bool,
    /// Σ of the rounds' `elapsed_us`, when the op asked for stats.
    exec_ms: Option<f64>,
}

/// Sends `op` and checks the reply. `Err` is a failed op.
fn roundtrip(conn: &mut Conn, id: &str, op: &WireOp) -> Result<WireSample, String> {
    let line = query_line(id, op.algo, &op.params, op.stats);
    let sent = Instant::now();
    let reply = conn.roundtrip(&line)?;
    let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
    let output = checked_output(&reply, id)?;
    let (body, stats_line) = split_stats(output);
    op.check.verify(body)?;
    Ok(WireSample {
        kind: op.kind,
        group: op.group,
        done_s: 0.0,
        latency_ms,
        batched: reply.get("batched").and_then(Json::as_bool) == Some(true),
        cached: reply.get("cached").and_then(Json::as_bool) == Some(true),
        exec_ms: stats_line.and_then(rounds_ms),
    })
}

/// The `output` of a successful reply to request `id`.
fn checked_output<'a>(reply: &'a Json, id: &str) -> Result<&'a str, String> {
    if reply.get("id").and_then(Json::as_str) != Some(id) {
        return Err(format!(
            "reply to {id} carries another id: {}",
            reply.render()
        ));
    }
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("request {id} refused: {}", reply.render()));
    }
    reply
        .get("output")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("reply to {id} has no output"))
}

/// Σ `elapsed_us` over a stats trace's rounds, in ms.
fn rounds_ms(stats_line: &str) -> Option<f64> {
    let doc = Json::parse(stats_line).ok()?;
    let us: f64 = doc
        .get("rounds")?
        .as_arr()?
        .iter()
        .filter_map(|r| r.get("elapsed_us")?.as_f64())
        .sum();
    Some(us / 1e3)
}

/// A caller that waits for each reply before sending its next request.
/// Runs until the window closes; returns its samples, spans and failures.
fn closed_loop(
    conn: &mut Conn,
    conn_id: usize,
    opened: Instant,
    window: Duration,
    trace: bool,
    op_at: impl Fn(usize) -> WireOp,
) -> (Vec<WireSample>, Vec<Span>, Failures, usize) {
    let (mut samples, mut spans, mut failures) = (Vec::new(), Vec::new(), Failures::default());
    let mut i = 0usize;
    while opened.elapsed() < window {
        let op = op_at(i);
        let id = format!("c{conn_id}-{i}");
        let start = opened.elapsed();
        match roundtrip(conn, &id, &op) {
            Ok(sample) => samples.push(WireSample {
                done_s: opened.elapsed().as_secs_f64(),
                ..sample
            }),
            Err(msg) => failures.push(format!("{id} {}: {msg}", op.kind)),
        }
        if trace {
            spans.push(Span {
                name: format!("wire.{}", op.kind),
                start_us: start.as_micros() as u64,
                end_us: opened.elapsed().as_micros() as u64,
                op: i * 2 + conn_id,
            });
        }
        i += 1;
    }
    (samples, spans, failures, i)
}

/// The serve graph both `serve-mixed` and `serve-hot` use: weighted R-MAT
/// with the wBFS weight range, served zero-copy from a container.
fn serve_graph(ctx: &Ctx, dir: &Path) -> Result<Vec<Input>, String> {
    let scale = ctx.sizes.serve_scale.to_string();
    let bin = ctx.gen(
        "generated",
        &dir.join("w.bin"),
        &[("kind", "rmat"), ("scale", &scale), ("weights", "log")],
    )?;
    let jgr = ctx.convert(
        "container",
        &bin,
        &dir.join("w.jgr"),
        &[("weighted", "true")],
    )?;
    Ok(vec![bin, jgr])
}

/// A server plus the inputs it was started on.
struct Served {
    inputs: Vec<Input>,
    server: Server,
}

fn stop(served: Served) -> Result<(), String> {
    served.server.shutdown()?;
    served
        .inputs
        .iter()
        .try_for_each(|i| std::fs::remove_file(&i.path).map_err(|e| e.to_string()))
}

/// Round trips of a request the server refuses at admission (an unknown
/// algorithm): parse, admission and socket, no graph work. The median is
/// the floor under every served latency.
fn wire_floor_ms(addr: &str) -> Result<f64, String> {
    let mut conn = Conn::connect(addr)?;
    let mut samples = Vec::new();
    for i in 0..16 {
        let sent = Instant::now();
        let reply = conn.roundtrip(&query_line(
            &format!("floor-{i}"),
            "no-such-algorithm",
            &[],
            false,
        ))?;
        if reply.get("ok").and_then(Json::as_bool) != Some(false) {
            return Err(format!("floor probe was not refused: {}", reply.render()));
        }
        // The first reply on a fresh connection is not delayed the way
        // every later one is; it is not representative.
        if i > 0 {
            samples.push(sent.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok(median(&samples))
}

fn sssp_params(algo: &'static str, src: u32) -> Vec<(&'static str, String)> {
    let mut p = vec![("algo", algo.to_string()), ("src", src.to_string())];
    if algo == "delta" {
        p.push(("delta", spec::DELTA_SERVE.to_string()));
    }
    p
}

fn done_ops(samples: &[WireSample]) -> Vec<Done> {
    samples
        .iter()
        .map(|s| Done {
            at_s: s.done_s,
            latency_ms: s.latency_ms,
            group: s.group,
        })
        .collect()
}

/// The server's usage over a window of `window_s` seconds, from the
/// sampler's looks at it and the ops it answered.
fn server_usage(
    server: &Server,
    window_s: f64,
    looks: &[ServerSample],
    samples: &[WireSample],
) -> Usage {
    // CPU time at `t`: the first look at or after it.
    let cpu_at = |t: f64| {
        looks
            .iter()
            .find(|l| l.t_s >= t)
            .or(looks.last())
            .map_or(0.0, |l| l.cpu_s)
    };
    let per_op: Vec<f64> = sub_windows(&done_ops(samples), window_s)
        .iter()
        .map(|(start, end, inside)| (cpu_at(*end) - cpu_at(*start)) / inside.len() as f64)
        .collect();
    let rss: Vec<f64> = looks.iter().map(|l| l.rss_kb).collect();
    Usage {
        window_s,
        cpu_s: cpu_at(f64::INFINITY) - cpu_at(0.0),
        cpu_s_per_op: percentile(&per_op, 0.25),
        rss_kb: percentile(&rss, LOW),
        peak_rss_kb: server.vm_hwm_kb() as f64,
    }
}

fn serve_layer_metrics(
    m: &mut LayerMetrics,
    workload: &str,
    samples: &[WireSample],
    usage: &Usage,
    floor_ms: f64,
    sent: usize,
    failed: u64,
) {
    let n = samples.len().max(1) as f64;
    latency_layer_metrics(m, workload, &done_ops(samples), usage.window_s);
    m.set("wire.floor_ms", floor_ms);
    m.set(
        "sched.batched_share",
        samples.iter().filter(|s| s.batched).count() as f64 / n,
    );
    m.set(
        "cache.hit_share",
        samples.iter().filter(|s| s.cached).count() as f64 / n,
    );
    let waits: Vec<f64> = samples
        .iter()
        .filter_map(|s| Some(s.latency_ms - s.exec_ms? - floor_ms))
        .collect();
    m.set("sched.wait_ms", median(&waits));
    for kind in MixedKind::CYCLE {
        let of_kind: Vec<f64> = samples
            .iter()
            .filter(|s| s.kind == kind.name())
            .map(|s| s.latency_ms)
            .collect();
        m.set(&format!("lat.{}_p50_ms", kind.name()), median(&of_kind));
    }
    m.set(
        "server.cpu_util",
        usage.cpu_s / (usage.window_s * proc::nproc() as f64),
    );
    m.set("mem.rss_mb", usage.rss_kb / 1024.0);
    m.set("mem.peak_rss_mb", usage.peak_rss_kb / 1024.0);
    m.set("loadgen.sent", sent as f64);
    m.set("loadgen.ok", sent as f64 - failed as f64);
    m.set("loadgen.failed", failed as f64);
}

/// The probes a traced serve run takes on the idle server before its
/// window opens: the wire floor, and the depth-1 round trip of the
/// workload's reference query. Zeros on an untraced run.
fn idle_probes(ctx: &Ctx, server: &Server, reference: &WireOp) -> Result<(f64, f64), String> {
    if !ctx.trace {
        return Ok((0.0, 0.0));
    }
    Ok((
        wire_floor_ms(&server.addr)?,
        depth1_ms(&server.addr, reference)?,
    ))
}

/// Runs `bench-layers` on the reference query and folds its numbers in;
/// `serve.overhead_ms` is what a depth-1 round trip of that query costs
/// beyond running it in process.
fn serve_layers(
    ctx: &Ctx,
    m: &mut LayerMetrics,
    layers_args: &[String],
    depth1_ms: f64,
) -> Result<Vec<Json>, String> {
    let spans = ctx.layers(m, layers_args)?;
    m.set("serve.overhead_ms", depth1_ms - m.get("algo.run_ms"));
    Ok(spans)
}

/// Median depth-1 round trip of `op` on an otherwise idle server.
fn depth1_ms(addr: &str, op: &WireOp) -> Result<f64, String> {
    let mut conn = Conn::connect(addr)?;
    let mut samples = Vec::new();
    for i in 0..6 {
        let s = roundtrip(&mut conn, &format!("depth1-{i}"), op)?;
        if i > 0 {
            samples.push(s.latency_ms);
        }
    }
    Ok(median(&samples))
}

pub(super) fn serve_mixed(ctx: &Ctx, dir: &Path) -> Result<Outcome, String> {
    let sources = spec::hub_sources(ctx.seed, "mixed-sources", 4);
    let warm = |addr: &str| -> Result<Vec<Conn>, String> {
        let mut conns = vec![Conn::connect(addr)?, Conn::connect(addr)?];
        for (i, kind) in MixedKind::CYCLE.into_iter().enumerate() {
            let op = mixed_wire_op(kind, sources[0], Check::StartsWith(""), false);
            roundtrip(&mut conns[i % 2], &format!("warm-{i}"), &op)?;
        }
        Ok(conns)
    };
    let (setup_s, (served, mut conns)) = repeated_setup(
        ctx.sizes.setup_reps,
        || {
            let inputs = serve_graph(ctx, dir)?;
            let file = path_str(&inputs[1].path);
            let server = Server::start(
                &ctx.julienne,
                &kv(&[("in", &file), ("backend", "mapped")]),
                &dir.join("server.stderr"),
            )?;
            let conns = warm(&server.addr)?;
            Ok((Served { inputs, server }, conns))
        },
        |(served, conns)| {
            drop(conns);
            stop(served)
        },
    )?;
    let Served { mut inputs, server } = served;
    let file = path_str(&inputs[1].path);

    // Oracles: the CLI's own answer for every distinct query. k-core needs
    // the unweighted twin of the serve graph (same seed, no weights): the
    // CLI refuses to peel a weighted file, the server does not.
    let scale = ctx.sizes.serve_scale.to_string();
    let twin = ctx.gen(
        "unweighted-twin",
        &dir.join("u.bin"),
        &[("kind", "rmat"), ("scale", &scale)],
    )?;
    let kcore = Check::Exact(
        cli_ok(
            &ctx.julienne,
            &argv("kcore", &[("in", &path_str(&twin.path)), ("top", "3")]),
        )?
        .stdout,
    );
    inputs.push(twin);
    let setcover = Check::Exact(cli_ok(&ctx.julienne, &["setcover".to_string()])?.stdout);
    let mut sssp = HashMap::new();
    for &src in &sources {
        sssp.insert(src, ctx.dijkstra_check(&file, src)?);
    }
    let check_for = |kind: MixedKind, src: u32| match kind {
        MixedKind::Kcore => kcore.clone(),
        MixedKind::Setcover => setcover.clone(),
        MixedKind::Wbfs | MixedKind::Delta => sssp[&src].clone(),
    };

    let reference = mixed_wire_op(
        MixedKind::Delta,
        sources[0],
        check_for(MixedKind::Delta, sources[0]),
        false,
    );
    let (floor_ms, depth1) = idle_probes(ctx, &server, &reference)?;

    let window = ctx.window();
    let opened = Instant::now();
    let trace = ctx.trace;
    let stop = AtomicBool::new(false);
    let (results, looks): (Vec<_>, _) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| sample_server(&server, opened, &stop));
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let (sources, check_for) = (&sources, &check_for);
                scope.spawn(move || {
                    closed_loop(conn, c, opened, window, trace, |i| {
                        let (kind, src) = spec::mixed_op(sources, c, i);
                        // On a traced run every fifth op that runs on the
                        // graph asks for its per-round trace.
                        let stats = trace && i % 5 == 1 && kind != MixedKind::Setcover;
                        mixed_wire_op(kind, src, check_for(kind, src), stats)
                    })
                })
            })
            .collect();
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect();
        stop.store(true, Ordering::SeqCst);
        (results, sampler.join().expect("sampler thread panicked"))
    });
    let window_s = opened.elapsed().as_secs_f64();
    drop(conns);

    let (mut samples, mut spans, mut failures, mut sent) =
        (Vec::new(), Vec::new(), Failures::default(), 0);
    for (s, sp, f, n) in results {
        samples.extend(s);
        spans.extend(sp);
        failures.merge(f);
        sent += n;
    }
    let usage = server_usage(&server, window_s, &looks, &samples);
    let stderr = server.stderr();
    if let Err(e) = server.shutdown() {
        failures.push(format!("shutdown: {e}; stderr: {stderr}"));
    }
    let info = Json::obj([
        ("loop", Json::str("closed")),
        ("clients", Json::Num(2.0)),
        ("samples", Json::Num(samples.len() as f64)),
        (
            "op",
            Json::str("cycle kcore top=3 / sssp algo=wbfs / sssp algo=delta delta=4 / setcover"),
        ),
        ("inputs", inputs_json(&inputs)?),
        ("failures", failures.json()),
    ]);
    let mut all_spans = spans_json(&spans);
    let metrics = if ctx.trace {
        let mut m = LayerMetrics::new();
        serve_layer_metrics(
            &mut m,
            "serve-mixed",
            &samples,
            &usage,
            floor_ms,
            sent,
            failures.count,
        );
        let layers_args = strings(&[
            "measure",
            "--algo",
            "sssp",
            "--weighted",
            "--graph",
            &file,
            "--backend",
            "mapped",
            "--delta",
            &spec::DELTA_SERVE.to_string(),
            "--sources",
            &sources[0].to_string(),
        ]);
        all_spans.extend(serve_layers(ctx, &mut m, &layers_args, depth1)?);
        m.0
    } else {
        end_to_end(setup_s, &done_ops(&samples), &usage)
    };
    Ok(Outcome {
        attempted: sent as u64,
        failed: failures.count,
        metrics,
        info,
        spans: all_spans,
    })
}

fn mixed_wire_op(kind: MixedKind, src: u32, check: Check, stats: bool) -> WireOp {
    let (algo, params) = match kind {
        MixedKind::Kcore => ("kcore", vec![("top", "3".to_string())]),
        MixedKind::Wbfs => ("sssp", sssp_params("wbfs", src)),
        MixedKind::Delta => ("sssp", sssp_params("delta", src)),
        MixedKind::Setcover => ("setcover", Vec::new()),
    };
    // Request identity: the kind, and for the two sssp kinds the source.
    let group = match kind {
        MixedKind::Kcore | MixedKind::Setcover => kind as u32,
        MixedKind::Wbfs | MixedKind::Delta => 4 + 2 * src + (kind == MixedKind::Delta) as u32,
    };
    WireOp {
        kind: kind.name(),
        group,
        algo,
        params,
        check,
        stats,
    }
}

pub(super) fn serve_hot(ctx: &Ctx, dir: &Path) -> Result<Outcome, String> {
    let n_vertices = 1u32 << ctx.sizes.serve_scale;
    let window_s = ctx.window().as_secs_f64();
    let schedule = spec::hot_schedule(ctx.seed, n_vertices, window_s);
    let (window_ms, cache) = (
        spec::HOT_BATCH_WINDOW_MS.to_string(),
        spec::HOT_CACHE_BYTES.to_string(),
    );
    let (setup_s, (served, conns)) = repeated_setup(
        ctx.sizes.setup_reps,
        || {
            let inputs = serve_graph(ctx, dir)?;
            let file = path_str(&inputs[1].path);
            let server = Server::start(
                &ctx.julienne,
                &kv(&[
                    ("in", &file),
                    ("backend", "mapped"),
                    ("batch_window_ms", &window_ms),
                    ("cache_bytes", &cache),
                ]),
                &dir.join("server.stderr"),
            )?;
            // Warm-up from a source outside the hot set, so the cache the
            // window starts with holds nothing the schedule will ask for.
            let mut conns = vec![Conn::connect(&server.addr)?, Conn::connect(&server.addr)?];
            for (i, conn) in conns.iter_mut().enumerate() {
                let op = hot_wire_op(spec::RMAT_HUBS + i as u32, Check::StartsWith("algo=wbfs"));
                roundtrip(conn, &format!("warm-{i}"), &op)?;
            }
            Ok((Served { inputs, server }, conns))
        },
        |(served, conns)| {
            drop(conns);
            stop(served)
        },
    )?;
    let Served { inputs, server } = served;
    let file = path_str(&inputs[1].path);

    let mut checks = HashMap::new();
    for op in &schedule {
        if let Entry::Vacant(slot) = checks.entry(op.src) {
            slot.insert(ctx.dijkstra_check(&file, op.src)?);
        }
    }
    let reference = hot_wire_op(schedule[0].src, checks[&schedule[0].src].clone());
    let (floor_ms, depth1) = idle_probes(ctx, &server, &reference)?;

    // Open loop: this thread sends each request when it is due, whether or
    // not earlier ones were answered; one reader per connection timestamps
    // the replies. Latency runs from the due time, so a stall is charged to
    // every request it delays.
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    for conn in conns {
        let (w, r) = conn.split();
        writers.push(w);
        readers.push(r);
    }
    let per_conn: Vec<usize> = (0..2)
        .map(|c| schedule.iter().filter(|op| op.conn == c).count())
        .collect();
    let opened = Instant::now();
    let mut lag_ms = Vec::with_capacity(schedule.len());
    let mut send_failures = Failures::default();
    let stop = AtomicBool::new(false);
    let (replies, looks): (Vec<Vec<(Json, f64)>>, _) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| sample_server(&server, opened, &stop));
        let handles: Vec<_> = readers
            .iter_mut()
            .zip(&per_conn)
            .map(|(reader, &expect)| {
                scope.spawn(move || {
                    let mut got = Vec::with_capacity(expect);
                    for _ in 0..expect {
                        match recv_line(reader) {
                            Ok(reply) => got.push((reply, opened.elapsed().as_secs_f64())),
                            Err(_) => break,
                        }
                    }
                    got
                })
            })
            .collect();
        for (i, op) in schedule.iter().enumerate() {
            let due = Duration::from_secs_f64(op.due_s);
            if let Some(wait) = due.checked_sub(opened.elapsed()) {
                std::thread::sleep(wait);
            }
            lag_ms.push((opened.elapsed().as_secs_f64() - op.due_s) * 1e3);
            let line = query_line(
                &format!("h{i}"),
                "sssp",
                &sssp_params("wbfs", op.src),
                false,
            );
            if let Err(e) = send_line(&mut writers[op.conn], &line) {
                send_failures.push(format!("h{i}: {e}"));
            }
        }
        let replies = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        stop.store(true, Ordering::SeqCst);
        (replies, sampler.join().expect("sampler thread panicked"))
    });
    // The window of an open loop ends when the last reply arrives: the
    // achieved rate is requests answered over the time it took to answer
    // them all.
    let window_s = opened.elapsed().as_secs_f64();
    drop(writers);
    drop(readers);

    let mut failures = send_failures;
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    let mut answered = vec![false; schedule.len()];
    for (reply, at_s) in replies.into_iter().flatten() {
        let Some(i) = reply
            .get("id")
            .and_then(Json::as_str)
            .and_then(|id| id.strip_prefix('h')?.parse::<usize>().ok())
            .filter(|&i| i < schedule.len() && !answered[i])
        else {
            failures.push(format!("unexpected reply: {}", reply.render()));
            continue;
        };
        answered[i] = true;
        let op = &schedule[i];
        let verdict =
            checked_output(&reply, &format!("h{i}")).and_then(|out| checks[&op.src].verify(out));
        match verdict {
            Ok(()) => samples.push(WireSample {
                kind: "wbfs",
                group: op.src,
                done_s: at_s,
                latency_ms: (at_s - op.due_s) * 1e3,
                batched: reply.get("batched").and_then(Json::as_bool) == Some(true),
                cached: reply.get("cached").and_then(Json::as_bool) == Some(true),
                exec_ms: None,
            }),
            Err(msg) => failures.push(format!("h{i}: {msg}")),
        }
        if ctx.trace {
            spans.push(Span {
                name: "wire.wbfs".to_string(),
                start_us: (op.due_s * 1e6) as u64,
                end_us: (at_s * 1e6) as u64,
                op: i,
            });
        }
    }
    for (i, _) in answered.iter().enumerate().filter(|(_, &a)| !a) {
        failures.push(format!("h{i}: no reply"));
    }
    let usage = server_usage(&server, window_s, &looks, &samples);
    let stderr = server.stderr();
    if let Err(e) = server.shutdown() {
        failures.push(format!("shutdown: {e}; stderr: {stderr}"));
    }
    // A generator that itself ran late says more about this process and its
    // host than about the server. That is recorded with the run, not counted
    // as a failed op: every answer was still correct, and the lag is already
    // inside each latency, which runs from the due time.
    let lag_p95 = percentile(&lag_ms, 0.95);
    let generator_on_time = lag_p95 <= 5.0;
    if !generator_on_time {
        eprintln!("serve-hot: load generator lag p95 {lag_p95:.2} ms exceeds 5 ms; treat this run as invalid");
    }
    let info = Json::obj([
        ("loop", Json::str("open")),
        ("rate_per_s", Json::Num(spec::HOT_RATE_PER_S)),
        ("connections", Json::Num(2.0)),
        ("samples", Json::Num(samples.len() as f64)),
        (
            "op",
            Json::str("sssp algo=wbfs src=<zipf hot | uniform cold>"),
        ),
        ("cache_bytes", Json::Num(spec::HOT_CACHE_BYTES as f64)),
        (
            "batch_window_ms",
            Json::Num(spec::HOT_BATCH_WINDOW_MS as f64),
        ),
        ("lag_p95_ms", Json::Num(lag_p95)),
        ("valid", Json::Bool(generator_on_time)),
        ("inputs", inputs_json(&inputs)?),
        ("failures", failures.json()),
    ]);
    let mut all_spans = spans_json(&spans);
    let metrics = if ctx.trace {
        let mut m = LayerMetrics::new();
        serve_layer_metrics(
            &mut m,
            "serve-hot",
            &samples,
            &usage,
            floor_ms,
            schedule.len(),
            failures.count,
        );
        m.set("loadgen.lag_p95_ms", lag_p95);
        let layers_args = strings(&[
            "measure",
            "--algo",
            "sssp",
            "--weighted",
            "--graph",
            &file,
            "--backend",
            "mapped",
            "--delta",
            "1",
            "--sources",
            &schedule[0].src.to_string(),
        ]);
        all_spans.extend(serve_layers(ctx, &mut m, &layers_args, depth1)?);
        m.0
    } else {
        end_to_end(setup_s, &done_ops(&samples), &usage)
    };
    Ok(Outcome {
        attempted: schedule.len() as u64,
        failed: failures.count,
        metrics,
        info,
        spans: all_spans,
    })
}

fn hot_wire_op(src: u32, check: Check) -> WireOp {
    WireOp {
        kind: "wbfs",
        group: src,
        algo: "sssp",
        params: sssp_params("wbfs", src),
        check,
        stats: false,
    }
}

fn mutate_line(id: &str, batch: &spec::Batch) -> String {
    let pairs = |ps: &[(u32, u32)]| {
        Json::Arr(
            ps.iter()
                .map(|&(u, v)| Json::Arr(vec![Json::Num(f64::from(u)), Json::Num(f64::from(v))]))
                .collect(),
        )
    };
    let mut spec = Vec::new();
    if !batch.inserts.is_empty() {
        spec.push(("insert".to_string(), pairs(&batch.inserts)));
    }
    if !batch.deletes.is_empty() {
        spec.push(("delete".to_string(), pairs(&batch.deletes)));
    }
    Json::obj([("id", Json::str(id)), ("mutate", Json::Obj(spec))]).render()
}

fn edge_list(pairs: impl Iterator<Item = (u32, u32)>) -> String {
    pairs
        .map(|(u, v)| format!("{u}-{v}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Read `i` of `serve-mutate`: components, k-core, components, … Two kinds
/// in equal shares would put the median op on the boundary between two
/// latency modes, where it flips with the seed; at two to one it sits
/// inside the `components` mode, the read that traverses the snapshot.
fn read_op(i: usize, check: Option<(&Check, &Check)>) -> WireOp {
    let kcore = i % 3 == 1;
    let fallback = if kcore {
        Check::StartsWith("k_max=")
    } else {
        Check::StartsWith("components=")
    };
    WireOp {
        kind: if kcore { "kcore" } else { "components" },
        group: u32::from(kcore),
        algo: if kcore { "kcore" } else { "components" },
        params: if kcore {
            vec![("top", "3".to_string())]
        } else {
            Vec::new()
        },
        check: check.map_or(fallback, |(k, c)| if kcore { k.clone() } else { c.clone() }),
        stats: false,
    }
}

pub(super) fn serve_mutate(ctx: &Ctx, dir: &Path) -> Result<Outcome, String> {
    let n_vertices = 1u32 << ctx.sizes.serve_scale;
    let window = ctx.window();
    let batches = spec::mutate_batches(
        ctx.seed,
        n_vertices,
        (window.as_secs_f64() / spec::MUTATE_PERIOD_S).floor() as usize,
    );
    let scale = ctx.sizes.serve_scale.to_string();
    let (setup_s, (served, mut conns)) = repeated_setup(
        ctx.sizes.setup_reps,
        || {
            let bin = ctx.gen(
                "generated",
                &dir.join("u.bin"),
                &[("kind", "rmat"), ("scale", &scale)],
            )?;
            let server = Server::start(
                &ctx.julienne,
                &kv(&[("in", &path_str(&bin.path)), ("mutable", "true")]),
                &dir.join("server.stderr"),
            )?;
            let mut conns = vec![Conn::connect(&server.addr)?, Conn::connect(&server.addr)?];
            for i in 0..3 {
                roundtrip(&mut conns[0], &format!("warm-{i}"), &read_op(i, None))?;
            }
            Ok((
                Served {
                    inputs: vec![bin],
                    server,
                },
                conns,
            ))
        },
        |(served, conns)| {
            drop(conns);
            stop(served)
        },
    )?;
    let Served { mut inputs, server } = served;
    let (floor_ms, depth1) = idle_probes(ctx, &server, &read_op(1, None))?;

    // Connection A reads in a closed loop; connection B (this thread)
    // writes one batch per period, on schedule.
    let opened = Instant::now();
    let trace = ctx.trace;
    let stop = AtomicBool::new(false);
    let (reader_conn, writer_conn) = conns.split_at_mut(1);
    let mut write_ms = Vec::new();
    let mut applied = 0u64;
    let mut last_epoch = 0u64;
    let mut write_failures = Failures::default();
    let mut write_spans = Vec::new();
    let ((samples, read_spans, read_failures, reads_sent), looks) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| sample_server(&server, opened, &stop));
        let reads = scope.spawn(|| {
            closed_loop(&mut reader_conn[0], 0, opened, window, trace, |i| {
                read_op(i, None)
            })
        });
        for (k, batch) in batches.iter().enumerate() {
            let due = Duration::from_secs_f64(k as f64 * spec::MUTATE_PERIOD_S);
            if let Some(wait) = due.checked_sub(opened.elapsed()) {
                std::thread::sleep(wait);
            }
            let id = format!("m{k}");
            let verdict = writer_conn[0]
                .roundtrip(&mutate_line(&id, batch))
                .and_then(|reply| {
                    let out = checked_output(&reply, &id)?;
                    let parse = |key| {
                        crate::check::field(out, key)
                            .and_then(|v| v.parse::<u64>().ok())
                            .ok_or_else(|| format!("mutate reply has no {key}=: {out:?}"))
                    };
                    Ok((parse("epoch")?, parse("applied")?))
                });
            let done = opened.elapsed();
            match verdict {
                Ok((epoch, n)) => {
                    write_ms.push((done - due).as_secs_f64() * 1e3);
                    applied += n;
                    last_epoch = epoch;
                }
                Err(msg) => write_failures.push(format!("{id}: {msg}")),
            }
            if trace {
                write_spans.push(Span {
                    name: "wire.mutate".to_string(),
                    start_us: due.as_micros() as u64,
                    end_us: done.as_micros() as u64,
                    op: k,
                });
            }
        }
        let reads = reads.join().expect("reader thread panicked");
        stop.store(true, Ordering::SeqCst);
        (reads, sampler.join().expect("sampler thread panicked"))
    });
    let usage = server_usage(&server, opened.elapsed().as_secs_f64(), &looks, &samples);
    let mut failures = read_failures;
    failures.merge(write_failures);

    // The final answers must equal the CLI's on a graph rebuilt offline
    // from the same batches.
    let rebuilt = dir.join("rebuilt.bin");
    let inserts = edge_list(batches.iter().flat_map(|b| b.inserts.iter().copied()));
    let deletes = edge_list(batches.iter().flat_map(|b| b.deletes.iter().copied()));
    let mut update = argv(
        "update",
        &[
            ("in", &path_str(&inputs[0].path)),
            ("out", &path_str(&rebuilt)),
        ],
    );
    for (key, list) in [("insert", inserts), ("delete", deletes)] {
        if !list.is_empty() {
            update.push(format!("{key}={list}"));
        }
    }
    cli_ok(&ctx.julienne, &update)?;
    let rebuilt_s = path_str(&rebuilt);
    let offline = |cmd: &str, extra: &[(&str, &str)]| -> Result<String, String> {
        let mut args = vec![("in", rebuilt_s.as_str())];
        args.extend_from_slice(extra);
        Ok(cli_ok(&ctx.julienne, &argv(cmd, &args))?.stdout)
    };
    let final_kcore = Check::kcore_from(&offline("kcore", &[("top", "3")])?)?;
    let final_components = Check::fields_from(&offline("components", &[])?, &["components"])?;
    let mut final_checks = 0u64;
    for i in 0..2 {
        final_checks += 1;
        let op = read_op(i, Some((&final_kcore, &final_components)));
        if let Err(msg) = roundtrip(&mut conns[0], &format!("final-{i}"), &op) {
            failures.push(format!(
                "final {} after {} batches: {msg}",
                op.kind,
                batches.len()
            ));
        }
    }
    inputs.push(Input {
        role: "rebuilt-offline",
        path: rebuilt,
        n: inputs[0].n,
        m: 0,
    });
    drop(conns);
    let stderr = server.stderr();
    if let Err(e) = server.shutdown() {
        failures.push(format!("shutdown: {e}; stderr: {stderr}"));
    }

    let info = Json::obj([
        ("loop", Json::str("closed reads beside scheduled writes")),
        ("clients", Json::Num(2.0)),
        ("write_rate_per_s", Json::Num(1.0 / spec::MUTATE_PERIOD_S)),
        ("samples", Json::Num(samples.len() as f64)),
        ("write_samples", Json::Num(write_ms.len() as f64)),
        (
            "op",
            Json::str("reads: kcore top=3 / components; writes: mutate of 16 updates"),
        ),
        ("inputs", inputs_json(&inputs)?),
        ("failures", failures.json()),
    ]);
    let mut spans = read_spans;
    spans.extend(write_spans);
    let mut all_spans = spans_json(&spans);
    let attempted = reads_sent as u64 + batches.len() as u64 + final_checks;
    let metrics = if ctx.trace {
        let mut m = LayerMetrics::new();
        serve_layer_metrics(
            &mut m,
            "serve-mutate",
            &samples,
            &usage,
            floor_ms,
            attempted as usize,
            failures.count,
        );
        m.set("mutate.write_p50_ms", median(&write_ms));
        m.set("mutate.applied_per_s", applied as f64 / usage.window_s);
        m.set("mutate.epochs", last_epoch as f64);
        m.set(
            "mutate.edges_per_batch",
            applied as f64 / write_ms.len().max(1) as f64,
        );
        for kind in ["kcore", "components"] {
            let of_kind: Vec<f64> = samples
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| s.latency_ms)
                .collect();
            m.set(&format!("read.{kind}_p50_ms"), median(&of_kind));
        }
        let layers_args = strings(&[
            "measure",
            "--algo",
            "kcore",
            "--graph",
            &path_str(&inputs[0].path),
            "--backend",
            "csr",
            "--dense-bfs",
        ]);
        all_spans.extend(serve_layers(ctx, &mut m, &layers_args, depth1)?);
        m.0
    } else {
        end_to_end(setup_s, &done_ops(&samples), &usage)
    };
    Ok(Outcome {
        attempted,
        failed: failures.count,
        metrics,
        info,
        spans: all_spans,
    })
}
