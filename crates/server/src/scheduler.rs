//! The serve-path pipeline: admission → batching → execution → cache.
//!
//! Every query request passes through three stages before an algorithm
//! runs:
//!
//! 1. **Admission** (connection thread). The request is validated, float
//!    parameters are canonicalized (`NaN` is rejected here with an input
//!    error — it would otherwise poison cache keys and batch grouping),
//!    the query's cancellation token is adopted, and the result cache is
//!    consulted under `(algorithm, canonical params, graph epoch)`. A hit
//!    answers immediately with `"cached": true` and never reaches the
//!    queue.
//! 2. **Scheduling** (dispatcher thread). Admitted jobs wait in one
//!    server-wide queue. `fifo` dispatches in arrival order; `priority`
//!    dispatches by the algorithm's declared [`CostClass`] (cheap first,
//!    arrival order within a class), so a burst of expensive queries
//!    cannot starve cheap ones. A batchable job is held for the
//!    configured *batch window* after arrival; compatible jobs that
//!    arrive within the window coalesce with it:
//!    * [`BatchKind::MultiSourceSssp`] — same-`delta` `sssp` queries fuse
//!      into **one** multi-source traversal with a frontier lane per
//!      member ([`julienne_algorithms::delta_stepping::sssp_multi`]).
//!      Per-member outputs are byte-identical to solo runs; a member
//!      cancelling detaches its lane without disturbing siblings.
//!    * [`BatchKind::WholeGraph`] — queries with identical canonical
//!      parameters (k-core, PageRank, …) run **once** and fan the one
//!      output out to every waiter.
//!
//!    Members answered from a fused run carry `"batched": true`; the
//!    `output` payload itself stays byte-identical to a solo run.
//! 3. **Completion** (executor thread). Successful, stats-free results
//!    are written into the session's
//!    [`ResultCache`](julienne::cache::ResultCache) before the response
//!    goes out.
//!
//! `stats=true` queries bypass both the cache and every batch shape: a
//! telemetry trace describes one query's own run, so sharing it would
//! lie. Deadline-carrying whole-graph queries also run solo (a fused run
//! has no single deadline to honour); `sssp` lanes keep their own
//! deadline and cancellation through their per-lane [`QueryCtx`].
//!
//! The default configuration (no window, no cache, fifo) makes the
//! pipeline invisible: every job dispatches solo immediately, preserving
//! the protocol behaviour documented in [`crate`].

use crate::json::Json;
use crate::{error_for, error_response, respond, Shared};
use julienne::prelude::{CacheKey, CancelToken, QueryCtx, Session};
use julienne_algorithms::registry::{
    run_sssp_batch, BatchKind, CostClass, GraphStore, ParamMap, Registry,
};
use julienne_graph::snapshot::EdgeUpdate;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Dispatch order for admitted jobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Arrival order, no reordering.
    #[default]
    Fifo,
    /// Declared [`CostClass`] first (cheap before expensive), arrival
    /// order within a class.
    Priority,
}

impl SchedPolicy {
    /// Parses `fifo` / `priority` (the CLI spelling).
    pub fn parse(s: &str) -> Option<SchedPolicy> {
        match s {
            "fifo" => Some(SchedPolicy::Fifo),
            "priority" => Some(SchedPolicy::Priority),
            _ => None,
        }
    }
}

/// Serve-pipeline knobs; [`Default`] reproduces the unbatched,
/// uncached, arrival-order server exactly.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedulerConfig {
    /// How long a batchable job waits for compatible company before
    /// dispatch. Zero disables coalescing entirely.
    pub batch_window: Duration,
    /// Result-cache budget in accounted bytes. Zero disables caching.
    pub cache_bytes: usize,
    /// Dispatch order.
    pub policy: SchedPolicy,
}

/// One admitted query waiting for (or riding along with) dispatch.
struct Job {
    seq: u64,
    ready_at: Instant,
    id: Option<String>,
    algo: String,
    params: ParamMap,
    ctx: QueryCtx,
    /// `Some` only when the result may be cached (spec known, stats off).
    cache_key: Option<CacheKey>,
    cost: CostClass,
    batch: BatchKind,
    stats: bool,
    has_deadline: bool,
    /// Decided at admission: may this job lead or join a fused batch?
    coalesce: bool,
    /// The graph this job reads, pinned at admission: for a dynamic store
    /// the snapshot is captured here, so a mutation landing between
    /// admission and execution cannot change what the query sees.
    store: GraphStore,
    /// `Some` for writer-lane jobs: the parsed update batch to apply.
    mutation: Option<Vec<EdgeUpdate>>,
    writer: Arc<Mutex<TcpStream>>,
}

struct State {
    queue: Vec<Job>,
    next_seq: u64,
    draining: bool,
}

/// The shared queue plus everything an executor needs to answer a job.
pub(crate) struct Scheduler {
    session: Session<GraphStore>,
    config: SchedulerConfig,
    shared: Arc<Shared>,
    state: Mutex<State>,
    cv: Condvar,
}

impl Scheduler {
    pub(crate) fn new(
        session: Session<GraphStore>,
        config: SchedulerConfig,
        shared: Arc<Shared>,
    ) -> Scheduler {
        Scheduler {
            session,
            config,
            shared,
            state: Mutex::new(State {
                queue: Vec::new(),
                next_seq: 0,
                draining: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Admits one query request from a connection thread: validates it,
    /// consults the cache, and either answers immediately or enqueues a
    /// job for the dispatcher. Never blocks on algorithm work.
    pub(crate) fn admit(&self, request: &Json, writer: &Arc<Mutex<TcpStream>>) {
        let id = request.get("id").and_then(Json::as_str).map(str::to_string);
        let Some(algo) = request.get("algo").and_then(Json::as_str) else {
            respond(
                writer,
                error_response(id.as_deref(), "usage", "request has no \"algo\" field"),
            );
            return;
        };
        let params = match request.get("params") {
            None => ParamMap::default(),
            Some(Json::Obj(fields)) => ParamMap::from_pairs(fields.iter().map(|(k, v)| {
                let value = match v {
                    Json::Str(s) => s.clone(),
                    other => other.to_json(),
                };
                (k.clone(), value)
            })),
            Some(_) => {
                respond(
                    writer,
                    error_response(id.as_deref(), "usage", "\"params\" must be an object"),
                );
                return;
            }
        };
        let stats = request.get("stats").and_then(Json::as_bool) == Some(true);

        // Canonicalize parameters while the request is still cheap to
        // refuse: NaN floats never make it past admission.
        let registry = Registry::standard();
        let spec = registry.get(algo);
        let canonical = match spec.map(|s| s.canonical_params(&params)).transpose() {
            Ok(c) => c,
            Err(err) => {
                respond(writer, error_for(id.as_deref(), &err));
                return;
            }
        };

        // Register (or adopt a pre-cancelled) token under the query id.
        let token = match &id {
            Some(id) => self
                .shared
                .inflight
                .lock()
                .unwrap()
                .entry(id.clone())
                .or_default()
                .clone(),
            None => CancelToken::new(),
        };

        let mut ctx: QueryCtx = self.session.query().with_cancel_token(token.clone());
        let mut has_deadline = false;
        if let Some(ms) = request.get("timeout_ms").and_then(Json::as_u64) {
            ctx = ctx.with_deadline(Duration::from_millis(ms));
            has_deadline = true;
        }
        if stats {
            ctx = ctx.with_stats(true);
        }

        // Pin the graph this query reads *now*: mutations published after
        // this line do not affect it. For dynamic stores the cache-key
        // epoch is the pinned snapshot's — never a later one — so a cached
        // body can only ever be served to queries of the same epoch.
        let store = self.session.graph().pin();
        let epoch = store.epoch_hint().unwrap_or_else(|| self.session.epoch());
        let cache_key = match (&canonical, stats) {
            (Some(c), false) => Some(CacheKey::new(algo, c, epoch)),
            _ => None,
        };

        // Cache consult happens before admission; a pre-cancelled query
        // must still answer `cancelled`, so it skips the lookup.
        if !token.is_cancelled() {
            if let (Some(cache), Some(key)) = (self.session.cache(), &cache_key) {
                if let Some(hit) = cache.get(key) {
                    if let Some(id) = &id {
                        self.shared.inflight.lock().unwrap().remove(id);
                    }
                    respond(writer, ok_response(id.as_deref(), &hit, false, true));
                    return;
                }
            }
        }

        let (cost, batch) = match spec {
            Some(s) => (s.cost, s.batch),
            None => (CostClass::Moderate, BatchKind::None),
        };
        let now = Instant::now();
        let batchable = self.config.batch_window > Duration::ZERO
            && batch != BatchKind::None
            && !stats
            && !(batch == BatchKind::WholeGraph && has_deadline);
        let ready_at = if batchable {
            now + self.config.batch_window
        } else {
            now
        };
        let mut st = self.state.lock().unwrap();
        let seq = st.next_seq;
        st.next_seq += 1;
        st.queue.push(Job {
            seq,
            ready_at,
            id,
            algo: algo.to_string(),
            params,
            ctx,
            cache_key,
            cost,
            batch,
            stats,
            has_deadline,
            coalesce: batchable,
            store,
            mutation: None,
            writer: Arc::clone(writer),
        });
        drop(st);
        self.cv.notify_all();
    }

    /// Admits one `mutate` request: parses the update batch and enqueues a
    /// writer-lane job. Mutations ride the same queue as queries (so
    /// `fifo` gives read-your-writes to a single connection issuing
    /// query → mutate → query) but never coalesce; the actual batch
    /// application serializes on the dynamic store's writer lock. Within
    /// one request, deletes are applied after inserts.
    pub(crate) fn admit_mutate(&self, request: &Json, writer: &Arc<Mutex<TcpStream>>) {
        let id = request.get("id").and_then(Json::as_str).map(str::to_string);
        let spec = request.get("mutate").expect("caller checked");
        let updates = match parse_updates(spec) {
            Ok(ups) => ups,
            Err(msg) => {
                respond(writer, error_response(id.as_deref(), "usage", &msg));
                return;
            }
        };
        let token = match &id {
            Some(id) => self
                .shared
                .inflight
                .lock()
                .unwrap()
                .entry(id.clone())
                .or_default()
                .clone(),
            None => CancelToken::new(),
        };
        let ctx: QueryCtx = self.session.query().with_cancel_token(token);
        let now = Instant::now();
        let mut st = self.state.lock().unwrap();
        let seq = st.next_seq;
        st.next_seq += 1;
        st.queue.push(Job {
            seq,
            ready_at: now,
            id,
            algo: "mutate".to_string(),
            params: ParamMap::default(),
            ctx,
            cache_key: None,
            cost: CostClass::Moderate,
            batch: BatchKind::None,
            stats: false,
            has_deadline: false,
            coalesce: false,
            store: self.session.graph().pin(),
            mutation: Some(updates),
            writer: Arc::clone(writer),
        });
        drop(st);
        self.cv.notify_all();
    }

    /// Tells the dispatcher no further jobs will arrive; it finishes the
    /// queue and returns.
    pub(crate) fn begin_drain(&self) {
        self.state.lock().unwrap().draining = true;
        self.cv.notify_all();
    }

    /// The dispatcher loop: picks ready jobs per policy, coalesces
    /// compatible ones, and hands each batch to its own executor thread.
    /// Returns (joining every executor) once drained.
    pub(crate) fn dispatch_loop(self: &Arc<Scheduler>) {
        let mut executors: Vec<thread::JoinHandle<()>> = Vec::new();
        loop {
            let batch = {
                let mut st = self.state.lock().unwrap();
                loop {
                    let now = Instant::now();
                    if let Some(pos) = pick_ready(&st.queue, self.config.policy, now) {
                        break collect_batch(&mut st.queue, pos);
                    }
                    if st.queue.is_empty() && st.draining {
                        drop(st);
                        for h in executors {
                            let _ = h.join();
                        }
                        return;
                    }
                    // Sleep until the nearest batch window closes (or a
                    // new job / drain signal arrives).
                    st = match st.queue.iter().map(|j| j.ready_at).min() {
                        Some(at) => {
                            let wait = at.saturating_duration_since(now);
                            self.cv.wait_timeout(st, wait).unwrap().0
                        }
                        None => self.cv.wait(st).unwrap(),
                    };
                }
            };
            executors.retain(|h| !h.is_finished());
            let sched = Arc::clone(self);
            executors.push(thread::spawn(move || sched.execute(batch)));
        }
    }

    /// Runs one dispatched batch to its responses.
    fn execute(&self, mut batch: Vec<Job>) {
        if batch.len() >= 2 && batch[0].batch == BatchKind::MultiSourceSssp {
            // Deduplicate before fusing: members with identical canonical
            // parameters share ONE frontier lane (a homogeneous burst of a
            // popular query costs one lane, not N), distinct parameter
            // sets become distinct lanes of one traversal. A shared lane
            // runs under a fresh context so no single member's
            // cancellation can starve the others — duplicates are checked
            // at respond time, exactly like whole-graph fan-out. Members
            // with a deadline keep a private lane (their own context), so
            // their deadline still trips mid-run.
            let mut groups: Vec<Vec<usize>> = Vec::new();
            let mut by_params: std::collections::HashMap<&str, usize> =
                std::collections::HashMap::new();
            for (i, job) in batch.iter().enumerate() {
                match (&job.cache_key, job.has_deadline) {
                    (Some(key), false) => match by_params.get(key.params.as_str()) {
                        Some(&g) => groups[g].push(i),
                        None => {
                            by_params.insert(&key.params, groups.len());
                            groups.push(vec![i]);
                        }
                    },
                    _ => groups.push(vec![i]),
                }
            }
            let fresh: Vec<Option<QueryCtx>> = groups
                .iter()
                .map(|g| (g.len() >= 2).then(|| self.session.query()))
                .collect();
            let members: Vec<(&ParamMap, &QueryCtx)> = groups
                .iter()
                .zip(&fresh)
                .map(|(g, f)| {
                    let rep = &batch[g[0]];
                    (&rep.params, f.as_ref().unwrap_or(&rep.ctx))
                })
                .collect();
            // On Err (mixed delta/algo or an unfusable variant) fall
            // through to the solo loop: correctness first, throughput
            // second.
            if let Ok(slots) = run_sssp_batch(&batch[0].store, &members) {
                let slots: Vec<Result<String, (String, String)>> = slots
                    .into_iter()
                    .map(|r| r.map_err(|e| (e.code().to_string(), e.to_string())))
                    .collect();
                let mut jobs: Vec<Option<Job>> = batch.into_iter().map(Some).collect();
                for (group, slot) in groups.iter().zip(&slots) {
                    for &i in group {
                        let job = jobs[i].take().expect("job fanned out twice");
                        if group.len() >= 2 {
                            if let Err(e) = job.ctx.check() {
                                self.finish(job, Err(e), true);
                                continue;
                            }
                        }
                        match slot {
                            Ok(output) => self.finish(job, Ok(output.clone()), true),
                            Err((code, msg)) => {
                                if let Some(id) = &job.id {
                                    self.shared.inflight.lock().unwrap().remove(id);
                                }
                                respond(&job.writer, error_response(job.id.as_deref(), code, msg));
                            }
                        }
                    }
                }
                return;
            }
        } else if batch.len() >= 2 && batch[0].batch == BatchKind::WholeGraph {
            // One run under a fresh context fans out to every waiter.
            // Members keep their own cancellation: a cancelled member is
            // answered `cancelled` at respond time and never sees (or
            // poisons) the shared result.
            let leader = &batch[0];
            let ctx = self.session.query();
            let result = Registry::standard()
                .run(&leader.algo, &leader.store, &leader.params, &ctx)
                .map_err(|e| (e.code().to_string(), e.to_string()));
            for job in batch {
                if let Err(e) = job.ctx.check() {
                    self.finish(job, Err(e), true);
                    continue;
                }
                match &result {
                    Ok(output) => self.finish(job, Ok(output.clone()), true),
                    Err((code, msg)) => {
                        if let Some(id) = &job.id {
                            self.shared.inflight.lock().unwrap().remove(id);
                        }
                        respond(&job.writer, error_response(job.id.as_deref(), code, msg));
                    }
                }
            }
            return;
        }
        for job in batch.drain(..) {
            let result = match job.mutation.as_deref() {
                Some(updates) => self.run_mutation(&job, updates),
                None => Registry::standard().run(&job.algo, &job.store, &job.params, &job.ctx),
            };
            self.finish(job, result, false);
        }
    }

    /// The writer lane: applies one update batch to the dynamic store
    /// (serializing on its writer lock), bumps the session epoch so the
    /// result cache leaves the old epoch's entries behind, and reports the
    /// published epoch.
    fn run_mutation(&self, job: &Job, updates: &[EdgeUpdate]) -> Result<String, julienne::Error> {
        job.ctx.check()?;
        let GraphStore::Dynamic { store, .. } = self.session.graph() else {
            return Err(julienne::Error::input(
                "graph backend is not mutable (serve with mutable=true)",
            ));
        };
        let applied = store.apply_batch(updates)?;
        self.session.advance_epoch();
        Ok(format!(
            "epoch={} applied={} n={} m={}\n",
            applied.epoch,
            applied.applied(),
            applied.n,
            applied.m
        ))
    }

    /// Caches a successful result, releases the query id, and writes the
    /// wire response.
    fn finish(&self, job: Job, result: Result<String, julienne::Error>, batched: bool) {
        if let (Ok(output), Some(key), Some(cache)) =
            (&result, &job.cache_key, self.session.cache())
        {
            cache.put(key.clone(), output.clone());
        }
        if let Some(id) = &job.id {
            self.shared.inflight.lock().unwrap().remove(id);
        }
        let response = match result {
            Ok(output) => ok_response(job.id.as_deref(), &output, batched, false),
            Err(err) => error_for(job.id.as_deref(), &err),
        };
        respond(&job.writer, response);
    }
}

/// The index of the best dispatchable job, honouring each job's batch
/// window (`ready_at`) and the configured policy.
fn pick_ready(queue: &[Job], policy: SchedPolicy, now: Instant) -> Option<usize> {
    queue
        .iter()
        .enumerate()
        .filter(|(_, j)| j.ready_at <= now)
        .min_by_key(|(_, j)| match policy {
            SchedPolicy::Fifo => (CostClass::Cheap, j.seq),
            SchedPolicy::Priority => (j.cost, j.seq),
        })
        .map(|(i, _)| i)
}

/// Removes the picked job plus every queued job that can fuse with it.
/// Ride-alongs join even if their own window has not elapsed — they are
/// answered early, never late.
fn collect_batch(queue: &mut Vec<Job>, pos: usize) -> Vec<Job> {
    let lead = queue.remove(pos);
    if !lead.coalesce {
        return vec![lead];
    }
    let mut batch = vec![lead];
    let mut i = 0;
    while i < queue.len() {
        let j = &queue[i];
        let lead = &batch[0];
        let compatible = j.algo == lead.algo
            && !j.stats
            && match lead.batch {
                // Jobs pinned at different epochs read different graphs and
                // must never share one run; the epoch lives in the cache key.
                BatchKind::MultiSourceSssp => match (&j.cache_key, &lead.cache_key) {
                    (Some(a), Some(b)) => a.epoch == b.epoch,
                    _ => false,
                },
                BatchKind::WholeGraph => {
                    !j.has_deadline
                        && match (&j.cache_key, &lead.cache_key) {
                            (Some(a), Some(b)) => a.params == b.params && a.epoch == b.epoch,
                            // Without canonical params there is no sound
                            // notion of "same query".
                            _ => false,
                        }
                }
                BatchKind::None => false,
            };
        if compatible {
            batch.push(queue.remove(i));
        } else {
            i += 1;
        }
    }
    batch
}

/// Parses a `mutate` spec of the form
/// `{"insert": [[u, v], ...], "delete": [[u, v], ...]}` into a flat update
/// batch. Both arrays are optional; inserts come before deletes so that,
/// within one request, a delete of an inserted edge wins (last-op-wins).
fn parse_updates(spec: &Json) -> Result<Vec<EdgeUpdate>, String> {
    fn pairs(spec: &Json, field: &str) -> Result<Vec<(u32, u32)>, String> {
        let Some(arr) = spec.get(field) else {
            return Ok(Vec::new());
        };
        let Json::Arr(items) = arr else {
            return Err(format!("'{field}' must be an array of [u, v] pairs"));
        };
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let pair = match item {
                Json::Arr(p) if p.len() == 2 => p,
                _ => return Err(format!("'{field}' entries must be [u, v] pairs")),
            };
            let mut ends = [0u32; 2];
            for (slot, val) in ends.iter_mut().zip(pair) {
                let Some(x) = val.as_u64().and_then(|x| u32::try_from(x).ok()) else {
                    return Err(format!("'{field}' vertex ids must fit in u32"));
                };
                *slot = x;
            }
            out.push((ends[0], ends[1]));
        }
        Ok(out)
    }
    let mut updates = Vec::new();
    for (u, v) in pairs(spec, "insert")? {
        updates.push(EdgeUpdate::insert(u, v));
    }
    for (u, v) in pairs(spec, "delete")? {
        updates.push(EdgeUpdate::delete(u, v));
    }
    if updates.is_empty() {
        return Err("mutate needs at least one insert or delete".to_string());
    }
    Ok(updates)
}

/// A success response; `batched` / `cached` appear only when true, so
/// unbatched responses are byte-identical to the pre-pipeline wire
/// format.
fn ok_response(id: Option<&str>, output: &str, batched: bool, cached: bool) -> Json {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id".to_string(), Json::Str(id.to_string())));
    }
    fields.push(("ok".to_string(), Json::Bool(true)));
    fields.push(("output".to_string(), Json::Str(output.to_string())));
    if batched {
        fields.push(("batched".to_string(), Json::Bool(true)));
    }
    if cached {
        fields.push(("cached".to_string(), Json::Bool(true)));
    }
    Json::Obj(fields)
}
