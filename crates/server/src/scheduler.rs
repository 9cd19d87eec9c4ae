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
//!    arrive within the window join its batch: same-epoch `sssp` queries
//!    ([`BatchKind::MultiSourceSssp`]), or whole-graph queries with
//!    identical canonical parameters ([`BatchKind::WholeGraph`]).
//! 3. **Execution** (one executor thread per batch). The batch splits
//!    into *groups* that share a run: jobs without a deadline whose
//!    canonical query is identical share one; every other job is a group
//!    of one. A group of one runs under the job's own [`QueryCtx`]; a
//!    shared group runs under a fresh one, and each member's own
//!    cancellation and deadline are checked when it is answered, so no
//!    member can stop its siblings' run. An `sssp` batch of two or more
//!    runs its groups as the lanes of **one** multi-source traversal
//!    ([`run_sssp_batch`]; a lane's output is byte-identical to a solo
//!    run); if the members cannot fuse, the groups run one by one. Every
//!    other group is one registry run. That run step is the only code a
//!    query runs, behind one `catch_unwind`: a panic answers every job of
//!    the batch `internal`, and the executor, the session and the cache
//!    carry on. Members answered from a fused or fan-out run carry
//!    `"batched": true`; the `output` payload itself stays byte-identical
//!    to a solo run. Each job then leaves through `Scheduler::reply`,
//!    which caches a stats-free success, releases the id and writes the
//!    line.
//!
//! `stats=true` queries bypass both the cache and every batch shape: a
//! telemetry trace describes one query's own run, so sharing it would
//! lie. Deadline-carrying whole-graph queries also run solo (a shared run
//! has no single deadline to honour).
//!
//! The default configuration (no window, no cache, fifo) makes the
//! pipeline invisible: every job dispatches solo immediately, preserving
//! the protocol behaviour documented in [`crate`].

use crate::json::Json;
use crate::{error_for, error_response, lock, respond, Shared};
use julienne::prelude::{CacheKey, CancelToken, QueryCtx, Session};
use julienne::Error;
use julienne_algorithms::registry::{
    run_sssp_batch, BatchKind, CostClass, GraphStore, ParamMap, Registry,
};
use julienne_graph::snapshot::EdgeUpdate;
use std::any::Any;
use std::collections::HashMap;
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
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

/// A run's error already in wire form, so one failed shared run can be
/// cloned to every member.
#[derive(Clone)]
struct Failure {
    code: &'static str,
    message: String,
}

impl From<Error> for Failure {
    fn from(err: Error) -> Failure {
        Failure {
            code: err.code(),
            message: err.to_string(),
        }
    }
}

/// Where a successful reply's body came from; only a shared run or the
/// cache shows on the wire.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Via {
    Solo,
    Batch,
    Cache,
}

/// An algorithm name that panics in the run step, so tests can reach the
/// panic path; it exists only in this crate's test build.
#[cfg(test)]
const PANIC_PROBE: &str = "panic-probe";

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

        let mut ctx: QueryCtx = self.session.query();
        let mut has_deadline = false;
        if let Some(ms) = request.get("timeout_ms").and_then(Json::as_u64) {
            ctx = ctx.with_deadline(Duration::from_millis(ms));
            has_deadline = true;
        }
        if stats {
            ctx = ctx.with_stats(true);
        }

        // Pin the graph this query reads *now*: mutations published after
        // this line do not affect it. The cache-key epoch is the pinned
        // snapshot's — never a later one — so a cached body can only ever
        // be served to queries of the same epoch.
        let store = self.session.graph().pin();
        let cache_key = match (&canonical, stats) {
            (Some(c), false) => Some(CacheKey::new(algo, c, store.epoch())),
            _ => None,
        };

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
        self.enqueue(Job {
            seq: 0,
            ready_at,
            id,
            algo: algo.to_string(),
            params,
            ctx,
            cache_key,
            cost,
            batch,
            has_deadline,
            coalesce: batchable,
            store,
            mutation: None,
            writer: Arc::clone(writer),
        });
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
        self.enqueue(Job {
            seq: 0,
            ready_at: Instant::now(),
            id,
            algo: "mutate".to_string(),
            params: ParamMap::default(),
            ctx: self.session.query(),
            cache_key: None,
            cost: CostClass::Moderate,
            batch: BatchKind::None,
            has_deadline: false,
            coalesce: false,
            store: self.session.graph().pin(),
            mutation: Some(updates),
            writer: Arc::clone(writer),
        });
    }

    /// The admission tail every job shares: registers (or adopts a
    /// pre-cancelled) token under the query id, answers a cache hit on the
    /// spot, and otherwise stamps the arrival order, queues the job and
    /// wakes the dispatcher.
    fn enqueue(&self, mut job: Job) {
        let token = match &job.id {
            Some(id) => lock(&self.shared.inflight)
                .entry(id.clone())
                .or_default()
                .clone(),
            None => CancelToken::new(),
        };
        // A pre-cancelled query must still answer `cancelled`, so it skips
        // the lookup.
        let hit = match (&job.cache_key, self.session.cache()) {
            (Some(key), Some(cache)) if !token.is_cancelled() => cache.get(key),
            _ => None,
        };
        job.ctx = job.ctx.with_cancel_token(token);
        if let Some(hit) = hit {
            return self.reply(job, Ok(&hit), Via::Cache);
        }
        let mut st = lock(&self.state);
        job.seq = st.next_seq;
        st.next_seq += 1;
        st.queue.push(job);
        drop(st);
        self.cv.notify_all();
    }

    /// Tells the dispatcher no further jobs will arrive; it finishes the
    /// queue and returns.
    pub(crate) fn begin_drain(&self) {
        lock(&self.state).draining = true;
        self.cv.notify_all();
    }

    /// The dispatcher loop: picks ready jobs per policy, coalesces
    /// compatible ones, and hands each batch to its own executor thread.
    /// Returns (joining every executor) once drained.
    pub(crate) fn dispatch_loop(self: &Arc<Scheduler>) {
        let mut executors: Vec<thread::JoinHandle<()>> = Vec::new();
        loop {
            let batch = {
                let mut st = lock(&self.state);
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
                            let woke = self.cv.wait_timeout(st, wait);
                            woke.unwrap_or_else(PoisonError::into_inner).0
                        }
                        None => self.cv.wait(st).unwrap_or_else(PoisonError::into_inner),
                    };
                }
            };
            executors.retain(|h| !h.is_finished());
            let sched = Arc::clone(self);
            executors.push(thread::spawn(move || sched.execute(batch)));
        }
    }

    /// Runs one dispatched batch to its replies: the run step, then one
    /// reply per member.
    fn execute(&self, batch: Vec<Job>) {
        let groups = share_groups(&batch);
        // UNWIND: `AssertUnwindSafe` holds because a run reads the store
        // pinned at admission and owns all of its per-query state, the
        // cache is written only after the run (in `reply`), and the
        // dynamic store's locks recover from poisoning. A panic leaves
        // nothing half-written that a later query reads.
        let (outcomes, via) = catch_unwind(AssertUnwindSafe(|| self.run(&batch, &groups)))
            .unwrap_or_else(|payload| {
                let failed = Failure::from(Error::Internal(panic_message(&*payload)));
                (vec![Err(failed); groups.len()], Via::Solo)
            });
        let mut jobs: Vec<Option<Job>> = batch.into_iter().map(Some).collect();
        for (group, outcome) in groups.iter().zip(&outcomes) {
            for &i in group {
                let job = jobs[i].take().expect("a job sits in one group");
                let own = match group.len() {
                    1 => Ok(()),
                    _ => job.ctx.check().map_err(Failure::from),
                };
                match own {
                    Ok(()) => self.reply(job, outcome.as_deref(), via),
                    Err(failure) => self.reply(job, Err(&failure), via),
                }
            }
        }
    }

    /// The run step: one outcome per group of `batch`, and whether the
    /// successes came from a fused or fan-out run.
    fn run(&self, batch: &[Job], groups: &[Vec<usize>]) -> (Vec<Result<String, Failure>>, Via) {
        let fresh: Vec<Option<QueryCtx>> = groups
            .iter()
            .map(|g| (g.len() >= 2).then(|| self.session.query()))
            .collect();
        let runs: Vec<(&Job, &QueryCtx)> = groups
            .iter()
            .zip(&fresh)
            .map(|(g, f)| (&batch[g[0]], f.as_ref().unwrap_or(&batch[g[0]].ctx)))
            .collect();
        let shared = batch.len() >= 2;
        if shared && batch[0].batch == BatchKind::MultiSourceSssp {
            let lanes: Vec<(&ParamMap, &QueryCtx)> =
                runs.iter().map(|&(job, ctx)| (&job.params, ctx)).collect();
            // On Err (mixed delta/algo or an unfusable variant) the groups
            // run one by one: correctness first, throughput second.
            if let Ok(slots) = run_sssp_batch(&batch[0].store, &lanes) {
                let outcomes = slots.into_iter().map(|r| r.map_err(Failure::from));
                return (outcomes.collect(), Via::Batch);
            }
        }
        let outcomes = runs.iter().map(|&(job, ctx)| {
            #[cfg(test)]
            if job.algo == PANIC_PROBE {
                panic!("{PANIC_PROBE} reached the run step");
            }
            let result = match &job.mutation {
                Some(updates) => self.run_mutation(ctx, updates),
                None => Registry::standard().run(&job.algo, &job.store, &job.params, ctx),
            };
            result.map_err(Failure::from)
        });
        if shared && batch[0].batch == BatchKind::WholeGraph {
            (outcomes.collect(), Via::Batch)
        } else {
            (outcomes.collect(), Via::Solo)
        }
    }

    /// The writer lane: applies one update batch to the dynamic store
    /// (serializing on its writer lock), which publishes the next epoch, so
    /// the result cache leaves the old epoch's entries behind, and reports
    /// the published epoch.
    fn run_mutation(&self, ctx: &QueryCtx, updates: &[EdgeUpdate]) -> Result<String, Error> {
        ctx.check()?;
        let GraphStore::Dynamic { store, .. } = self.session.graph() else {
            return Err(Error::input(
                "graph backend is not mutable (serve with mutable=true)",
            ));
        };
        let applied = store.apply_batch(updates)?;
        Ok(format!(
            "epoch={} applied={} n={} m={}\n",
            applied.epoch,
            applied.applied(),
            applied.n,
            applied.m
        ))
    }

    /// The one way a job leaves the scheduler: caches a freshly run,
    /// stats-free success, releases the query id, and writes the reply.
    fn reply(&self, job: Job, result: Result<&str, &Failure>, via: Via) {
        if let (Ok(output), Some(key), Some(cache)) = (result, &job.cache_key, self.session.cache())
        {
            if via != Via::Cache {
                cache.put(key.clone(), output.to_string());
            }
        }
        if let Some(id) = &job.id {
            lock(&self.shared.inflight).remove(id);
        }
        let response = match result {
            Ok(output) => ok_response(job.id.as_deref(), output, via),
            Err(failure) => error_response(job.id.as_deref(), failure.code, &failure.message),
        };
        respond(&job.writer, response);
    }
}

/// Splits a batch into the groups that share one run: jobs without a
/// deadline whose canonical query (algorithm, params, epoch) is identical
/// share one; every other job is a group of one.
fn share_groups(batch: &[Job]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut by_key: HashMap<&CacheKey, usize> = HashMap::new();
    for (i, job) in batch.iter().enumerate() {
        let g = match &job.cache_key {
            Some(key) if !job.has_deadline => *by_key.entry(key).or_insert(groups.len()),
            _ => groups.len(),
        };
        if g == groups.len() {
            groups.push(Vec::new());
        }
        groups[g].push(i);
    }
    groups
}

/// A panic payload as text: the message of `panic!("...")`, or a
/// placeholder for a payload of another type.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    let text = payload.downcast_ref::<&str>().copied();
    let text = text.or_else(|| payload.downcast_ref::<String>().map(String::as_str));
    text.unwrap_or("query panicked").to_string()
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
        // Jobs pinned at different epochs read different graphs and must
        // never share one run; the epoch lives in the cache key. A job
        // without a key (stats on, or no canonical params) has no sound
        // notion of "same query" and never joins.
        let compatible = match (&j.cache_key, &lead.cache_key, lead.batch) {
            (Some(a), Some(b), BatchKind::MultiSourceSssp) => {
                a.algo == b.algo && a.epoch == b.epoch
            }
            (Some(a), Some(b), BatchKind::WholeGraph) => a == b && !j.has_deadline,
            _ => false,
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
fn ok_response(id: Option<&str>, output: &str, via: Via) -> Json {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id".to_string(), Json::Str(id.to_string())));
    }
    fields.push(("ok".to_string(), Json::Bool(true)));
    fields.push(("output".to_string(), Json::Str(output.to_string())));
    match via {
        Via::Solo => {}
        Via::Batch => fields.push(("batched".to_string(), Json::Bool(true))),
        Via::Cache => fields.push(("cached".to_string(), Json::Bool(true))),
    }
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::PANIC_PROBE;
    use crate::json::Json;
    use crate::{lock, query_request, Client, Server};
    use julienne::prelude::{Backend, Engine};
    use julienne_algorithms::registry::{GraphStore, ParamMap, Registry};
    use julienne_graph::generators::{rmat, RmatParams};
    use julienne_graph::transform::assign_weights;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    fn store() -> GraphStore {
        let g = assign_weights(&rmat(7, 8, RmatParams::default(), 5, true), 1, 64, 9);
        GraphStore::from_weighted(g, Backend::Csr)
    }

    fn code(reply: &Json) -> Option<&str> {
        reply.get("error")?.get("code")?.as_str()
    }

    #[test]
    fn a_panicking_query_answers_internal_and_the_server_carries_on() {
        let server = Server::bind("127.0.0.1:0", &Engine::default(), store()).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let stop = server.shutdown_handle();
        let join = thread::spawn(move || server.serve().unwrap());
        let mut client = Client::connect(&addr).unwrap();
        // A query that never answers fails the test instead of hanging it.
        let timeout = Some(Duration::from_secs(30));
        client.stream.set_read_timeout(timeout).unwrap();

        let probe = query_request("p", PANIC_PROBE, &[], None, false);
        let reply = client.roundtrip(&probe).unwrap();
        assert_eq!(code(&reply), Some("internal"), "{}", reply.to_json());
        assert!(
            lock(&stop.shared.inflight).is_empty(),
            "the probe's id leaked"
        );

        // The id is free again: a query reusing it runs normally.
        let reuse = query_request("p", "kcore", &[("top", "3")], None, false);
        let reply = client.roundtrip(&reuse).unwrap();
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));

        // An empty set-cover instance is the caller's mistake, not a crash.
        let empty = query_request("e", "setcover", &[("sets", "0")], None, false);
        let reply = client.roundtrip(&empty).unwrap();
        assert_eq!(code(&reply), Some("usage"), "{}", reply.to_json());

        // The session still answers exactly as a fresh engine does.
        let fresh = Engine::default().session(Arc::new(store()));
        let mix: [(&str, &[(&str, &str)]); 3] = [
            ("kcore", &[("top", "3")]),
            ("sssp", &[("algo", "wbfs"), ("src", "2")]),
            (
                "setcover",
                &[
                    ("sets", "48"),
                    ("elements", "1024"),
                    ("mult", "2"),
                    ("seed", "3"),
                ],
            ),
        ];
        for (algo, params) in mix {
            let pairs = params.iter().map(|&(k, v)| (k.to_string(), v.to_string()));
            let expect = Registry::standard()
                .run(
                    algo,
                    fresh.graph(),
                    &ParamMap::from_pairs(pairs),
                    &fresh.query(),
                )
                .unwrap();
            let reply = client
                .roundtrip(&query_request(algo, algo, params, None, false))
                .unwrap();
            assert_eq!(
                reply.get("output").and_then(Json::as_str),
                Some(expect.as_str()),
                "{algo}: {}",
                reply.to_json()
            );
        }
        stop.stop();
        join.join().unwrap();
    }
}
