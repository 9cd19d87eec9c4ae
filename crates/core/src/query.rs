//! The query lifecycle: sessions, per-query contexts, deadlines, and
//! cooperative cancellation.
//!
//! Julienne (SPAA 2017) is batch-shaped: load a graph, run one algorithm,
//! exit. A serving system instead loads a graph **once** and answers many
//! concurrent queries over it. This module adds the three pieces that
//! lifecycle needs:
//!
//! * [`Session`] — one immutable shared graph (`Arc<G>`, either backend)
//!   plus a template [`Engine`]. [`Session::query`] mints a [`QueryCtx`]
//!   per request, each with its **own telemetry scope**, so concurrent
//!   queries never interleave counters or round records
//!   (`Engine::snapshot` used to be engine-global).
//! * [`QueryCtx`] — everything one query carries through the round loops:
//!   the engine configuration, an optional deadline, and a [`CancelToken`].
//! * [`CancelToken`] — a cheaply-clonable cooperative cancellation flag.
//!   The holder (a server connection, a test) keeps one clone; the query
//!   polls its twin via [`QueryCtx::check`].
//!
//! # The round-boundary contract
//!
//! Algorithms poll [`QueryCtx::check`] **at round boundaries** — once per
//! `next_bucket` / frontier iteration, before any work for that round.
//! Within a round the query runs to completion (rounds are short: one
//! bucket extraction plus one edge map). On cancellation or an expired
//! deadline, `check` returns [`Error::Cancelled`] /
//! [`Error::DeadlineExceeded`], the algorithm propagates the error with
//! `?`, and its buckets, frontiers, and scratch arrays are dropped on the
//! way out. **No partial output escapes** — the caller gets an `Err`, never
//! a half-filled result — and the session stays reusable because queries
//! own all their mutable state.
//!
//! ```
//! use julienne::prelude::*;
//! use std::sync::Arc;
//!
//! let g = Arc::new(julienne_graph::builder::from_pairs(3, &[(0, 1), (1, 2)]));
//! let session = Engine::builder().build().session(g);
//! let ctx = session.query();
//! ctx.check().unwrap(); // not cancelled, no deadline: queries proceed
//!
//! let token = CancelToken::new();
//! let cancelled = session.query().with_cancel_token(token.clone());
//! token.cancel();
//! assert!(cancelled.check().is_err()); // this query is dead ...
//! assert!(session.query().check().is_ok()); // ... the session is not
//! ```

use crate::cache::ResultCache;
use crate::engine::Engine;
use julienne_primitives::error::Error;
use julienne_primitives::telemetry::TelemetrySnapshot;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation flag shared between a query and whoever may
/// cancel it. Clones share the same flag.
///
/// Cancellation is *cooperative*: flipping the flag does nothing by itself;
/// the running query observes it at its next round boundary via
/// [`QueryCtx::check`] and unwinds with [`Error::Cancelled`].
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

#[derive(Debug)]
struct TokenInner {
    cancelled: AtomicBool,
    /// Deterministic trip wire for tests: when >= 0, each poll decrements
    /// it and the token cancels itself as the count crosses zero. `-1`
    /// means "no budget" (the normal case).
    polls_left: AtomicI64,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                polls_left: AtomicI64::new(-1),
            }),
        }
    }

    /// A token that trips itself on the `n`-th poll (0 = already tripped at
    /// the first poll). Wall-clock-free cancellation for deterministic
    /// lifecycle tests: "cancel exactly at round k" reproduces bit-for-bit
    /// under any scheduler, chaos seeds included.
    pub fn cancel_after_polls(n: u64) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                polls_left: AtomicI64::new(n.min(i64::MAX as u64) as i64),
            }),
        }
    }

    /// Requests cancellation. Idempotent; takes effect at the query's next
    /// round boundary.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested. Does not consume poll
    /// budget.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// One poll from the round loop: burns poll budget (if armed) and
    /// reports whether the query should stop.
    fn poll(&self) -> bool {
        if self.inner.polls_left.load(Ordering::Relaxed) >= 0
            && self.inner.polls_left.fetch_sub(1, Ordering::AcqRel) <= 0
        {
            self.cancel();
        }
        self.is_cancelled()
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

/// Everything one query carries through the round loops: engine
/// configuration (bucket window, telemetry scope), an optional deadline,
/// and a cancellation token.
///
/// Construct via [`Session::query`] for served traffic, or
/// [`QueryCtx::from_engine`] / [`QueryCtx::default`] to run an algorithm
/// directly.
#[derive(Clone)]
pub struct QueryCtx {
    engine: Engine,
    deadline: Option<Instant>,
    cancel: CancelToken,
    emit_stats: bool,
}

impl Default for QueryCtx {
    fn default() -> Self {
        QueryCtx::from_engine(&Engine::default())
    }
}

impl QueryCtx {
    /// A context sharing `engine`'s configuration **and telemetry sink** —
    /// the single-query behaviour the pre-session API had. Served queries
    /// should come from [`Session::query`] instead, which scopes telemetry
    /// per query.
    pub fn from_engine(engine: &Engine) -> Self {
        QueryCtx {
            engine: engine.clone(),
            deadline: None,
            cancel: CancelToken::new(),
            emit_stats: false,
        }
    }

    /// Sets a deadline `timeout` from now. [`check`](Self::check) fails
    /// with [`Error::DeadlineExceeded`] at the first round boundary past
    /// it.
    pub fn with_deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Instant::now().checked_add(timeout);
        self
    }

    /// Attaches a caller-held cancellation token (e.g. one registered in a
    /// server's in-flight table before the query thread starts).
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Requests a per-round stats trace in the query's report. Ensures the
    /// telemetry scope is live (a fresh one is minted if this context was
    /// built over a telemetry-less engine).
    pub fn with_stats(mut self, emit: bool) -> Self {
        self.emit_stats = emit;
        if emit && !self.engine.telemetry().is_enabled() {
            self.engine = self.engine.with_telemetry_scope(true);
        }
        self
    }

    /// Whether the query's report should embed the stats trace.
    pub fn emit_stats(&self) -> bool {
        self.emit_stats
    }

    /// The engine configuration this query runs under.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The round-boundary poll: `Err(Cancelled)` if the token tripped,
    /// `Err(DeadlineExceeded)` if the deadline passed, `Ok(())` otherwise.
    ///
    /// Algorithms call this once per round, *before* the round's work, and
    /// propagate the error with `?` so all per-query state (buckets,
    /// frontiers) drops on unwind. Cancellation wins over the deadline when
    /// both apply in the same poll.
    pub fn check(&self) -> Result<(), Error> {
        if self.cancel.poll() {
            return Err(Error::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(Error::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Snapshot of this query's telemetry scope (counters + round records).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.engine.snapshot()
    }
}

/// One loaded graph shared across many concurrent queries.
///
/// The graph lives in an `Arc` and is strictly immutable; every query
/// reads it through `&G`, so any number can run at once on the shared
/// worker pool. The session's engine is a *template*: [`Session::query`]
/// clones it with a fresh telemetry scope per query.
pub struct Session<G> {
    engine: Engine,
    graph: Arc<G>,
    /// Optional shared result cache (see [`crate::cache`]); attached via
    /// [`with_cache`](Session::with_cache).
    cache: Option<Arc<ResultCache>>,
}

impl Engine {
    /// Opens a [`Session`] serving queries over one shared immutable graph.
    /// This engine becomes the per-query template (bucket window); its
    /// telemetry *enablement* carries over, but each query records into
    /// its own scope.
    pub fn session<G>(&self, graph: Arc<G>) -> Session<G> {
        Session {
            engine: self.clone(),
            graph,
            cache: None,
        }
    }
}

impl<G> Session<G> {
    /// The shared graph.
    pub fn graph(&self) -> &G {
        &self.graph
    }

    /// The template engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Attaches a result cache with a `capacity_bytes` budget (0 detaches).
    /// Clones of this session share the cache.
    pub fn with_cache(mut self, capacity_bytes: usize) -> Self {
        self.cache = if capacity_bytes == 0 {
            None
        } else {
            Some(Arc::new(ResultCache::new(capacity_bytes)))
        };
        self
    }

    /// The attached result cache, if any.
    pub fn cache(&self) -> Option<&Arc<ResultCache>> {
        self.cache.as_ref()
    }

    /// Mints the context for one query: template configuration, no
    /// deadline, a fresh cancellation token, and — when the template has
    /// telemetry on — a **fresh telemetry scope**, so concurrent queries
    /// never share counters or interleave round records.
    pub fn query(&self) -> QueryCtx {
        let scoped = self
            .engine
            .with_telemetry_scope(self.engine.telemetry().is_enabled());
        QueryCtx {
            engine: scoped,
            deadline: None,
            cancel: CancelToken::new(),
            emit_stats: false,
        }
    }
}

impl<G> Clone for Session<G> {
    fn clone(&self) -> Self {
        Session {
            engine: self.engine.clone(),
            graph: Arc::clone(&self.graph),
            cache: self.cache.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ctx_passes_checks() {
        let ctx = QueryCtx::default();
        for _ in 0..100 {
            ctx.check().unwrap();
        }
    }

    #[test]
    fn cancel_is_observed_and_sticky() {
        let token = CancelToken::new();
        let ctx = QueryCtx::default().with_cancel_token(token.clone());
        ctx.check().unwrap();
        token.cancel();
        assert!(matches!(ctx.check(), Err(Error::Cancelled)));
        assert!(matches!(ctx.check(), Err(Error::Cancelled)));
        assert!(token.is_cancelled());
    }

    #[test]
    fn poll_budget_trips_exactly_once_armed() {
        let ctx = QueryCtx::default().with_cancel_token(CancelToken::cancel_after_polls(3));
        ctx.check().unwrap();
        ctx.check().unwrap();
        ctx.check().unwrap();
        assert!(matches!(ctx.check(), Err(Error::Cancelled)));
    }

    #[test]
    fn zero_budget_trips_immediately() {
        let ctx = QueryCtx::default().with_cancel_token(CancelToken::cancel_after_polls(0));
        assert!(matches!(ctx.check(), Err(Error::Cancelled)));
    }

    #[test]
    fn expired_deadline_fails_checks() {
        let ctx = QueryCtx::default().with_deadline(Duration::ZERO);
        assert!(matches!(ctx.check(), Err(Error::DeadlineExceeded)));
        let ctx = QueryCtx::default().with_deadline(Duration::from_secs(3600));
        ctx.check().unwrap();
    }

    #[test]
    fn cancellation_wins_over_deadline() {
        let token = CancelToken::new();
        let ctx = QueryCtx::default()
            .with_deadline(Duration::ZERO)
            .with_cancel_token(token.clone());
        token.cancel();
        assert!(matches!(ctx.check(), Err(Error::Cancelled)));
    }

    #[test]
    fn session_queries_are_independent() {
        let engine = Engine::builder().open_buckets(16).build();
        let session = engine.session(Arc::new(42u32));
        assert_eq!(*session.graph(), 42);
        let token = CancelToken::new();
        let a = session.query().with_cancel_token(token.clone());
        let b = session.query();
        assert_eq!(a.engine().open_buckets(), 16);
        token.cancel();
        assert!(a.check().is_err());
        b.check().unwrap(); // b's token is its own
        session.query().check().unwrap(); // session unaffected
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn session_scopes_telemetry_per_query() {
        use julienne_primitives::telemetry::Counter;
        let engine = Engine::builder().telemetry(true).build();
        let session = engine.session(Arc::new(()));
        let a = session.query();
        let b = session.query();
        a.engine().telemetry().incr(Counter::EdgesScanned);
        assert_eq!(a.engine().telemetry().get(Counter::EdgesScanned), 1);
        // b and the template engine saw nothing: scopes are per query.
        assert_eq!(b.engine().telemetry().get(Counter::EdgesScanned), 0);
        assert_eq!(
            session.engine().telemetry().get(Counter::EdgesScanned),
            0,
            "query counters must not leak into the engine-global sink"
        );
    }

    #[test]
    fn session_cache_is_shared_across_clones() {
        use crate::cache::CacheKey;
        let session = Engine::default().session(Arc::new(())).with_cache(1 << 16);
        let clone = session.clone();
        let cache = session.cache().expect("cache attached");
        cache.put(CacheKey::new("kcore", "top=3", 1), "out".into());
        assert_eq!(
            clone
                .cache()
                .unwrap()
                .get(&CacheKey::new("kcore", "top=3", 1))
                .unwrap()
                .as_str(),
            "out",
            "clones share the cache"
        );
        // with_cache(0) detaches.
        assert!(Engine::default()
            .session(Arc::new(()))
            .with_cache(0)
            .cache()
            .is_none());
    }

    #[test]
    fn with_stats_mints_a_live_scope() {
        let ctx = QueryCtx::default().with_stats(true);
        assert!(ctx.emit_stats());
        #[cfg(feature = "telemetry")]
        assert!(ctx.engine().telemetry().is_enabled());
    }
}
