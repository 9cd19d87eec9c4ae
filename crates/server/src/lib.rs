//! `julienne serve`: one loaded graph, many concurrent queries.
//!
//! The server owns a [`Session`] over an immutable [`GraphStore`] (either
//! backend) and answers line-delimited JSON requests on a local TCP
//! socket. Every request line is one JSON object of at most
//! [`MAX_REQUEST_BYTES`] (a longer line is refused with code `parse` and
//! its connection closed); every response is one JSON object on one line.
//! Three request shapes exist:
//!
//! * **Query** — `{"id": "q1", "algo": "kcore", "params": {"top": "5"},
//!   "timeout_ms": 250, "stats": false}`. Runs the algorithm through the
//!   workspace [`Registry`](julienne_algorithms::registry::Registry)
//!   under a fresh [`QueryCtx`](julienne::query::QueryCtx) carrying the
//!   deadline and a cancellation token. Responds
//!   `{"id": "q1", "ok": true, "output": "..."}` or
//!   `{"id": "q1", "ok": false, "error": {"code": "...", "message": "..."}}`
//!   where `code` is the wire class of the workspace error enum
//!   (`usage`, `input`, `io`, `parse`, `cancelled`, `deadline`,
//!   `internal`), or `overloaded` for a refused cancel (below). A query
//!   whose run panics answers `internal` with the panic message; the
//!   server keeps serving.
//! * **Cancel** — `{"cancel": "q1"}`. Trips q1's token; the query returns
//!   at its next round boundary with code `cancelled`. Query ids live in
//!   one server-wide namespace, so a cancel works from any connection —
//!   including a fresh `julienne query cancel=q1` process. Cancelling an
//!   id that is not yet inflight pre-cancels it: a later query reusing the
//!   id starts cancelled (this closes the submit/cancel race for clients
//!   that pipeline both on one connection). Acknowledged with
//!   `{"cancel": "q1", "ok": true}`. At most [`MAX_PRECANCELLED`] tokens
//!   wait cancelled at once; past that, a cancel for an id that is not in
//!   flight is refused with code `overloaded` instead of being stored.
//! * **Shutdown** — `{"shutdown": true}`. Acknowledged, then the whole
//!   server drains: in-flight queries finish (or cancel), connection
//!   threads join, and [`Server::serve`] returns.
//!
//! Queries flow through the [`scheduler`] pipeline: admission on the
//! connection thread (validation, NaN rejection, result-cache lookup),
//! optional coalescing of compatible queries into one fused run, then
//! execution on scheduler worker threads sharing the process-wide rayon
//! pool. A cancelled or expired query unwinds at a round boundary,
//! dropping its buckets, and the session keeps serving. The graph itself
//! is behind an [`Arc`] and never copied per query. With
//! [`Server::bind`]'s default [`SchedulerConfig`] (no batch window, no
//! cache) every query dispatches solo immediately and responses carry no
//! extra fields; [`Server::bind_with`] turns on batching (`"batched":
//! true` on fused responses) and caching (`"cached": true` on hits).

pub mod json;
pub mod scheduler;

use json::Json;
use julienne::prelude::{CancelToken, Engine, Session};
use julienne::Error;
use julienne_algorithms::registry::GraphStore;
use scheduler::Scheduler;
pub use scheduler::{SchedPolicy, SchedulerConfig};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;

/// State every connection shares with the accept loop: the stop flag, a
/// registry of live sockets (so shutdown can unblock readers that are
/// parked in `read` waiting for a client's next request), and the
/// server-wide map of query ids to cancellation tokens.
pub(crate) struct Shared {
    addr: SocketAddr,
    shutdown: AtomicBool,
    next_conn: AtomicU64,
    conns: Mutex<HashMap<u64, TcpStream>>,
    pub(crate) inflight: Mutex<HashMap<String, CancelToken>>,
}

impl Shared {
    /// Flags shutdown, closes every registered connection (their reader
    /// threads wake with EOF and drain), and pokes the accept loop.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for stream in lock(&self.conns).values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // A throwaway connection unblocks the blocking accept.
        let _ = TcpStream::connect(self.addr);
    }
}

/// The query server: a bound listener, the shared graph session, and the
/// admission/batching/caching scheduler every query routes through (see
/// [`scheduler`]).
pub struct Server {
    listener: TcpListener,
    scheduler: Arc<Scheduler>,
    shared: Arc<Shared>,
}

/// Stops a running [`Server`] from another thread (used by in-process
/// tests; wire clients send `{"shutdown": true}` instead).
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Requests shutdown: in-flight queries finish, connections drain, and
    /// [`Server::serve`] returns once everything is joined.
    pub fn stop(&self) {
        self.shared.begin_shutdown();
    }
}

impl Server {
    /// Binds to `addr` (e.g. `127.0.0.1:0` for an OS-assigned port) and
    /// prepares a session sharing `store` under `engine`'s options. Uses
    /// the default [`SchedulerConfig`]: no batch window, no cache, fifo —
    /// i.e. the plain one-job-at-a-time pipeline.
    pub fn bind(addr: &str, engine: &Engine, store: GraphStore) -> std::io::Result<Server> {
        Server::bind_with(addr, engine, store, SchedulerConfig::default())
    }

    /// [`bind`](Server::bind) with explicit serve-pipeline configuration:
    /// batch window, result-cache budget, and dispatch policy.
    pub fn bind_with(
        addr: &str,
        engine: &Engine,
        store: GraphStore,
        config: SchedulerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            addr,
            shutdown: AtomicBool::new(false),
            next_conn: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
        });
        let session: Session<GraphStore> = engine
            .session(Arc::new(store))
            .with_cache(config.cache_bytes);
        Ok(Server {
            listener,
            scheduler: Arc::new(Scheduler::new(session, config, Arc::clone(&shared))),
            shared,
        })
    }

    /// The bound address (print this so clients can connect).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until a shutdown request arrives, then drains: connection
    /// threads are joined, the scheduler finishes every admitted job, and
    /// its dispatcher/executor threads are joined before returning, so a
    /// clean exit means no work is left behind.
    pub fn serve(self) -> std::io::Result<()> {
        let dispatcher = {
            let sched = Arc::clone(&self.scheduler);
            thread::spawn(move || sched.dispatch_loop())
        };
        let mut connections = Vec::new();
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            // Replies are small and latency-bound: never hold one back for
            // the peer's delayed ACK.
            let _ = stream.set_nodelay(true);
            let conn_id = self.shared.next_conn.fetch_add(1, Ordering::Relaxed);
            if let Ok(registered) = stream.try_clone() {
                lock(&self.shared.conns).insert(conn_id, registered);
            }
            let scheduler = Arc::clone(&self.scheduler);
            let shared = Arc::clone(&self.shared);
            connections.retain(|h: &thread::JoinHandle<()>| !h.is_finished());
            connections.push(thread::spawn(move || {
                handle_connection(stream, &scheduler, &shared);
                lock(&shared.conns).remove(&conn_id);
            }));
        }
        for handle in connections {
            let _ = handle.join();
        }
        self.scheduler.begin_drain();
        let _ = dispatcher.join();
        Ok(())
    }
}

/// Longest request line the server reads, newline excluded. A longer line
/// is answered with a `parse` error and its connection is closed, so no
/// client can make a connection buffer more than this.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Most cancelled tokens the server holds at once. A cancel for an id that
/// is not in flight stores a token for the query that may reuse the id;
/// past this many, such a cancel is refused with code `overloaded`, so no
/// client can grow the id map without bound. Cancels of ids in flight are
/// never refused.
pub const MAX_PRECANCELLED: usize = 1024;

fn handle_connection(stream: TcpStream, scheduler: &Arc<Scheduler>, shared: &Arc<Shared>) {
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let writer = Arc::new(Mutex::new(stream));

    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the cap tells an over-long line from one that fits.
        let limit = MAX_REQUEST_BYTES as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        } else if buf.len() > MAX_REQUEST_BYTES {
            let message = format!("request line longer than {MAX_REQUEST_BYTES} bytes");
            respond(&writer, error_response(None, "parse", &message));
            let stream = lock(&writer);
            let _ = stream.shutdown(Shutdown::Both);
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match Json::parse(line) {
            Ok(v) => v,
            Err(msg) => {
                respond(
                    &writer,
                    error_response(None, "parse", &format!("bad request: {msg}")),
                );
                continue;
            }
        };
        if request.get("shutdown").and_then(Json::as_bool) == Some(true) {
            respond(
                &writer,
                Json::Obj(vec![
                    ("ok".into(), Json::Bool(true)),
                    ("shutdown".into(), Json::Bool(true)),
                ]),
            );
            // Wakes the accept loop and every parked reader (the response
            // above is already flushed; queued bytes still reach the client).
            shared.begin_shutdown();
            break;
        }
        if let Some(id) = request.get("cancel").and_then(Json::as_str) {
            let token = {
                let mut map = lock(&shared.inflight);
                let full = || map.values().filter(|t| t.is_cancelled()).count() >= MAX_PRECANCELLED;
                if map.contains_key(id) || !full() {
                    Some(map.entry(id.to_string()).or_default().clone())
                } else {
                    None
                }
            };
            let mut fields = vec![
                ("cancel".into(), Json::Str(id.to_string())),
                ("ok".into(), Json::Bool(token.is_some())),
            ];
            match token {
                Some(token) => token.cancel(),
                None => fields.push((
                    "error".into(),
                    Json::Obj(vec![
                        ("code".into(), Json::Str("overloaded".into())),
                        (
                            "message".into(),
                            Json::Str(format!(
                                "{MAX_PRECANCELLED} cancelled ids already wait for a query"
                            )),
                        ),
                    ]),
                )),
            }
            respond(&writer, Json::Obj(fields));
            continue;
        }
        // Mutations enter the same queue as queries (so a single
        // connection's query → mutate → query sees its own write) but are
        // parsed by the writer lane.
        if request.get("mutate").is_some() {
            scheduler.admit_mutate(&request, &writer);
            continue;
        }
        // Queries go through the scheduler: admission (validation, NaN
        // rejection, cache lookup) happens here on the connection thread;
        // execution happens on the scheduler's worker threads and the
        // response is written whenever the job completes.
        scheduler.admit(&request, &writer);
    }
}

/// Every server lock, recovered if poisoned: each guards a socket, a map
/// or the job queue, none of which a panicking holder leaves half-written,
/// so one failed query never takes the server down with it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn error_for(id: Option<&str>, err: &Error) -> Json {
    error_response(id, err.code(), &err.to_string())
}

pub(crate) fn error_response(id: Option<&str>, code: &str, message: &str) -> Json {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id".into(), Json::Str(id.to_string())));
    }
    fields.push(("ok".into(), Json::Bool(false)));
    fields.push((
        "error".into(),
        Json::Obj(vec![
            ("code".into(), Json::Str(code.to_string())),
            ("message".into(), Json::Str(message.to_string())),
        ]),
    ));
    Json::Obj(fields)
}

/// Writes `line` and its terminating newline as one segment. `writeln!`
/// straight onto a socket issues two `write`s (body, then `"\n"`), and the
/// second waits out the peer's delayed ACK — 40 ms per message after a
/// connection's first.
fn write_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    stream.write_all(&buf)
}

pub(crate) fn respond(writer: &Arc<Mutex<TcpStream>>, response: Json) {
    let mut w = lock(writer);
    let _ = write_line(&mut w, &response.to_json());
}

/// A minimal blocking client for the protocol: one connection, correlated
/// request/response pairs. The CLI `query` subcommand and the tests use
/// this; any language that can speak line-delimited JSON works the same.
pub struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Client {
    /// Connects to a serving address.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { reader, stream })
    }

    /// Sends one request object (no newline) and returns without waiting.
    pub fn send(&mut self, request: &Json) -> std::io::Result<()> {
        self.send_raw(&request.to_json())
    }

    /// Sends one raw protocol line verbatim (tests use this to exercise the
    /// server's parse-error path).
    pub fn send_raw(&mut self, line: &str) -> std::io::Result<()> {
        write_line(&mut self.stream, line)
    }

    /// Reads the next response line. Responses to concurrent queries
    /// arrive in completion order; correlate by `id`.
    pub fn recv(&mut self) -> std::io::Result<Json> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            if line.trim().is_empty() {
                continue;
            }
            return Json::parse(line.trim())
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e));
        }
    }

    /// Sends a request and waits for the next response (single-query use).
    pub fn roundtrip(&mut self, request: &Json) -> std::io::Result<Json> {
        self.send(request)?;
        self.recv()
    }
}

/// Builds a query request object.
pub fn query_request(
    id: &str,
    algo: &str,
    params: &[(&str, &str)],
    timeout_ms: Option<u64>,
    stats: bool,
) -> Json {
    let mut fields = vec![
        ("id".to_string(), Json::Str(id.to_string())),
        ("algo".to_string(), Json::Str(algo.to_string())),
    ];
    if !params.is_empty() {
        fields.push((
            "params".to_string(),
            Json::Obj(
                params
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Str(v.to_string())))
                    .collect(),
            ),
        ));
    }
    if let Some(ms) = timeout_ms {
        fields.push(("timeout_ms".to_string(), Json::Num(ms as f64)));
    }
    if stats {
        fields.push(("stats".to_string(), Json::Bool(true)));
    }
    Json::Obj(fields)
}
