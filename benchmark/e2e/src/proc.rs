//! The two public surfaces the driver talks to, and nothing else: the
//! `julienne` CLI as a child process, and the line-JSON wire protocol over
//! TCP. Also the `/proc` readers that turn a child into CPU seconds and
//! peak memory.

use crate::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Worker threads the program under test always runs with (the host the
/// benchmark was sized on has two cores).
pub const THREADS: u32 = 2;

/// A reply that takes longer than this counts as a failed op instead of
/// hanging the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One finished CLI invocation.
#[derive(Debug)]
pub struct CliRun {
    pub ok: bool,
    pub stdout: String,
    pub stderr: String,
    /// Spawn to exit, as the caller of the CLI sees it.
    pub wall_s: f64,
    /// User + system CPU of the child, from its own `rusage`.
    pub cpu_s: f64,
    pub max_rss_kb: u64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Kills and reaps a child unless it was already reaped; makes every exit
/// path (including a panic in the caller) leave no process behind.
struct Reap(Option<Child>);

impl Drop for Reap {
    fn drop(&mut self) {
        if let Some(child) = &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Runs `program args…` to completion with `threads=2` appended, capturing
/// output, wall time, and the child's own CPU time and peak RSS.
pub fn cli(program: &Path, args: &[String]) -> Result<CliRun, String> {
    let started = Instant::now();
    let child = Command::new(program)
        .args(args)
        .arg(format!("threads={THREADS}"))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", program.display()))?;
    let pid = child.id() as i32;
    let mut guard = Reap(Some(child));
    let child = guard.0.as_mut().expect("just stored");
    let mut out_pipe = child.stdout.take().expect("stdout was piped");
    let mut err_pipe = child.stderr.take().expect("stderr was piped");
    // stderr is drained on a helper thread so a chatty failure cannot fill
    // its pipe and deadlock against the stdout read.
    let err_reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = err_pipe.read_to_string(&mut s);
        s
    });
    let mut stdout = String::new();
    out_pipe
        .read_to_string(&mut stdout)
        .map_err(|e| format!("read child stdout: {e}"))?;
    let stderr = err_reader.join().unwrap_or_default();

    let mut status = 0i32;
    let mut usage = RUsage::default();
    // SAFETY: `status` and `usage` are live, writable and correctly laid
    // out for the call; `pid` is our own un-reaped child, so no other
    // process can be waited on by mistake.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall_s = started.elapsed().as_secs_f64();
    if reaped != pid {
        return Err(format!("wait4({pid}) returned {reaped}"));
    }
    // The child is reaped: the guard must not kill a recycled pid.
    guard.0 = None;
    let exited_zero = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(CliRun {
        ok: exited_zero,
        stdout,
        stderr,
        wall_s,
        cpu_s: (usage.utime_sec + usage.stime_sec) as f64
            + (usage.utime_usec + usage.stime_usec) as f64 * 1e-6,
        max_rss_kb: usage.maxrss_kb.max(0) as u64,
    })
}

/// [`cli`] that turns a non-zero exit into an error carrying stderr.
pub fn cli_ok(program: &Path, args: &[String]) -> Result<CliRun, String> {
    let run = cli(program, args)?;
    if run.ok {
        Ok(run)
    } else {
        let first = run.stderr.lines().next().unwrap_or("(no stderr)");
        Err(format!("`julienne {}` failed: {first}", args.join(" ")))
    }
}

/// Builds the `key=value` argument list the CLI takes.
pub fn kv(pairs: &[(&str, &str)]) -> Vec<String> {
    pairs.iter().map(|(k, v)| format!("{k}={v}")).collect()
}

/// A running `julienne serve` child. Dropping it kills the process.
pub struct Server {
    child: Reap,
    /// Held open until the server exits: it prints a last line on the way
    /// out, and a closed pipe would turn that into a panic and a non-zero
    /// exit status.
    _stdout: BufReader<std::process::ChildStdout>,
    pub addr: String,
    pub pid: u32,
    stderr_path: PathBuf,
}

impl Server {
    /// Starts `julienne serve args… threads=2`, waits for the
    /// `listening on <addr>` line and parses the ephemeral port from it.
    /// The server's stderr goes to `stderr_path`.
    pub fn start(program: &Path, args: &[String], stderr_path: &Path) -> Result<Server, String> {
        let stderr_file = std::fs::File::create(stderr_path)
            .map_err(|e| format!("create {}: {e}", stderr_path.display()))?;
        let child = Command::new(program)
            .arg("serve")
            .args(args)
            .arg(format!("threads={THREADS}"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr_file)
            .spawn()
            .map_err(|e| format!("spawn {} serve: {e}", program.display()))?;
        let pid = child.id();
        let mut child = Reap(Some(child));
        let stdout = child
            .0
            .as_mut()
            .and_then(|c| c.stdout.take())
            .expect("stdout was piped");
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("read server stdout: {e}"))?;
        let addr = line
            .strip_prefix("listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| {
                let err = std::fs::read_to_string(stderr_path).unwrap_or_default();
                format!(
                    "server did not announce an address (stdout {line:?}, stderr {:?})",
                    err.lines().next().unwrap_or("")
                )
            })?
            .to_string();
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
            pid,
            stderr_path: stderr_path.to_path_buf(),
        })
    }

    /// User + system CPU seconds the server has used so far
    /// (`/proc/<pid>/stat` fields 14 and 15, in clock ticks of 10 ms).
    pub fn cpu_s(&self) -> f64 {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid)).unwrap_or_default();
        // The command name (field 2) may contain spaces; fields are counted
        // from the closing parenthesis.
        let after = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
        let mut fields = after.split_whitespace().skip(11);
        let ticks: u64 = [fields.next(), fields.next()]
            .into_iter()
            .map(|f| f.and_then(|t| t.parse::<u64>().ok()).unwrap_or(0))
            .sum();
        ticks as f64 / 100.0
    }

    /// Peak resident set (`VmHWM`) in KiB.
    pub fn vm_hwm_kb(&self) -> u64 {
        self.status_kb("VmHWM:")
    }

    /// Current resident set (`VmRSS`) in KiB.
    pub fn vm_rss_kb(&self) -> u64 {
        self.status_kb("VmRSS:")
    }

    fn status_kb(&self, key: &str) -> u64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.pid))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix(key))
                    .and_then(|v| v.split_whitespace().next()?.parse().ok())
            })
            .unwrap_or(0)
    }

    /// What the server wrote to stderr so far.
    pub fn stderr(&self) -> String {
        std::fs::read_to_string(&self.stderr_path).unwrap_or_default()
    }

    /// Asks the server to stop over the wire and waits for it to exit;
    /// falls back to a kill if it does not answer.
    pub fn shutdown(mut self) -> Result<(), String> {
        let acked = Conn::connect(&self.addr)
            .and_then(|mut c| c.roundtrip(r#"{"shutdown":true}"#))
            .map(|r| r.get("shutdown").and_then(Json::as_bool) == Some(true));
        match (&acked, self.child.0.as_mut()) {
            (Ok(true), Some(child)) => {
                let status = child.wait().map_err(|e| format!("wait server: {e}"))?;
                self.child.0 = None;
                if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status}"))
                }
            }
            _ => Err(format!("server did not acknowledge shutdown: {acked:?}")),
        }
    }
}

/// One client connection: `TCP_NODELAY`, one `write` per request, so the
/// wire time measured is the server's.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
            .map_err(|e| format!("configure socket: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone socket: {e}"))?,
        );
        Ok(Conn { stream, reader })
    }

    /// Splits into a write half and a read half for pipelined use.
    pub fn split(self) -> (TcpStream, BufReader<TcpStream>) {
        (self.stream, self.reader)
    }

    pub fn send(&mut self, request: &str) -> Result<(), String> {
        send_line(&mut self.stream, request)
    }

    pub fn recv(&mut self) -> Result<Json, String> {
        recv_line(&mut self.reader)
    }

    pub fn roundtrip(&mut self, request: &str) -> Result<Json, String> {
        self.send(request)?;
        self.recv()
    }
}

/// Writes `request` plus its newline with a single `write` call.
pub fn send_line(stream: &mut TcpStream, request: &str) -> Result<(), String> {
    let mut line = Vec::with_capacity(request.len() + 1);
    line.extend_from_slice(request.as_bytes());
    line.push(b'\n');
    stream.write_all(&line).map_err(|e| format!("send: {e}"))
}

/// Reads one response line and parses it.
pub fn recv_line(reader: &mut BufReader<TcpStream>) -> Result<Json, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("server closed the connection".to_string()),
        Ok(_) => Json::parse(line.trim_end()).map_err(|e| format!("bad response: {e}")),
        Err(e) => Err(format!("recv: {e}")),
    }
}

/// A wire query request line. `params` values are sent as strings, the
/// form the CLI's own `query` subcommand uses.
pub fn query_line(id: &str, algo: &str, params: &[(&str, String)], stats: bool) -> String {
    let mut fields = vec![
        ("id".to_string(), Json::str(id)),
        ("algo".to_string(), Json::str(algo)),
    ];
    if !params.is_empty() {
        fields.push((
            "params".to_string(),
            Json::Obj(
                params
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::str(v.as_str())))
                    .collect(),
            ),
        ));
    }
    if stats {
        fields.push(("stats".to_string(), Json::Bool(true)));
    }
    Json::Obj(fields).render()
}

/// 64-bit FNV-1a over a file's bytes, taken eight at a time so hashing a
/// 100 MB input costs tens of milliseconds. Identifies an input; a
/// generator change shows as a changed hash, not as a changed speed.
pub fn file_hash(path: &Path) -> Result<(u64, u64), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = (h ^ u64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .wrapping_mul(0x0100_0000_01b3);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    Ok((h, bytes.len() as u64))
}

/// Host facts recorded with every run.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_reports_output_exit_and_usage() {
        let run = cli(
            Path::new("/bin/sh"),
            &["-c".into(), "echo hi; exit 3".into()],
        )
        .unwrap();
        // `threads=2` lands in $0 of `sh -c`, which ignores it.
        assert_eq!(run.stdout, "hi\n");
        assert!(!run.ok);
        assert!(run.wall_s > 0.0);
        assert!(run.max_rss_kb > 0);
        assert!(cli(Path::new("/nonexistent/program"), &[]).is_err());
    }

    #[test]
    fn query_line_is_one_json_object() {
        let line = query_line("q7", "sssp", &[("src", "5".to_string())], true);
        assert_eq!(
            line,
            r#"{"id":"q7","algo":"sssp","params":{"src":"5"},"stats":true}"#
        );
        assert!(!line.contains('\n'));
        assert_eq!(
            query_line("a", "kcore", &[], false),
            r#"{"id":"a","algo":"kcore"}"#
        );
    }
}
