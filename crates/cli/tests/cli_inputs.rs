//! End-to-end input handling against the real `julienne` binary: what a
//! file's header claims is checked before it is believed, and what a
//! `.bin` or `.jgr` header states is not asked for again on the command
//! line.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn julienne(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_julienne"))
        .args(args)
        .output()
        .expect("failed to spawn julienne binary")
}

fn ok_stdout(args: &[&str]) -> String {
    let out = julienne(args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{args:?}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("julienne-inputs-{}-{name}", std::process::id()))
}

#[test]
fn adjacency_header_counts_beyond_the_file_exit_1_not_101() {
    // 2^60 would abort the allocation, 2^64 - 1 overflows `n + 1`; in the
    // vertex and in the edge position alike.
    for (name, body) in [
        ("huge-n.adj", "AdjacencyGraph\n1152921504606846976\n0\n"),
        ("max-n.adj", "AdjacencyGraph\n18446744073709551615\n0\n"),
        ("huge-m.adj", "AdjacencyGraph\n0\n1152921504606846976\n"),
        ("max-m.adj", "AdjacencyGraph\n0\n18446744073709551615\n"),
    ] {
        let p = tmp(name);
        std::fs::write(&p, body).unwrap();
        let out = julienne(&["stats", &format!("in={}", p.display())]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {err}");
        assert!(
            err.contains("error:") && err.contains(name),
            "{name}: {err}"
        );
        assert!(!err.contains("panicked"), "{name}: {err}");
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn text_header_counts_and_ids_out_of_range_exit_1_not_101() {
    // A vertex count beyond the 32-bit id space, a DIMACS arc to a vertex
    // the header does not have (it loaded, then panicked in BFS), and
    // header counts the file does not bear out: fewer arcs, or fewer
    // adjacency lines, than a header whose n would otherwise be allocated
    // (the process aborted).
    for (name, body, weighted) in [
        ("huge-n.gr", "p sp 1152921504606846976 0\n", "true"),
        ("oob.gr", "p sp 3 1\na 1 9 5\n", "true"),
        ("huge-n.graph", "1152921504606846976 0\n", "false"),
        ("few-arcs.gr", "p sp 4000000000 5\na 1 2 5\n", "true"),
        ("few-lines.graph", "4000000000 1\n2\n1\n", "false"),
    ] {
        let p = tmp(name);
        std::fs::write(&p, body).unwrap();
        let out = julienne(&[
            "stats",
            &format!("in={}", p.display()),
            &format!("weighted={weighted}"),
        ]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {err}");
        assert!(
            err.contains("error:") && err.contains(name),
            "{name}: {err}"
        );
        assert!(!err.contains("panicked"), "{name}: {err}");
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn a_reader_that_hangs_up_early_is_not_a_panic() {
    // All 8192 coreness lines (~160 KiB) cannot fit the 64 KiB pipe
    // buffer, so the write is still in flight when the pipe closes.
    let g = tmp("pipe.bin");
    ok_stdout(&[
        "gen",
        "kind=rmat",
        "scale=13",
        &format!("out={}", g.display()),
    ]);
    let mut child = Command::new(env!("CARGO_BIN_EXE_julienne"))
        .args(["kcore", &format!("in={}", g.display()), "top=1000000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to spawn julienne binary");
    let mut head = [0u8; 10];
    child.stdout.take().unwrap().read_exact(&mut head).unwrap();
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_file(g).ok();
}

#[test]
fn unweighted_algorithms_ignore_a_containers_weights() {
    // Same seed, same topology: once bare, once weighted inside a `.jgr`.
    let (bare, wbin, wjgr) = (tmp("u.bin"), tmp("w.bin"), tmp("w.jgr"));
    let arg = |k: &str, p: &PathBuf| format!("{k}={}", p.display());
    ok_stdout(&["gen", "kind=rmat", "scale=9", &arg("out", &bare)]);
    ok_stdout(&[
        "gen",
        "kind=rmat",
        "scale=9",
        "weights=log",
        &arg("out", &wbin),
    ]);
    ok_stdout(&[
        "convert",
        &arg("in", &wbin),
        &arg("out", &wjgr),
        "weighted=true",
        "compressed_payload=true",
    ]);
    for algo in ["kcore", "components"] {
        let want = ok_stdout(&[algo, &arg("in", &bare)]);
        for backend in ["csr", "compressed", "mapped"] {
            let got = ok_stdout(&[algo, &arg("in", &wjgr), &format!("backend={backend}")]);
            assert_eq!(want, got, "{algo} backend={backend}");
        }
    }
    for p in [bare, wbin, wjgr] {
        std::fs::remove_file(p).ok();
    }
}

/// Starts `julienne serve` with `args`, returns its listening line and
/// address, and leaves the server to the caller to shut down.
fn serve(args: &[&str]) -> (std::process::Child, String, String) {
    let mut server = Command::new(env!("CARGO_BIN_EXE_julienne"))
        .arg("serve")
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .expect("failed to spawn julienne serve");
    let mut line = String::new();
    BufReader::new(server.stdout.as_mut().unwrap())
        .read_line(&mut line)
        .unwrap();
    let addr = line
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("no listening line: {line:?}"))
        .to_string();
    (server, line, addr)
}

#[test]
fn a_binary_file_opens_as_what_its_header_says() {
    let (wbin, wjgr, ubin) = (tmp("h-w.bin"), tmp("h-w.jgr"), tmp("h-u.bin"));
    let (header_el, explicit_el) = (tmp("h-header.el"), tmp("h-explicit.el"));
    let arg = |k: &str, p: &PathBuf| format!("{k}={}", p.display());
    let gen = |extra: &[&str], out: &PathBuf| {
        let mut args = vec!["gen", "kind=rmat", "scale=8"];
        args.extend_from_slice(extra);
        ok_stdout(&[&args[..], &[arg("out", out).as_str()]].concat());
    };
    gen(&["weights=log"], &wbin);
    gen(&[], &ubin);
    let (win, jin) = (arg("in", &wbin), arg("in", &wjgr));
    ok_stdout(&["convert", &win, &arg("out", &wjgr), "weighted=true"]);
    // An unweighted algorithm runs on a weighted `.bin`, as on its `.jgr`.
    assert_eq!(ok_stdout(&["kcore", &win]), ok_stdout(&["kcore", &jin]));
    // `stats` and `convert` read a weighted `.jgr` without `weighted=true`.
    let stats = ok_stdout(&["stats", &jin]);
    assert_eq!(stats, ok_stdout(&["stats", &jin, "weighted=true"]));
    let report = ok_stdout(&["convert", &jin, &arg("out", &header_el)]);
    assert!(report.contains("(weighted, "), "{report}");
    ok_stdout(&["convert", &jin, &arg("out", &explicit_el), "weighted=true"]);
    assert_eq!(
        std::fs::read(&header_el).unwrap(),
        std::fs::read(&explicit_el).unwrap()
    );
    // `serve` opens an unweighted `.bin` unweighted.
    let (mut server, line, addr) = serve(&[&arg("in", &ubin)]);
    assert!(line.contains("weighted=false backend=csr"), "{line:?}");
    let served = ok_stdout(&["query", &format!("addr={addr}"), "algo=kcore"]);
    assert_eq!(served, ok_stdout(&["kcore", &arg("in", &ubin)]));
    ok_stdout(&["query", &format!("addr={addr}"), "shutdown=true"]);
    assert!(server.wait().unwrap().success());
    for p in [wbin, wjgr, ubin, header_el, explicit_el] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn serve_reads_weightedness_from_a_container_header() {
    let (bin, jgr) = (tmp("s.bin"), tmp("s.jgr"));
    let arg = |k: &str, p: &PathBuf| format!("{k}={}", p.display());
    ok_stdout(&["gen", "kind=rmat", "scale=8", &arg("out", &bin)]);
    ok_stdout(&["convert", &arg("in", &bin), &arg("out", &jgr)]);
    let (mut server, line, addr) = serve(&[&arg("in", &jgr), "backend=mapped"]);
    assert!(line.contains("weighted=false backend=mapped"), "{line:?}");
    let served = ok_stdout(&["query", &format!("addr={addr}"), "algo=kcore"]);
    assert_eq!(served, ok_stdout(&["kcore", &arg("in", &bin)]));
    ok_stdout(&["query", &format!("addr={addr}"), "shutdown=true"]);
    assert!(server.wait().unwrap().success());
    // An explicit `weighted=` still wins, so contradicting the header fails.
    let out = julienne(&["serve", &arg("in", &jgr), "weighted=true"]);
    assert_eq!(out.status.code(), Some(1));
    for p in [bin, jgr] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn a_directed_bin_flagged_symmetric_is_refused_not_peeled() {
    // A directed file whose symmetric byte (28) was set: k-core used to run
    // on it; the read now finds a list its neighbour does not return.
    let p = tmp("flagged.bin");
    let out = format!("out={}", p.display());
    ok_stdout(&[
        "gen",
        "kind=er",
        "scale=6",
        "edge_factor=2",
        "symmetric=false",
        &out,
    ]);
    let mut bytes = std::fs::read(&p).unwrap();
    assert_eq!(bytes[28], 0);
    bytes[28] = 1;
    std::fs::write(&p, &bytes).unwrap();
    let run = julienne(&["kcore", &format!("in={}", p.display())]);
    let err = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{err}");
    assert!(
        err.contains("error:") && err.contains("flagged symmetric"),
        "{err}"
    );
    std::fs::remove_file(p).ok();
}
