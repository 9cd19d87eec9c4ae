#!/usr/bin/env bash
# Full CI gate: build, test, format, and lint the workspace in both feature
# shapes (default = telemetry on; --no-default-features = telemetry compiled
# out to a zero-sized no-op). Run locally before pushing.
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo "==> $*"
    "$@"
}

# --- default features (telemetry on) ---------------------------------------
run cargo build --release --workspace
run cargo test -q --workspace
run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets -- -D warnings
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
# Superseded entry points are deleted, not deprecated: a shim that survives
# "one release" is surface every later change has to carry.
if grep -rn '#\[deprecated' crates shims; then
    echo "ci.sh: deprecated attribute found; delete the old entry point instead"
    exit 1
fi
# edgeMapSum is emit / count / update with plain loads and stores: the locked
# add per scanned edge (and the append branch behind it) cost k-core a third
# of its wall time (EXPERIMENTS.md, "What a scanned edge cost edgeMapSum").
if grep -nE 'fetch_add|fetch_sub|swap\(|compare_exchange' crates/ligra/src/edge_map_reduce.rs; then
    echo "ci.sh: locked read-modify-write in edge_map_reduce.rs; count in the sequential pass instead"
    exit 1
fi
# Δ-stepping's visit protocol is one distance word per id with the round's
# visited bit inside it, and so is the peel's, with its touched bit:
# no flag bitset, no SeqCst, and every atomic access on the path says within
# three lines above why its ordering holds. Set cover and its PBBS-style
# baseline keep their covered-element bitsets but hold to the rest: each of
# their phases is a call whose join publishes its writes. So do the phases
# of k-core's Ligra-style baseline, and the edge peel's support words, whose
# round marks are plain bitsets written between walks. So do BFS, connected
# components (which keeps its changed-label bitset) and the triangle walk,
# whose support credits need atomicity only.
for f in crates/algorithms/src/delta_stepping.rs crates/ligra/src/edge_map_reduce.rs \
    crates/algorithms/src/degeneracy.rs crates/algorithms/src/setcover.rs \
    crates/algorithms/src/setcover_baselines.rs crates/algorithms/src/kcore.rs \
    crates/algorithms/src/ktruss.rs crates/algorithms/src/bfs.rs \
    crates/algorithms/src/components.rs crates/algorithms/src/triangles.rs \
    crates/algorithms/src/clustering.rs; do
    refused='SeqCst|AtomicBitSet'
    case "$f" in */setcover.rs | */setcover_baselines.rs | */components.rs) refused='SeqCst' ;; esac
    if grep -nE "$refused" "$f"; then
        echo "ci.sh: $f: the visit protocol is Relaxed and bitset-free; see DESIGN §6"
        exit 1
    fi
    if ! awk -v f="$f" '/\/\/ ORDERING:/ { seen = NR }
        /\.load\(|\.store\(|compare_exchange/ && (!seen || NR - seen > 3) {
            printf "%s:%d: atomic access without an // ORDERING: line above\n", f, NR; bad = 1 }
        END { exit bad }' "$f"; then
        exit 1
    fi
done
# The byte-compressed graph is one `Compressed<W>`; a weighted twin of the
# struct, its decoder, its validator or its loader is the copy PR 19 removed.
if grep -rnE 'struct CompressedWGraph|fn decode_wrun|fn validate_wrun|fn read_compressed_weighted' crates; then
    echo "ci.sh: weight is a type parameter of the one compressed graph; do not copy the type"
    exit 1
fi
# Every public function has a caller and every option someone who sets it
# (PR 22): the sweep lists nothing, and the pull-direction data edgeMap, the
# option block and the CLI's own option map do not come back. Nor does a
# second adjacency direction: pull reads a symmetric graph's own out-lists.
# Nor does an edgeMap dedup option (every update is a CAS or writeMin), nor
# a second, writer-side copy of the mutable graph (a batch merges into the
# next snapshot's CSR). Nor does an algorithm that no command, query, paper
# table or benchmark runs (betweenness, MIS, weighted set cover,
# closeness/harmonic, greedy coloring, the approximate densest subgraph and
# the diameter estimator were deleted for that). Nor does a push walk beside
# the one sparse driver (set cover's pack, count and side-effect edgeMaps
# are visits of it, and so is the edge peel's triangle walk over an
# `EdgeIndex`, a `Csr` whose weights are edge ids, with no arc accessor of
# its own). Nor does a second graph epoch beside the store's own.
# Nor does a second CSR type over a mapped `.jgr`: a `Csr` views the file.
# Nor does a second triangle enumeration: the count, the per-edge support
# and clustering share one rank-oriented walk, so no rank helper of its own
# and no per-edge merge of an edge's two full lists.
run tools/uncalled.sh
if grep -rnE 'EdgeMapOptions|dense_threshold_div|fn run_data|fn dense_data_counted|telemetry_sink|enum ArgError|InEdges|with_transpose|fn in_view|for_each_in_|in_csr|in_graph|remove_duplicates|BatchResult|mod betweenness|mod mis|setcover_weighted|fn closeness|fn harmonic|greedy_coloring|densest_subgraph_approx|estimate_diameter|fn edge_map_filter_count|fn edge_map_packed|fn edge_map_filter_pack|fn advance_epoch|struct MappedGraph|OutEdges for MappedGraph|fn arcs_of|fn rank_lt|intersect_sorted\(idx\.arcs' crates; then
    echo "ci.sh: an option nobody sets or an entry point nobody calls is back; see CHANGES.md PR 22"
    exit 1
fi
# The SeqCst lines left for the ordering audit (ROADMAP item 12) only go
# down: 101 once the library-only algorithms above, which held 29, went; 90
# once set cover and Bellman-Ford stated their orderings; 82 once the set
# cover baseline did; 77 once k-core's Ligra-style baseline did; 73 once
# the edge peel did; 67 once BFS and connected components did.
seqcst=$(grep -rn 'SeqCst' crates shims | wc -l)
if [ "$seqcst" -gt 67 ]; then
    echo "ci.sh: $seqcst SeqCst lines under crates/ and shims/, above the 67 ratchet;"
    echo "       give the new atomic the weakest ordering that holds, with an // ORDERING: line"
    exit 1
fi
# The dynamic path and the server outlive a panic (a panicking query answers
# `internal`): their locks guard nothing a panic can leave half-written, so a
# poisoned one is recovered, never unwrapped. That covers the scheduler's
# condvar waits and the result cache too.
if grep -rnE '\.(lock|read|write)\(\)\.unwrap\(\)|\.wait(_timeout)?\(.*\)\.unwrap\(\)' \
    crates/graph/src/snapshot.rs crates/algorithms/src/dynamic.rs crates/server/src \
    crates/core/src/cache.rs; then
    echo "ci.sh: recover a poisoned lock with unwrap_or_else(PoisonError::into_inner)"
    exit 1
fi
# The paper's "under 100 lines each": the code lines (not blank, not
# comment-only) of the four bucketed loops, signature to closing brace, stay
# within the "of which code" column of DESIGN §6's table.
core_loop_code_lines() { # <module> <fn>
    awk -v fn="$2" '$0 ~ "^pub fn " fn "[<(]" { on = 1 }
        on && $0 !~ /^[ \t]*(\/\/.*)?$/ { code++ }
        on && /^}/ { print code; exit }' "crates/algorithms/src/$1.rs"
}
for entry in kcore::coreness delta_stepping::sssp_multi setcover::cover ktruss::ktruss; do
    budget=$(awk -F'|' -v e="\`$entry\`" '$3 ~ e { print $5 + 0 }' DESIGN.md)
    code=$(core_loop_code_lines "${entry%%::*}" "${entry##*::}")
    echo "==> $entry: $code code lines (DESIGN §6 says $budget)"
    if [ -z "$code" ] || [ -z "$budget" ] || [ "$code" -gt "$budget" ]; then
        echo "ci.sh: $entry outgrew DESIGN §6's table; shrink the loop or re-measure the table"
        exit 1
    fi
done
# The four text formats read through one line reader and `Format`'s facts
# live in one table (DESIGN §2): the code lines of graph/src/io.rs, counted
# as above from the top of the file to its first `#[cfg(test)]`, only go
# down. 700 before the line reader; 594 after it.
code_lines() { # <file>...: code lines above each file's first #[cfg(test)]
    for f in "$@"; do
        awk '/^#\[cfg\(test\)\]/ { exit }
            $0 !~ /^[ \t]*(\/\/.*)?$/ { code++ }
            END { print code + 0 }' "$f"
    done | awk '{ sum += $1 } END { print sum + 0 }'
}
io_code=$(code_lines crates/graph/src/io.rs)
echo "==> graph/src/io.rs: $io_code code lines (ratchet 594)"
if [ "$io_code" -gt 594 ]; then
    echo "ci.sh: graph/src/io.rs grew past 594 code lines; read a new text format through LineReader"
    exit 1
fi
# One CSR type, owned or mapped (DESIGN §12): the CSR, the container, the
# mapping and the graph traits, counted the same way, only go down. 1,096
# while a mapped `.jgr` had a CSR type of its own; 935 once it was a `Csr`;
# 931 once a reweighted graph shared its structure.
csr_code=$(code_lines crates/graph/src/csr.rs crates/graph/src/container.rs \
    crates/graph/src/mmap.rs crates/ligra/src/traits.rs)
echo "==> graph csr/container/mmap + ligra traits: $csr_code code lines (ratchet 931)"
if [ "$csr_code" -gt 931 ]; then
    echo "ci.sh: the CSR, container, mapping and traits grew past 931 code lines;"
    echo "       a mapped graph is a Csr over the file's sections, not a type of its own"
    exit 1
fi
# Graphs are built in linear work (DESIGN §2): a count, a prefix sum, a
# scatter, one sort per list and a compaction. No comparison sort of the
# whole edge list comes back to the builder, and no copy of the list made
# to mirror it; the builder and the R-MAT sampler, counted as above, only
# shrink: 168 code lines once the build was a counting sort.
if grep -nE 'par_sort|edges\.sort' crates/graph/src/builder.rs \
    || grep -rn 'fn symmetrize(&mut self)' crates; then
    echo "ci.sh: sort each list, not the whole edge list, and count mirrors instead of copying them"
    exit 1
fi
build_code=$(code_lines crates/graph/src/builder.rs crates/graph/src/generators/rmat.rs)
echo "==> graph builder + rmat: $build_code code lines (ratchet 168)"
if [ "$build_code" -gt 168 ]; then
    echo "ci.sh: graph/src/builder.rs and generators/rmat.rs grew past 168 code lines"
    exit 1
fi
# Triangles are enumerated once (DESIGN §6): the count, the per-edge support
# and clustering, counted as above, only shrink. 164 code lines while the
# count and the support walked triangles twice; 157 once they shared a walk.
tri_code=$(code_lines crates/algorithms/src/triangles.rs crates/algorithms/src/clustering.rs)
echo "==> algorithms triangles + clustering: $tri_code code lines (ratchet 157)"
if [ "$tri_code" -gt 157 ]; then
    echo "ci.sh: triangles.rs and clustering.rs grew past 157 code lines; walk the one enumeration"
    exit 1
fi

# --- serve smoke test -------------------------------------------------------
# End-to-end over a real socket: start `julienne serve`, fire concurrent
# mixed queries at it (k-core, Δ-stepping, wBFS, set cover), exercise the
# deterministic cancel (pre-cancel) and deadline (timeout_ms=0) paths, then
# drain it cleanly with a wire shutdown.
echo "==> serve smoke test"
JULIENNE=target/release/julienne
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
"$JULIENNE" gen kind=rmat scale=10 weights=log out="$SMOKE/g.bin" >/dev/null
"$JULIENNE" serve in="$SMOKE/g.bin" addr=127.0.0.1:0 >"$SMOKE/serve.log" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^listening on \([0-9.:]*\) .*/\1/p' "$SMOKE/serve.log")
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "serve smoke: no listening line"; cat "$SMOKE/serve.log"; exit 1; }
# Concurrent mixed queries against the one loaded graph.
"$JULIENNE" query addr="$ADDR" algo=kcore top=3 >"$SMOKE/q1.out" &
Q1=$!
"$JULIENNE" query addr="$ADDR" algo=sssp src=1 delta=4096 >"$SMOKE/q2.out" &
Q2=$!
"$JULIENNE" query addr="$ADDR" algo=sssp param.algo=wbfs src=2 stats=true >"$SMOKE/q3.out" &
Q3=$!
"$JULIENNE" query addr="$ADDR" algo=setcover sets=64 elements=2048 >"$SMOKE/q4.out" &
Q4=$!
wait "$Q1" "$Q2" "$Q3" "$Q4"
grep -q "k_max=" "$SMOKE/q1.out"
grep -q "reached=" "$SMOKE/q2.out"
grep -q "reached=" "$SMOKE/q3.out"
grep -q "cover" "$SMOKE/q4.out"
# Deterministic cancel: pre-cancel the id, then the query reusing it dies.
"$JULIENNE" query addr="$ADDR" cancel=doomed >"$SMOKE/cancel.ack"
grep -q doomed "$SMOKE/cancel.ack"
if "$JULIENNE" query addr="$ADDR" algo=kcore id=doomed 2>"$SMOKE/cancel.err"; then
    echo "serve smoke: pre-cancelled query unexpectedly succeeded"; exit 1
fi
grep -q cancelled "$SMOKE/cancel.err"
# Deterministic deadline: timeout_ms=0 is already expired.
if "$JULIENNE" query addr="$ADDR" algo=kcore timeout_ms=0 2>"$SMOKE/deadline.err"; then
    echo "serve smoke: expired-deadline query unexpectedly succeeded"; exit 1
fi
grep -q deadline "$SMOKE/deadline.err"
# The session survived all of the above and still answers.
"$JULIENNE" query addr="$ADDR" algo=kcore >"$SMOKE/after.out"
grep -q "k_max=" "$SMOKE/after.out"
# Clean drain: the wire shutdown makes the server process exit 0.
"$JULIENNE" query addr="$ADDR" shutdown=true >"$SMOKE/bye.out"
grep -q shutdown "$SMOKE/bye.out"
wait "$SERVE_PID"
grep -q "server stopped" "$SMOKE/serve.log"
echo "serve smoke test: ok"

# --- wire floor gate -----------------------------------------------------------
# A refused request does no work, so its round trip is what the socket
# alone costs. A reply that leaves as two segments, or a socket without
# TCP_NODELAY, puts the peer's 40 ms delayed ACK under every served query;
# the benchmark's traced serve-mixed run measures it as `wire.floor_ms`.
echo "==> wire floor gate"
benchmark/run.sh --smoke --workload serve-mixed --trace 1 | tail -n 1 >"$SMOKE/floor.json"
python3 - "$SMOKE/floor.json" <<'PY'
import json, sys
metrics = json.load(open(sys.argv[1]))["metrics"]
floor = metrics["wire.floor_ms"]["value"]
failed = metrics["loadgen.failed"]["value"]
assert floor < 5, "wire.floor_ms = %r: replies are waiting out a delayed ACK" % floor
assert failed == 0, "loadgen.failed = %r on serve-mixed" % failed
print("wire floor gate: ok (%.2f ms)" % floor)
PY

# --- batched serve smoke test ------------------------------------------------
# The scheduler pipeline over a raw socket (the CLI client hides the wire
# flags): a homogeneous pipelined burst must coalesce (`"batched": true` on
# every member) with payloads byte-identical to the solo-served answer
# captured above, and a repeat on a fresh connection must answer from the
# result cache (`"cached": true`, same bytes).
echo "==> batched serve smoke test"
"$JULIENNE" serve in="$SMOKE/g.bin" addr=127.0.0.1:0 batch_window_ms=200 \
    cache_bytes=1048576 scheduler=priority >"$SMOKE/bserve.log" &
BSERVE_PID=$!
BADDR=""
for _ in $(seq 1 100); do
    BADDR=$(sed -n 's/^listening on \([0-9.:]*\) .*/\1/p' "$SMOKE/bserve.log")
    [ -n "$BADDR" ] && break
    sleep 0.1
done
[ -n "$BADDR" ] || { echo "batched smoke: no listening line"; cat "$SMOKE/bserve.log"; exit 1; }
python3 - "$BADDR" "$SMOKE/q2.out" <<'PY'
import json, socket, sys

host, port = sys.argv[1].rsplit(":", 1)
expect = open(sys.argv[2], "r").read()  # solo-served sssp src=1 delta=4096


def connect():
    s = socket.create_connection((host, int(port)), timeout=60)
    return s, s.makefile("r")


# Homogeneous burst: four Δ-stepping queries (three distinct sources plus
# one duplicate) pipelined on one connection, all inside the batch window.
srcs = ["1", "2", "3", "1"]
sock, lines = connect()
for i, src in enumerate(srcs):
    req = {"id": "b%d" % i, "algo": "sssp", "params": {"src": src, "delta": "4096"}}
    sock.sendall((json.dumps(req) + "\n").encode())
outputs = {}
for _ in srcs:
    resp = json.loads(lines.readline())
    assert resp.get("ok") is True, resp
    assert resp.get("batched") is True, "burst member missed the batch: %r" % resp
    outputs[resp["id"]] = resp["output"]
assert outputs["b0"] == outputs["b3"], "duplicate sources must share one answer"
assert outputs["b0"] == expect, "batched payload diverged from solo serving:\n%r\nvs\n%r" % (
    outputs["b0"],
    expect,
)
sock.close()

# Cache round-trip: the burst populated the cache, so a fresh connection
# repeating the query is answered from it with identical bytes.
sock, lines = connect()
req = {"id": "c0", "algo": "sssp", "params": {"src": "1", "delta": "4096"}}
sock.sendall((json.dumps(req) + "\n").encode())
resp = json.loads(lines.readline())
assert resp.get("ok") is True, resp
assert resp.get("cached") is True, "repeat query missed the cache: %r" % resp
assert resp["output"] == expect, "cached payload diverged from solo serving"
sock.close()
print("batched burst fused and cache hit verified, payloads byte-identical")
PY
"$JULIENNE" query addr="$BADDR" shutdown=true >/dev/null
wait "$BSERVE_PID"
grep -q "server stopped" "$SMOKE/bserve.log"
echo "batched serve smoke test: ok"

# --- convert -> mmap -> serve smoke test -------------------------------------
# The .jgr container end to end: convert (with embedded compressed payload
# and full checksum verification), serve it zero-copy via backend=mapped,
# and require its answers to be byte-identical to the CSR-served run above.
echo "==> container smoke test"
"$JULIENNE" convert in="$SMOKE/g.bin" out="$SMOKE/g.jgr" weighted=true \
    compressed_payload=true verify=true >/dev/null
"$JULIENNE" serve in="$SMOKE/g.jgr" backend=mapped addr=127.0.0.1:0 \
    >"$SMOKE/mserve.log" &
MSERVE_PID=$!
MADDR=""
for _ in $(seq 1 100); do
    MADDR=$(sed -n 's/^listening on \([0-9.:]*\) .*/\1/p' "$SMOKE/mserve.log")
    [ -n "$MADDR" ] && break
    sleep 0.1
done
[ -n "$MADDR" ] || { echo "container smoke: no listening line"; cat "$SMOKE/mserve.log"; exit 1; }
grep -q "backend=mapped" "$SMOKE/mserve.log"
# Same queries the .bin-backed server answered above; the mmap'd container
# must produce byte-identical output.
"$JULIENNE" query addr="$MADDR" algo=kcore top=3 >"$SMOKE/mq1.out"
"$JULIENNE" query addr="$MADDR" algo=sssp src=1 delta=4096 >"$SMOKE/mq2.out"
cmp "$SMOKE/mq1.out" "$SMOKE/q1.out"
cmp "$SMOKE/mq2.out" "$SMOKE/q2.out"
"$JULIENNE" query addr="$MADDR" shutdown=true >/dev/null
wait "$MSERVE_PID"
# Round-trip: exporting the container to text matches a direct text export.
"$JULIENNE" convert in="$SMOKE/g.bin" out="$SMOKE/direct.el" weighted=true >/dev/null
"$JULIENNE" convert in="$SMOKE/g.jgr" out="$SMOKE/via-jgr.el" weighted=true >/dev/null
cmp "$SMOKE/direct.el" "$SMOKE/via-jgr.el"
echo "container smoke test: ok"

# --- mutate-while-serving smoke ----------------------------------------------
# The MVCC writer lane end to end over a raw socket: a `serve mutable=true`
# session answers k-core, takes a `mutate` batch (a 10-clique stitched into
# a sparse graph, so the answer provably changes), and answers again. The
# post-mutate query must run at the new epoch — different payload, and
# never served from the pre-mutate cache entry — and the drain must still
# join cleanly with the writer lane exercised.
echo "==> mutate-while-serving smoke test"
"$JULIENNE" gen kind=er scale=6 edge_factor=2 out="$SMOKE/dyn.bin" >/dev/null
"$JULIENNE" serve in="$SMOKE/dyn.bin" mutable=true addr=127.0.0.1:0 \
    cache_bytes=1048576 >"$SMOKE/dserve.log" &
DSERVE_PID=$!
DADDR=""
for _ in $(seq 1 100); do
    DADDR=$(sed -n 's/^listening on \([0-9.:]*\) .*/\1/p' "$SMOKE/dserve.log")
    [ -n "$DADDR" ] && break
    sleep 0.1
done
[ -n "$DADDR" ] || { echo "mutate smoke: no listening line"; cat "$SMOKE/dserve.log"; exit 1; }
grep -q "backend=dynamic" "$SMOKE/dserve.log"
python3 - "$DADDR" <<'PY'
import json, socket, sys

host, port = sys.argv[1].rsplit(":", 1)
sock = socket.create_connection((host, int(port)), timeout=60)
lines = sock.makefile("r")


def ask(req):
    sock.sendall((json.dumps(req) + "\n").encode())
    return json.loads(lines.readline())


kcore = {"algo": "kcore", "params": {"top": "3"}}

# Pre-mutate: first answer computes, the repeat must hit the epoch-0 cache.
before = ask(dict(kcore, id="q0"))
assert before.get("ok") is True, before
again = ask(dict(kcore, id="q1"))
assert again.get("cached") is True, "epoch-0 repeat missed the cache: %r" % again
assert again["output"] == before["output"]

# Mutate: stitch a 10-clique over vertices 0..9 (the sparse base graph has
# nothing near coreness 9, so k_max provably changes).
clique = [[u, v] for u in range(10) for v in range(u + 1, 10)]
mut = ask({"mutate": {"insert": clique}, "id": "m0"})
assert mut.get("ok") is True, mut
assert mut["output"].startswith("epoch=1 "), mut["output"]

# Post-mutate: the same query now runs at epoch 1 — a fresh computation
# (the epoch-0 cache entry must not answer for it) with a changed payload.
after = ask(dict(kcore, id="q2"))
assert after.get("ok") is True, after
assert after.get("cached") is not True, "post-mutate query served stale cache: %r" % after
assert after["output"] != before["output"], "mutation did not change the answer"
assert "k_max=9" in after["output"], after["output"]
sock.close()
print("mutate smoke: epoch advanced, cache re-keyed, answer changed")
PY
# The session drains cleanly with the writer lane having run.
"$JULIENNE" query addr="$DADDR" shutdown=true >/dev/null
wait "$DSERVE_PID"
grep -q "server stopped" "$SMOKE/dserve.log"
echo "mutate-while-serving smoke test: ok"

# --- decode microbench smoke -------------------------------------------------
# The reference loop, the scalar cursor, the fused window kernels and the
# chunked layout must all produce identical neighbor checksums on unit,
# light and heavy weights, and the encoder's output must validate (the bench
# asserts this and aborts otherwise); smoke mode skips artifacts and keeps
# timings advisory.
run target/release/decode 9 smoke

# --- repo benchmark smoke ----------------------------------------------------
# `bench-layers` links the crates' public surface from outside the
# workspace and every workload checks its answers against an oracle; the
# smoke run (scale-12 inputs, 2 s windows) catches a deletion or rename that
# breaks that surface here, before the benchmark itself does.
run benchmark/run.sh --smoke

# --- paired-run tooling --------------------------------------------------------
# tools/ab_pairs.sh is how a perf claim is made (ten alternating
# parent/change pairs of one workload); keep it parsing and running: one
# smoke-sized pair of this checkout against itself.
run bash -n ci.sh
run bash -n tools/ab_pairs.sh
run bash -n tools/uncalled.sh
run tools/ab_pairs.sh . . sssp-rmat-z --pairs 1 --smoke

# --- corrupt-payload regression ----------------------------------------------
# Truncated and overlong codewords, bad chunk headers, and malformed raw
# parts must surface typed errors (or clean panics on the traversal path),
# never out-of-bounds reads. These filters pin the fail-closed tests.
run cargo test -q -p julienne-graph corrupt
run cargo test -q -p julienne-graph truncated
run cargo test -q --test proptest_decode

# --- telemetry compiled out ------------------------------------------------
run cargo build --release --workspace --no-default-features
run cargo test -q --workspace --no-default-features
run cargo clippy --workspace --all-targets --no-default-features -- -D warnings

# --- thread-count matrix ----------------------------------------------------
# The runtime guarantees outputs are identical at every thread count; run the
# whole suite pinned to 1 worker and to 4 workers to hold it to that.
run env JULIENNE_NUM_THREADS=1 cargo test -q --workspace
run env JULIENNE_NUM_THREADS=4 cargo test -q --workspace

# --- schedule chaos ----------------------------------------------------------
# The chaos suite re-runs every algorithm under a seeded adversarial
# scheduler (8 seeds x {2,4,8} threads) and requires bit-identical outputs;
# then the lock-free kernel tests run with chaos forced on via the
# environment, so the perturbation layer itself is exercised end to end.
run env JULIENNE_NUM_THREADS=4 cargo test -q --test chaos_determinism
run env JULIENNE_CHAOS_SEED=1 JULIENNE_NUM_THREADS=4 cargo test -q -p julienne bucket
run env JULIENNE_CHAOS_SEED=1 JULIENNE_NUM_THREADS=4 cargo test -q -p rayon
# The direct (one block) and blocked-histogram insertion paths must leave
# the same bucket contents, in the same order, under any schedule.
for seed in 1 24301; do
    run env JULIENNE_CHAOS_SEED=$seed JULIENNE_NUM_THREADS=4 cargo test -q --test proptest_bucket --test alloc_bucket
done
# A steady-state Δ-stepping round, solo or fused, a set-cover round and a
# k-truss round allocate nothing (their buffers are kept across rounds) on
# four workers and under the adversarial scheduler too.
run env JULIENNE_NUM_THREADS=4 cargo test -q --test alloc_sssp_rounds --test alloc_setcover_rounds --test alloc_ktruss_rounds
run env JULIENNE_CHAOS_SEED=1 JULIENNE_NUM_THREADS=4 cargo test -q --test alloc_sssp_rounds --test alloc_setcover_rounds --test alloc_ktruss_rounds
# The sparse edgeMap driver: its inline and fanned-out walks keep the
# sequential order, and its memory follows the hits, on four workers and
# under the adversarial scheduler.
run env JULIENNE_NUM_THREADS=4 cargo test -q --test proptest_sparse_blocked --test alloc_sparse_hub
run env JULIENNE_CHAOS_SEED=1 JULIENNE_NUM_THREADS=4 cargo test -q --test proptest_sparse_blocked --test alloc_sparse_hub
# The peel kernel: its inline walk and its fanned-out fallback leave the
# same degrees and report the same targets in the same order. Fused
# Δ-stepping rounds forced to fan out keep every lane equal to its solo run,
# and k-truss rounds forced to fan out keep the oracle's trussness.
run env JULIENNE_NUM_THREADS=4 cargo test -q --test proptest_peel --test proptest_fused_pieces --test proptest_ktruss_pieces
run env JULIENNE_CHAOS_SEED=1 JULIENNE_NUM_THREADS=4 cargo test -q --test proptest_peel --test proptest_fused_pieces --test proptest_ktruss_pieces
# The chunked compressed backend's split traversal paths (per-chunk sparse
# tasks, dense heavy-vertex scan) under the adversarial scheduler: results
# must stay bit-identical to CSR.
run env JULIENNE_CHAOS_SEED=1 JULIENNE_NUM_THREADS=4 cargo test -q --test integration_backends tiny_chunk
# The MVCC suites under the adversarial scheduler: writer vs 8 readers must
# stay epoch-consistent (the snapshot_isolation chaos test also runs its
# own seeded scenarios internally), and mutate-vs-rebuild must stay exact.
run env JULIENNE_CHAOS_SEED=1 JULIENNE_NUM_THREADS=4 cargo test -q --test snapshot_isolation
run env JULIENNE_CHAOS_SEED=1 JULIENNE_NUM_THREADS=4 cargo test -q --test differential_updates curated

# --- concurrency stress ------------------------------------------------------
# Re-run the lock-free kernels (atomics, bucket structure, worker pool) many
# times to shake out schedule-dependent bugs that a single pass can miss.
STRESS_ITERS="${STRESS_ITERS:-10}"
echo "==> stress: ${STRESS_ITERS}x atomics + bucket + pool tests"
for _ in $(seq 1 "$STRESS_ITERS"); do
    cargo test -q -p julienne-primitives atomics >/dev/null
    cargo test -q -p julienne bucket >/dev/null
    cargo test -q -p rayon >/dev/null
done

echo "ci.sh: all checks passed"
