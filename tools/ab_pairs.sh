#!/usr/bin/env bash
# Paired parent/change runs of one benchmark workload, judged by ROADMAP's
# rule:
#
#   tools/ab_pairs.sh <parent-checkout> <change-checkout> <workload>
#                     [--seed N] [--pairs K] [--smoke] [--out FILE]
#
# Each pair runs both sides' own `benchmark/run.sh --workload W --seed N
# --trace 0` (each checkout builds into its own target directory),
# alternating which side goes first. Prints every pair, both medians and
# quartiles, wins and losses, and per end-to-end metric a verdict: a *gain*
# needs the change to win at least nine tenths of the pairs (ties count for
# neither side) and the medians to differ by more than the distance between
# the parent's quartiles; a *regression* is a median worse than the parent's
# by more than the metric's bound in BENCHMARK.json. A pair either of whose
# runs the benchmark marks invalid (`"valid": false` in its run file, as
# serve-hot does when its load generator runs late) is printed but kept out
# of the medians, wins and verdicts; when fewer than half the pairs are
# left, the verdict is "too few pairs". --out appends the rows
# and the host fingerprint (from each side's benchmark/out/run-*.json) to a
# JSON file, creating it if need be, with each side's `git describe
# --always --dirty` under "commits" and, for a dirty side, the hash of its
# working tree under "trees" (benchmark/run.sh's own `commit` names HEAD
# even when the tree has uncommitted changes). --smoke passes through:
# seconds-long runs that check the script, not the program.
set -euo pipefail

usage() { sed -n '2,7p' "$0" >&2; exit 2; }
[ $# -ge 3 ] || usage
parent="$(cd "$1" && pwd)"; change="$(cd "$2" && pwd)"; workload="$3"; shift 3
seed=1; pairs=10; smoke=""; out=""
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --pairs) pairs="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        --smoke) smoke="--smoke"; shift ;;
        *) usage ;;
    esac
done

rows="$(mktemp)"
scratch="$(mktemp -d)"
trap 'rm -rf "$rows" "$scratch"' EXIT

# What a checkout actually is: `<describe>` for a clean tree, `<describe>
# <tree hash>` for a dirty one, the tree written from a throwaway index so
# the checkout's own index is left alone.
identify() { # <checkout>
    local desc index="$scratch/index"
    desc="$(git -C "$1" describe --always --dirty)"
    case "$desc" in
        *-dirty)
            rm -f "$index"
            cp "$(git -C "$1" rev-parse --path-format=absolute --git-path index)" "$index" 2>/dev/null || true
            echo "$desc $(cd "$1" && GIT_INDEX_FILE="$index" git add -A && GIT_INDEX_FILE="$index" git write-tree)"
            ;;
        *) echo "$desc" ;;
    esac
}
parent_id="$(identify "$parent")"; change_id="$(identify "$change")"
echo "parent: $parent_id" >&2
echo "change: $change_id" >&2

suffix="${smoke:+-smoke}"

# One side's run: its result object (the last line of stdout) goes to $rows
# tagged with the pair, the side and whether the run file calls the run
# valid (a run file without the flag is valid). A failed output check
# (exit 1) still prints a result and is counted below; anything else stops
# the script.
run_side() { # <pair> <side> <checkout>
    local result valid status=0
    result="$(cd "$3" && env -u CARGO_TARGET_DIR benchmark/run.sh \
        --workload "$workload" --seed "$seed" --trace 0 $smoke | tail -n 1)" || status=$?
    [ "$status" -le 1 ] || { echo "ab_pairs: $2 run failed (exit $status)" >&2; exit 2; }
    valid="$(python3 -c 'import json, sys; print(json.dumps(json.load(open(sys.argv[1]))["run"].get("valid", True)))' \
        "$3/benchmark/out/run-$workload-seed$seed-trace0$suffix.json")"
    printf '{"pair":%d,"side":"%s","valid":%s,"result":%s}\n' "$1" "$2" "$valid" "$result" >>"$rows"
}

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run_side "$i" parent "$parent"; run_side "$i" change "$change"
    else
        run_side "$i" change "$change"; run_side "$i" parent "$parent"
    fi
    echo "pair $i/$pairs done" >&2
done

python3 - "$rows" "$workload" "$seed" "$out" "$change/BENCHMARK.json" "$parent_id" "$change_id" \
    "$parent/benchmark/out/run-$workload-seed$seed-trace0$suffix.json" \
    "$change/benchmark/out/run-$workload-seed$seed-trace0$suffix.json" <<'PY'
import json, statistics, sys

rows_path, workload, seed, out, spec_path, parent_id, change_id, parent_run, change_run = sys.argv[1:10]
ids = {"parent": parent_id.split(), "change": change_id.split()}
rows = [json.loads(line) for line in open(rows_path)]
spec = json.load(open(spec_path))
metrics = [(m["name"], m["unit"], m["bound"]) for m in spec["end_to_end"]]
sides = {s: [r["result"] for r in rows if r["side"] == s] for s in ("parent", "change")}
pairs = len(sides["parent"])
valid = [all(r["valid"] for r in rows if r["pair"] == i) for i in range(1, pairs + 1)]
n = sum(valid)
too_few = n == 0 or 2 * n < pairs

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

summary = {}
for name, unit, bound in metrics:
    p = [r["metrics"][name]["value"] for r in sides["parent"]]
    c = [r["metrics"][name]["value"] for r in sides["change"]]
    print(f"\n{name} ({unit}, lower is better) on {workload} seed {seed}")
    for i, (a, b, ok) in enumerate(zip(p, c, valid), 1):
        first = "parent" if i % 2 else "change"
        note = "" if ok else "  invalid run: dropped"
        print(f"  pair {i:2}: parent {a:10.4f}  change {b:10.4f}  ({first} first){note}")
    # The valid pairs; all of them, for the printout only, when none is.
    kept = [(a, b) for a, b, ok in zip(p, c, valid) if ok] or list(zip(p, c))
    kp, kc = [a for a, _ in kept], [b for _, b in kept]
    pq1, pmed, pq3 = quartiles(kp)
    cq1, cmed, cq3 = quartiles(kc)
    wins = sum(b < a for a, b in kept)
    losses = sum(b > a for a, b in kept)
    iqr = pq3 - pq1
    if too_few:
        verdict = "too few pairs"
    elif wins >= 0.9 * n and pmed - cmed > iqr:
        verdict = "gain" if n >= 10 else "too few pairs to call a gain"
    elif cmed > pmed * (1 + bound):
        verdict = "regression"
    elif max(iqr, cq3 - cq1) > bound * pmed and not (max(kc) < min(kp)):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    print(f"  parent median {pmed:.4f} [{pq1:.4f}, {pq3:.4f}]   change median {cmed:.4f} [{cq1:.4f}, {cq3:.4f}]")
    print(f"  change wins {wins}/{n}, loses {losses}/{n}; medians {100 * (cmed / pmed - 1):+.1f} %; "
          f"parent IQR {iqr:.4f}; bound {bound} -> {verdict}")
    summary[name] = {
        "unit": unit, "parent": p, "change": c,
        "parent_median": pmed, "parent_quartiles": [pq1, pq3],
        "change_median": cmed, "change_quartiles": [cq1, cq3],
        "wins": wins, "losses": losses, "verdict": verdict,
    }

print(f"\npairs: {pairs}, dropped as invalid: {pairs - n}")
failed = {s: sum(r["failed"] for r in rs) for s, rs in sides.items()}
attempted = {s: sum(r["attempted"] for r in rs) for s, rs in sides.items()}
print(f"\nfailed ops: parent {failed['parent']}/{attempted['parent']}, "
      f"change {failed['change']}/{attempted['change']}")

if out:
    runs = {"parent": json.load(open(parent_run)), "change": json.load(open(change_run))}
    host = {k: runs["change"][k] for k in ("nproc", "threads", "rustc", "cpu_model")}
    entry = {
        "workload": workload, "seed": int(seed), "pairs": n, "dropped": pairs - n,
        "valid": valid,
        "smoke": runs["change"]["smoke"], "seconds": runs["change"]["seconds"],
        "commits": {s: i[0] for s, i in ids.items()},
        "trees": {s: i[1] for s, i in ids.items() if len(i) > 1},
        "inputs": {s: r["run"]["inputs"] for s, r in runs.items()},
        "failed": failed, "attempted": attempted, "metrics": summary,
    }
    try:
        doc = json.load(open(out))
    except FileNotFoundError:
        doc = {"rule": "gain = change wins >= 9/10 of pairs and medians differ by more than the parent's IQR",
               "host": host, "runs": []}
    doc["runs"].append(entry)
    with open(out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"(appended to {out})")
PY
