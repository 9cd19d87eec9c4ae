#!/usr/bin/env bash
# Lists every `pub fn` under crates/*/src that nothing reaches:
#
#   tools/uncalled.sh [checkout]      (default: this repository)
#
# Each crates/*/src file is cut at its last `#[cfg(test)]` and loses its
# comment lines, so a function's own unit tests and doc examples are not
# callers. A name is listed when its `fn` definitions are its only
# word-matches in what is left plus everything else under crates/,
# examples/, tests/, benchmark/ and src/. Prints `crate/src/file.rs name`
# a line and exits 1 when there is one.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

corpus="$(mktemp)"; defs="$(mktemp)"
trap 'rm -f "$corpus" "$defs"' EXIT
find crates/*/src -name '*.rs' | sort | while read -r f; do
    awk -v f="${f#crates/}" -v defs="$defs" '{ line[NR] = $0 } /#\[cfg\(test\)\]/ { cut = NR }
        END { for (i = 1; i < (cut ? cut : NR + 1); i++) {
                  if (line[i] ~ /^[ \t]*\/\//) continue
                  print line[i]
                  if (match(line[i], /pub fn [a-z_0-9]+/))
                      print f, substr(line[i], RSTART + 7, RLENGTH - 7) >> defs } }' "$f"
done > "$corpus"
grep -rIh --exclude-dir=src . crates >> "$corpus"
grep -rIh --exclude-dir=out --exclude-dir=target . examples tests benchmark src >> "$corpus"

status=0
while read -r file name; do
    uses=$(grep -ow -- "$name" "$corpus" | wc -l)
    fns=$(grep -oEw -- "fn $name" "$corpus" | wc -l)
    if [ "$uses" -eq "$fns" ]; then echo "$file $name"; status=1; fi
done < <(sort -u "$defs")
exit $status
