#!/bin/sh
# Per-crate size ratchet. Counts the non-blank lines that do not start
# with `//` in crates/<crate>/**/*.rs (the benchmark package under
# crates/bench/src/bin/ledger/ excluded) and prints `<crate> <count>`.
#
#   sh .github/line_counts.sh            print the counts
#   sh .github/line_counts.sh --check    fail if any crate exceeds its
#                                        number in .github/line_counts.txt
#
# A change that raises a crate's count updates line_counts.txt and says
# in CHANGES.md what the lines bought.
set -eu
cd "$(dirname "$0")/.."

counts() {
  for dir in crates/*; do
    [ -d "$dir" ] || continue
    n=$(find "$dir" -name '*.rs' -not -path 'crates/bench/src/bin/ledger/*' -print0 |
      xargs -0 cat | grep -cvE '^[[:space:]]*(//|$)' || true)
    echo "$(basename "$dir") $n"
  done
}

if [ "${1:-}" = --check ]; then
  counts | awk '
    NR == FNR { max[$1] = $2; next }
    !($1 in max) { print $1 ": " $2 " lines, not in .github/line_counts.txt"; bad = 1; next }
    $2 > max[$1] { print $1 ": " $2 " lines, ratchet allows " max[$1]; bad = 1 }
    END { exit bad }
  ' .github/line_counts.txt -
else
  counts
fi
