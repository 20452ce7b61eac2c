#!/bin/sh
# Non-test lines per crate and in total: for every .rs file under
# crates/*/src and src, the lines before its first `#[cfg(test)]`.
# `scripts/loc.sh -v` lists every file first.
set -eu
cd "$(dirname "$0")/.."
rows=$(find crates/*/src src -name '*.rs' | sort | while read -r file; do
    case $file in
    crates/*) unit=${file#crates/} unit=${unit%%/*} ;;
    *) unit=genie ;;
    esac
    echo "$unit $file $(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")"
done)
if [ "${1:-}" = -v ]; then
    echo "$rows" | awk '{ printf "  %6d  %s\n", $3, $2 }'
fi
echo "$rows" | awk '{ n[$1] += $3 } END { for (unit in n) printf "%6d  %s\n", n[unit], unit }' | sort -k2
echo "$rows" | awk '{ total += $3 } END { printf "%6d  total\n", total }'
