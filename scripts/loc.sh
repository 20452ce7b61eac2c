#!/bin/sh
# Non-test lines per crate and in total: for every .rs file under
# crates/*/src and src, the lines before its first `#[cfg(test)]`.
# `scripts/loc.sh -v` lists every file first. Exits 1 when the total is
# above the number in scripts/loc.ceiling: a change that grows the
# workspace raises the ceiling in its own diff, where review sees it.
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
total=$(echo "$rows" | awk '{ total += $3 } END { print total }')
ceiling=$(cat scripts/loc.ceiling)
printf '%6d  total (ceiling %d)\n' "$total" "$ceiling"
if [ "$total" -gt "$ceiling" ]; then
    echo "scripts/loc.sh: $total non-test lines, scripts/loc.ceiling allows $ceiling" >&2
    exit 1
fi
