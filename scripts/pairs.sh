#!/bin/sh
# pairs.sh compares two checkouts on one atombench workload. It builds each
# checkout's own atombench once, before the first pair, into that checkout's
# .bench_build (as atombench/run.sh does, with its environment), so an edit
# made to a checkout while the comparison runs cannot enter its later runs.
# It then runs each binary with --seconds 3 --trace TRACE in N pairs, one
# run per side, so slow spells of the host fall on both sides alike; the side
# that runs first alternates from pair to pair, so neither always runs on a
# cold or a warm host. It prints every metric's median and quartiles per
# side: the end-to-end ones, and with TRACE 1 the per-layer ones too, dotted
# names such as obs.overhead_share included. "won P/C" counts the pairs
# whose parent run (P) or change run (C) was the better one, in the
# direction CHANGE's BENCHMARK.json declares (lower when it names none); a
# tie counts for neither. A metric is resolved only when one side wins at
# least 9 of every 10 pairs and its median is better than the other side's
# by more than the parent's interquartile distance; any other is marked
# "unresolved" ("equal" when every run of both sides gave one value).
# Failed operations are counted per side.
#
# Usage: sh scripts/pairs.sh PARENT CHANGE WORKLOAD SEED N [TRACE]
#   TRACE is atombench's --trace mode, 0 (the default) or 1.
#   e.g. sh scripts/pairs.sh ../parent . verified 1 10
#        sh scripts/pairs.sh ../parent . lock-scale 1 10 1
set -eu

if [ $# -ne 5 ] && [ $# -ne 6 ]; then
    echo "usage: sh scripts/pairs.sh PARENT CHANGE WORKLOAD SEED N [TRACE]" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3 seed=$4 n=$5 trace=${6:-0}
case $trace in 0 | 1) ;; *)
    echo "pairs.sh: TRACE must be 0 or 1, not $trace" >&2
    exit 2
    ;;
esac

runs=$(mktemp)
better=$(mktemp)
trap 'rm -f "$runs" "$better"' EXIT
# build DIR builds DIR's atombench into DIR/.bench_build/pairs-atombench, a
# name atombench/run.sh does not rebuild, with run.sh's build environment.
build() {
    (
        b="$1/.bench_build"
        mkdir -p "$b/tmp"
        export GOCACHE="$b/go-cache" GOTMPDIR="$b/tmp" GOPATH="$b/go-path"
        export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
        go build -C "$1/atombench" -o "$b/pairs-atombench" .
    )
}
build "$parent"
[ "$change" = "$parent" ] || build "$change"
# One "metric direction" line per metric BENCHMARK.json declares.
grep -o '"name": *"[a-z_.]*", *"unit": *"[^"]*", *"better": *"[a-z]*"' "$change/BENCHMARK.json" |
    sed -E 's/"name": *"([^"]*)".*"better": *"([a-z]*)"/\1 \2/' >"$better"
i=1
while [ "$i" -le "$n" ]; do
    order="parent change"
    [ $((i % 2)) = 1 ] || order="change parent"
    for side in $order; do
        if [ "$side" = parent ]; then dir=$parent; else dir=$change; fi
        last=$(cd "$dir" && .bench_build/pairs-atombench --workload "$workload" --seed "$seed" --seconds 3 --trace "$trace" | tail -1)
        # One "side metric pair value" line per metric, and the failed count.
        echo "$last" | grep -o '"[a-z_.]*": *{"value": *[-0-9.eE+]*' |
            sed -E "s/\"([a-z_.]*)\": *\{\"value\": *(.*)/$side \1 $i \2/" >>"$runs"
        echo "$last" | sed -E "s/.*\"failed\": *([0-9]+).*/$side failed $i \1/" >>"$runs"
    done
    i=$((i + 1))
done

mode=""
[ "$trace" = 0 ] || mode=", trace $trace"
echo "$workload, seed $seed$mode, $n runs per side (median [first quartile, third quartile]; pairs won by parent/change)"
sort -k2,2 -k1,1 -k4,4g "$runs" | awk -v n="$n" -v better="$better" '
    BEGIN { while ((getline line < better) > 0) { split(line, f, " "); higher[f[1]] = f[2] == "higher" } }
    function q(p,   x, k) { x = 1 + (c - 1) * p; k = int(x); return v[k] + (x - k) * (v[k + 1] - v[k]) }
    function flush() {
        if (c == 0) return
        v[c + 1] = v[c]
        if (metric == "failed") {
            sum = 0; for (j = 1; j <= c; j++) sum += v[j]
            fail[side] = sum
        } else {
            med[side] = q(0.5); lo[side] = q(0.25); hi[side] = q(0.75); mn[side] = v[1]; mx[side] = v[c]
        }
        c = 0
    }
    function report() {
        if (metric == "failed") {
            printf "%-14s parent %d, change %d failed operations in all\n", metric, fail["parent"], fail["change"]
            return
        }
        won["parent"] = won["change"] = 0
        for (j = 1; j <= n; j++) {
            d = pv["change", j] - pv["parent", j]
            if (higher[metric]) d = -d
            if (d < 0) won["change"]++
            if (d > 0) won["parent"]++
        }
        # The gain of the change over the parent median, and the parent spread.
        gain = med["parent"] - med["change"]
        if (higher[metric]) gain = -gain
        iqr = hi["parent"] - lo["parent"]
        resolved = (10 * won["change"] >= 9 * n && gain > iqr) || (10 * won["parent"] >= 9 * n && -gain > iqr)
        verdict = resolved ? "" : "  unresolved"
        if (mn["parent"] == mx["change"] && mx["parent"] == mn["change"]) verdict = "  equal"
        printf "%-14s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  %+.1f%%  won %d/%d%s\n", metric,
            med["parent"], lo["parent"], hi["parent"], med["change"], lo["change"], hi["change"],
            med["parent"] == 0 ? 0 : 100 * (med["change"] - med["parent"]) / med["parent"],
            won["parent"], won["change"], verdict
    }
    {
        if ($2 != metric || $1 != side) { flush() }
        if ($2 != metric && metric != "") { report(); delete pv }
        metric = $2; side = $1; v[++c] = $4; pv[side, $3] = $4
    }
    END { flush(); report() }'
