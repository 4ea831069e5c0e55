#!/bin/sh
# pairs.sh compares two checkouts on one atombench workload. It runs each
# checkout's own atombench/run.sh --seconds 3 --trace TRACE alternately, N
# times per side, so slow spells of the host fall on both sides alike, and
# prints every metric's median and quartiles per side: the end-to-end ones,
# and with TRACE 1 the per-layer ones too, dotted names such as
# obs.overhead_share included. A metric whose interquartile ranges overlap
# is marked "unresolved": its runs spread too widely to tell the two sides
# apart ("equal" when every run of both sides gave one value). Failed
# operations are counted per side.
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
trap 'rm -f "$runs"' EXIT
i=0
while [ "$i" -lt "$n" ]; do
    for side in parent change; do
        if [ "$side" = parent ]; then dir=$parent; else dir=$change; fi
        last=$(cd "$dir" && bash atombench/run.sh --workload "$workload" --seed "$seed" --seconds 3 --trace "$trace" | tail -1)
        # One "side metric value" line per metric, and the failed count.
        echo "$last" | grep -o '"[a-z_.]*": *{"value": *[-0-9.eE+]*' |
            sed -E "s/\"([a-z_.]*)\": *\{\"value\": *(.*)/$side \1 \2/" >>"$runs"
        echo "$last" | sed -E "s/.*\"failed\": *([0-9]+).*/$side failed \1/" >>"$runs"
    done
    i=$((i + 1))
done

mode=""
[ "$trace" = 0 ] || mode=", trace $trace"
echo "$workload, seed $seed$mode, $n runs per side (median [first quartile, third quartile])"
sort -k2,2 -k1,1 -k3,3g "$runs" | awk '
    function q(p,   x, k) { x = 1 + (c - 1) * p; k = int(x); return v[k] + (x - k) * (v[k + 1] - v[k]) }
    function flush() {
        if (c == 0) return
        v[c + 1] = v[c]
        if (metric == "failed") {
            sum = 0; for (j = 1; j <= c; j++) sum += v[j]
            fail[side] = sum
        } else {
            med[side] = q(0.5); lo[side] = q(0.25); hi[side] = q(0.75)
        }
        c = 0
    }
    function report() {
        if (metric == "failed") {
            printf "%-14s parent %d, change %d failed operations in all\n", metric, fail["parent"], fail["change"]
            return
        }
        verdict = (hi["parent"] < lo["change"] || hi["change"] < lo["parent"]) ? "" : "  unresolved"
        if (lo["parent"] == hi["change"] && hi["parent"] == lo["change"]) verdict = "  equal"
        printf "%-14s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  %+.1f%%%s\n", metric,
            med["parent"], lo["parent"], hi["parent"], med["change"], lo["change"], hi["change"],
            med["parent"] == 0 ? 0 : 100 * (med["change"] - med["parent"]) / med["parent"], verdict
    }
    {
        if ($2 != metric || $1 != side) { flush() }
        if ($2 != metric && metric != "") { report() }
        metric = $2; side = $1; v[++c] = $3
    }
    END { flush(); report() }'
