#!/bin/sh
# loc.sh prints the repository's production line count — the number
# ROADMAP aim 2 tracks: every tracked *.go file except tests (_test.go),
# fixtures (testdata/), the benchmark module (atombench/) and examples/.
# One line per top-level package (the root package, cmd/<name>,
# internal/<name> with its sub-packages), then the total.
#
# With -max N the script exits 1 when the total exceeds N: CI passes the
# current ceiling, so the number can only grow in a diff that raises it.
set -eu

max=0
if [ "${1:-}" = "-max" ] && [ -n "${2:-}" ]; then
    max=$2
elif [ $# -gt 0 ]; then
    echo "usage: loc.sh [-max N]" >&2
    exit 2
fi

cd "$(dirname "$0")/.."

git ls-files '*.go' |
    grep -v -e '_test\.go$' -e '/testdata/' -e '^testdata/' -e '^atombench/' -e '^examples/' |
    while IFS= read -r f; do
        case "$f" in
        cmd/*/* | internal/*/*) pkg=$(echo "$f" | cut -d/ -f1-2) ;;
        *) pkg=. ;;
        esac
        echo "$pkg $(wc -l <"$f")"
    done |
    awk -v max="$max" '{ n[$1] += $2; total += $2 }
         END { for (p in n) printf "%7d  %s\n", n[p], p | "sort -k2"
               close("sort -k2")
               printf "%7d  total production lines\n", total
               if (max > 0 && total > max) {
                   printf "loc.sh: %d production lines exceed the ceiling of %d\n", total, max > "/dev/stderr"
                   exit 1
               } }'
