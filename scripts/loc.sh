#!/bin/sh
# loc.sh prints the repository's production line count — the number
# ROADMAP aim 2 tracks: every tracked *.go file except tests (_test.go),
# fixtures (testdata/), the benchmark module (atombench/) and examples/.
# One line per top-level package (the root package, cmd/<name>,
# internal/<name> with its sub-packages), then the total.
set -eu

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
    awk '{ n[$1] += $2; total += $2 }
         END { for (p in n) printf "%7d  %s\n", n[p], p | "sort -k2"
               close("sort -k2")
               printf "%7d  total production lines\n", total }'
