#!/bin/sh
# check_links.sh verifies every relative markdown link in the repo's
# documentation points at a file or directory that exists. External
# (http/https/mailto) links are skipped — CI has no network guarantee —
# and intra-page anchors are checked only for having a target file.
# Code is not prose: fenced code blocks and inline code spans are skipped,
# so `f(a)[i](b)` in a code span is not read as a link.
set -eu

cd "$(dirname "$0")/.."

docs="README.md ROADMAP.md PAPER.md PAPERS.md CHANGES.md ISSUE.md"
for f in docs/*.md; do
    [ -e "$f" ] && docs="$docs $f"
done

# targets prints the ](target) link targets of one markdown file, one per
# line, outside fenced blocks and with inline code spans removed.
targets() {
    awk '/^[[:space:]]*```/ { fence = !fence; next }
         fence { next }
         { line = $0
           gsub(/`[^`]*`/, "", line)
           while (match(line, /\]\([^)]*\)/)) {
               print substr(line, RSTART + 2, RLENGTH - 3)
               line = substr(line, RSTART + RLENGTH)
           } }' "$1"
}

missing=$(
    for doc in $docs; do
        [ -e "$doc" ] || continue
        base=$(dirname "$doc")
        targets "$doc" | while IFS= read -r t; do
            case "$t" in
            http://*|https://*|mailto:*) continue ;;
            esac
            # Strip an anchor suffix; a bare "#anchor" refers to the doc itself.
            path=${t%%#*}
            [ -n "$path" ] || continue
            if [ ! -e "$base/$path" ] && [ ! -e "$path" ]; then
                echo "check_links: $doc links to missing $t"
            fi
        done
    done
)
if [ -n "$missing" ]; then
    echo "$missing" >&2
    exit 1
fi
echo "check_links: all relative links resolve"
