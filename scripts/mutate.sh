#!/bin/sh
# mutate.sh runs the mutation catalogue: each testdata/mutants/*.patch is a
# deliberate bug whose first line, after "# ", is the command that must
# fail once the bug is in. Every patch is applied to its own copy of the
# working tree in a mktemp -d directory, and its command runs there. A
# mutant whose command passes survived: the tests it names cannot see it.
#
# Usage: sh scripts/mutate.sh [patch ...]   (default: the whole catalogue)
# Exits 1 if any mutant survives or no longer applies.
set -eu

cd "$(dirname "$0")/.."
root=$(pwd)
[ $# -gt 0 ] || set -- testdata/mutants/*.patch

status=0
for patch in "$@"; do
    cmd=$(sed -n '1s/^# //p' "$patch")
    if [ -z "$cmd" ]; then
        echo "mutate: $patch: first line must be '# <command that must fail>'" >&2
        status=1
        continue
    fi
    tmp=$(mktemp -d)
    # Tracked and untracked files, as they are now; a file deleted in the
    # working tree is skipped.
    git ls-files -z -co --exclude-standard |
        tar --null --ignore-failed-read -T - -cf - 2>/dev/null |
        tar -xf - -C "$tmp"
    case "$patch" in /*) abs=$patch ;; *) abs=$root/$patch ;; esac
    if ! (cd "$tmp" && git apply "$abs"); then
        echo "mutate: $patch no longer applies" >&2
        status=1
    elif (cd "$tmp" && sh -c "$cmd") >"$tmp.log" 2>&1; then
        echo "SURVIVED  $patch  ($cmd passed)"
        status=1
    else
        echo "killed    $patch  ($cmd failed)"
    fi
    rm -rf "$tmp" "$tmp.log"
done
exit $status
