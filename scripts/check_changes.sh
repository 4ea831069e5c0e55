#!/bin/sh
# check_changes.sh holds every CHANGES.md entry from PR 48 on to 150 words,
# so that the log stays a list a reader can scan. An entry is one line that
# starts "- PR <n>:"; the "FOUND:" and "MENDED:" notes that follow it are
# lines of their own and are not counted. The entries before PR 48 predate
# the cap and stay as they were written.
#
# Usage: sh scripts/check_changes.sh [file]   (default: CHANGES.md; a
# relative path is read from the repository root)
# Exits 1 naming each entry over the cap.
set -eu

cd "$(dirname "$0")/.."
file=${1:-CHANGES.md}

awk -v max=150 -v from=48 '
    /^- PR [0-9]+:/ {
        pr = $3 + 0     # "48:" reads as 48
        words = NF - 1  # the leading "-" is no word
        if (pr >= from && words > max) {
            printf "%s:%d: the PR %d entry has %d words; the cap is %d\n", FILENAME, FNR, pr, words, max
            over = 1
        }
    }
    END { exit over }' "$file"
