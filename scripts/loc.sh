#!/usr/bin/env sh
# loc.sh — count the module's non-test Go lines: every .go file outside
# bench/ (its own module) and outside test-support packages (a directory
# named *test, such as internal/ml/mltest, after net/http/httptest) whose
# name does not end in _test.go, less blank lines and comment lines (//
# lines and lines inside /* */ blocks).
# Prints one "lines  package-dir" row per directory, in file-path order,
# then the total.
#
# Usage:
#   scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."

find . -path ./bench -prune -o -path './.*' -prune -o \
    -type d -name '*test' -prune -o \
    -name '*.go' ! -name '*_test.go' -type f -print |
    LC_ALL=C sort |
    awk '
{
    f = $0
    dir = f
    sub(/\/[^\/]*$/, "", dir)
    sub(/^\.\/?/, "", dir)
    if (dir == "") dir = "."
    if (!(dir in n)) { dirs[++ndirs] = dir; n[dir] = 0 }
    block = 0
    while ((getline line < f) > 0) {
        gsub(/^[ \t]+|[ \t]+$/, "", line)
        if (block) {
            if (index(line, "*/")) block = 0
            continue
        }
        if (line == "" || line ~ /^\/\//) continue
        if (line ~ /^\/\*/) {
            if (!index(substr(line, 3), "*/")) block = 1
            continue
        }
        n[dir]++
        total++
    }
    close(f)
}
END {
    for (i = 1; i <= ndirs; i++) printf "%7d  %s\n", n[dirs[i]], dirs[i]
    printf "%7d  total\n", total
}'
