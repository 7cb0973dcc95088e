#!/usr/bin/env bash
# Size figures: non-test Go lines per package (the root module and the
# benchmark module), the tree total, and the length of the public API
# snapshot api/mpq.txt.
#
#   scripts/lines.sh        (or: make lines)
set -euo pipefail
cd "$(dirname "$0")/.."

list() { go list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' ./...; }
total=0
while read -r pkg dir files; do
	[ -n "$files" ] || continue
	n=$(cd "$dir" && cat $files | wc -l)
	printf '%7d  %s\n' "$n" "$pkg"
	total=$((total + n))
done < <(list; cd benchmark && list)
printf '%7d  total non-test Go\n' "$total"
printf '%7d  api/mpq.txt\n' "$(wc -l < api/mpq.txt)"
