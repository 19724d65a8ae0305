#!/usr/bin/env bash
# Keeps the environment-knob table in docs/OBSERVABILITY.md the one list of
# GEO_* knobs. Fails when src/ reads a GEO_* name the table does not list,
# or when the table lists a name that nothing reads (src/, bench/,
# examples/, tools/ or a CMakeLists.txt).
#
#   scripts/check_knobs.sh        # run from anywhere inside the repository
set -euo pipefail
cd "$(dirname "$0")/.."

table=$(awk '/^## /{on = ($0 == "## Environment knobs")} on' \
  docs/OBSERVABILITY.md | grep -oE '`GEO_[A-Z0-9_]+' | tr -d '`' | sort -u)
read_by_src=$(grep -rhoE '"GEO_[A-Z0-9_]+' src | tr -d '"' | sort -u)

status=0
for name in $(comm -13 <(echo "$table") <(echo "$read_by_src")); do
  echo "check_knobs: src/ reads $name but docs/OBSERVABILITY.md does not list it" >&2
  status=1
done
for name in $table; do
  if ! grep -rqE "\"$name([^A-Z0-9_]|\$)" src bench examples tools &&
     ! grep -qwE "$name" CMakeLists.txt; then
    echo "check_knobs: docs/OBSERVABILITY.md lists $name but nothing reads it" >&2
    status=1
  fi
done
[ "$status" -eq 0 ] &&
  echo "check_knobs: $(echo "$table" | wc -w) knobs listed, $(echo "$read_by_src" | wc -w) read by src/"
exit "$status"
