#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr; stdout is
# the benchmark's own, ending with its one-line JSON result.
#
# The benchmark runs on one domain; it is pinned to one CPU (the
# highest it may use) when taskset is available, so that the host speed
# reference it times in a child process (see perfbench/calib.ml) runs
# on the same CPU as the work it is compared with.
set -euo pipefail
if [[ ! -f dune-project || ! -d lib || ! -f perfbench/dune ]]; then
  echo "perfbench: run from the root of an ido source checkout" >&2
  exit 2
fi
dune build --root . ./perfbench/main.exe ./perfbench/calib/kernel.exe 1>&2
exe=./_build/default/perfbench/main.exe
cpu=$(sed -n 's/^Cpus_allowed_list:[[:space:]]*//p' /proc/self/status | tr ',-' '\n\n' | tail -n 1)
if [[ -n "$cpu" ]] && command -v taskset >/dev/null && taskset -c "$cpu" true 2>/dev/null; then
  exec taskset -c "$cpu" "$exe" "$@"
fi
exec "$exe" "$@"
