#!/usr/bin/env bash
# Builds the perfbench program from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload bulk_64k --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout. Outside a checkout (no go.mod beside perfbench/) the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
[ -f go.mod ] && [ -d perfbench ] || { echo "perfbench: run from the repository root" >&2; exit 2; }
. perfbench/goenv.sh
(cd perfbench && go build -o "$bench_out/perfbench" .)
exec "$bench_out/perfbench" "$@"
