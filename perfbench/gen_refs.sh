#!/usr/bin/env bash
# Regenerates perfbench/refs.txt, the benchmark's correctness references:
# the sha256 of each bulk_64k and churn_10k cell's `affinity-sim -json`
# output, and of each fleet_sweep NDJSON stream as a serial single node
# serves it, for the 16 simulation seeds and both sizes. Run from the
# repository root (takes a few minutes on two cores):
#
#   bash perfbench/gen_refs.sh
set -euo pipefail
[ -f go.mod ] && [ -d perfbench ] || { echo "gen_refs: run from the repository root" >&2; exit 2; }
. perfbench/goenv.sh
gen="$bench_out/refgen"
mkdir -p "$gen"
go build -o "$gen/affinity-sim" ./cmd/affinity-sim
(cd perfbench && go build -o "$gen/perfbench" .)

cells() {
	for seed in $(seq 1 16); do
		for size in full tiny; do
			if [ "$size" = full ]; then w=30000000 m=100000000 conns=10000; else w=1000000 m=3000000 conns=300; fi
			for mode in none proc irq full; do
				echo "bulk_64k/$size/seed=$seed/$mode -mode $mode -dir tx -size 65536 -seed $seed -warmup $w -measure $m"
			done
			echo "churn_10k/$size/seed=$seed -mode full -dir tx -size 65536 -seed $seed -workload openloop,conns=$conns"
		done
	done
}
export SIM="$gen/affinity-sim"
# The digest covers the JSON document without affinity-sim's final newline.
cells | xargs -P 2 -L 1 bash -c 'set -o pipefail; d=$("$SIM" "$@" -json | head -c -1 | sha256sum | cut -d" " -f1) && echo "$0 $d"' > "$gen/refs.txt"
"$gen/perfbench" -gen-fleet-refs >> "$gen/refs.txt"
sort "$gen/refs.txt" > perfbench/refs.txt
wc -l perfbench/refs.txt
