# Sourced by run.sh and gen_refs.sh from the repository root: keeps the
# Go toolchain's build cache, work and temporary directories, module
# cache and config inside the checkout, under .bench_build, and forbids
# toolchain downloads.
bench_out="$(pwd)/.bench_build/perfbench"
mkdir -p "$bench_out/tmp"
export GOCACHE="$bench_out/gocache" GOPATH="$bench_out/gopath" GOTMPDIR="$bench_out/tmp" TMPDIR="$bench_out/tmp" \
	XDG_CONFIG_HOME="$bench_out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOTELEMETRY=off
