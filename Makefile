.PHONY: build test ci chaos bench-smoke obs-smoke serve-smoke reactor-smoke telemetry-smoke chaos-serve-smoke graph-smoke lint lint-deep lint-smoke lint-deep-smoke bench-baseline serve-bench clean

build:
	dune build

test:
	dune runtest

# Everything CI gates on: all targets (including bench/ and examples/),
# the full test suite, and the bench-smoke JSON shape check.
ci:
	dune build @ci

# Fast perf-plumbing check: emit the bench JSON with tiny trial counts
# and validate its shape (also part of @ci).
bench-smoke:
	dune build @bench-smoke

# Observability smoke: run the `swap_cli obs` probe workload and
# validate the metrics snapshot + span trace it exports (also part of
# @ci).
obs-smoke:
	dune build @obs-smoke

# Serving smoke: pipe-mode server + fixed request script, every
# response line pinned (ids, status, error codes, payload shapes,
# cache byte-identity of the repeated request) (also part of @ci).
serve-smoke:
	dune build @serve-smoke

# Reactor smoke: the fixed request script over a real socket reactor —
# JSON leg pinned to the pipe-mode transcript, binary leg pinned
# byte-identical to the JSON rows (health shape-pinned) (also part of
# @ci).
reactor-smoke:
	dune build @reactor-smoke

# Telemetry smoke: the fixed script through a single-shard reactor with
# sampling forced to 1-in-1, then the `stats` request over both codecs
# and a flight-recorder dump, shapes validated (also part of @ci).
telemetry-smoke:
	dune build @telemetry-smoke

# Chaos-serve smoke: seeded fault-injected load (torn writes, truncated
# responses, resets) through the retrying client, plus one handler
# crash injected on a live reactor shard; gate pins success >= 99%,
# zero byte mismatches, the crash answered internal_error with its
# connection's next answer byte-identical, and a hard wall budget
# (also part of @ci).
chaos-serve-smoke:
	dune build @chaos-serve-smoke

# Graph smoke: a tiny `swap_cli graph-sweep --json` run (every topology
# family, two random seeds, two slacks) validated structurally —
# staggered-expiry schedules, probability SRs, and routes that exist
# edge-by-edge in the served token universe (also part of @ci).
graph-smoke:
	dune build @graph-smoke

# Static analysis: parse the whole source tree and enforce the
# determinism/domain-safety invariants (DESIGN.md §10); fails on any
# unsuppressed error-severity finding (also part of @ci).
lint:
	dune build @lint

# Whole-program static analysis: build the cross-module call graph
# from the .cmt typedtrees and run the interprocedural passes —
# nondeterminism taint into deterministic sinks, blocking syscalls on
# the reactor's per-connection hot path, cross-unit lock discipline
# (DESIGN.md §15); fails on any unsuppressed error (also part of @ci).
lint-deep:
	dune build @lint-deep

# Lint plumbing check: swap_lint over the deliberately broken fixture
# tree, htlc-lint/v1 document shape validated (also part of @ci).
lint-smoke:
	dune build @lint-smoke

# Deep-lint plumbing check: the fixture's compiled half through the
# whole-program pass — cross-module taint, hot-path blocking, and
# cross-unit lock chains all reported, deep suppression round-trip
# counted, htlc-lint/v2 shape validated (also part of @ci).
lint-deep-smoke:
	dune build @lint-deep-smoke

# Full recorded perf baseline: every kernel + the 20k-trial Monte-Carlo
# wall clock at jobs=1 vs jobs=N, written to BENCH_mc.json.
bench-baseline:
	dune exec bench/main.exe -- --json BENCH_mc.json

# Full serve load run: 100k requests against the socket reactor (4
# pipelined clients, both codecs), byte-compared against direct
# library calls, then the first 10k again through the seeded chaos
# transports (fault-injected clients + one handler crash on a live
# shard), written to SERVE_bench.json ("serve" + "chaos" sections).
serve-bench:
	dune exec bench/main.exe -- serve --json SERVE_bench.json --chaos

# Soak run of the chaos invariant suite (default is 500 schedules).
chaos:
	CHAOS_ITERS=5000 dune exec test/test_chaos.exe

clean:
	dune clean
