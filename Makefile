.PHONY: build test ci chaos bench-smoke obs-smoke serve-smoke reactor-smoke telemetry-smoke chaos-serve-smoke graph-smoke lint lint-deep lint-smoke lint-deep-smoke bench-baseline serve-bench clean

build:
	dune build

test:
	dune runtest

# Everything CI gates on: all targets (including bench/ and examples/),
# the full test suite, and the smoke checks (bench-smoke's traced
# ladder gated against BENCH_mc.json among them).
ci:
	dune build @ci

# Fast perf-plumbing check: two 3 s traced runs of the repository
# benchmark recorded in the baseline's schema (tiny Monte-Carlo trial
# counts), its shape validated and every layer timed at 1 us or more
# in BENCH_mc.json gated at 3x its recorded max, read as the better of
# the two runs; a second run of the validator at factor 0.01 must
# exit 1 (also part of @ci).
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

# Full recorded perf baseline, written to BENCH_mc.json: the traced
# per-layer ladder (perfbench/run.py --trace 1, each run a fresh
# process pinned to one CPU) over BENCH_SEEDS, as min/median/max per
# layer, plus the 1,000,000-trial Monte-Carlo wall clock at jobs=1 vs
# jobs=N (N = the CPUs available).
BENCH_SEEDS = 1 2 3 4 5
BENCH_SECONDS = 10
BENCH_LADDER = _build/bench-ladder

bench-baseline:
	mkdir -p $(BENCH_LADDER)
	for s in $(BENCH_SEEDS); do \
	  python3 perfbench/run.py --workload simulate --seed $$s \
	    --seconds $(BENCH_SECONDS) --trace 1 > $(BENCH_LADDER)/seed-$$s.out \
	    || exit 1; \
	done
	dune exec bench/main.exe -- --json BENCH_mc.json \
	  $(foreach s,$(BENCH_SEEDS),$(BENCH_LADDER)/seed-$(s).out)

# Full chaos-serve run: 10k requests from 4 retrying clients through
# the seeded chaos transports (fault-injected clients + one handler
# crash on a live shard), byte-compared against direct library calls,
# written to SERVE_bench.json (its "chaos" section).  Serve load is
# measured by perfbench's serve-hot (`make bench-baseline` records its
# layers in BENCH_mc.json).
serve-bench:
	dune exec bench/main.exe -- serve --json SERVE_bench.json

# Soak run of the chaos invariant suite (default is 500 schedules).
chaos:
	CHAOS_ITERS=5000 dune exec test/test_chaos.exe

clean:
	dune clean
