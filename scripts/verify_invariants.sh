#!/usr/bin/env bash
# Source-analyzer lint gate: the repo's single lint entry point.
#
# Runs tools/ddcverify — the token-aware analyzer — with its four rule
# families:
#
#   determinism      raw-rand, nonportable-engine, unordered-iter,
#                    wall-clock, float-reorder: no nondeterminism hazard
#                    may even be mentioned in the deterministic modules
#                    (the --deterministic list below). Modules that
#                    legitimately touch real time, sockets or hash maps
#                    (net, io, metrics, cli, workload) stay out of it.
#   wire-taint       src/wire, src/net, src/shard: transport-derived
#                    bytes must flow through the bounds-checked Decoder;
#                    raw memcpy / pointer arithmetic / reinterpret_cast
#                    on tainted buffers is flagged.
#   hot-path-alloc   functions reachable from a `// ddcverify: hotpath`
#                    root must not allocate (new/malloc/make_unique or
#                    fresh owning containers) — scratch must be hoisted.
#   simd-parity      every kernel registered in the linalg::simd
#                    dispatch seam needs a scalar twin, and every
#                    dispatch accessor must appear in the equivalence
#                    tests.
#
# Kept exceptions carry inline `// ddcverify: allow(<rule>)` markers
# with an audit rationale on the same or preceding line — the analyzer
# reports a clean tree only when every unmarked site is genuinely clean.
#
# The analyzer's self-test runs first: one planted violation and one
# allow-marker per rule, so a rule that goes blind (or a marker that
# stops suppressing) fails the gate before the tree scan can vacuously
# pass.
#
# Usage:
#   scripts/verify_invariants.sh           # self-test + scan
#   BUILD_DIR=build scripts/verify_invariants.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
DDCVERIFY="$BUILD_DIR/tools/ddcverify"

if [[ ! -x "$DDCVERIFY" ]]; then
  echo "verify_invariants: building ddcverify..."
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" --target ddcverify -j "$(nproc)" >/dev/null
fi

"$DDCVERIFY" --self-test

# The deterministic modules: everything whose behaviour is a pure
# function of (inputs, options, seed). Every rule family scans them; the
# positional paths add the transport layer and the node binary's
# stats/result plumbing, which are scanned for everything but
# determinism.
DETERMINISTIC=src/common,src/linalg,src/stats,src/core,src/summaries,src/em
DETERMINISTIC+=,src/partition,src/exec,src/sim,src/gossip,src/wire,src/shard
DETERMINISTIC+=,src/audit
"$DDCVERIFY" \
  --deterministic "$DETERMINISTIC" \
  --simd-dispatch src/linalg/include/ddc/linalg/simd.hpp,src/linalg/src/simd.cpp \
  --simd-tests tests/linalg/kernel_equivalence_test.cpp,tests/stats/score_batch_test.cpp \
  src/net \
  tools/ddcnode.cpp \
  tools/result_line.hpp

echo "Source-analyzer lint passed."
