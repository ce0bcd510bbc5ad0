#!/usr/bin/env bash
# Launches a cluster of S ddcnode shard processes over UDP localhost,
# each hosting its share of --nodes simulated nodes (batched cross-shard
# traffic, one UDP frame per peer shard per round), checks that every
# shard reports the same final classification, and cross-validates the
# result against the in-process simulator (ddcsim --summary-line) on the
# same seeded workload. A healthy run must match ddcsim exactly.
#
#   scripts/run_cluster.sh --shards 4 --nodes 4000
#   scripts/run_cluster.sh --shards 4 --nodes 4000 --kill-shard 2
#   scripts/run_cluster.sh --shards 4 --nodes 2048 --shard-map edgecut
#   scripts/run_cluster.sh --shards 2 --nodes 512 --loss 0.1
#
# Exit status 0 iff the cluster converged and matches the simulator.
set -euo pipefail
cd "$(dirname "$0")/.."

SHARDS=""
NODES=200
PROTOCOL=gm
BASE_PORT=""
SEED=1
ROUNDS=60
LOSS=0
KILL_SHARD=""
SHARD_MAP=contiguous
BUILD_DIR=build
# Numeric tolerances for the cross-checks. Weights drift by the residual
# gossip imbalance; means sit on well-separated clusters (0 vs 25), so
# these bands are tight relative to the structure being recovered.
WEIGHT_TOL=0.05
MEAN_TOL=1.0

usage() { sed -n '2,15p' "$0"; exit "${1:-0}"; }

while [[ $# -gt 0 ]]; do
  case "$1" in
    --shards)     SHARDS=$2; shift 2 ;;
    --nodes)      NODES=$2; shift 2 ;;
    --protocol)   PROTOCOL=$2; shift 2 ;;
    --base-port)  BASE_PORT=$2; shift 2 ;;
    --seed)       SEED=$2; shift 2 ;;
    --rounds)     ROUNDS=$2; shift 2 ;;
    --loss)       LOSS=$2; shift 2 ;;
    --kill-shard) KILL_SHARD=$2; shift 2 ;;
    --shard-map)  SHARD_MAP=$2; shift 2 ;;
    --build-dir)  BUILD_DIR=$2; shift 2 ;;
    -h|--help)    usage ;;
    *) echo "run_cluster.sh: unknown argument '$1'" >&2; usage 1 ;;
  esac
done

if [[ -z "$SHARDS" ]]; then
  echo "run_cluster.sh: --shards is required" >&2
  usage 1
fi

# Port base: seed-derived, not $RANDOM, so two runs on the same seed pick
# the same range (reproducible) while different seeds spread across the
# ephemeral space instead of colliding on a fixed constant. A run that
# still lands on occupied ports is retried on a shifted base below.
if [[ -z "$BASE_PORT" ]]; then
  BASE_PORT=$(( 9800 + (SEED * 7919 % 500) * 16 ))
fi

DDCNODE="$BUILD_DIR/tools/ddcnode"
DDCSIM="$BUILD_DIR/tools/ddcsim"
for bin in "$DDCNODE" "$DDCSIM"; do
  if [[ ! -x "$bin" ]]; then
    echo "run_cluster.sh: $bin not built (cmake --build $BUILD_DIR -j)" >&2
    exit 1
  fi
done

WORK_DIR=$(mktemp -d)
trap 'jobs -p | xargs -r kill 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$WORK_DIR"' EXIT

declare -a PIDS

# launch_shard <index> — one shard process writing to
# $WORK_DIR/node<index>.{out,err}, pid recorded in PIDS[index].
launch_shard() {
  local i=$1
  "$DDCNODE" --shard-id "$i" --num-shards "$SHARDS" --nodes "$NODES" \
    --base-port "$BASE_PORT" --protocol "$PROTOCOL" --seed "$SEED" \
    --rounds "$ROUNDS" --shard-map "$SHARD_MAP" --loss-prob "$LOSS" \
    --stats-json > "$WORK_DIR/node$i.out" 2> "$WORK_DIR/node$i.err" &
  PIDS[i]=$!
}

# Launch with bind-failure retry: if any shard cannot bind its port
# (stale process, overlapping CI job), kill the attempt and shift the
# whole cluster to a fresh port range.
for attempt in 1 2 3 4 5; do
  for (( i = 0; i < SHARDS; i++ )); do
    launch_shard "$i"
  done
  sleep 0.4
  BIND_FAILED=0
  for (( i = 0; i < SHARDS; i++ )); do
    if ! kill -0 "${PIDS[i]}" 2>/dev/null \
        && grep -q "cannot bind" "$WORK_DIR/node$i.err" 2>/dev/null; then
      BIND_FAILED=1
    fi
  done
  [[ "$BIND_FAILED" == 0 ]] && break
  echo "port range $BASE_PORT+ busy (attempt $attempt); retrying" >&2
  for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  BASE_PORT=$(( BASE_PORT + 8192 ))
  if [[ "$BASE_PORT" -gt 57000 ]]; then BASE_PORT=$(( BASE_PORT - 47000 )); fi
  if [[ "$attempt" == 5 ]]; then
    echo "run_cluster.sh: no free port range found" >&2
    exit 1
  fi
done

echo "cluster: $SHARDS shards, $NODES nodes ($PROTOCOL, $SHARD_MAP map) on 127.0.0.1:$BASE_PORT+, seed $SEED, loss $LOSS${KILL_SHARD:+, kill+restart shard $KILL_SHARD}"

if [[ -n "$KILL_SHARD" ]]; then
  # Kill a whole shard mid-exchange (past the start barrier, into the
  # round loop), then restart it: the survivors must time the dead shard
  # out and keep rounding; the restarted process replays its rounds from
  # scratch, catches up through the survivors' buffered batches, and
  # rejoins the exchange.
  sleep 4
  kill -9 "${PIDS[KILL_SHARD]}" 2>/dev/null || true
  echo "killed shard $KILL_SHARD (pid ${PIDS[KILL_SHARD]})"
  sleep 1.5
  launch_shard "$KILL_SHARD"
  echo "restarted shard $KILL_SHARD (pid ${PIDS[KILL_SHARD]})"
fi

FAILED=0
for (( i = 0; i < SHARDS; i++ )); do
  if ! wait "${PIDS[i]}"; then
    echo "shard $i exited non-zero:" >&2
    cat "$WORK_DIR/node$i.err" >&2
    FAILED=1
  fi
done
[[ "$FAILED" == 0 ]] || exit 1

# Collect RESULT lines from every shard.
: > "$WORK_DIR/results"
for (( i = 0; i < SHARDS; i++ )); do
  line=$(grep '^RESULT ' "$WORK_DIR/node$i.out" || true)
  if [[ -z "$line" ]]; then
    echo "shard $i produced no RESULT line:" >&2
    cat "$WORK_DIR/node$i.err" >&2
    exit 1
  fi
  echo "shard $i: $line"
  echo "$line" >> "$WORK_DIR/results"
done

# The simulator's answer on the identical workload and seed. The shards
# replay the simulator's round protocol exactly, so they compare against
# a lossless simulator run (transport loss is absorbed by retransmits).
SIM_LINE=$("$DDCSIM" --protocol "$PROTOCOL" --workload clusters \
  --nodes "$NODES" --rounds "$ROUNDS" --seed "$SEED" \
  --loss-prob 0 --summary-line | grep '^RESULT ')
echo "ddcsim: $SIM_LINE"

# compare_results <reference-line> <file-of-lines> <weight-tol> <mean-tol>
# Lines are "RESULT k w mean... w mean..." with collections sorted by
# mean, so positional comparison is meaningful. Field 2 (k) must match
# exactly; weights compare within the weight tolerance, means within the
# mean tolerance.
compare_results() {
  awk -v ref="$1" -v wtol="$3" -v mtol="$4" '
    BEGIN {
      n = split(ref, r, " ")
      if (n < 3) { print "malformed reference: " ref; exit 1 }
      k = r[2]
      dim = (n - 3 + 1) / k - 1   # fields per collection minus the weight
    }
    {
      if ($2 != k) {
        printf "MISMATCH line %d: k=%s, expected %s\n", NR, $2, k
        bad = 1; next
      }
      for (f = 3; f <= n; f++) {
        # Field f is a weight iff it starts a collection block.
        is_weight = ((f - 3) % (dim + 1) == 0)
        tol = is_weight ? wtol : mtol
        d = $f - r[f]; if (d < 0) d = -d
        if (d > tol) {
          printf "MISMATCH line %d field %d: %s vs %s (tol %s)\n", \
                 NR, f, $f, r[f], tol
          bad = 1
        }
      }
    }
    END { exit bad ? 1 : 0 }
  ' "$2"
}

# Shard-vs-shard agreement: summaries must match to RESULT precision;
# relative weights carry the residual mixing imbalance, which grows when
# the channel destroys weight or a shard missed rounds.
NODE_WEIGHT_TOL=$(awk "BEGIN { print ($LOSS > 0) ? 0.01 : 1e-4 }")
NODE_MEAN_TOL=1e-4
if [[ -n "$KILL_SHARD" ]]; then
  NODE_WEIGHT_TOL=$WEIGHT_TOL
  NODE_MEAN_TOL=$MEAN_TOL
fi
REFERENCE=$(head -1 "$WORK_DIR/results")
echo
if ! compare_results "$REFERENCE" "$WORK_DIR/results" "$NODE_WEIGHT_TOL" "$NODE_MEAN_TOL"; then
  echo "FAIL: shards disagree on the final classification" >&2
  exit 1
fi
echo "OK: all $(wc -l < "$WORK_DIR/results") shards agree"

if [[ -z "$KILL_SHARD" ]]; then
  # Healthy shard runs replay ddcsim's protocol bit for bit: shard 0
  # reports global node 0, the same node ddcsim's summary line reports,
  # so the two lines must be identical strings.
  SHARD0_LINE=$(grep '^RESULT ' "$WORK_DIR/node0.out")
  if [[ "$SHARD0_LINE" != "$SIM_LINE" ]]; then
    echo "FAIL: shard 0 RESULT differs from ddcsim (expected exact match)" >&2
    echo "  shard 0: $SHARD0_LINE" >&2
    echo "  ddcsim:  $SIM_LINE" >&2
    exit 1
  fi
  echo "OK: shard 0 matches ddcsim exactly"
fi

if ! compare_results "$SIM_LINE" "$WORK_DIR/results" "$WEIGHT_TOL" "$MEAN_TOL"; then
  echo "FAIL: cluster result does not match the in-process simulator" >&2
  exit 1
fi
echo "OK: cluster matches ddcsim (weights ±$WEIGHT_TOL, means ±$MEAN_TOL)"

if [[ "$SHARDS" -gt 1 ]]; then
  # Batching efficiency: the whole point of the batch frame is packing
  # many cross-shard messages into one datagram. Assert the mean number
  # of records per sent batch frame exceeds 1 on every shard that ran
  # the full exchange.
  for (( i = 0; i < SHARDS; i++ )); do
    rpf=$(grep -o '"records_per_frame":[0-9.]*' "$WORK_DIR/node$i.out" \
          | head -1 | cut -d: -f2)
    if [[ -z "$rpf" ]]; then
      echo "FAIL: shard $i printed no stats-json records_per_frame" >&2
      exit 1
    fi
    if ! awk "BEGIN { exit !($rpf > 1.0) }"; then
      echo "FAIL: shard $i mean records/frame = $rpf (want > 1)" >&2
      exit 1
    fi
  done
  echo "OK: batched exchange packs > 1 message per frame on every shard"
fi
