#!/usr/bin/env sh
# One-command tier-1 verify: configure the `ci` preset (-Wall -Wextra -Werror
# plus ASan/UBSan), build everything, run the full ctest suite, then smoke
# the streaming batch pipeline (sharded), the serve loop (probe + result
# cache hits + the stats frame), the warm-state store (a second batch
# process against the same --store dir must answer from the disk tier), the
# unix-socket serve mode (two concurrent clients, then a Prometheus scrape
# via `metrics --connect` and the --slow-ms slow-request log), the TCP serve
# mode, the routed fleet (`route` over 2 supervised backends with a
# fault-injected crash — zero client-visible errors, nonzero retry counter
# in the scrape), the graph-class lattice via `list-algs --json`, the SIMD
# dispatch layer (a BISCHED_SIMD=scalar solve byte-diffed against default
# dispatch), the hot-path + store + fleet benches' JSON reports end to
# end with the sanitized binaries, and the epoll serve core (a 64-connection
# sim replay over TCP with zero errors, a pipelined client answered in send
# order, and the event-loop gauges in the scrape), the fingerprint warm
# path (an inline repeat answered from the index, counted in the scrape),
# and finally engine_tests rebuilt and run under ThreadSanitizer.
# Single-threaded where it matters: the CI runner has one CPU.
#
#   $ tools/ci.sh [extra ctest args...]
set -eu

cd "$(dirname "$0")/.."
cmake --preset ci
cmake --build --preset ci -j "$(nproc)"
ctest --preset ci "$@"

# ---------------------------------------------------------------- smoke ---
# Shards must partition the corpus (3 + 2 = 5 data rows) and serve must
# answer two framed requests — the second a warm probe-cache hit — from one
# process.
CLI=build-ci/bisched_cli
SMOKE=$(mktemp -d)
SERVER_PID=
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$SMOKE"' EXIT
mkdir "$SMOKE/corpus"

for i in 1 2 3 4 5; do
  "$CLI" gen gilbert --n=12 --a=2 --m=3 --seed="$i" > "$SMOKE/corpus/q$i.inst"
done

"$CLI" batch --dir="$SMOKE/corpus" --shard=0/2 --stable --out="$SMOKE/s0.csv"
"$CLI" batch --dir="$SMOKE/corpus" --shard=1/2 --stable --out="$SMOKE/s1.csv"
rows0=$(($(wc -l < "$SMOKE/s0.csv") - 1))
rows1=$(($(wc -l < "$SMOKE/s1.csv") - 1))
[ "$((rows0 + rows1))" -eq 5 ] || {
  echo "ci.sh: shard smoke failed: $rows0 + $rows1 != 5 rows" >&2
  exit 1
}

{
  printf 'solve %s warm-up\n' "$SMOKE/corpus/q1.inst"
  printf 'solve %s repeat\n' "$SMOKE/corpus/q1.inst"
  printf 'stats probe\n'
  printf 'quit\n'
} | "$CLI" serve --stable --threads=1 > "$SMOKE/serve.out"
grep -q '"id": "repeat".*"cache": "hit-memory"' "$SMOKE/serve.out" || {
  echo "ci.sh: serve smoke failed: no warm probe-cache hit recorded" >&2
  cat "$SMOKE/serve.out" >&2
  exit 1
}
grep -q '"id": "repeat".*"solve_cache": "hit-memory"' "$SMOKE/serve.out" || {
  echo "ci.sh: serve smoke failed: no warm result-cache hit recorded" >&2
  cat "$SMOKE/serve.out" >&2
  exit 1
}
# The stats frame is answered inline (it deliberately overtakes queued
# solves), so only the synchronously-counted field is asserted here; exact
# hit counters are pinned by the lockstep subprocess test in engine_tests.
grep -q '"id": "probe".*"type": "stats".*"requests": 3' "$SMOKE/serve.out" || {
  echo "ci.sh: serve smoke failed: stats frame missing or wrong" >&2
  cat "$SMOKE/serve.out" >&2
  exit 1
}

# ----------------------------------------------------- warm-store smoke ---
# Two batch PROCESSES against one --store directory: the first runs cold
# and persists its warmth; the second must answer every row from the disk
# tier — the "a fleet shard is warmed by pointing it at a directory" claim.
STORE="$SMOKE/store"
"$CLI" batch --dir="$SMOKE/corpus" --stable --threads=1 --store="$STORE" \
  --out="$SMOKE/cold.csv"
"$CLI" batch --dir="$SMOKE/corpus" --stable --threads=1 --store="$STORE" \
  --out="$SMOKE/warm.csv"
[ "$(grep -c 'hit-disk,hit-disk' "$SMOKE/warm.csv")" -eq 5 ] || {
  echo "ci.sh: store smoke failed: second batch pass did not hit the disk tier" >&2
  cat "$SMOKE/warm.csv" >&2
  exit 1
}
if grep -q 'hit-disk' "$SMOKE/cold.csv"; then
  echo "ci.sh: store smoke failed: cold pass reported disk hits" >&2
  cat "$SMOKE/cold.csv" >&2
  exit 1
fi
# Rows are identical apart from the provenance columns.
sed 's/hit-disk/miss/g; s/hit-memory/miss/g' "$SMOKE/warm.csv" > "$SMOKE/warm.norm"
sed 's/hit-disk/miss/g; s/hit-memory/miss/g' "$SMOKE/cold.csv" > "$SMOKE/cold.norm"
cmp -s "$SMOKE/warm.norm" "$SMOKE/cold.norm" || {
  echo "ci.sh: store smoke failed: warm rows differ from cold rows beyond provenance" >&2
  diff "$SMOKE/cold.norm" "$SMOKE/warm.norm" >&2 || true
  exit 1
}

# ---------------------------------------------------- socket serve smoke ---
# serve --listen=unix:PATH must answer two CONCURRENT clients (both
# connected via `client` before either finishes) from one resident server,
# then exit cleanly on a `shutdown` frame. 1-CPU friendly: --threads=1, and
# the whole exchange is a handful of tiny solves. --slow-ms=0 logs every
# solve, so the slow-request log is validated on the same server.
SOCK="$SMOKE/serve.sock"
"$CLI" serve --listen="unix:$SOCK" --threads=1 --stable --slow-ms=0 \
  > "$SMOKE/server.log" 2>&1 &
SERVER_PID=$!
tries=0
while [ ! -S "$SOCK" ]; do
  tries=$((tries + 1))
  [ "$tries" -le 100 ] || {
    echo "ci.sh: socket smoke failed: $SOCK never appeared" >&2
    cat "$SMOKE/server.log" >&2
    exit 1
  }
  sleep 0.1
done
printf 'solve %s c1\n' "$SMOKE/corpus/q1.inst" \
  | "$CLI" client --connect="unix:$SOCK" > "$SMOKE/c1.out" &
CLIENT1=$!
printf 'solve %s c2\n' "$SMOKE/corpus/q2.inst" \
  | "$CLI" client --connect="unix:$SOCK" > "$SMOKE/c2.out" &
CLIENT2=$!
wait "$CLIENT1" && wait "$CLIENT2" || {
  echo "ci.sh: socket smoke failed: a client exited nonzero" >&2
  cat "$SMOKE/server.log" >&2
  exit 1
}
grep -q '"id": "c1".*"status": "ok"' "$SMOKE/c1.out" || {
  echo "ci.sh: socket smoke failed: client 1 got no ok response" >&2
  cat "$SMOKE/c1.out" "$SMOKE/server.log" >&2
  exit 1
}
grep -q '"id": "c2".*"status": "ok"' "$SMOKE/c2.out" || {
  echo "ci.sh: socket smoke failed: client 2 got no ok response" >&2
  cat "$SMOKE/c2.out" "$SMOKE/server.log" >&2
  exit 1
}

# ------------------------------------------------------- metrics smoke ---
# One-shot Prometheus scrape of the live server: both solves above are
# settled (their clients exited), so the engine counters are deterministic.
"$CLI" metrics --connect="unix:$SOCK" > "$SMOKE/metrics.out" || {
  echo "ci.sh: metrics smoke failed: scrape exited nonzero" >&2
  cat "$SMOKE/server.log" >&2
  exit 1
}
grep -q '# TYPE bisched_solve_latency_ms histogram' "$SMOKE/metrics.out" || {
  echo "ci.sh: metrics smoke failed: latency histogram missing" >&2
  cat "$SMOKE/metrics.out" >&2
  exit 1
}
grep -q 'bisched_solves_total{status="ok"} 2' "$SMOKE/metrics.out" || {
  echo "ci.sh: metrics smoke failed: solve counter wrong" >&2
  cat "$SMOKE/metrics.out" >&2
  exit 1
}
grep -q 'bisched_serve_frames_total{type="solve"} 2' "$SMOKE/metrics.out" || {
  echo "ci.sh: metrics smoke failed: per-type frame counter wrong" >&2
  cat "$SMOKE/metrics.out" >&2
  exit 1
}
grep -q 'bisched_cache_lookups_total{cache="profile",result="miss"} 2' \
  "$SMOKE/metrics.out" || {
  echo "ci.sh: metrics smoke failed: per-tier cache counter wrong" >&2
  cat "$SMOKE/metrics.out" >&2
  exit 1
}
grep -q 'bisched_simd_level{level="' "$SMOKE/metrics.out" || {
  echo "ci.sh: metrics smoke failed: simd level info gauge missing" >&2
  cat "$SMOKE/metrics.out" >&2
  exit 1
}
# Exposition syntax: every non-comment, non-blank line is `series value`.
if awk '/^#/ || /^$/ { next } NF != 2 { exit 1 }' "$SMOKE/metrics.out"; then :; else
  echo "ci.sh: metrics smoke failed: malformed exposition line" >&2
  cat "$SMOKE/metrics.out" >&2
  exit 1
fi

printf 'shutdown\n' | "$CLI" client --connect="unix:$SOCK" > /dev/null
wait "$SERVER_PID" || {
  echo "ci.sh: socket smoke failed: server exited nonzero" >&2
  cat "$SMOKE/server.log" >&2
  exit 1
}
SERVER_PID=
grep -q '4 sessions' "$SMOKE/server.log" || {
  echo "ci.sh: socket smoke failed: expected 4 sessions in the stats line" >&2
  cat "$SMOKE/server.log" >&2
  exit 1
}
# --slow-ms=0 must have logged each solve with its trace id and span tree.
[ "$(grep -c 'serve: slow-request trace=t-' "$SMOKE/server.log")" -eq 2 ] || {
  echo "ci.sh: slow-log smoke failed: expected 2 slow-request lines" >&2
  cat "$SMOKE/server.log" >&2
  exit 1
}
grep -q 'serve: slow-request trace=t-.* status=ok .* spans=request:' \
  "$SMOKE/server.log" || {
  echo "ci.sh: slow-log smoke failed: line lacks status or span breakdown" >&2
  cat "$SMOKE/server.log" >&2
  exit 1
}

# ----------------------------------------------------- fingerprint smoke ---
# The parse-free warm path over a unix socket: one inline JSON instance sent
# 3 times must be parsed once and answered from the fingerprint index twice
# (the scrape runs after the client exited, so the counters are settled).
FP_SOCK="$SMOKE/fp.sock"
"$CLI" serve --listen="unix:$FP_SOCK" --threads=1 --stable \
  > "$SMOKE/fp-server.log" 2>&1 &
SERVER_PID=$!
tries=0
while [ ! -S "$FP_SOCK" ]; do
  tries=$((tries + 1))
  [ "$tries" -le 100 ] || {
    echo "ci.sh: fingerprint smoke failed: $FP_SOCK never appeared" >&2
    cat "$SMOKE/fp-server.log" >&2
    exit 1
  }
  sleep 0.1
done
FP_BODY=$(awk '{ printf "%s\\n", $0 }' "$SMOKE/corpus/q3.inst")
for i in 1 2 3; do
  printf '{"id": "fp%s", "instance": "%s"}\n' "$i" "$FP_BODY"
done | "$CLI" client --connect="unix:$FP_SOCK" > "$SMOKE/fp.out" || {
  echo "ci.sh: fingerprint smoke failed: client exited nonzero" >&2
  cat "$SMOKE/fp-server.log" >&2
  exit 1
}
[ "$(grep -c '"status": "ok".*"solve_cache": "hit-memory"' "$SMOKE/fp.out")" -eq 2 ] || {
  echo "ci.sh: fingerprint smoke failed: expected 2 warm repeats" >&2
  cat "$SMOKE/fp.out" >&2
  exit 1
}
"$CLI" metrics --connect="unix:$FP_SOCK" > "$SMOKE/fp-metrics.out"
grep -q 'bisched_fingerprint_lookups_total{outcome="hit"} 2$' "$SMOKE/fp-metrics.out" \
  && grep -q 'bisched_fingerprint_lookups_total{outcome="miss"} 1$' \
    "$SMOKE/fp-metrics.out" || {
  echo "ci.sh: fingerprint smoke failed: expected 2 index hits and 1 miss" >&2
  cat "$SMOKE/fp-metrics.out" >&2
  exit 1
}
printf 'shutdown\n' | "$CLI" client --connect="unix:$FP_SOCK" > /dev/null
wait "$SERVER_PID" || {
  echo "ci.sh: fingerprint smoke failed: server exited nonzero" >&2
  cat "$SMOKE/fp-server.log" >&2
  exit 1
}
SERVER_PID=

# ------------------------------------------------------- tcp serve smoke ---
# serve --listen=tcp:127.0.0.1:0 binds an ephemeral loopback port and
# announces it; a client solves over TCP against the SAME --store dir, so
# the answer comes off the disk tier warmed by the batch smoke above.
"$CLI" serve --listen=tcp:127.0.0.1:0 --threads=1 --stable --store="$STORE" \
  > "$SMOKE/tcp-server.out" 2> "$SMOKE/tcp-server.log" &
SERVER_PID=$!
tries=0
PORT=
while [ -z "$PORT" ]; do
  tries=$((tries + 1))
  [ "$tries" -le 100 ] || {
    echo "ci.sh: tcp smoke failed: server never announced its port" >&2
    cat "$SMOKE/tcp-server.log" >&2
    exit 1
  }
  PORT=$(sed -n 's/.*listening on tcp:127.0.0.1:\([0-9][0-9]*\).*/\1/p' \
    "$SMOKE/tcp-server.log")
  [ -n "$PORT" ] || sleep 0.1
done
printf 'solve %s over-tcp\n' "$SMOKE/corpus/q1.inst" \
  | "$CLI" client --connect="tcp:127.0.0.1:$PORT" > "$SMOKE/tcp-c1.out"
grep -q '"id": "over-tcp".*"solve_cache": "hit-disk"' "$SMOKE/tcp-c1.out" || {
  echo "ci.sh: tcp smoke failed: no disk-tier hit served over tcp" >&2
  cat "$SMOKE/tcp-c1.out" "$SMOKE/tcp-server.log" >&2
  exit 1
}
printf 'shutdown\n' | "$CLI" client --connect="tcp:127.0.0.1:$PORT" > /dev/null
wait "$SERVER_PID" || {
  echo "ci.sh: tcp smoke failed: server exited nonzero" >&2
  cat "$SMOKE/tcp-server.log" >&2
  exit 1
}
SERVER_PID=
# The loopback guard: a wildcard bind without --allow-remote must be refused.
# Under `timeout`: if the guard ever regresses, serve would bind and sit in
# its accept loop forever — CI must fail, not hang (124 lands in the else
# branch, where the missing refusal message reports the regression).
if timeout 10 "$CLI" serve --listen=tcp:0.0.0.0:0 --threads=1 \
  2> "$SMOKE/tcp-refuse.log"; then
  echo "ci.sh: tcp smoke failed: non-loopback bind was not refused" >&2
  exit 1
fi
grep -q 'allow-remote' "$SMOKE/tcp-refuse.log" || {
  echo "ci.sh: tcp smoke failed: refusal did not mention --allow-remote" >&2
  cat "$SMOKE/tcp-refuse.log" >&2
  exit 1
}

# --------------------------------------------------------- fleet smoke ---
# The routed fleet end to end: `route` spawns 2 supervised backend serve
# processes, backend 0 is armed (BISCHED_FAULT) to crash after its first
# solve, and the framed batch must still complete with zero client-visible
# errors. --max-inflight=1 serializes admission so every retry has settled
# before the trailing stats/metrics probes read the counters: the scrape
# MUST show a nonzero bisched_fleet_retries_total — proof the failover
# actually happened rather than the fault never firing. The router keys
# placement on the path string it forwards, so the frames name their files
# relative to $SMOKE and the route runs there (the backends inherit its
# working directory): the split is then the same on every run, 4 of the 5
# frames homed on backend 0, where a mktemp path would place them at random.
FLEET_CLI="$(pwd)/$CLI"
{
  for i in 1 2 3 4 5; do
    printf 'solve %s f%s\n' "corpus/q$i.inst" "$i"
  done
  printf 'stats fleet-stats\n'
  printf 'metrics fleet-metrics\n'
  printf 'quit\n'
} | (cd "$SMOKE" && BISCHED_FAULT='backend=0;crash-after:1' \
  "$FLEET_CLI" route --fleet=2 --stable --max-inflight=1 \
  --deadline-ms=60000) > "$SMOKE/route.out" 2> "$SMOKE/route.log" || {
  echo "ci.sh: fleet smoke failed: route exited nonzero (client-visible errors)" >&2
  cat "$SMOKE/route.out" "$SMOKE/route.log" >&2
  exit 1
}
for i in 1 2 3 4 5; do
  grep -q "\"id\": \"f$i\".*\"status\": \"ok\"" "$SMOKE/route.out" || {
    echo "ci.sh: fleet smoke failed: request f$i did not come back ok" >&2
    cat "$SMOKE/route.out" "$SMOKE/route.log" >&2
    exit 1
  }
done
grep -q '"id": "fleet-stats".*"role": "router".*"degraded": 0' "$SMOKE/route.out" || {
  echo "ci.sh: fleet smoke failed: router stats frame missing or degraded != 0" >&2
  cat "$SMOKE/route.out" >&2
  exit 1
}
grep -q 'bisched_fleet_retries_total [1-9]' "$SMOKE/route.out" || {
  echo "ci.sh: fleet smoke failed: no retries in the scrape (fault never fired?)" >&2
  cat "$SMOKE/route.out" "$SMOKE/route.log" >&2
  exit 1
}
# The scrape rides inside a JSON metrics frame, so its quotes arrive escaped.
grep -qF 'bisched_fleet_backends{state=\"healthy\"}' "$SMOKE/route.out" || {
  echo "ci.sh: fleet smoke failed: backend state gauges missing from the scrape" >&2
  cat "$SMOKE/route.out" >&2
  exit 1
}

# ------------------------------------------------------- lattice smoke ---
# The graph-class lattice must be what list-algs --json advertises: the new
# complete-multipartite class with its subsumption edges, and solver rows
# whose graph requirement prints a lattice class name.
"$CLI" list-algs --json > "$SMOKE/algs.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "$SMOKE/algs.json" > /dev/null || {
    echo "ci.sh: lattice smoke failed: list-algs --json is not valid JSON" >&2
    cat "$SMOKE/algs.json" >&2
    exit 1
  }
fi
grep -q '"name": "complete-multipartite", "parents": \["any"\]' "$SMOKE/algs.json" || {
  echo "ci.sh: lattice smoke failed: complete-multipartite class not advertised" >&2
  cat "$SMOKE/algs.json" >&2
  exit 1
}
grep -q '"name": "complete-bipartite", "parents": \["bipartite", "complete-multipartite"\]' "$SMOKE/algs.json" || {
  echo "ci.sh: lattice smoke failed: complete-bipartite subsumption edges missing" >&2
  cat "$SMOKE/algs.json" >&2
  exit 1
}
grep -q '"name": "kab".*"graph": "complete-bipartite"' "$SMOKE/algs.json" || {
  echo "ci.sh: lattice smoke failed: kab does not print its lattice class" >&2
  cat "$SMOKE/algs.json" >&2
  exit 1
}
grep -q '"simd": "' "$SMOKE/algs.json" || {
  echo "ci.sh: lattice smoke failed: list-algs --json lacks the simd level" >&2
  cat "$SMOKE/algs.json" >&2
  exit 1
}

# ------------------------------------------------- simd dispatch smoke ---
# Bit-identity across dispatch levels, end to end through the CLI: the same
# instance solved with the kernels forced to scalar (BISCHED_SIMD=scalar)
# and with default dispatch must produce byte-identical --stable JSON. On an
# AVX-capable runner this diffs vectorized rows against scalar rows; on a
# scalar-only runner it degenerates to a reproducibility check.
"$CLI" solve --alg=auto --json --stable "$SMOKE/corpus/q1.inst" \
  > "$SMOKE/solve-default.json"
BISCHED_SIMD=scalar "$CLI" solve --alg=auto --json --stable \
  "$SMOKE/corpus/q1.inst" > "$SMOKE/solve-scalar.json"
cmp -s "$SMOKE/solve-default.json" "$SMOKE/solve-scalar.json" || {
  echo "ci.sh: simd smoke failed: scalar and default dispatch outputs differ" >&2
  diff "$SMOKE/solve-default.json" "$SMOKE/solve-scalar.json" >&2 || true
  exit 1
}

# ---------------------------------------------------------- bench smoke ---
# The perf trajectory must stay machine-readable: the hot-path microbench
# runs in its CI-sized --quick shape on one thread and has to emit a valid
# BENCH_hotpaths.json with a nonempty rows array. (Timings under ASan/UBSan
# are meaningless; this validates the harness, not the speedup — see
# docs/perf.md for how the real numbers are produced.)
BENCH_JSON="$SMOKE/BENCH_hotpaths.json"
build-ci/bench/bench_hotpaths --quick --json-out="$BENCH_JSON" > "$SMOKE/bench.out" || {
  echo "ci.sh: bench smoke failed: bench_hotpaths exited nonzero" >&2
  cat "$SMOKE/bench.out" >&2
  exit 1
}
[ -s "$BENCH_JSON" ] || {
  echo "ci.sh: bench smoke failed: $BENCH_JSON missing or empty" >&2
  exit 1
}
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "$BENCH_JSON" > /dev/null || {
    echo "ci.sh: bench smoke failed: $BENCH_JSON is not valid JSON" >&2
    cat "$BENCH_JSON" >&2
    exit 1
  }
fi
grep -q '"rows": \[' "$BENCH_JSON" && grep -q '"kernel": "r2_fptas"' "$BENCH_JSON" || {
  echo "ci.sh: bench smoke failed: $BENCH_JSON has no kernel rows or no r2_fptas row" >&2
  cat "$BENCH_JSON" >&2
  exit 1
}
grep -q '"p95_ms"' "$BENCH_JSON" || {
  echo "ci.sh: bench smoke failed: $BENCH_JSON rows lack registry percentiles" >&2
  cat "$BENCH_JSON" >&2
  exit 1
}
# The per-ISA axis (scalar always exists).
grep -q '"isa": "scalar"' "$BENCH_JSON" || {
  echo "ci.sh: bench smoke failed: $BENCH_JSON lacks the per-ISA axis" >&2
  cat "$BENCH_JSON" >&2
  exit 1
}
# The exact R2 row (seed binary search vs the one DP pass), and no row of
# any kernel may report a shipped answer that differs from its reference —
# bit for bit for the exact and min-cut kernels, within (1+eps) of the
# optimum and no worse than greedy for the one-pass FPTAS.
grep -q '"kernel": "r2_exact"' "$BENCH_JSON" || {
  echo "ci.sh: bench smoke failed: $BENCH_JSON lacks the r2_exact row" >&2
  cat "$BENCH_JSON" >&2
  exit 1
}
grep -q '"within_guarantee": true' "$BENCH_JSON" || {
  echo "ci.sh: bench smoke failed: $BENCH_JSON FPTAS rows lack \"within_guarantee\"" >&2
  cat "$BENCH_JSON" >&2
  exit 1
}
for verdict in identical within_guarantee; do
  if grep -q "\"$verdict\": false" "$BENCH_JSON"; then
    echo "ci.sh: bench smoke failed: a $BENCH_JSON row reports \"$verdict\": false" >&2
    grep "\"$verdict\": false" "$BENCH_JSON" >&2
    exit 1
  fi
done
# The exact B&B rows: seed and shipped search on both families (the bench
# itself aborts if the two disagree on an optimum the seed search finished).
for family in small-uniform crown-16; do
  for variant in seed shipped; do
    grep -q "\"kernel\": \"exact_bb\", \"family\": \"$family\", \"variant\": \"$variant\"" \
      "$BENCH_JSON" || {
      echo "ci.sh: bench smoke failed: $BENCH_JSON lacks the exact_bb $family $variant row" >&2
      cat "$BENCH_JSON" >&2
      exit 1
    }
  done
done
# The cold-mix draws row: the shipped search across the small-uniform draws,
# with its truncated and root-closed counts. Its --quick window holds draws
# only the independent-set cut proves, so every call must finish.
DRAWS_ROW=$(grep '"kernel": "exact_bb", "family": "cold-mix-draws", "variant": "shipped"' \
  "$BENCH_JSON") || {
  echo "ci.sh: bench smoke failed: $BENCH_JSON lacks the exact_bb cold-mix-draws shipped row" >&2
  cat "$BENCH_JSON" >&2
  exit 1
}
echo "$DRAWS_ROW" | grep -q '"truncated": 0,' || {
  echo "ci.sh: bench smoke failed: a cold-mix draw ran the exact B&B out of its budget" >&2
  echo "$DRAWS_ROW" >&2
  exit 1
}
# The routed-mix crown row: the search path that never engages the cut.
grep -q '"kernel": "exact_bb", "family": "routed-crown", "variant": "shipped"' \
  "$BENCH_JSON" || {
  echo "ci.sh: bench smoke failed: $BENCH_JSON lacks the exact_bb routed-crown shipped row" >&2
  cat "$BENCH_JSON" >&2
  exit 1
}

# ---------------------------------------------------- store bench smoke ---
# The store trajectory must stay machine-readable too: the warm-up bench in
# its CI shape emits BENCH_store.json with all three regimes, and the
# cross-process warm row reports its speedup over cold. (Under ASan the
# magnitude is meaningless; the bench itself asserts outputs are identical
# and that every warm_disk solve came off the disk tier.)
STORE_JSON="$SMOKE/BENCH_store.json"
build-ci/bench/bench_store_warmup --quick --json-out="$STORE_JSON" \
  > "$SMOKE/store-bench.out" || {
  echo "ci.sh: store bench smoke failed: bench_store_warmup exited nonzero" >&2
  cat "$SMOKE/store-bench.out" >&2
  exit 1
}
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "$STORE_JSON" > /dev/null || {
    echo "ci.sh: store bench smoke failed: $STORE_JSON is not valid JSON" >&2
    cat "$STORE_JSON" >&2
    exit 1
  }
fi
for phase in cold warm_memory warm_disk; do
  grep -q "\"phase\": \"$phase\"" "$STORE_JSON" || {
    echo "ci.sh: store bench smoke failed: $STORE_JSON has no $phase row" >&2
    cat "$STORE_JSON" >&2
    exit 1
  }
done
grep -q '"phase": "warm_disk".*"speedup_vs_cold"' "$STORE_JSON" || {
  echo "ci.sh: store bench smoke failed: warm_disk row lacks speedup_vs_cold" >&2
  cat "$STORE_JSON" >&2
  exit 1
}
grep -q '"p95_ms"' "$STORE_JSON" || {
  echo "ci.sh: store bench smoke failed: rows lack registry percentiles" >&2
  cat "$STORE_JSON" >&2
  exit 1
}
# ---------------------------------------------------- fleet bench smoke ---
# The fleet bench spawns real backends and SIGKILLs one mid-stream; its CI
# shape must emit BENCH_fleet.json whose kill row completed with zero
# client-visible errors. (Retry counts in that row are timing-dependent —
# the deterministic retry assertion is the fleet smoke above.)
FLEET_JSON="$SMOKE/BENCH_fleet.json"
build-ci/bench/bench_fleet --quick --json-out="$FLEET_JSON" \
  > "$SMOKE/fleet-bench.out" 2>&1 || {
  echo "ci.sh: fleet bench smoke failed: bench_fleet exited nonzero" >&2
  cat "$SMOKE/fleet-bench.out" >&2
  exit 1
}
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "$FLEET_JSON" > /dev/null || {
    echo "ci.sh: fleet bench smoke failed: $FLEET_JSON is not valid JSON" >&2
    cat "$FLEET_JSON" >&2
    exit 1
  }
fi
for case_name in cold_1 warm_fleet kill_mid_stream; do
  grep -q "\"bench_case\": \"$case_name\"" "$FLEET_JSON" || {
    echo "ci.sh: fleet bench smoke failed: $FLEET_JSON has no $case_name row" >&2
    cat "$FLEET_JSON" >&2
    exit 1
  }
done
grep -q '"bench_case": "kill_mid_stream".*"errors": 0' "$FLEET_JSON" || {
  echo "ci.sh: fleet bench smoke failed: kill row saw client-visible errors" >&2
  cat "$FLEET_JSON" >&2
  exit 1
}

# ------------------------------------------------------------ sim smoke ---
# The scenario simulator end to end (docs/sim.md). In-process first: the
# same 2-phase scenario expanded and replayed twice with --connections=1
# --stable must produce byte-identical traces AND byte-identical response
# lines (the report's latency fields are timing and legitimately differ);
# BENCH_sim.json must carry the per-phase rows with a warmer second phase,
# and the HTML report must be a self-contained document. 1-CPU friendly:
# ~110 tiny n=8 requests per replay.
cat > "$SMOKE/scenario.jsonl" <<'SCEN'
{"v": 1, "scenario": "ci-smoke", "seed": 7}
{"phase": "cold", "arrival": "poisson", "rate_rps": 300, "duration_ms": 200, "family": "gilbert", "n": 8, "machines": 3, "repeat_p": 0}
{"phase": "warm", "arrival": "burst", "burst_size": 10, "burst_every_ms": 40, "duration_ms": 200, "family": "gilbert", "n": 8, "machines": 3, "repeat_p": 0.9}
SCEN
"$CLI" sim --scenario="$SMOKE/scenario.jsonl" --seed=7 --connections=1 --stable \
  --trace-out="$SMOKE/trace1.txt" --out="$SMOKE/sim1.out" \
  --json-out="$SMOKE/BENCH_sim.json" --html-out="$SMOKE/sim.html" \
  > "$SMOKE/sim.log" 2>&1 || {
  echo "ci.sh: sim smoke failed: in-process run exited nonzero" >&2
  cat "$SMOKE/sim.log" >&2
  exit 1
}
"$CLI" sim --scenario="$SMOKE/scenario.jsonl" --seed=7 --connections=1 --stable \
  --trace-out="$SMOKE/trace2.txt" --out="$SMOKE/sim2.out" \
  --json-out="$SMOKE/sim2.json" > /dev/null 2>&1 || {
  echo "ci.sh: sim smoke failed: second in-process run exited nonzero" >&2
  exit 1
}
cmp -s "$SMOKE/trace1.txt" "$SMOKE/trace2.txt" || {
  echo "ci.sh: sim smoke failed: same scenario+seed produced different traces" >&2
  exit 1
}
cmp -s "$SMOKE/sim1.out" "$SMOKE/sim2.out" || {
  echo "ci.sh: sim smoke failed: sequential replays produced different outputs" >&2
  diff "$SMOKE/sim1.out" "$SMOKE/sim2.out" | head >&2 || true
  exit 1
}
if command -v python3 > /dev/null 2>&1; then
  python3 - "$SMOKE/BENCH_sim.json" <<'PY' || exit 1
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "sim", doc
rows = {r["phase"]: r for r in doc["rows"]}
assert set(rows) == {"cold", "warm", "total"}, sorted(rows)
for name in ("cold", "warm"):
    row = rows[name]
    for key in ("requests", "ok", "errors", "retries", "sla_miss", "p50_ms",
                "p95_ms", "p99_ms", "mean_ms", "send_delay_p95_ms",
                "hit_memory", "hit_disk", "miss"):
        assert key in row, (name, key)
    assert row["errors"] == 0, row
    assert row["requests"] > 0 and row["ok"] == row["requests"], row
total = rows["total"]
for key in ("scenario", "seed", "mode", "connections", "sla_ms", "wall_ms"):
    assert key in total, key
assert total["scenario"] == "ci-smoke" and total["mode"] == "in-process", total
# The repeat_p=0.9 phase must be served warmer than the all-miss cold one.
assert rows["cold"]["hit_memory"] == 0, rows["cold"]
assert rows["warm"]["hit_memory"] > rows["warm"]["requests"] // 2, rows["warm"]
PY
fi
[ -s "$SMOKE/sim.html" ] && grep -q '<svg' "$SMOKE/sim.html" \
  && grep -q '</html>' "$SMOKE/sim.html" || {
  echo "ci.sh: sim smoke failed: HTML report missing, empty, or chartless" >&2
  exit 1
}

# The same saved trace against a routed 2-backend fleet with backend 0
# armed to crash mid-replay: the driver must exit 0 (failures are the
# router's to absorb) while the report's scraped server_* counters admit
# the retries/respawns happened.
FLEET_SOCK="$SMOKE/sim-fleet.sock"
BISCHED_FAULT='backend=0;crash-after:5' \
  "$CLI" route --fleet=2 --stable --deadline-ms=60000 \
  --listen="unix:$FLEET_SOCK" > "$SMOKE/sim-fleet.log" 2>&1 &
SERVER_PID=$!
tries=0
while [ ! -S "$FLEET_SOCK" ]; do
  tries=$((tries + 1))
  [ "$tries" -le 200 ] || {
    echo "ci.sh: sim smoke failed: fleet socket never appeared" >&2
    cat "$SMOKE/sim-fleet.log" >&2
    exit 1
  }
  sleep 0.1
done
"$CLI" sim --trace-in="$SMOKE/trace1.txt" --connect="unix:$FLEET_SOCK" \
  --connections=2 --max-attempts=5 --timeout-ms=60000 \
  --json-out="$SMOKE/sim-fleet.json" > "$SMOKE/sim-live.log" 2>&1 || {
  echo "ci.sh: sim smoke failed: fleet-backed replay exited nonzero" >&2
  cat "$SMOKE/sim-live.log" "$SMOKE/sim-fleet.log" >&2
  exit 1
}
if command -v python3 > /dev/null 2>&1; then
  python3 - "$SMOKE/sim-fleet.json" <<'PY' || { cat "$SMOKE/sim-fleet.log" >&2; exit 1; }
import json, sys
doc = json.load(open(sys.argv[1]))
total = next(r for r in doc["rows"] if r["phase"] == "total")
assert total["mode"] == "unix", total
assert total["errors"] == 0 and total["ok"] == total["requests"], total
assert total["server_role"] == "router", total
assert total["server_retries"] > 0, total
assert total["server_respawns"] > 0, total
assert total["server_errors"] == 0, total
PY
else
  grep -q '"errors": 0' "$SMOKE/sim-fleet.json" \
    && grep -q '"server_role": "router"' "$SMOKE/sim-fleet.json" || {
    echo "ci.sh: sim smoke failed: fleet report lacks router counters" >&2
    cat "$SMOKE/sim-fleet.json" >&2
    exit 1
  }
fi
printf 'shutdown\n' | "$CLI" client --connect="unix:$FLEET_SOCK" > /dev/null
wait "$SERVER_PID" || {
  echo "ci.sh: sim smoke failed: fleet exited nonzero" >&2
  cat "$SMOKE/sim-fleet.log" >&2
  exit 1
}
SERVER_PID=

# --store=DIR trajectories: a sim run and a bench run append into one
# store's bench-history namespace, and `stats --store` lists both.
TRAJ="$SMOKE/traj-store"
"$CLI" sim --scenario="$SMOKE/scenario.jsonl" --seed=7 --connections=1 \
  --stable --store="$TRAJ" --json-out="$SMOKE/sim3.json" > /dev/null 2>&1 || {
  echo "ci.sh: sim smoke failed: --store run exited nonzero" >&2
  exit 1
}
build-ci/bench/bench_hotpaths --quick --json-out="$SMOKE/hp2.json" \
  --store="$TRAJ" > /dev/null || {
  echo "ci.sh: sim smoke failed: bench --store run exited nonzero" >&2
  exit 1
}
"$CLI" stats --store="$TRAJ" > "$SMOKE/stats.out" || {
  echo "ci.sh: sim smoke failed: stats --store exited nonzero" >&2
  exit 1
}
grep -q 'bench-history: 2 recorded runs' "$SMOKE/stats.out" \
  && grep -q '| sim ' "$SMOKE/stats.out" \
  && grep -q '| hotpaths ' "$SMOKE/stats.out" || {
  echo "ci.sh: sim smoke failed: stats does not list both recorded runs" >&2
  cat "$SMOKE/stats.out" >&2
  exit 1
}

# ------------------------------------------------- async serve smoke ---
# The epoll serve loop (docs/serve.md) under real concurrency: one TCP
# server replays the saved sim trace over 64 concurrent connections with
# zero errors, answers a pipelined client in send order, and exposes the
# event-loop gauges in its scrape.
"$CLI" serve --listen=tcp:127.0.0.1:0 --threads=1 --stable \
  > "$SMOKE/async-server.out" 2> "$SMOKE/async-server.log" &
SERVER_PID=$!
tries=0
PORT=
while [ -z "$PORT" ]; do
  tries=$((tries + 1))
  [ "$tries" -le 100 ] || {
    echo "ci.sh: async smoke failed: server never announced its port" >&2
    cat "$SMOKE/async-server.log" >&2
    exit 1
  }
  PORT=$(sed -n 's/.*listening on tcp:127.0.0.1:\([0-9][0-9]*\).*/\1/p' \
    "$SMOKE/async-server.log")
  [ -n "$PORT" ] || sleep 0.1
done
"$CLI" sim --trace-in="$SMOKE/trace1.txt" --connect="tcp:127.0.0.1:$PORT" \
  --connections=64 --timeout-ms=60000 --json-out="$SMOKE/sim-async.json" \
  > "$SMOKE/sim-async.log" 2>&1 || {
  echo "ci.sh: async smoke failed: 64-connection replay exited nonzero" >&2
  cat "$SMOKE/sim-async.log" "$SMOKE/async-server.log" >&2
  exit 1
}
if command -v python3 > /dev/null 2>&1; then
  python3 - "$SMOKE/sim-async.json" <<'PY' || { cat "$SMOKE/async-server.log" >&2; exit 1; }
import json, sys
doc = json.load(open(sys.argv[1]))
total = next(r for r in doc["rows"] if r["phase"] == "total")
assert total["mode"] == "tcp", total
assert total["connections"] == 64, total
assert total["errors"] == 0 and total["ok"] == total["requests"], total
PY
else
  grep -q '"errors": 0' "$SMOKE/sim-async.json" || {
    echo "ci.sh: async smoke failed: replay report shows errors" >&2
    cat "$SMOKE/sim-async.json" >&2
    exit 1
  }
fi
# A pipelined client: 5 frames sent 4 ahead of the reads must come back
# seq-ordered (the loop's per-session ordering guarantee, docs/serve.md).
for i in 1 2 3 4 5; do
  printf 'solve %s p%s\n' "$SMOKE/corpus/q$i.inst" "$i"
done | "$CLI" client --connect="tcp:127.0.0.1:$PORT" --pipeline=4 \
  > "$SMOKE/pipe.out" 2> "$SMOKE/pipe.log" || {
  echo "ci.sh: async smoke failed: pipelined client exited nonzero" >&2
  cat "$SMOKE/pipe.out" "$SMOKE/pipe.log" >&2
  exit 1
}
grep -q 'client: 5 responses over a window of 4, seq-ordered' "$SMOKE/pipe.log" || {
  echo "ci.sh: async smoke failed: pipelined client summary missing or unordered" >&2
  cat "$SMOKE/pipe.out" "$SMOKE/pipe.log" >&2
  exit 1
}
for i in 1 2 3 4 5; do
  grep -q "\"id\": \"p$i\".*\"status\": \"ok\"" "$SMOKE/pipe.out" || {
    echo "ci.sh: async smoke failed: pipelined request p$i did not come back ok" >&2
    cat "$SMOKE/pipe.out" >&2
    exit 1
  }
done
# The event-loop gauges ride the same Prometheus scrape as everything else.
"$CLI" metrics --connect="tcp:127.0.0.1:$PORT" > "$SMOKE/async-metrics.out" || {
  echo "ci.sh: async smoke failed: scrape exited nonzero" >&2
  cat "$SMOKE/async-server.log" >&2
  exit 1
}
for series in bisched_serve_open_sessions bisched_serve_parked_sessions \
  bisched_serve_pipeline_depth_peak bisched_serve_loop_wakeups_total; do
  grep -q "^$series " "$SMOKE/async-metrics.out" || {
    echo "ci.sh: async smoke failed: $series missing from the scrape" >&2
    cat "$SMOKE/async-metrics.out" >&2
    exit 1
  }
done
printf 'shutdown\n' | "$CLI" client --connect="tcp:127.0.0.1:$PORT" > /dev/null
wait "$SERVER_PID" || {
  echo "ci.sh: async smoke failed: server exited nonzero" >&2
  cat "$SMOKE/async-server.log" >&2
  exit 1
}
SERVER_PID=

# ------------------------------------------------------------------ tsan ---
# Every pool thread shares the warm state (caches, fingerprint index,
# metric registry): the engine suite must also run clean under
# ThreadSanitizer, in its own build tree (`tsan` preset). Any report fails.
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" --target engine_tests
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" build-tsan/engine_tests \
  > "$SMOKE/tsan.out" 2>&1 || {
  echo "ci.sh: tsan failed: engine_tests reported a race or failed" >&2
  grep -A30 'WARNING: ThreadSanitizer' "$SMOKE/tsan.out" >&2 || tail -40 "$SMOKE/tsan.out" >&2
  exit 1
}

echo "ci.sh: batch --shard, serve+stats, store, socket serve, metrics+slow-log," \
  "fingerprint warm path, tcp serve, fleet route+failover, lattice, bench, sim," \
  "async serve smoke and engine_tests under TSan OK"
