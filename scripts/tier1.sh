#!/usr/bin/env sh
# Tier-1 gate: offline build, full test suite (plus an assertions-on
# release pass for the search crates), workspace-wide lint, CLI and daemon
# byte-identity smokes, the parser fuzz smoke gate, and the benches
# (search, CSP relation engine, daemon). Every gate is deterministic: the
# search bench is checked on work counters and certificates, never on
# seconds. Run from anywhere; exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release (offline)"
cargo build --offline --release --workspace

echo "==> cargo test (offline)"
cargo test --offline -q --workspace

echo "==> cargo test (search crates and the CLI, release optimisation + debug assertions)"
cargo test --offline -q --profile relassert -p ghd -p ghd-par -p ghd-search -p ghd-ga -p ghd-serve -p ghd-cli

echo "==> clippy -D warnings (whole workspace, all targets)"
cargo clippy --offline -q --workspace --all-targets -- -D warnings

echo "==> thread-sweep determinism (widths and orderings equal across --threads 1/2/4)"
GHD="target/release/ghd"
SWEEP_DIR="$(mktemp -d)"
trap 'rm -rf "$SWEEP_DIR"' EXIT
"$GHD" gen grid2d-h 6 > "$SWEEP_DIR/h.hg"
"$GHD" gen queen 4 > "$SWEEP_DIR/g.col"
"$GHD" ghw "$SWEEP_DIR/h.hg" --method bb --time 0 > "$SWEEP_DIR/ghw_seq.txt"
"$GHD" tw "$SWEEP_DIR/g.col" --method bb --time 0 > "$SWEEP_DIR/tw_seq.txt"
for T in 1 2 4; do
    "$GHD" ghw "$SWEEP_DIR/h.hg" --method bb --time 0 --threads "$T" > "$SWEEP_DIR/ghw_t$T.txt"
    cmp -s "$SWEEP_DIR/ghw_seq.txt" "$SWEEP_DIR/ghw_t$T.txt" || {
        echo "ghw --threads $T diverged from the sequential output:" >&2
        diff "$SWEEP_DIR/ghw_seq.txt" "$SWEEP_DIR/ghw_t$T.txt" >&2 || true
        exit 1
    }
    "$GHD" tw "$SWEEP_DIR/g.col" --method bb --time 0 --threads "$T" > "$SWEEP_DIR/tw_t$T.txt"
    cmp -s "$SWEEP_DIR/tw_seq.txt" "$SWEEP_DIR/tw_t$T.txt" || {
        echo "tw --threads $T diverged from the sequential output:" >&2
        diff "$SWEEP_DIR/tw_seq.txt" "$SWEEP_DIR/tw_t$T.txt" >&2 || true
        exit 1
    }
done
# safe-separator splitting is on by default for --method bb; turning it
# off must not change a byte of the output
"$GHD" tw "$SWEEP_DIR/g.col" --method bb --time 0 --no-split > "$SWEEP_DIR/tw_nosplit.txt"
cmp -s "$SWEEP_DIR/tw_seq.txt" "$SWEEP_DIR/tw_nosplit.txt" || {
    echo "tw --no-split diverged from the default split output:" >&2
    diff "$SWEEP_DIR/tw_seq.txt" "$SWEEP_DIR/tw_nosplit.txt" >&2 || true
    exit 1
}
"$GHD" ghw "$SWEEP_DIR/h.hg" --method bb --time 0 --no-split > "$SWEEP_DIR/ghw_nosplit.txt"
cmp -s "$SWEEP_DIR/ghw_seq.txt" "$SWEEP_DIR/ghw_nosplit.txt" || {
    echo "ghw --no-split diverged from the default split output:" >&2
    diff "$SWEEP_DIR/ghw_seq.txt" "$SWEEP_DIR/ghw_nosplit.txt" >&2 || true
    exit 1
}

echo "==> serve smoke (unix-socket daemon: concurrent submits == one-shot, warm hits, clean drain)"
SOCK="$SWEEP_DIR/ghd.sock"
"$GHD" serve "unix:$SOCK" --workers 2 --queue 16 > "$SWEEP_DIR/serve.log" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$SWEEP_DIR"' EXIT
TRIES=0
while [ ! -S "$SOCK" ]; do
    TRIES=$((TRIES + 1))
    [ "$TRIES" -le 50 ] || {
        echo "daemon never bound $SOCK:" >&2
        cat "$SWEEP_DIR/serve.log" >&2
        exit 1
    }
    sleep 0.1
done
[ "$("$GHD" submit "unix:$SOCK" ping)" = "pong" ]
# concurrent cold submits, diffed against the one-shot outputs above
"$GHD" submit "unix:$SOCK" ghw "$SWEEP_DIR/h.hg" --method bb --time 0 > "$SWEEP_DIR/srv_ghw.txt" &
GHW_PID=$!
"$GHD" submit "unix:$SOCK" tw "$SWEEP_DIR/g.col" --method bb --time 0 > "$SWEEP_DIR/srv_tw.txt" &
TW_PID=$!
wait "$GHW_PID"
wait "$TW_PID"
cmp -s "$SWEEP_DIR/ghw_seq.txt" "$SWEEP_DIR/srv_ghw.txt" || {
    echo "daemon ghw answer diverged from the one-shot CLI:" >&2
    diff "$SWEEP_DIR/ghw_seq.txt" "$SWEEP_DIR/srv_ghw.txt" >&2 || true
    exit 1
}
cmp -s "$SWEEP_DIR/tw_seq.txt" "$SWEEP_DIR/srv_tw.txt" || {
    echo "daemon tw answer diverged from the one-shot CLI:" >&2
    diff "$SWEEP_DIR/tw_seq.txt" "$SWEEP_DIR/srv_tw.txt" >&2 || true
    exit 1
}
# warm re-submits must come from the canonical cache
"$GHD" submit "unix:$SOCK" ghw "$SWEEP_DIR/h.hg" --method bb --time 0 > "$SWEEP_DIR/srv_ghw2.txt"
cmp -s "$SWEEP_DIR/ghw_seq.txt" "$SWEEP_DIR/srv_ghw2.txt"
# batch manifest over one connection: both instances are warm by now, so
# the batch must report two ok lines, two cache hits, zero failures
printf 'ghw %s --method bb --time 0\n# comment\n\ntw %s --method bb --time 0\n' \
    "$SWEEP_DIR/h.hg" "$SWEEP_DIR/g.col" > "$SWEEP_DIR/batch.txt"
"$GHD" submit "unix:$SOCK" --manifest "$SWEEP_DIR/batch.txt" > "$SWEEP_DIR/manifest.out"
grep -q "manifest: 2 instance(s) — 2 ok (2 cache hit(s), 2 exact), 0 failed" \
    "$SWEEP_DIR/manifest.out" || {
    echo "manifest batch summary is wrong:" >&2
    cat "$SWEEP_DIR/manifest.out" >&2
    exit 1
}
"$GHD" submit "unix:$SOCK" stats > "$SWEEP_DIR/serve_stats.json"
grep -q '"hits": [1-9]' "$SWEEP_DIR/serve_stats.json" || {
    echo "warm re-submit did not register a cache hit:" >&2
    cat "$SWEEP_DIR/serve_stats.json" >&2
    exit 1
}
"$GHD" submit "unix:$SOCK" shutdown > /dev/null
wait "$SERVE_PID"
trap 'rm -rf "$SWEEP_DIR"' EXIT
grep -q "drained clean" "$SWEEP_DIR/serve.log" || {
    echo "daemon did not drain clean:" >&2
    cat "$SWEEP_DIR/serve.log" >&2
    exit 1
}
[ ! -e "$SOCK" ] || { echo "stale socket left behind: $SOCK" >&2; exit 1; }

echo "==> crash recovery (kill -9 a logged daemon, restart on the same log: warm replays, corrupt tail dropped)"
CACHELOG="$SWEEP_DIR/cache.log"
SOCK1="$SWEEP_DIR/ghd-crash.sock"
"$GHD" serve "unix:$SOCK1" --workers 2 --log "$CACHELOG" > "$SWEEP_DIR/serve_crash1.log" 2>&1 &
CRASH_PID=$!
trap 'kill -9 "$CRASH_PID" 2>/dev/null || true; rm -rf "$SWEEP_DIR"' EXIT
TRIES=0
while [ ! -S "$SOCK1" ]; do
    TRIES=$((TRIES + 1))
    [ "$TRIES" -le 50 ] || { cat "$SWEEP_DIR/serve_crash1.log" >&2; exit 1; }
    sleep 0.1
done
# warm the cache: two exact answers, each append is one write() so the
# records are in the page cache the moment the submit returns
"$GHD" submit "unix:$SOCK1" ghw "$SWEEP_DIR/h.hg" --method bb --time 0 > /dev/null
"$GHD" submit "unix:$SOCK1" tw "$SWEEP_DIR/g.col" --method bb --time 0 > /dev/null
# crash hard — no drain, no fsync, stale socket file left behind
kill -9 "$CRASH_PID"
wait "$CRASH_PID" 2>/dev/null || true
# simulate the torn append a crash mid-write leaves: a valid version
# byte followed by garbage
printf '\001\377\377\377\023' >> "$CACHELOG"
SOCK2="$SWEEP_DIR/ghd-recover.sock"
"$GHD" serve "unix:$SOCK2" --workers 2 --log "$CACHELOG" > "$SWEEP_DIR/serve_crash2.log" 2>&1 &
RECOVER_PID=$!
trap 'kill "$RECOVER_PID" 2>/dev/null || true; rm -rf "$SWEEP_DIR"' EXIT
TRIES=0
while [ ! -S "$SOCK2" ]; do
    TRIES=$((TRIES + 1))
    [ "$TRIES" -le 50 ] || { cat "$SWEEP_DIR/serve_crash2.log" >&2; exit 1; }
    sleep 0.1
done
# every verified record replays; the garbage tail is dropped and logged
grep -q "cache-log replayed 2 entries (0 rejected by verification)" "$SWEEP_DIR/serve_crash2.log" || {
    echo "boot replay did not admit both records:" >&2
    cat "$SWEEP_DIR/serve_crash2.log" >&2
    exit 1
}
grep -q "cache-log corrupt tail dropped" "$SWEEP_DIR/serve_crash2.log" || {
    echo "corrupt tail was not detected/logged:" >&2
    cat "$SWEEP_DIR/serve_crash2.log" >&2
    exit 1
}
# warm answers come from the replayed cache (byte-identical, zero solves)
"$GHD" submit "unix:$SOCK2" ghw "$SWEEP_DIR/h.hg" --method bb --time 0 > "$SWEEP_DIR/srv_ghw3.txt"
cmp -s "$SWEEP_DIR/ghw_seq.txt" "$SWEEP_DIR/srv_ghw3.txt" || {
    echo "replayed ghw answer diverged from the one-shot CLI:" >&2
    diff "$SWEEP_DIR/ghw_seq.txt" "$SWEEP_DIR/srv_ghw3.txt" >&2 || true
    exit 1
}
"$GHD" submit "unix:$SOCK2" tw "$SWEEP_DIR/g.col" --method bb --time 0 > "$SWEEP_DIR/srv_tw3.txt"
cmp -s "$SWEEP_DIR/tw_seq.txt" "$SWEEP_DIR/srv_tw3.txt"
"$GHD" submit "unix:$SOCK2" stats > "$SWEEP_DIR/serve_stats2.json"
grep -q '"replayed": 2' "$SWEEP_DIR/serve_stats2.json" || {
    echo "stats did not report the boot replay:" >&2
    cat "$SWEEP_DIR/serve_stats2.json" >&2
    exit 1
}
grep -q 'access .* cache=hit' "$SWEEP_DIR/serve_crash2.log" || {
    echo "warm submits after recovery were not cache hits:" >&2
    cat "$SWEEP_DIR/serve_crash2.log" >&2
    exit 1
}
"$GHD" submit "unix:$SOCK2" shutdown > /dev/null
wait "$RECOVER_PID"
trap 'rm -rf "$SWEEP_DIR"' EXIT
grep -q "drained clean" "$SWEEP_DIR/serve_crash2.log"

echo "==> fuzz_inputs (seeded byte mutations across every parser; a panic fails)"
cargo run --offline -q --release -p ghd-bench --bin fuzz_inputs -- --iters 2000 --seed 7

echo "==> bench_smoke (cover cache on/off + A* rows + split sweep node counts, writes BENCH_search.json)"
GHD_BENCH_SAMPLES="${GHD_BENCH_SAMPLES:-3}" \
    cargo run --offline -q --release -p ghd-bench --bin bench_smoke

echo "==> validate BENCH_search.json (schema, certified widths, split saves nodes, counters equal the baseline's)"
cargo run --offline -q --release -p ghd-bench --bin validate_bench -- \
    BENCH_search.json --baseline results/BENCH_search_baseline.json

echo "==> bench_join (naive vs columnar relation engine, writes BENCH_csp.json)"
cargo run --offline -q --release -p ghd-bench --bin bench_join -- --runs 1

echo "==> bench_serve (in-process daemon: byte-identity + 100% warm hits, writes BENCH_serve.json)"
cargo run --offline -q --release -p ghd-bench --bin bench_serve -- --clients 3

echo "==> tier-1 gate passed"
