#!/usr/bin/env sh
# Tier-1 gate, fully offline: formatting, lints, release build, workspace
# tests, and the pipeline benchmark (which also asserts byte-identical
# output across worker counts). Run from the repository root.
set -eu

cargo fmt --check
cargo clippy --offline --workspace --all-targets -- -D warnings
cargo build --release --offline --workspace
cargo test -q --offline --workspace

# Tier-1 suites must carry no ignored tests: slow work is gated at runtime
# by env vars (SEAL_SCALE=1) instead, so `cargo test` exercises everything.
if grep -rn '^[[:space:]]*#\[ignore' tests crates/*/tests crates/*/src src 2>/dev/null; then
    echo "ci: #[ignore]d tests are not allowed in tier-1 suites" >&2
    exit 1
fi

# The observability suites run above as part of the workspace; run them
# again by name so a renamed/dropped test file fails loudly here.
cargo test -q --offline --test observability
cargo test -q --offline --test spec_snapshots
cargo test -q --offline -p seal-solver --test edge_cases

cargo run --release --offline -p seal-bench --bin bench_pipeline

# Scaling regression gate: the fresh matrix must hold the committed
# speedup floor and stay within 15% of the committed phase medians.
sh scripts/bench_check.sh

# Trace-determinism smoke: the same hunt twice, at different worker counts,
# must yield byte-identical traces once durations are masked, and the
# deterministic subset of the metrics must match exactly.
SEAL=target/release/seal
OBS_DIR=$(mktemp -d)
PRE=tests/data/npd-check.pre.c,tests/data/uaf-order.pre.c
POST=tests/data/npd-check.post.c,tests/data/uaf-order.post.c
"$SEAL" hunt --pre "$PRE" --post "$POST" --target tests/data/target.c \
    --jobs 1 --trace "$OBS_DIR/t1.jsonl" --metrics "$OBS_DIR/m1.json" >/dev/null
"$SEAL" hunt --pre "$PRE" --post "$POST" --target tests/data/target.c \
    --jobs 4 --trace "$OBS_DIR/t4.jsonl" --metrics "$OBS_DIR/m4.json" >/dev/null
sed 's/"dur_us":[0-9]*/"dur_us":0/g' "$OBS_DIR/t1.jsonl" >"$OBS_DIR/t1.masked"
sed 's/"dur_us":[0-9]*/"dur_us":0/g' "$OBS_DIR/t4.jsonl" >"$OBS_DIR/t4.masked"
if ! diff -u "$OBS_DIR/t1.masked" "$OBS_DIR/t4.masked"; then
    echo "trace-determinism smoke: trace differs between jobs=1 and jobs=4" >&2
    rm -rf "$OBS_DIR"
    exit 1
fi
grep '"det":true' "$OBS_DIR/m1.json" >"$OBS_DIR/m1.det"
grep '"det":true' "$OBS_DIR/m4.json" >"$OBS_DIR/m4.det"
if ! diff -u "$OBS_DIR/m1.det" "$OBS_DIR/m4.det"; then
    echo "trace-determinism smoke: det metrics differ between jobs=1 and jobs=4" >&2
    rm -rf "$OBS_DIR"
    exit 1
fi
rm -rf "$OBS_DIR"
echo "trace-determinism smoke: ok"

# Oversubscription smoke: jobs=8 on the CI host (more workers than cores
# on most runners) must terminate — parked workers may not deadlock — and
# produce byte-identical reports to the sequential run.
OVER_DIR=$(mktemp -d)
"$SEAL" hunt --pre "$PRE" --post "$POST" --target tests/data/target.c \
    --jobs 1 >"$OVER_DIR/reports.j1"
"$SEAL" hunt --pre "$PRE" --post "$POST" --target tests/data/target.c \
    --jobs 8 >"$OVER_DIR/reports.j8"
if ! diff -u "$OVER_DIR/reports.j1" "$OVER_DIR/reports.j8"; then
    echo "oversubscription smoke: reports differ between jobs=1 and jobs=8" >&2
    rm -rf "$OVER_DIR"
    exit 1
fi
rm -rf "$OVER_DIR"
echo "oversubscription smoke: ok"

# Fault-injection smoke: mutate a real corpus patch and batch-infer the
# mutants next to a good pair. The contract (DESIGN.md, "Fault tolerance"):
# exit 0 (all fine) or 2 (some items failed) — never 1, never a panic
# backtrace on stderr.
SEAL=target/release/seal
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
"$SEAL" gen-corpus --dir "$SMOKE_DIR/corpus" --drivers 2 >/dev/null 2>&1
FIRST_PRE=$(ls "$SMOKE_DIR"/corpus/patches/*.pre.c | head -n 1)
FIRST_POST=${FIRST_PRE%.pre.c}.post.c
"$SEAL" mutate --src "$FIRST_PRE" --out "$SMOKE_DIR/mutants" --n 3 --seed 7 2>/dev/null
PRE_LIST=$FIRST_PRE
POST_LIST=$FIRST_POST
for m in "$SMOKE_DIR"/mutants/*.c; do
    PRE_LIST=$PRE_LIST,$m
    POST_LIST=$POST_LIST,$FIRST_POST
done
set +e
"$SEAL" infer --pre "$PRE_LIST" --post "$POST_LIST" \
    >"$SMOKE_DIR/smoke.out" 2>"$SMOKE_DIR/smoke.err"
CODE=$?
set -e
if [ "$CODE" != 0 ] && [ "$CODE" != 2 ]; then
    echo "fault-injection smoke: unexpected exit code $CODE" >&2
    cat "$SMOKE_DIR/smoke.err" >&2
    exit 1
fi
if grep -q "panicked at" "$SMOKE_DIR/smoke.err"; then
    echo "fault-injection smoke: panic escaped to stderr" >&2
    cat "$SMOKE_DIR/smoke.err" >&2
    exit 1
fi
echo "fault-injection smoke: ok (exit $CODE)"

# Warm-cache smoke: the same hunt twice against one --cache-dir. The second
# run must be byte-identical to the first and must actually serve from the
# store (cache.hits > 0, cache.misses == 0 in the metrics snapshot).
CACHE_DIR=$(mktemp -d)
"$SEAL" hunt --pre "$PRE" --post "$POST" --target tests/data/target.c \
    --cache-dir "$CACHE_DIR/store" --metrics "$CACHE_DIR/m-cold.json" \
    >"$CACHE_DIR/reports.cold"
"$SEAL" hunt --pre "$PRE" --post "$POST" --target tests/data/target.c \
    --cache-dir "$CACHE_DIR/store" --metrics "$CACHE_DIR/m-warm.json" \
    >"$CACHE_DIR/reports.warm"
"$SEAL" hunt --pre "$PRE" --post "$POST" --target tests/data/target.c \
    >"$CACHE_DIR/reports.nocache"
if ! diff -u "$CACHE_DIR/reports.cold" "$CACHE_DIR/reports.warm"; then
    echo "warm-cache smoke: warm reports differ from cold" >&2
    rm -rf "$CACHE_DIR"
    exit 1
fi
if ! diff -u "$CACHE_DIR/reports.nocache" "$CACHE_DIR/reports.warm"; then
    echo "warm-cache smoke: cached reports differ from uncached" >&2
    rm -rf "$CACHE_DIR"
    exit 1
fi
python3 - "$CACHE_DIR/m-warm.json" <<'EOF'
import json, sys
entries = json.load(open(sys.argv[1]))["metrics"]
by_name = {e["name"]: e.get("value", 0) for e in entries}
hits = by_name.get("cache.hits", 0)
misses = by_name.get("cache.misses", 0)
if hits <= 0:
    sys.exit("warm-cache smoke: second run had no cache hits")
if misses != 0:
    sys.exit(f"warm-cache smoke: second run missed {misses} artifacts")
print(f"warm-cache smoke: ok (hits={hits}, misses=0, reports identical)")
EOF

# Cache-corruption smoke: flip one byte in the middle of the store file
# (caught by that record's checksum when it is read), then truncate it,
# then scribble over it; the pipeline must degrade to recompute — same
# reports, exit 0 or 2, and no panic backtrace.
STORE_FILE=$(find "$CACHE_DIR/store" -name '*.bin' | head -n 1)
if [ -z "$STORE_FILE" ]; then
    echo "cache-corruption smoke: no store file written" >&2
    exit 1
fi
for CORRUPT in flip truncate scribble; do
    if [ "$CORRUPT" = flip ]; then
        python3 - "$STORE_FILE" <<'EOF'
import sys
path = sys.argv[1]
data = bytearray(open(path, "rb").read())
data[len(data) // 2] ^= 0x01
open(path, "wb").write(bytes(data))
EOF
    elif [ "$CORRUPT" = truncate ]; then
        head -c 37 "$STORE_FILE" >"$STORE_FILE.tmp" && mv "$STORE_FILE.tmp" "$STORE_FILE"
    else
        printf 'GARBAGE-NOT-A-STORE-%s' "$CORRUPT" >"$STORE_FILE"
    fi
    set +e
    "$SEAL" hunt --pre "$PRE" --post "$POST" --target tests/data/target.c \
        --cache-dir "$CACHE_DIR/store" \
        >"$CACHE_DIR/reports.corrupt" 2>"$CACHE_DIR/corrupt.err"
    CODE=$?
    set -e
    if [ "$CODE" != 0 ] && [ "$CODE" != 2 ]; then
        echo "cache-corruption smoke ($CORRUPT): unexpected exit code $CODE" >&2
        cat "$CACHE_DIR/corrupt.err" >&2
        exit 1
    fi
    if grep -q "panicked at" "$CACHE_DIR/corrupt.err"; then
        echo "cache-corruption smoke ($CORRUPT): panic escaped to stderr" >&2
        cat "$CACHE_DIR/corrupt.err" >&2
        exit 1
    fi
    if ! diff -u "$CACHE_DIR/reports.nocache" "$CACHE_DIR/reports.corrupt"; then
        echo "cache-corruption smoke ($CORRUPT): reports changed under corruption" >&2
        exit 1
    fi
done
rm -rf "$CACHE_DIR"
echo "cache-corruption smoke: ok (flipped, truncated and scribbled stores all recompute)"

# Serve smoke: a three-item batch with one poisoned item through the
# daemon. Contract: one response line per item, per-item statuses (two ok,
# one failed), exit code 2 (partial), no panic backtrace — and a separate
# ping+shutdown session exits 0.
SERVE_DIR=$(mktemp -d)
set +e
printf '%s\n' \
    '{"cmd":"batch","items":[{"cmd":"hunt","pre":"tests/data/npd-check.pre.c","post":"tests/data/npd-check.post.c","target":"tests/data/target.c"},{"cmd":"hunt","pre":"tests/data/uaf-order.pre.c","post":"tests/data/uaf-order.post.c","target":"tests/data/target.c"},{"cmd":"detect","target":"tests/data/target.c","specs":"/nonexistent/specs.txt"}]}' \
    | "$SEAL" serve >"$SERVE_DIR/out.jsonl" 2>"$SERVE_DIR/err.log"
CODE=$?
set -e
if [ "$CODE" != 2 ]; then
    echo "serve smoke: expected exit 2 (one poisoned item), got $CODE" >&2
    cat "$SERVE_DIR/err.log" >&2
    exit 1
fi
if grep -q "panicked at" "$SERVE_DIR/err.log"; then
    echo "serve smoke: panic escaped to stderr" >&2
    cat "$SERVE_DIR/err.log" >&2
    exit 1
fi
SEQ_LINES=$(grep -c '"seq"' "$SERVE_DIR/out.jsonl")
OK_LINES=$(grep -c '"ok":true' "$SERVE_DIR/out.jsonl")
FAIL_LINES=$(grep -c '"ok":false' "$SERVE_DIR/out.jsonl")
if [ "$SEQ_LINES" != 3 ] || [ "$OK_LINES" != 2 ] || [ "$FAIL_LINES" != 1 ]; then
    echo "serve smoke: expected 3 responses (2 ok, 1 failed); got $SEQ_LINES/$OK_LINES/$FAIL_LINES" >&2
    cat "$SERVE_DIR/out.jsonl" >&2
    exit 1
fi
printf '{"cmd":"ping"}\n{"cmd":"shutdown"}\n' | "$SEAL" serve >"$SERVE_DIR/clean.jsonl"
if ! grep -q '"shutdown":true' "$SERVE_DIR/clean.jsonl"; then
    echo "serve smoke: shutdown was not acknowledged" >&2
    exit 1
fi
rm -rf "$SERVE_DIR"
echo "serve smoke: ok (3 per-item responses, clean shutdown)"

# Serve-concurrency smoke: a socket-mode daemon with four simultaneous
# clients, one of which sends protocol garbage. Contract: every client is
# served concurrently (the poisoned one only poisons itself), each good
# client gets per-item statuses for its own batch with a private gapless
# seq, and a client-driven shutdown drains cleanly. Exit code 2: the
# garbage lines are protocol errors (partial-failure class), which must
# not escalate to fatal or leak into the sibling connections.
CONC_DIR=$(mktemp -d)
CONC_SOCK="$CONC_DIR/seal.sock"
"$SEAL" serve --listen "$CONC_SOCK" --max-conns 8 \
    >/dev/null 2>"$CONC_DIR/err.log" &
CONC_PID=$!
python3 - "$CONC_SOCK" <<'EOF'
import json
import socket
import sys
import threading
import time

path = sys.argv[1]

deadline = time.time() + 10.0
while True:
    try:
        probe = socket.socket(socket.AF_UNIX)
        probe.connect(path)
        probe.close()
        break
    except OSError:
        if time.time() > deadline:
            print("serve-concurrency smoke: daemon never bound its socket",
                  file=sys.stderr)
            sys.exit(1)
        time.sleep(0.05)

HUNT = {"cmd": "hunt", "pre": "tests/data/npd-check.pre.c",
        "post": "tests/data/npd-check.post.c",
        "target": "tests/data/target.c"}
errors = []


def client(lines, nresps, check):
    try:
        s = socket.socket(socket.AF_UNIX)
        s.connect(path)
        s.settimeout(60.0)
        f = s.makefile("rw", encoding="utf-8", newline="\n")
        for line in lines:
            f.write(line + "\n")
        f.flush()
        check([json.loads(f.readline()) for _ in range(nresps)])
        s.close()
    except Exception as e:  # collected, not raised: threads must all run
        errors.append(f"client failed: {e!r}")


def good(resps):
    # A 2-item batch shares one seq (per-item lines differ by `item`),
    # then the ping gets the next seq: private, gapless per connection.
    if [r["seq"] for r in resps] != [1, 1, 2]:
        errors.append(f"seq not gapless-per-connection: {resps}")
    if [r.get("item") for r in resps[:2]] != [0, 1]:
        errors.append(f"batch item indices wrong: {resps}")
    if not all(r.get("ok") for r in resps):
        errors.append(f"good client item failed: {resps}")


def poisoned(resps):
    # Garbage is a per-line protocol error, then the connection still works.
    if [r.get("ok") for r in resps] != [False, False, True]:
        errors.append(f"poisoned client statuses wrong: {resps}")
    if resps[0].get("stage") != "protocol":
        errors.append(f"garbage not classed as protocol error: {resps[0]}")


batch = json.dumps({"cmd": "batch", "items": [HUNT, HUNT]})
ping = json.dumps({"cmd": "ping"})
threads = [threading.Thread(target=client, args=a) for a in [
    ([batch, ping], 3, good),
    ([batch, ping], 3, good),
    ([batch, ping], 3, good),
    (["this is not json", '{"cmd":"no-such-cmd"}', ping], 3, poisoned),
]]
for t in threads:
    t.start()
for t in threads:
    t.join()


def closer(resps):
    if not resps[0].get("shutdown"):
        errors.append(f"shutdown not acknowledged: {resps}")


client([json.dumps({"cmd": "shutdown"})], 1, closer)
if errors:
    for e in errors:
        print(f"serve-concurrency smoke: {e}", file=sys.stderr)
    sys.exit(1)
EOF
set +e
wait "$CONC_PID"
CONC_CODE=$?
set -e
if [ "$CONC_CODE" != 2 ]; then
    echo "serve-concurrency smoke: expected daemon exit 2 (poisoned client), got $CONC_CODE" >&2
    cat "$CONC_DIR/err.log" >&2
    exit 1
fi
if grep -q "panicked at" "$CONC_DIR/err.log"; then
    echo "serve-concurrency smoke: panic escaped to stderr" >&2
    cat "$CONC_DIR/err.log" >&2
    exit 1
fi
rm -rf "$CONC_DIR"
echo "serve-concurrency smoke: ok (4 parallel clients, poisoned sibling isolated, clean shutdown)"

# --- scale-tier smoke ------------------------------------------------------
# A small streamed run (4x corpus) under a zero RSS budget: every chunk and
# spec segment must round-trip through the spill layer, the run must exit
# cleanly, and the reports must be byte-identical to the materialized path.
# The full 10x/100x suite stays behind SEAL_SCALE=1 (set in the env to run
# it here as well).
SCALE_DIR=$(mktemp -d)
"$SEAL" scale-run --scale 4 --mode streamed --max-rss-mb 0 \
    --reports-out "$SCALE_DIR/streamed.reports" >"$SCALE_DIR/streamed.json"
"$SEAL" scale-run --scale 4 --mode materialized \
    --reports-out "$SCALE_DIR/materialized.reports" >"$SCALE_DIR/materialized.json"
if ! cmp -s "$SCALE_DIR/streamed.reports" "$SCALE_DIR/materialized.reports"; then
    echo "scale smoke: streamed and materialized reports differ" >&2
    exit 1
fi
python3 - "$SCALE_DIR/streamed.json" <<'EOF'
import json, sys

row = json.load(open(sys.argv[1]))
spill = row.get("spill", {})
errors = []
if spill.get("writes", 0) < 1 or spill.get("reads", 0) < 1:
    errors.append(f"no spill round-trip under a zero budget: {spill}")
if spill.get("bytes_read") != spill.get("bytes_written"):
    errors.append(f"spill bytes read != written: {spill}")
if row.get("store_errors", 1) != 0:
    errors.append(f"clean run surfaced store errors: {row['store_errors']}")
if row.get("recall", 0) < 0.95:
    errors.append(f"scale smoke recall {row.get('recall')} < 0.95")
if errors:
    for e in errors:
        print(f"scale smoke: {e}", file=sys.stderr)
    sys.exit(1)
print(f"scale smoke: ok (streamed 4x, {int(spill['writes'])} spill writes, "
      f"{int(spill['reads'])} reads, reports identical to materialized)")
EOF
rm -rf "$SCALE_DIR"
if [ "${SEAL_SCALE:-0}" = "1" ]; then
    SEAL_SCALE=1 cargo test --release --test scale
fi
