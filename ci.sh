#!/bin/sh
# Offline CI gate: the workspace must build, test, and lint with zero
# registry access (see DESIGN.md §4 — no external crates).
set -eux

cargo fmt --all -- --check

cargo build --release --offline
cargo test -q --offline
cargo test -q --workspace --offline
cargo clippy --workspace --all-targets --offline -- -D warnings

# the benchmark package (its own workspace) must build against the changed
# crates, and its determinism self-test must pass
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# frodo-obs must stay dependency-free: its cargo tree is exactly one line
test "$(cargo tree -p frodo-obs --offline --edges normal | wc -l)" -eq 1

# a traced compile of a Table-1 model emits parseable NDJSON covering
# every pipeline stage; --verify and --analyze turn the opt-in stages on
# so their spans are covered too
trace_out="$(mktemp)"
./target/release/frodo compile --verify --analyze --trace "$trace_out" Kalman >/dev/null
for stage in parse flatten hash cache dfg iomap ranges classify lower verify analyze emit; do
    grep -q "\"name\":\"$stage\"" "$trace_out"
done
# every line is one flat JSON object
if grep -qv '^{.*}$' "$trace_out"; then
    echo "malformed NDJSON line in $trace_out"
    exit 1
fi

# counter determinism: two traced compiles of the same model must agree
# exactly on every deterministic counter (cache traffic, statement
# counts, bytes emitted); --fail-over 0 turns wall-time gating off, so
# only counters are compared
trace_out2="$(mktemp)"
./target/release/frodo compile --verify --analyze --trace "$trace_out2" Kalman >/dev/null
./target/release/frodo obs diff "$trace_out" "$trace_out2" --fail-over 0

# the chrome-trace export of the same trace is one trace_event document
chrome_out="$(mktemp)"
./target/release/frodo obs export "$trace_out" --format chrome -o "$chrome_out"
grep -q '"traceEvents"' "$chrome_out"
./target/release/frodo obs export "$trace_out" --format collapsed | grep -q '^job:Kalman;ranges '
rm -f "$trace_out" "$trace_out2" "$chrome_out"

# perf-ledger regression gate: fresh one-worker batches must be
# counter-identical to the committed baselines (LEDGER.ndjson, one entry
# per batch label): the Table-1 suite (batch:10) and the 2000-block
# synthetic (batch:1); counters are model/code-derived, so this holds
# across hosts — wall times are informational only at --fail-over 0
ledger_dir="$(mktemp -d)"
grep '"label":"batch:10"' LEDGER.ndjson > "$ledger_dir/table1-base.ndjson"
grep '"label":"batch:1"' LEDGER.ndjson > "$ledger_dir/random-base.ndjson"
./target/release/frodo batch AudioProcess Decryption HighPass HT Kalman Back \
    Maintenance Maunfacture RunningDiff Simpson \
    --workers 1 --ledger-out "$ledger_dir/table1.ndjson" >/dev/null
./target/release/frodo obs diff "$ledger_dir/table1-base.ndjson" \
    "$ledger_dir/table1.ndjson" --fail-over 0
./target/release/frodo obs report "$ledger_dir/table1.ndjson" >/dev/null
./target/release/frodo batch random:7:2000 \
    --workers 1 --ledger-out "$ledger_dir/random.ndjson" >/dev/null
./target/release/frodo obs diff "$ledger_dir/random-base.ndjson" \
    "$ledger_dir/random.ndjson" --fail-over 0
rm -rf "$ledger_dir"

# static verification gate: every benchmark model must lint clean of
# errors, and every compile must pass the range-soundness checker (no
# uninitialized reads, no OOB, outputs written exactly as demanded)
for model in AudioProcess Decryption HighPass HT Kalman Back \
    Maintenance Maunfacture RunningDiff Simpson; do
    ./target/release/frodo lint "$model" >/dev/null
    ./target/release/frodo compile --no-cache --verify "$model" >/dev/null
done

# dataflow-analysis gate: the injected-defect selftest must catch the
# planted bug, and every benchmark must come out with zero findings: no
# numeric hazards (F2xx) and no residual redundancy (F204)
./target/release/frodo analyze --selftest >/dev/null
for model in AudioProcess Decryption HighPass HT Kalman Back \
    Maintenance Maunfacture RunningDiff Simpson; do
    ./target/release/frodo analyze "$model" --gate >/dev/null
done
# ...while the Simulink-style baseline must trip the residual detector
# on a convolution benchmark: over-computation is real and detectable
if ./target/release/frodo analyze HT -s simulink --gate >/dev/null 2>&1; then
    echo "analyze gate failed to flag the over-computing baseline"
    exit 1
fi
./target/release/frodo analyze HT -s simulink --format json 2>/dev/null \
    | grep -q '"code":"F204"'

# ISO C gate: every Table-1 model's C, in every style and vector mode,
# and FRODO's profiled harness must compile as ISO C99 without a warning
# (an unread inport, clock_gettime without _POSIX_C_SOURCE)
if command -v gcc >/dev/null 2>&1; then
    c99_dir="$(mktemp -d)"
    for model in AudioProcess Decryption HighPass HT Kalman Back \
        Maintenance Maunfacture RunningDiff Simpson; do
        for style in simulink dfsynth hcg frodo; do
            for mode in auto hints batch:8; do
                ./target/release/frodo compile --no-cache "$model" -s "$style" \
                    --vectorize "$mode" -o "$c99_dir/step.c" 2>/dev/null
                gcc -std=c99 -Wall -Wextra -Werror -fsyntax-only "$c99_dir/step.c"
            done
        done
        ./target/release/frodo compile --no-cache "$model" --profile \
            --harness 5 -o "$c99_dir/harness.c" 2>/dev/null
        gcc -std=c99 -Wall -Wextra -Werror -fsyntax-only "$c99_dir/harness.c"
    done
    rm -rf "$c99_dir"
else
    echo "NOTICE: no gcc on PATH; skipping the ISO C gate"
fi

# sanitizer lane: the self-profiling native harness must run clean under
# AddressSanitizer and UndefinedBehaviorSanitizer (buffer sizing, state
# copies, and the profiling hooks are all exercised); probed first since
# some toolchains ship without libasan
if command -v gcc >/dev/null 2>&1; then
    san_dir="$(mktemp -d)"
    printf 'int main(void){return 0;}\n' > "$san_dir/probe.c"
    if gcc -fsanitize=address,undefined -g -O1 -o "$san_dir/probe" \
        "$san_dir/probe.c" >/dev/null 2>&1 && "$san_dir/probe"; then
        for model in HT AudioProcess; do
            ./target/release/frodo compile "$model" --profile --harness 5 \
                -o "$san_dir/harness.c"
            gcc -fsanitize=address,undefined -fno-sanitize-recover=all \
                -g -O1 -o "$san_dir/harness" "$san_dir/harness.c" -lm
            "$san_dir/harness" >/dev/null 2>&1
        done
        # every model with a window statement, in every style: the
        # boundary-peeled head, steady, blocked and tail loops must stay
        # inside their buffers, and the baselines' full-range windows run
        # the most head and tail outputs
        for model in AudioProcess HighPass Kalman Back Maintenance \
            Maunfacture RunningDiff; do
            for style in simulink dfsynth hcg frodo; do
                ./target/release/frodo compile "$model" -s "$style" \
                    --harness 5 -o "$san_dir/harness.c" 2>/dev/null
                gcc -fsanitize=address,undefined -fno-sanitize-recover=all \
                    -g -O1 -o "$san_dir/harness" "$san_dir/harness.c" -lm
                "$san_dir/harness" >/dev/null 2>&1
            done
        done
        # and the full Table-1 suite via the calibrate path: every
        # benchmark's generated step function under ASan/UBSan
        ./target/release/frodo calibrate --sanitize --iters 2 \
            | grep -q "native-sanitized"
    else
        echo "NOTICE: gcc lacks -fsanitize=address,undefined support; skipping sanitizer lane"
    fi
    rm -rf "$san_dir"
else
    echo "NOTICE: no gcc on PATH; skipping sanitizer lane"
fi

# compile-daemon parity gate: the same jobs through a resident daemon
# must be counter-identical to a fresh one-shot batch (serve and batch
# record through the same trace schema); shutdown must drain, flush the
# daemon's ledger entry, and remove the socket file
serve_dir="$(mktemp -d)"
serve_sock="$serve_dir/serve.sock"
./target/release/frodo serve --socket "$serve_sock" --workers 1 \
    --ledger-out "$serve_dir/serve-ledger.ndjson" &
serve_pid=$!
# probe with a real request, not just the socket file: the file appears
# between the daemon's bind() and listen(), where connects still refuse
for _ in $(seq 1 200); do
    ./target/release/frodo client --socket "$serve_sock" status \
        >/dev/null 2>&1 && break
    sleep 0.05
done
test -S "$serve_sock"
./target/release/frodo client --socket "$serve_sock" batch Kalman HT \
    -s all >/dev/null
./target/release/frodo client --socket "$serve_sock" status \
    | grep -q '"completed":8'
./target/release/frodo client --socket "$serve_sock" shutdown \
    | grep -q '"type":"shutdown"'
wait "$serve_pid"
test ! -e "$serve_sock"
./target/release/frodo batch Kalman HT -s all --workers 1 \
    --ledger-out "$serve_dir/batch-ledger.ndjson" >/dev/null
./target/release/frodo obs diff "$serve_dir/batch-ledger.ndjson" \
    "$serve_dir/serve-ledger.ndjson" --fail-over 0
rm -rf "$serve_dir"

# SIMD-emission gate: batched output must be deterministic (two cold
# compiles byte-identical) and carry the hint surface (restrict-qualified
# pointers plus the ivdep pragma); the default mode must be byte-identical
# with and without an explicit --vectorize auto, preserving the
# pre-VectorMode emission exactly
simd_dir="$(mktemp -d)"
./target/release/frodo compile --no-cache --vectorize batch \
    AudioProcess -o "$simd_dir/batch1.c" >/dev/null
./target/release/frodo compile --no-cache --vectorize batch \
    AudioProcess -o "$simd_dir/batch2.c" >/dev/null
cmp "$simd_dir/batch1.c" "$simd_dir/batch2.c"
grep -q 'restrict' "$simd_dir/batch1.c"
grep -q 'explicit simd batch' "$simd_dir/batch1.c"
./target/release/frodo compile --no-cache --vectorize hints \
    AudioProcess -o "$simd_dir/hints.c" >/dev/null
grep -q 'ivdep' "$simd_dir/hints.c"
./target/release/frodo compile --no-cache \
    AudioProcess -o "$simd_dir/auto1.c" >/dev/null
./target/release/frodo compile --no-cache --vectorize auto \
    AudioProcess -o "$simd_dir/auto2.c" >/dev/null
cmp "$simd_dir/auto1.c" "$simd_dir/auto2.c"
# (`if`, not `!`: set -e ignores the status of a `!` command)
if grep -q 'restrict' "$simd_dir/auto1.c"; then
    echo "default emission carries restrict: $simd_dir/auto1.c"
    exit 1
fi
# the batched emission must still be compilable C when a compiler exists
if command -v gcc >/dev/null 2>&1; then
    gcc -fsyntax-only -O0 "$simd_dir/batch1.c"
fi
rm -rf "$simd_dir"

# the ablation studies (range elimination, coalescing, dead ends, shared
# helper, folding, vector modes) must still run to completion
cargo run --release --offline --quiet -p frodo-bench --bin ablation >/dev/null

# the SARIF rendering keeps the minimal schema code-scanning UIs need,
# for the model-lint families and the analyze (F2xx) family
sarif_out="$(mktemp)"
./target/release/frodo lint Kalman --format sarif -o "$sarif_out"
for key in '"version":"2.1.0"' '"\$schema"' '"name":"frodo-verify"' '"rules"'; do
    grep -q "$key" "$sarif_out"
done
./target/release/frodo analyze HT -s simulink --format sarif -o "$sarif_out" >/dev/null
for key in '"version":"2.1.0"' '"ruleId":"F204"' '"level":"warning"'; do
    grep -q "$key" "$sarif_out"
done
rm -f "$sarif_out"

# incremental-recompilation gate: the 2000-block synthetic cold, then the
# same model with one gain edited, through one compile session
# (`batch --incremental` writes one ledger entry per job). The edit must
# reuse >=90% of the region cache, recompile faster than the cold run,
# and stitch C byte-identical to a cold compile of the edited model.
# One wall-time reading of either compile swings by a quarter with host
# noise, so the timing check runs the pair three times and compares the
# fastest edit with the fastest cold compile.
inc_dir="$(mktemp -d)"
./target/release/frodo batch random:42:2000 random:42:2000:edit:1 \
    --incremental --ledger-out "$inc_dir/ledger.ndjson" \
    -o "$inc_dir/out" >/dev/null
./target/release/frodo obs report "$inc_dir/ledger.ndjson" \
    | grep -q 'random:42:2000:edit:1'
./target/release/frodo compile --no-cache \
    random:42:2000:edit:1 -o "$inc_dir/cold-edit.c" >/dev/null
cmp "$inc_dir/out/random_42_2000_edit_1_frodo.c" "$inc_dir/cold-edit.c"
region_hits="$(grep -o '"counter_region_hits":[0-9]*' "$inc_dir/ledger.ndjson" | tail -1 | cut -d: -f2)"
region_total="$(grep -o '"counter_region_total":[0-9]*' "$inc_dir/ledger.ndjson" | tail -1 | cut -d: -f2)"
test "$((region_hits * 10))" -ge "$((region_total * 9))"
for _ in 2 3; do
    ./target/release/frodo batch random:42:2000 random:42:2000:edit:1 \
        --incremental --ledger-out "$inc_dir/ledger.ndjson" >/dev/null
done
# the ledger now holds cold, edit, cold, edit, cold, edit
grep -o '"wall_ns":[0-9]*' "$inc_dir/ledger.ndjson" | cut -d: -f2 > "$inc_dir/walls"
test "$(wc -l < "$inc_dir/walls")" -eq 6
cold_wall="$(awk 'NR % 2 == 1' "$inc_dir/walls" | sort -n | head -1)"
inc_wall="$(awk 'NR % 2 == 0' "$inc_dir/walls" | sort -n | head -1)"
test "$inc_wall" -lt "$cold_wall"
rm -rf "$inc_dir"

# serve-daemon recompile parity: the same edit pair through a named
# session on a resident daemon must also reuse regions and answer with
# the session's protocol version
inc_sock_dir="$(mktemp -d)"
./target/release/frodo serve --socket "$inc_sock_dir/serve.sock" --workers 1 &
inc_serve_pid=$!
for _ in $(seq 1 200); do
    ./target/release/frodo client --socket "$inc_sock_dir/serve.sock" status \
        >/dev/null 2>&1 && break
    sleep 0.05
done
./target/release/frodo client --socket "$inc_sock_dir/serve.sock" recompile \
    random:42:400 --session ci-edit >/dev/null
./target/release/frodo client --socket "$inc_sock_dir/serve.sock" recompile \
    random:42:400:edit:1 --session ci-edit >/dev/null 2>"$inc_sock_dir/warm.err"
grep -q 'regions 3[0-9]/3[0-9] reused' "$inc_sock_dir/warm.err"
./target/release/frodo client --socket "$inc_sock_dir/serve.sock" status \
    | grep -q '"proto_version":4'

# live-metrics smoke on the same daemon, before any drain: three compile
# requests must land in the rolling per-verb latency window, with the
# histogram-derived percentile columns rendering real durations
for _ in 1 2 3; do
    ./target/release/frodo client --socket "$inc_sock_dir/serve.sock" \
        compile Kalman >/dev/null
done
./target/release/frodo client --socket "$inc_sock_dir/serve.sock" metrics \
    > "$inc_sock_dir/metrics.txt"
grep -q '^uptime ' "$inc_sock_dir/metrics.txt"
compile_window="$(awk '$1 == "compile" {print $2}' "$inc_sock_dir/metrics.txt")"
test "$compile_window" -ge 3
awk '$1 == "compile" {print $3}' "$inc_sock_dir/metrics.txt" | grep -Eq '^[0-9]'
awk '$1 == "compile" {print $4}' "$inc_sock_dir/metrics.txt" | grep -Eq '^[0-9]'

./target/release/frodo client --socket "$inc_sock_dir/serve.sock" shutdown >/dev/null
wait "$inc_serve_pid"
rm -rf "$inc_sock_dir"

# self-profiling emission gate: --profile compiles per-statement hooks
# and the NDJSON dumper into the generated C; the default emission must
# stay free of any profiling symbol
prof_dir="$(mktemp -d)"
./target/release/frodo compile --no-cache --profile \
    Kalman -o "$prof_dir/prof.c" >/dev/null
grep -q 'frodo_prof_dump' "$prof_dir/prof.c"
grep -q 'stmt_%d_%s' "$prof_dir/prof.c"
grep -q 'frodo_prof_kind' "$prof_dir/prof.c"
if command -v gcc >/dev/null 2>&1; then
    gcc -fsyntax-only -O0 "$prof_dir/prof.c"
    # cost-model calibration: the suite's self-profiling native binaries
    # are joined against the cost model, and the report lands in the
    # ledger as a label:"calibrate:native" entry with a ratio per
    # exercised statement kind (reported, not gated)
    ./target/release/frodo calibrate --iters 20 \
        --ledger-out "$prof_dir/calib.ndjson" >/dev/null
    grep -q '"label":"calibrate:native"' "$prof_dir/calib.ndjson"
    grep -q 'calib_fir_ratio_p50_x1000' "$prof_dir/calib.ndjson"
fi
./target/release/frodo compile --no-cache \
    Kalman -o "$prof_dir/plain.c" >/dev/null
if grep -q 'frodo_prof' "$prof_dir/plain.c"; then
    echo "default emission carries a profiling symbol: $prof_dir/plain.c"
    exit 1
fi
rm -rf "$prof_dir"

# .slx CLI gate: every Table-1 model written as a real .slx and compiled
# from the file in one batch must give the same C as compiling the
# bundled model, and a pathologically deep model file must fail cleanly
# (exit 1 with the nesting error) instead of overflowing the stack
slx_dir="$(mktemp -d)"
for model in AudioProcess Decryption HighPass HT Kalman Back \
    Maintenance Maunfacture RunningDiff Simpson; do
    ./target/release/frodo convert "$model" "$slx_dir/$model.slx" >/dev/null
    ./target/release/frodo compile --no-cache "$model" \
        -o "$slx_dir/$model.c" 2>/dev/null
done
./target/release/frodo batch "$slx_dir"/*.slx --no-cache -o "$slx_dir/out" 2>/dev/null >/dev/null
for model in AudioProcess Decryption HighPass HT Kalman Back \
    Maintenance Maunfacture RunningDiff Simpson; do
    cmp "$slx_dir/out/${model}_frodo.c" "$slx_dir/$model.c"
done
awk 'BEGIN { for (i = 0; i < 1000000; i++) print "Model {"
             for (i = 0; i < 1000000; i++) print "}" }' > "$slx_dir/deep.mdl"
deep_status=0
./target/release/frodo compile --no-cache "$slx_dir/deep.mdl" \
    2>"$slx_dir/deep.err" >/dev/null || deep_status=$?
test "$deep_status" -eq 1
grep -q 'sections nested deeper than 256' "$slx_dir/deep.err"
rm -rf "$slx_dir"

# disk-cache gate: the Table-1 suite compiled twice into one fresh
# --cache-dir is served from disk the second time, byte-identical. The
# key digests the model by value: Kalman read back from .mdl hits the
# suite's entry, and the same file with one constant flipped from 0.0 to
# -0.0 (equal as numbers, different C) misses and compiles to the C of
# an uncached compile
disk_dir="$(mktemp -d)"
for run in 1 2; do
    ./target/release/frodo batch AudioProcess Decryption HighPass HT Kalman Back \
        Maintenance Maunfacture RunningDiff Simpson \
        --cache-dir "$disk_dir/cache" --machine -o "$disk_dir/run$run" \
        > "$disk_dir/run$run.txt" 2>/dev/null
done
test "$(grep -c '^frodo-job ' "$disk_dir/run2.txt")" -eq 10
test "$(grep '^frodo-job ' "$disk_dir/run2.txt" | grep -c ' cache=disk ')" -eq 10
test "$(ls "$disk_dir/run2" | wc -l)" -eq 10
diff -r "$disk_dir/run1" "$disk_dir/run2"
./target/release/frodo convert Kalman "$disk_dir/k.mdl" >/dev/null
./target/release/frodo compile "$disk_dir/k.mdl" --cache-dir "$disk_dir/cache" \
    -o "$disk_dir/k.c" 2>"$disk_dir/k.err"
grep -q 'cache disk' "$disk_dir/k.err"
sed '0,/ 0\.0 /s// -0.0 /' "$disk_dir/k.mdl" > "$disk_dir/neg.mdl"
test "$(grep -c ' -0\.0 ' "$disk_dir/neg.mdl")" -eq 1
./target/release/frodo compile "$disk_dir/neg.mdl" --cache-dir "$disk_dir/cache" \
    -o "$disk_dir/neg.c" 2>"$disk_dir/neg.err"
grep -q 'cache miss' "$disk_dir/neg.err"
./target/release/frodo compile "$disk_dir/neg.mdl" --no-cache \
    -o "$disk_dir/neg-cold.c" 2>/dev/null
cmp "$disk_dir/neg.c" "$disk_dir/neg-cold.c"
if cmp -s "$disk_dir/neg.c" "$disk_dir/k.c"; then
    echo "flipping 0.0 to -0.0 left the C unchanged"
    exit 1
fi
rm -rf "$disk_dir"
