#!/usr/bin/env bash
# Full verification gate: tier-1 (build + tests), a bench smoke pass, the
# benchmark package, and the serve/cluster/quant smokes.
#
# Everything here runs offline — the workspace has no registry
# dependencies, so a clean checkout verifies with no network at all.
#
# Usage: scripts/verify.sh [--tier1-only]

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: formatting =="
cargo fmt --check

echo "== tier 1: no second Llama in crates/accel =="
# The accelerator's values come from llama's one layer walk; its own code
# is the cost model. None of the walk's per-op kernels may be called from
# crates/accel/src outside its tests, so a second functional interpreter
# cannot grow back unnoticed.
for f in crates/accel/src/*.rs crates/accel/src/*/*.rs; do
    if sed '/#\[cfg(test)\]/,$d' "$f" |
        grep -nE 'exec_op|ops::(matvec|rmsnorm|softmax|rope_inplace)|attention_scores'; then
        echo "$f: a functional kernel above #[cfg(test)] (see the lines above)" >&2
        exit 1
    fi
done

echo "== tier 1: one resident copy of every weight =="
# A model's weights are one Arc<ResidentWeights>, built by consuming the
# checkpoint. Above their tests, the crates that run models may neither
# quantize a checkpoint by reference (a compressed copy beside the f32
# one) nor clone one, so a second resident copy cannot grow back
# unnoticed. A grep cannot see types, so the rule is on the spelling: a
# handle is cloned as `Arc::clone(&weights)`; `weights.clone()` and
# `(**weights).clone()` are read as copying the tensors.
for f in crates/{serve,accel,router,cli}/src/*.rs crates/{serve,accel,router,cli}/src/*/*.rs; do
    [[ -e "$f" ]] || continue
    if sed '/#\[cfg(test)\]/,$d' "$f" |
        grep -nE 'WeightStore::for_mode|QuantWeights::quantize\(|weights(\(\))?\)*\.clone\(\)'; then
        echo "$f: a second resident copy of the weights above #[cfg(test)] (see the lines above)" >&2
        exit 1
    fi
done

echo "== tier 1: one GEMM path, one speculation loop =="
# The host path is the serial oracle: no thread strategy, no env knob, no
# spawned thread in llama or accel, and speculation lives only in the
# serve tick (serve/src/engine/tick.rs). None of these names may come back.
if grep -rnE 'MatVecStrategy|set_strategy|SPEEDLLM_THREADS|SpecSession|VerifyTarget|std::thread' \
    crates/llama/src crates/accel/src; then
    echo "a second GEMM path or speculation loop in crates/{llama,accel}/src (see the lines above)" >&2
    exit 1
fi

echo "== tier 1: one f32 kernel on the hot path =="
# Every f32 matrix is resident in kernel order and streamed by
# ops::tiled_matmul_rows_xt. The row-major ops::matmul / ops::matvec stay
# as the reference that probes and tests call; no code above
# #[cfg(test)] in the crates that run models may call them.
for f in crates/{llama,accel,serve}/src/*.rs crates/{llama,accel,serve}/src/*/*.rs; do
    [[ -e "$f" ]] || continue
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE 'ops::(matmul|matvec)\('; then
        echo "$f: a row-major f32 GEMM call above #[cfg(test)] (see the lines above)" >&2
        exit 1
    fi
    # RoPE in the walk reads the per-model table (ops::RopeTable);
    # ops::rope_inplace, which evaluates powf and sin_cos per pair, stays
    # as the reference the probes and tests call.
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE 'ops::rope_inplace\('; then
        echo "$f: a per-call RoPE above #[cfg(test)] (see the lines above)" >&2
        exit 1
    fi
done
# The sequential oracle (llama::generate) and the serve verbs score full
# rows: only the accelerator session's argmax sampler takes the certified
# greedy rows, so every benchmark replay cross-checks that path against
# full-row argmax.
if grep -rn 'LogitRows::Greedy' crates/llama/src/generate.rs crates/serve/src; then
    echo "LogitRows::Greedy in the sequential oracle or serve (see the lines above)" >&2
    exit 1
fi
# The one GEMM kernel body, compiled per instruction set (baseline, AVX2
# and AVX-512), is the only code built for a target feature, and its one
# dispatch (ops::run_tiled) holds the workspace's only unsafe code: one
# #[allow(unsafe_code)] over two unsafe blocks.
if grep -rn --include='*.rs' '#\[target_feature' crates src tests examples benchmark/src |
    grep -vE '^crates/llama/src/ops\.rs:'; then
    echo "#[target_feature] outside crates/llama/src/ops.rs (see the lines above)" >&2
    exit 1
fi
allows="$(grep -rho --include='*.rs' '#\[allow(unsafe_code)\]' crates/*/src | wc -l)"
blocks="$(grep -rho --include='*.rs' 'unsafe {' crates/*/src | wc -l)"
if [[ "$allows" != 1 || "$blocks" != 2 ]]; then
    echo "crates/*/src: $allows #[allow(unsafe_code)] and $blocks unsafe blocks, want 1 and 2" >&2
    exit 1
fi

echo "== tier 1: release build =="
# --workspace so the release `speedllm` binary used by the telemetry smoke
# below is rebuilt too (the root package alone excludes the CLI crate).
cargo build --release --workspace

# --workspace is a superset of the tier-1 `cargo test -q` (root package):
# it adds every member crate's unit tests, the testkit self-tests, and
# the repro-binary smoke tests in crates/bench/tests.
echo "== tier 1+ : workspace test suite =="
cargo test -q --workspace

if [[ "${1:-}" == "--tier1-only" ]]; then
    echo "verify OK (tier 1 only)"
    exit 0
fi

# All bench targets live in speedllm-bench (harness = false), so scope the
# run there — default libtest harnesses elsewhere would reject --smoke.
echo "== bench smoke (tiny configs, 3 samples per bench) =="
cargo bench -p speedllm-bench -- --smoke

echo "== benchmark package (its own workspace: compile against crates/*, self-test, smoke) =="
# Nothing above compiles `benchmark/` (it has its own [workspace]), so a
# public-API edit in crates/* could break the repo's benchmark silently.
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
bench_smoke="$(benchmark/run.sh --smoke)"
if grep -Eq '"correct": false|"failed": [1-9]' <<<"$bench_smoke" ||
    [[ "$(grep -c '"correct": true' <<<"$bench_smoke")" -lt 5 ]]; then
    echo "benchmark/run.sh --smoke: a workload failed requests or its correctness check:" >&2
    grep '"correct"' <<<"$bench_smoke" >&2 || true
    exit 1
fi
echo "benchmark package OK: tests green, five smoke workloads correct with 0 failed"

echo "== serve smoke (continuous batching) =="
# The serve layer keeps all timing in virtual ticks, so the same seed
# renders the same bytes. That is pinned in tier 1, not here: the digest
# of every serve-bench configuration smoked below (report, and event/tick
# exports where there are any) is committed in
# crates/cli/tests/serve_bench.rs, so these sections run each once, for
# the content checks a digest cannot explain.
serve_a="$(./target/release/speedllm serve-bench --smoke)"
grep -q "requests completed   8" <<<"$serve_a"
serve_cpu="$(./target/release/speedllm serve-bench --smoke --backend cpu)"
grep -q "serve-bench report (cpu backend)" <<<"$serve_cpu"
echo "serve smoke OK: accel + cpu backends"

echo "== one-tick-loop pins (release) =="
# Every scheduler mode x backend x KV layout x sampler cell of the one
# tick loop against digests captured from the three schedulers it
# replaced, in the profile the serve runs use.
cargo test --release -q -p speedllm --test serve_tick_pins

echo "== paged-serve smoke (block pool + radix prefix cache, both backends) =="
paged_a="$(./target/release/speedllm serve-bench --smoke --kv paged)"
grep -q "requests completed   8" <<<"$paged_a"
grep -q "peak blocks in use" <<<"$paged_a"
paged_cpu="$(./target/release/speedllm serve-bench --smoke --backend cpu --kv paged --block-size 4 --shared-prefix 8)"
grep -q "requests completed   8" <<<"$paged_cpu"
# With a 2-block shared prefix the radix cache must actually hit.
grep -q "prefix-hit tokens" <<<"$paged_cpu"
if grep -Eq "prefix-hit tokens +0$" <<<"$paged_cpu"; then
    echo "paged cpu smoke: shared prefix never hit the radix cache" >&2
    exit 1
fi
# Recycled-block hygiene + equal-memory ablation, in the release profile
# (debug poisoning off — reuse must be clean on its own merits).
cargo test --release -q -p speedllm --test paged_reuse
echo "paged serve smoke OK: accel + cpu, prefix cache hits"

echo "== batched-decode GEMM identity gate (release) =="
# The batched serve hot path must stay bit-identical to the sequential
# per-sequence loop in the profile the benches and serve runs actually
# use (debug asserts off): flat + paged slots, permuted batch order, on
# both backends.
cargo test --release -q -p speedllm --test batched_decode_props
# That gate compares one kernel path with another; this one pins the
# kernels to the numbers — a single-accumulator loop written in the test,
# and logits digests captured before the row-tiled kernels. Tier-1 ran it
# at opt-level 2; the benchmark and the serve runs are release + thin
# LTO, and the two vectorize differently.
cargo test --release -q -p speedllm --test kernel_identity
# The one kernel body is compiled three times (baseline and AVX2 one tile
# per step, AVX-512 two); the unit tests of each matrix form (quantized,
# kernel-order and split-order f32) compare the copies bit for bit, and
# the body, the two-tile instantiation included, against `dot`, in the
# profile that ships; the shape checks must panic there too. Which copy
# ran depends on the CPU, so the log says whether it has AVX-512.
if grep -qw avx512f /proc/cpuinfo 2>/dev/null; then
    echo "cpu has avx512f: the AVX-512 kernel copies are exercised"
else
    echo "cpu lacks avx512f: the AVX2 or baseline kernel copies are exercised"
fi
cargo test --release -q -p speedllm-llama qgemm
cargo test --release -q -p speedllm-llama kernel_order
cargo test --release -q -p speedllm-llama f32_instantiations
cargo test --release -q -p speedllm-llama shape_check
# The split vocab table: its re-lay round-trips every bit, its exact and
# screen GEMMs replay `dot`, its three copies agree, and the certified
# greedy rows keep the full row's argmax and exact values; an argmax
# session (greedy rows) reports what the full-row chunk loop does.
cargo test --release -q -p speedllm-llama -- split_order vocab::
cargo test --release -q -p speedllm-accel argmax_session
cargo test --release -q -p speedllm --test greedy_telemetry
# The walk's RoPE table, key-tiled attention scores and the sampler's
# two-pass argmax, against the per-call reference each replaces.
cargo test --release -q -p speedllm-llama -- rope_table tiled_attention argmax

echo "== unified-batch smoke (mixed prefill+decode ticks) =="
uni_a="$(./target/release/speedllm serve-bench --smoke --mode bursty --burst-size 4 --burst-gap 16 --token-budget 8 --prefill-ratio 50)"
grep -q "requests completed   8" <<<"$uni_a"
grep -q "token budget 8, prefill ratio 50%" <<<"$uni_a"
uni_cpu="$(./target/release/speedllm serve-bench --smoke --backend cpu --kv paged --prefill-ratio 25)"
grep -q "requests completed   8" <<<"$uni_cpu"
echo "unified-batch smoke OK: mixed ticks on accel + cpu"

echo "== unified-batch identity gate (release) =="
# The mixed prefill+decode tick must stay bit-identical to the
# sequential prefill-then-decode engine in the release profile (debug
# asserts off): budget × ratio × chunk × flat/paged grids on both
# backends, plus the mid-tick-finish / exact-fit /
# forced-split / preempt-half-prefilled edges and the pure-decode
# report-byte regression.
cargo test --release -q -p speedllm --test unified_batch_props
cargo test --release -q -p speedllm --test unified_batch_telemetry

echo "== batched GEMM ablation smoke (tok/s + weight bytes/token vs width) =="
gemm_out="$(cargo bench -q -p speedllm-bench --bench ablation_batched_gemm -- --smoke)"
grep -q "batch 8:" <<<"$gemm_out"
# JSONL rows must carry the batch_width meta the repro tooling keys on.
grep -q '"batch_width":"8"' <<<"$gemm_out"
echo "batched GEMM smoke OK: ablation table + batch_width-stamped JSONL rows"

echo "== speculative smoke (draft K ahead, one-pass verify) =="
# Greedy sampling with the `auto` draft (a stories260K-shaped trunk at an
# offset seed) must show nonzero acceptance or speculation is not
# actually engaging, and the lifecycle event log must carry
# draft_tick/verify_tick lines.
spec_dir="$(mktemp -d /tmp/speedllm_verify_spec.XXXXXX)"
trap 'rm -rf "$spec_dir"' EXIT
spec_a="$(./target/release/speedllm serve-bench --smoke --spec-k 4 --sampler argmax \
    --events-out "$spec_dir/ev_a.jsonl")"
grep -q "requests completed   8" <<<"$spec_a"
grep -q "spec rounds" <<<"$spec_a"
if grep -Eq "spec acceptance      0/" <<<"$spec_a"; then
    echo "speculative smoke: greedy acceptance is zero" >&2
    exit 1
fi
grep -q '"ev":"draft_tick"' "$spec_dir/ev_a.jsonl"
grep -q '"ev":"verify_tick"' "$spec_dir/ev_a.jsonl"
# Paged KV + speculation: rollback pops blocks, preemption drops draft
# state; the composition must still run rounds.
spec_paged_a="$(./target/release/speedllm serve-bench --smoke --backend cpu --kv paged --spec-k 3 --sampler argmax)"
grep -q "spec rounds" <<<"$spec_paged_a"
# The speculative identity gate in the profile serve runs actually use
# (debug asserts off): stream bit-identity + drain conservation across
# K x flat/paged x cpu/accel x greedy/seeded, through the serve engine.
cargo test --release -q -p speedllm --test speculative_props
echo "speculative smoke OK: nonzero acceptance, events carry draft/verify ticks"

echo "== observability smoke (lifecycle events + tick metrics + analyze) =="
obs_dir="$(mktemp -d /tmp/speedllm_verify_obs.XXXXXX)"
trap 'rm -rf "$spec_dir" "$obs_dir"' EXIT
./target/release/speedllm serve-bench --smoke \
    --events-out "$obs_dir/ev_a.jsonl" --metrics-out "$obs_dir/ticks_a.csv" >/dev/null
# The analyzer must ingest the event log back and produce a non-empty
# phase breakdown that accounts for every smoke request.
analyze_out="$(./target/release/speedllm analyze --events "$obs_dir/ev_a.jsonl")"
grep -q "phase breakdown" <<<"$analyze_out"
grep -q "8 requests (8 completed" <<<"$analyze_out"
grep -q "top 5 slowest requests" <<<"$analyze_out"
n_events="$(wc -l < "$obs_dir/ev_a.jsonl")"
n_ticks="$(tail -n +2 "$obs_dir/ticks_a.csv" | wc -l)"
if (( n_events < 8 * 4 )); then
    echo "observability smoke: suspiciously few lifecycle events ($n_events)" >&2
    exit 1
fi
if (( n_ticks < 1 )); then
    echo "observability smoke: tick series is empty" >&2
    exit 1
fi
echo "observability smoke OK: $n_events events + $n_ticks tick samples, analyze reconciles"

echo "== telemetry smoke (instrumented tiny generate -> Chrome trace) =="
trace_file="$(mktemp /tmp/speedllm_verify_trace.XXXXXX.json)"
trap 'rm -rf "$spec_dir" "$obs_dir" "$trace_file"' EXIT
# Capture first, then grep: grep -q closing a live pipe would SIGPIPE the
# binary and trip pipefail.
smoke_out="$(./target/release/speedllm run --preset tiny --steps 8 --trace-out "$trace_file")"
grep -q "telemetry summary" <<<"$smoke_out"
python3 - "$trace_file" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))
spans = [e for e in events if e.get("ph") == "X"]
assert spans, "trace has no complete events"
# One span from each instrumented layer: host per-token work, the engine
# timing pass, and the simulator's cycle timeline (pid 2).
host = {e["name"] for e in spans if e["pid"] == 1}
assert {"prefill_chunk", "decode_token"} <= host, f"host spans missing: {host}"
assert "timing_pass" in host, f"engine spans missing: {host}"
assert any(e["pid"] == 2 for e in spans), "no simulator spans"
print(f"telemetry smoke OK: {len(spans)} spans")
EOF

echo "== cluster smoke (router + replicas, byte-identical, fault-tolerant) =="
cl_dir="$(mktemp -d /tmp/speedllm_verify_cluster.XXXXXX)"
trap 'rm -rf "$spec_dir" "$obs_dir" "$trace_file" "$cl_dir"' EXIT
# Every routing policy must be byte-reproducible: the full stdout
# (cluster report + per-replica reports) AND the merged replica-stamped
# event export must match between double runs. The trailing "wrote ...
# to PATH" line is dropped: it names the (different) output files.
for policy in prefix least-loaded round-robin; do
    a="$(./target/release/speedllm cluster-bench --smoke --replicas 3 --policy "$policy" \
        --events-out "$cl_dir/ev_a.jsonl" | grep -v '^wrote ')"
    b="$(./target/release/speedllm cluster-bench --smoke --replicas 3 --policy "$policy" \
        --events-out "$cl_dir/ev_b.jsonl" | grep -v '^wrote ')"
    if [[ "$a" != "$b" ]]; then
        echo "cluster-bench --policy $policy is not deterministic" >&2
        exit 1
    fi
    cmp "$cl_dir/ev_a.jsonl" "$cl_dir/ev_b.jsonl"
    grep -q '"replica":' "$cl_dir/ev_a.jsonl"
    echo "$a" > "$cl_dir/report_$policy.txt"
done
# Placement policy must never change what gets generated — per-request
# seeded samplers make token streams routing-independent.
rr_digest="$(grep 'token stream digest' "$cl_dir/report_round-robin.txt")"
px_digest="$(grep 'token stream digest' "$cl_dir/report_prefix.txt")"
if [[ "$rr_digest" != "$px_digest" ]]; then
    echo "routing policy changed the token streams: $px_digest vs $rr_digest" >&2
    exit 1
fi
# Fault injection: kill replica 0 mid-run; the router must fail its work
# over and still complete every request with the no-fault digest.
fault_out="$(./target/release/speedllm cluster-bench --smoke --replicas 3 --fault-at 20:0)"
grep -q "requests completed   12" <<<"$fault_out"
failed_over="$(grep -m1 'failed over' <<<"$fault_out" | awk '{print $3}')"
if (( failed_over < 1 )); then
    echo "fault at tick 20 drained nothing (failed over $failed_over)" >&2
    exit 1
fi
fault_digest="$(grep 'token stream digest' <<<"$fault_out")"
if [[ "$fault_digest" != "$px_digest" ]]; then
    echo "failover changed the token streams: $fault_digest vs $px_digest" >&2
    exit 1
fi
# The prefix policy must actually land warm placements on the smoke
# shared-prefix workload.
grep -E 'prefix hit at placement +[1-9]' "$cl_dir/report_prefix.txt" >/dev/null
cargo test --release -q -p speedllm --test router_props
echo "cluster smoke OK: 3 policies deterministic, streams policy- and fault-invariant ($failed_over failed over)"

echo "== quantized serve smoke (fused dequant-GEMM, compressed stream) =="
# The quantized hot path (DESIGN.md §18) keeps the virtual-clock
# discipline: the int8/int4 x cpu/accel x pool/paged double runs, with
# their report checks, are the `quant` tests of crates/cli/tests/serve_bench.rs
# (run in tier 1, and again below in the release profile).
# The gemm_weight_bytes telemetry must report the compressed stream:
# int8 strictly under 1/3 of the f32 weight bytes per token, int4
# strictly under int8.
quant_dir="$(mktemp -d /tmp/speedllm_verify_quant.XXXXXX)"
trap 'rm -rf "$spec_dir" "$obs_dir" "$trace_file" "$cl_dir" "$quant_dir"' EXIT
for quant in f32 int8 int4; do
    ./target/release/speedllm serve-bench --smoke --backend cpu --quant "$quant" \
        --trace-out "$quant_dir/trace_$quant.json" > "$quant_dir/out_$quant.txt"
done
python3 - "$quant_dir" <<'EOF'
import sys
def bytes_per_token(path):
    bytes_ = tokens = None
    for line in open(path):
        cols = line.split()
        if cols[:1] == ["cpu.gemm_weight_bytes"]:
            bytes_ = int(cols[1])
        if cols[:1] == ["cpu.gemm_tokens"]:
            tokens = int(cols[1])
    assert bytes_ and tokens, f"{path}: missing cpu.gemm_* counters"
    return bytes_ / tokens
d = sys.argv[1]
f32 = bytes_per_token(f"{d}/out_f32.txt")
i8 = bytes_per_token(f"{d}/out_int8.txt")
i4 = bytes_per_token(f"{d}/out_int4.txt")
assert i8 * 3 < f32, f"int8 stream not under 1/3 of f32: {i8} vs {f32}"
assert i4 < i8, f"int4 stream not under int8: {i4} vs {i8}"
print(f"weight stream/token OK: f32 {f32:.0f} B, int8 {i8:.0f} B ({f32/i8:.2f}x), int4 {i4:.0f} B ({f32/i4:.2f}x)")
EOF
# Perplexity-delta gate on stories15M: quantized CPU engines must track
# the fp32 reference (eval exits nonzero past the bound).
./target/release/speedllm eval --preset stories15m --tokens 24 --engines cpu \
    --gate-int8 0.02 --gate-int4 0.10 | tail -2
# The quantized identity gates in the profile serve runs actually use
# (debug asserts off): kernel bit-identity, round-trip bounds, pack/unpack
# exactness, and the serve-bench double-run corners.
cargo test --release -q -p speedllm --test quant_props
cargo test --release -q -p speedllm-cli --test serve_bench quant
echo "== quant ablation smoke (tok/s + weight MB/token, quant-stamped JSONL) =="
quant_bench="$(cargo bench -q -p speedllm-bench --bench ablation_quant -- --smoke)"
grep -q "int4 batch 8:" <<<"$quant_bench"
grep -q '"quant":"int8"' <<<"$quant_bench"
echo "quantized serve smoke OK: int8/int4 deterministic on both backends, stream compressed, ppl gated"

echo "verify OK"
