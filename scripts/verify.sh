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

echo "== tier 1: clippy (every target, warnings denied) =="
cargo clippy --workspace --all-targets -- -D warnings

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
# The serial walk is still the oracle. crates/llama/src/cores.rs splits a
# large GEMM's rows, a layer's attention heads and a serve tick's draws
# between the caller and one helper thread, each value computed by one
# thread with the unchanged body, and each split is tested against the
# serial run bit for bit. So threads live in that one module only: no
# thread strategy or knob, no thread in any other crate's library code,
# and speculation lives only in the serve tick (serve/src/engine/tick.rs).
# None of these names may come back.
if grep -rnE 'MatVecStrategy|set_strategy|SPEEDLLM_THREADS|SpecSession|VerifyTarget' \
    crates/llama/src crates/accel/src; then
    echo "a second GEMM path or speculation loop in crates/{llama,accel}/src (see the lines above)" >&2
    exit 1
fi
# Every crate's source above its #[cfg(test)]: a test may start threads
# of its own, the library may not. Nor may it read the environment, save
# for two names: SPEEDLLM_TRACE (telemetry's documented global switch)
# and TESTKIT_SEED (the property runner's replay seed). A behaviour is a
# flag of the command that has it, never an env knob.
while IFS= read -r f; do
    above_tests=$(sed '/#\[cfg(test)\]/,$d' "$f")
    if [[ "$f" != crates/llama/src/cores.rs ]] &&
        grep -nE 'std::thread|available_parallelism' <<<"$above_tests"; then
        echo "$f: a thread outside crates/llama/src/cores.rs above #[cfg(test)] (see the lines above)" >&2
        exit 1
    fi
    if grep -nE 'env::var' <<<"$above_tests" |
        grep -vE 'env::var(_os)?\("(SPEEDLLM_TRACE|TESTKIT_SEED)"\)'; then
        echo "$f: an environment knob above #[cfg(test)] (see the lines above)" >&2
        exit 1
    fi
done < <(find crates/*/src -name '*.rs' | sort)

echo "== tier 1: one f32 kernel on the hot path =="
# Every weight GEMM, in the walk, the benches and the tests alike, runs
# the one tiled body (cores::Gemm over kernel-order or split-order f32 or
# a QuantMatrix; qgemm::qmatvec is its width-1 case). The row-major tiled
# GEMM and its option-free wrappers left the library, and none of their
# names may come back anywhere.
if grep -rnE --include='*.rs' \
    '\bmatmul_rows_xt\b|tile_accumulate|matmul_tile|ops::matmul\b|fn matmul\b|qmatmul\(|\.matvec\(' \
    crates src tests examples; then
    echo "a deleted row-major GEMM or GEMM wrapper (see the lines above)" >&2
    exit 1
fi
# ops::matvec, a dot per row, stays as the reference the benchmark's
# probes call; no code above #[cfg(test)] in the crates that run models
# may call it.
for f in crates/{llama,accel,serve}/src/*.rs crates/{llama,accel,serve}/src/*/*.rs; do
    [[ -e "$f" ]] || continue
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE 'ops::matvec\('; then
        echo "$f: a row-major f32 GEMV call above #[cfg(test)] (see the lines above)" >&2
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
# The sequential oracle (llama::generate) scores full rows: the
# accelerator session and the serve passes of argmax-only requests take
# the certified greedy rows, so every benchmark replay cross-checks that
# path against full-row argmax.
if grep -n 'LogitRows::Greedy' crates/llama/src/generate.rs; then
    echo "LogitRows::Greedy in the sequential oracle (see the lines above)" >&2
    exit 1
fi
# The one GEMM kernel body and the seeded normal fill, compiled per
# instruction set (baseline, AVX2 and AVX-512), are the only code built
# for a target feature, and their one dispatch (ops::run_isa) holds the
# workspace's only unsafe code: one #[allow(unsafe_code)] over two unsafe
# blocks.
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

echo "== tier 1: one sequence-KV type =="
# Every sequence's KV belongs to whatever drives it, and its storage to
# the serve backend, never to a model or an engine: a Transformer or an
# accel::Engine holds no sequence and no KV storage, and each pass extends
# the llama::KvBatch its caller passes (llama::KvBatch is the walk's only
# KV trait). accel::runtime::Session holds a plain llama::KvCache; serving
# sequences are pagedkv::SeqKv (a private cache or a block table) in the
# one serve::ServeBackend's pagedkv::KvSpace, and KvSpace::batch is the
# only code that picks flat or paged for a pass. So accel does not depend
# on pagedkv, serve has one Backend impl (the per-substrate part is a
# serve::Substrate), and the per-backend twins, single-sequence adapters
# and engine-owned storage this replaced may not come back.
if grep -rnE --include='*.rs' \
    'KvStore|PagedSeqView|begin_with_kv|CpuSlot|SequenceState|forward_runs_into|execute_default|kv_space' \
    crates src tests examples benchmark/src; then
    echo "a second sequence-KV type, adapter or engine-owned KV storage (see the lines above)" >&2
    exit 1
fi
if sed -n '/^\[dependencies\]/,/^\[/p' crates/accel/Cargo.toml | grep -n 'speedllm-pagedkv'; then
    echo "crates/accel/Cargo.toml: accel depends on pagedkv (a dev-dependency at most)" >&2
    exit 1
fi
backend_impls=0
for f in crates/{serve,accel}/src/*.rs crates/{serve,accel}/src/*/*.rs; do
    [[ -e "$f" ]] || continue
    above_tests=$(sed '/#\[cfg(test)\]/,$d' "$f")
    if grep -nE 'PagedKvArena|SeqKv::(Flat|Paged)' <<<"$above_tests"; then
        echo "$f: a flat/paged decision outside KvSpace above #[cfg(test)] (see the lines above)" >&2
        exit 1
    fi
    if [[ "$f" == crates/accel/* ]] && grep -nE 'KvSpace|SeqKv' <<<"$above_tests"; then
        echo "$f: the accelerator names serving KV storage above #[cfg(test)] (see the lines above)" >&2
        exit 1
    fi
    if [[ "$f" == crates/serve/* ]]; then
        backend_impls=$((backend_impls + $(grep -cE '^impl\b.*\bBackend for ' <<<"$above_tests" || true)))
    fi
done
if ((backend_impls != 1)); then
    echo "crates/serve/src: $backend_impls impls of Backend above #[cfg(test)], want the one ServeBackend" >&2
    exit 1
fi

echo "== tier 1: one front end for the paper's tables =="
# The speedllm CLI prints the paper's tables (compare, generate, devices);
# tests/paper_claims.rs asserts them. The repro binaries, their workload
# grid and tiny-mode env knob, their CSV and cost-row helpers, and the
# sampler penalty and channel driver nothing called may not come back, and
# crates/bench (the harness and the cpu_kernels bench) runs no model. Nor
# may the ablation paths only tests took: device int8 KV, best-fit
# planning, the OCM pool's cost model, copy-on-write blocks and the
# graph-only DOT export.
if grep -rnE --include='*.rs' 'SPEEDLLM_TINY|with_repetition_penalty|run_queue|render_csv|CostRow|kv_precision|DeviceKv|QuantTensor|AllocStrategy|plan_with_strategy|alloc_best_fit|OcmKind|make_writable|copy_block|graph_to_dot' \
    crates src tests examples benchmark/src; then
    echo "a retired second front end or unused API came back (see the lines above)" >&2
    exit 1
fi
if [[ -e crates/bench/src/bin ]] ||
    grep -nE 'speedllm-(accel|fpga-sim|gpu-model)' crates/bench/Cargo.toml; then
    echo "crates/bench: binaries, or a dependency on the accelerator (see above)" >&2
    exit 1
fi

echo "== tier 1: release build =="
# --workspace so the release `speedllm` binary used by the telemetry smoke
# below is rebuilt too (the root package alone excludes the CLI crate).
cargo build --release --workspace

# --workspace is a superset of the tier-1 `cargo test -q` (root package):
# it adds every member crate's unit and integration tests (the CLI's
# end-to-end tests among them) and the testkit self-tests.
echo "== tier 1+ : workspace test suite =="
cargo test -q --workspace

if [[ "${1:-}" == "--tier1-only" ]]; then
    echo "verify OK (tier 1 only)"
    exit 0
fi

# The one bench target, speedllm-bench's `cpu_kernels` (harness = false):
# name it, since default libtest harnesses elsewhere would reject --smoke.
# Its rows must include the width-16 GEMM cells with their `gb_s` stamp.
echo "== bench smoke (cpu_kernels, 3 short samples per row) =="
kernels_out="$(cargo bench -q -p speedllm-bench --bench cpu_kernels -- --smoke)"
grep -Eq '"name":"cpu/cores_serial_[a-z0-9]+_w16_[0-9]+x[0-9]+"' <<<"$kernels_out"
grep -q '"gb_s":"' <<<"$kernels_out"
grep -q '"bench_run_complete":true' <<<"$kernels_out"
echo "bench smoke OK: cpu_kernels rows, width-16 GEMM cells stamped with gb_s"

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
# (shape_check also selects the transpose's: a short activation buffer
# panics rather than leaving a lane of the transposed copy stale.)
cargo test --release -q -p speedllm-llama shape_check
# The split vocab table: its re-lay round-trips every bit, its exact and
# screen GEMMs replay `dot`, its three copies agree, and the certified
# greedy rows keep the full row's argmax and exact values; an argmax
# session (greedy rows) reports what the full-row chunk loop does; serve
# passes of argmax-only requests take the screen (also through a
# verb-forwarding wrapper) and stream what the sequential oracle does.
cargo test --release -q -p speedllm-llama -- split_order vocab::
cargo test --release -q -p speedllm-accel argmax_session
cargo test --release -q -p speedllm --test greedy_telemetry
cargo test --release -q -p speedllm-serve --test greedy_serve
# The walk's RoPE table, key-tiled attention scores and the sampler's
# two-pass argmax, against the per-call reference each replaces.
cargo test --release -q -p speedllm-llama -- rope_table tiled_attention argmax
# The two-core split (llama::cores) against the serial GEMM, items and
# walk, bit for bit, in the profile that ships: every body, width and cut,
# the take-back, spawn-refusal and panic paths for GEMM rows and for
# items, and the walk — GEMMs, and attention heads in decode,
# prefill-chunk and mixed passes — through the CPU backend and the
# accelerator engine, flat and paged.
cargo test --release -q -p speedllm-llama cores::
cargo test --release -q -p speedllm-serve --test gemm_helper
# The one-pass draw (a branch-free scale and one lane max) and the lane
# max softmax against the three scans and the sequential fold they
# replace, bit for bit, over rows of NaN, ±0, ±∞ and subnormals.
cargo test --release -q -p speedllm-llama -- one_pass_probs lane_max_softmax
# The seeded normal fill that builds every synthetic checkpoint is one
# more body of the same dispatch: each copy (AVX-512, AVX2, baseline)
# must equal the one-draw-at-a-time loop bit for bit, its certificate
# must refuse every margin that rounds two ways, and every tensor of the
# synthetic checkpoints must keep its pinned digest, in the profile that
# ships.
cargo test --release -q -p speedllm-llama rng::
cargo test --release -q -p speedllm --test synthetic_weights

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
echo "quantized serve smoke OK: int8/int4 deterministic on both backends, stream compressed, ppl gated"

echo "verify OK"
