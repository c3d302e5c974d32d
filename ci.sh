#!/usr/bin/env bash
# The CI gate, run locally and by .github/workflows/ci.yml on every
# push, pull request and nightly schedule: formatting, release build,
# every workspace member's tests (incl. doc tests, and the end-to-end
# suite again in release mode with its ignored headline-rate test),
# warning-free clippy, the benchmark package's own tests, the
# benchmark-scale world fingerprint, the reference run (the paper tables
# `govdns audit` writes match `report_s010/` byte for byte), the chaos
# determinism smoke, the crash/resume smoke, the journal-growth gate,
# the trace determinism smoke, the cross-run diff smoke (self-diff
# empty, cross-seed divergence deterministic, corpus replay
# byte-identical), the counterfactual SPOF smoke (seeded sweeps
# byte-identical across runs and worker counts, and matching the
# checked-in corpus artifact), the smell smoke (trace-cited operational
# smell verdicts byte-stable across runs and worker counts, every
# detector firing, and matching the checked-in corpus artifact), and
# the bench guards (telemetry, substrate and analysis rows, campaign
# scaling, flight-recorder overhead). The smokes drive the release `govdns` binary that the
# build stage produces.
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt =="
cargo fmt --check

echo "== build (release) =="
cargo build --release

echo "== tests =="
# --workspace: the root manifest is also a package, so a bare
# `cargo test` would run only the root package's tests. Doc tests run
# here too.
cargo test -q --workspace

echo "== end-to-end tests (release) =="
# The same suite as above, optimized: release-only arithmetic and
# timing behaviour in the chaos, crash-safety, sink, trace,
# counterfactual and smell pipelines gets exercised too. The ignored
# headline-rate test (three worlds, the paper's three headline-rate
# bands) is only fast enough here.
cargo test -q --release --test end_to_end -- --include-ignored

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== bench harness: the benchmark package still builds and passes =="
# govdns-perf is a workspace of its own that drives the public API; its
# tests catch an API change that would break the benchmark.
cargo test --offline -q --release --manifest-path govdns-perf/Cargo.toml

echo "== world pin: the benchmark-scale world is byte-identical =="
# The ignored fingerprint case generates the probe workload's world
# (seed 7, scale 0.2) and checks servers, zones, PDNS, ground truth,
# registrar and roots against hashes recorded before generation was
# made linear. It needs a release build to run in seconds.
cargo test --release -p govdns-world --test generation -- --ignored

# Every smoke below writes under one scratch directory.
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
govdns=target/release/govdns
# expect_exit CODE CMD...: CMD must exit with exactly CODE.
expect_exit() {
    local want="$1" got=0
    shift
    "$@" > /dev/null 2>&1 || got=$?
    [ "$got" = "$want" ] || { echo "expected exit $want, got $got: $*" >&2; exit 1; }
}

# require_rows OUT ROW...: each microbench prints `bench <id> <ns>
# ns/iter`, the median of its timed batches. A row of OUT that is
# missing, or reads no positive time, measures nothing.
require_rows() {
    local out="$1"
    shift
    awk -v want="$*" '
        / ns\/iter / && $3 > 0 { seen[$2] = 1 }
        END {
            n = split(want, rows, " ")
            for (i = 1; i <= n; i++) {
                if (!(rows[i] in seen)) {
                    print "bench guard: row " rows[i] " missing or not positive" > "/dev/stderr"
                    bad = 1
                }
            }
            exit bad
        }
    ' "$out"
}

echo "== reference run: the paper tables match report_s010/ =="
# EXPERIMENTS.md quotes these tables. They do not depend on the worker
# count; the header traffic totals and the telemetry do, so neither is
# checked in.
ref_args=(--scale 0.1 --seed 20220627)
"$govdns" audit "${ref_args[@]}" --out "$work/ref" > /dev/null
shopt -s nullglob
ref_tables=(report_s010/*.csv)
shopt -u nullglob
[ "${#ref_tables[@]}" -gt 0 ] || {
    echo "reference run: glob report_s010/*.csv matched nothing" >&2
    exit 1
}
for table in "${ref_tables[@]}"; do
    cmp "$table" "$work/ref/$(basename "$table")" || {
        echo "reference run: $table no longer matches a fresh run" >&2
        echo "(if the change is intentional, regenerate the tables with:" >&2
        echo "  target/release/govdns audit ${ref_args[*]} --out report_s010" >&2
        echo " then keep only the files report_s010/ already holds)" >&2
        exit 1
    }
done
echo "${#ref_tables[@]} reference table(s) match"

echo "== chaos smoke: identical seeds => identical output =="
"$govdns" chaos --seed 7 > "$work/chaos_a"
"$govdns" chaos --seed 7 > "$work/chaos_b"
diff -u "$work/chaos_a" "$work/chaos_b"
grep -q "dataset fingerprint" "$work/chaos_a"

echo "== breaker smoke: quarantine under hostile chaos is deterministic =="
"$govdns" chaos --seed 3 --profile hostile --scale 0.01 --breaker > "$work/breaker_a"
"$govdns" chaos --seed 3 --profile hostile --scale 0.01 --breaker > "$work/breaker_b"
diff -u "$work/breaker_a" "$work/breaker_b"
grep -q "circuit breakers" "$work/breaker_a"

echo "== resume smoke: crash at half-campaign, resume, identical fingerprint =="
resume_dir="$work/resume"
mkdir "$resume_dir"
# Full uninterrupted run: the reference fingerprint.
"$govdns" resume --seed 7 --scale 0.01 --journal "$resume_dir/full.journal" > "$resume_dir/full.out"
# Crash hard (exit 9) mid-campaign; the journal survives.
expect_exit 9 "$govdns" resume --seed 7 --scale 0.01 \
    --journal "$resume_dir/crash.journal" --crash-after 200
# Resume from the journal and finish.
"$govdns" resume --seed 7 --scale 0.01 \
    --journal "$resume_dir/crash.journal" --resume > "$resume_dir/resumed.out"
full_fp="$(grep 'dataset fingerprint' "$resume_dir/full.out")"
resumed_fp="$(grep 'dataset fingerprint' "$resume_dir/resumed.out")"
[ -n "$full_fp" ] && [ "$full_fp" = "$resumed_fp" ] || {
    echo "resume smoke: fingerprints differ" >&2
    echo "  full:    $full_fp" >&2
    echo "  resumed: $resumed_fp" >&2
    exit 1
}
grep -q "probes replayed" "$resume_dir/resumed.out"

echo "== sink smoke: channel-fed journal sink is byte-stable run to run =="
# The journal now reaches disk through a dedicated I/O thread fed by a
# bounded channel; identical runs must still produce identical bytes.
# (Cross-worker-count byte identity is a trace-file property — journal
# records carry side-query tallies that follow per-worker resolver
# cache warmth — so the journal gate is run-to-run at a fixed count,
# and the diff smoke below gates the dataset view across counts.)
"$govdns" resume --seed 7 --scale 0.01 --journal "$resume_dir/full2.journal" > /dev/null
cmp "$resume_dir/full.journal" "$resume_dir/full2.journal" || {
    echo "sink smoke: identical runs produced different journal bytes" >&2
    exit 1
}

echo "== journal growth: delta checkpoints keep bytes/probe flat =="
# Each periodic checkpoint records only what changed since the previous
# one, so journal bytes per probe must not grow with the campaign. (The
# property test that delta replay equals full-snapshot replay at random
# crash points, `govdns-core`'s `delta_journal`, runs in the tests
# stage.) The scale 0.01 figure comes from the resume smoke's full run
# above.
"$govdns" resume --seed 7 --scale 0.04 \
    --journal "$resume_dir/large.journal" > "$resume_dir/large.out"
small="$(awk '/^journal bytes\/probe:/ {print $3}' "$resume_dir/full.out")"
large="$(awk '/^journal bytes\/probe:/ {print $3}' "$resume_dir/large.out")"
awk -v s="$small" -v l="$large" 'BEGIN { exit !(s > 0 && l <= 1.25 * s) }' || {
    echo "journal growth: $large bytes/probe at scale 0.04 vs $small at 0.01 (limit 1.25x)" >&2
    exit 1
}

echo "== trace smoke: identical seeds => byte-identical traces at any worker count =="
trace_dir="$work/trace"
mkdir "$trace_dir"
"$govdns" trace --seed 7 --workers 1 --scale 0.01 --out "$trace_dir/w1.trace" > "$trace_dir/w1.out"
"$govdns" trace --seed 7 --workers 8 --scale 0.01 --out "$trace_dir/w8.trace" > "$trace_dir/w8.out"
cmp "$trace_dir/w1.trace" "$trace_dir/w8.trace" || {
    echo "trace smoke: trace files differ between 1 and 8 workers" >&2
    exit 1
}
diff -u "$trace_dir/w1.out" "$trace_dir/w8.out"
grep -q "trace fingerprint" "$trace_dir/w1.out"

echo "== diff smoke: self-diff empty, cross-seed diff deterministic, corpus replays =="
diff_dir="$work/diff"
mkdir "$diff_dir"
"$govdns" diff run --seed 7 --workers 1 --scale 0.01 --out "$diff_dir/a"
"$govdns" diff run --seed 7 --workers 8 --scale 0.01 --out "$diff_dir/a8"
"$govdns" diff run --seed 8 --workers 4 --scale 0.01 --out "$diff_dir/b"
# Same seed at different worker counts: the gate must pass with zero differences.
"$govdns" diff diff "$diff_dir/a" "$diff_dir/a8" --gate > "$diff_dir/self.out"
grep -q "runs are identical" "$diff_dir/self.out"
# Different seeds: nonzero divergence with a first-divergence timeline,
# deterministic (the same comparison twice is byte-identical), and the
# gate reports the finding (exit 1).
"$govdns" diff diff "$diff_dir/a" "$diff_dir/b" > "$diff_dir/x1.out"
"$govdns" diff diff "$diff_dir/a" "$diff_dir/b" > "$diff_dir/x2.out"
cmp "$diff_dir/x1.out" "$diff_dir/x2.out"
grep -q "first divergence in" "$diff_dir/x1.out"
grep -q "total differences:" "$diff_dir/x1.out"
expect_exit 1 "$govdns" diff diff "$diff_dir/a" "$diff_dir/b" --gate
# The JSON diff is worker-count invariant: seed 7 vs seed 8 reads the
# same whichever worker count produced the seed-7 archive.
"$govdns" diff diff "$diff_dir/a" "$diff_dir/b" --json > "$diff_dir/j1.json"
"$govdns" diff diff "$diff_dir/a8" "$diff_dir/b" --json > "$diff_dir/j2.json"
cmp "$diff_dir/j1.json" "$diff_dir/j2.json"
# A forced analysis failure captures a corpus case that replays
# byte-identically against a fresh simnet.
GOVDNS_FAIL_ANALYSIS=providers "$govdns" diff run --seed 7 --scale 0.004 \
    --out "$diff_dir/fail" --corpus-dir "$diff_dir/corpus" --case smoke > "$diff_dir/fail.out" 2>/dev/null
grep -q "corpus case captured" "$diff_dir/fail.out"
"$govdns" diff replay "$diff_dir/corpus/smoke.json" > "$diff_dir/replay.out"
grep -q "byte-identical" "$diff_dir/replay.out"
# A failed longitudinal reconstruction fails its stage and skips its
# four dependants; that run's corpus case replays byte-identically too.
GOVDNS_FAIL_ANALYSIS=longitudinal "$govdns" diff run --seed 7 --scale 0.004 \
    --out "$diff_dir/fail-lon" --corpus-dir "$diff_dir/corpus" --case longitudinal \
    > "$diff_dir/fail-lon.out" 2>/dev/null
grep -q "analysis failures: 5" "$diff_dir/fail-lon.out"
grep -q "corpus case captured" "$diff_dir/fail-lon.out"
"$govdns" diff replay "$diff_dir/corpus/longitudinal.json" > "$diff_dir/replay-lon.out"
grep -q "byte-identical" "$diff_dir/replay-lon.out"
# The checked-in regression corpus still replays byte-identically —
# every case, and loudly empty-checked so a bad glob can never turn
# the replay gate into a no-op.
shopt -s nullglob
corpus_cases=(corpus/*.json)
shopt -u nullglob
[ "${#corpus_cases[@]}" -gt 0 ] || {
    echo "diff smoke: regression corpus glob corpus/*.json matched nothing" >&2
    exit 1
}
echo "replaying ${#corpus_cases[@]} corpus case(s)"
"$govdns" diff replay "${corpus_cases[@]}"

echo "== counterfactual smoke: seeded SPOF sweep is byte-stable =="
cf_dir="$work/cf"
mkdir "$cf_dir"
cf_args=(--seed 7 --scale 0.002 --max-per-kind 3)
# Same seed twice at 8 workers, once at 1 worker: the canonical JSON
# must be byte-identical across all three, and stdout must carry the
# ranked table.
"$govdns" counterfactual rank "${cf_args[@]}" --workers 8 --out "$cf_dir/a.json" > "$cf_dir/a.out"
"$govdns" counterfactual rank "${cf_args[@]}" --workers 8 --out "$cf_dir/b.json" > "$cf_dir/b.out"
"$govdns" counterfactual rank "${cf_args[@]}" --workers 1 --out "$cf_dir/w1.json" > "$cf_dir/w1.out"
cmp "$cf_dir/a.json" "$cf_dir/b.json" || {
    echo "counterfactual smoke: identical seeds produced different SPOF JSON" >&2
    exit 1
}
cmp "$cf_dir/a.json" "$cf_dir/w1.json" || {
    echo "counterfactual smoke: SPOF JSON differs between 1 and 8 workers" >&2
    exit 1
}
diff -u "$cf_dir/a.out" "$cf_dir/w1.out"
grep -q "single points of failure" "$cf_dir/a.out"
# The checked-in SPOF artifact pins this sweep's exact bytes.
cmp corpus/spof/rank-seed7.json "$cf_dir/a.json" || {
    echo "counterfactual smoke: sweep no longer matches corpus/spof/rank-seed7.json" >&2
    echo "(if the change is intentional, regenerate the artifact with:" >&2
    echo "  target/release/govdns counterfactual rank ${cf_args[*]} --workers 8 --out corpus/spof/rank-seed7.json)" >&2
    exit 1
}

echo "== degraded-mode smoke: compound+partial+recovery sweep is byte-stable =="
# Compound scenarios, the 1-of-2 partial dial, and TTL-driven recovery
# timelines together: same seed at 8 workers and 1 worker must agree
# byte-for-byte, and the checked-in artifact pins the exact bytes.
rec_args=(--seed 7 --scale 0.002 --max-per-kind 2 --combo --partial 1/2
    --recovery-window 7200 --recovery-step 600)
"$govdns" counterfactual rank "${rec_args[@]}" --workers 8 \
    --out "$cf_dir/r8.json" > "$cf_dir/r8.out"
"$govdns" counterfactual rank "${rec_args[@]}" --workers 1 \
    --out "$cf_dir/r1.json" > "$cf_dir/r1.out"
cmp "$cf_dir/r8.json" "$cf_dir/r1.json" || {
    echo "degraded-mode smoke: recovery JSON differs between 1 and 8 workers" >&2
    exit 1
}
diff -u "$cf_dir/r8.out" "$cf_dir/r1.out"
grep -q "recovery timelines" "$cf_dir/r8.out"
cmp corpus/spof/recovery-seed7.json "$cf_dir/r8.json" || {
    echo "degraded-mode smoke: sweep no longer matches corpus/spof/recovery-seed7.json" >&2
    echo "(if the change is intentional, regenerate the artifact with:" >&2
    echo "  target/release/govdns counterfactual rank ${rec_args[*]} --workers 8 --out corpus/spof/recovery-seed7.json)" >&2
    exit 1
}
# A sweep that enumerates nothing must fail loudly (exit 1) — an empty
# ranked report upstream of the byte-gates above would pass them
# vacuously.
expect_exit 1 "$govdns" counterfactual rank --seed 7 --scale 0.002 \
    --scenario no-such-scenario-xyzzy

echo "== smell smoke: trace-cited verdicts are byte-stable =="
smell_dir="$work/smell"
mkdir "$smell_dir"
smell_args=(--seed 7 --scale 0.002)
# Same seed twice at 8 workers, once at 1 worker: canonical JSON and
# stdout must be byte-identical across all three.
"$govdns" smell run "${smell_args[@]}" --workers 8 --out "$smell_dir/a.json" > "$smell_dir/a.out"
"$govdns" smell run "${smell_args[@]}" --workers 8 --out "$smell_dir/b.json" > "$smell_dir/b.out"
"$govdns" smell run "${smell_args[@]}" --workers 1 --out "$smell_dir/w1.json" > "$smell_dir/w1.out"
cmp "$smell_dir/a.json" "$smell_dir/b.json" || {
    echo "smell smoke: identical seeds produced different smell JSON" >&2
    exit 1
}
cmp "$smell_dir/a.json" "$smell_dir/w1.json" || {
    echo "smell smoke: smell JSON differs between 1 and 8 workers" >&2
    exit 1
}
diff -u "$smell_dir/a.out" "$smell_dir/w1.out"
grep -q "operational smells" "$smell_dir/a.out"
# Every detector fires on the seed-7 world.
for kind in cyclic_dependency single_homed_glue stale_parent_ns \
    provider_monoculture lame_delegation; do
    grep -q "\"kind\":\"$kind\"" "$smell_dir/a.json" || {
        echo "smell smoke: detector $kind found nothing on the seed-7 world" >&2
        exit 1
    }
done
# The checked-in artifact pins this run's exact bytes.
cmp corpus/smell/smells-seed7.json "$smell_dir/a.json" || {
    echo "smell smoke: run no longer matches corpus/smell/smells-seed7.json" >&2
    echo "(if the change is intentional, regenerate the artifact with:" >&2
    echo "  target/release/govdns smell run ${smell_args[*]} --workers 8 --out corpus/smell/smells-seed7.json)" >&2
    exit 1
}
# Inspect mode round-trips the archived report byte-for-byte.
"$govdns" smell inspect corpus/smell/smells-seed7.json --json > "$smell_dir/roundtrip.json"
cmp <(cat corpus/smell/smells-seed7.json; echo) "$smell_dir/roundtrip.json" || {
    echo "smell smoke: inspect --json did not round-trip the corpus artifact" >&2
    exit 1
}
# A typo'd --explain domain is a finding (exit 1), not a clean run.
expect_exit 1 "$govdns" smell inspect corpus/smell/smells-seed7.json --explain no.such.domain
expect_exit 1 "$govdns" trace --seed 7 --scale 0.002 --explain no.such.domain

echo "== bench guard: telemetry hot path =="
# The vendored criterion stand-in prints one "ns/iter" line per bench;
# keep the numbers as a machine-readable artifact for trend-watching.
cargo bench -q -p govdns-bench --bench telemetry | tee /dev/stderr | awk '
    BEGIN { print "{"; first = 1 }
    / ns\/iter / {
        if (!first) printf ",\n"
        first = 0
        printf "  \"%s\": %s", $2, $3
    }
    END { if (!first) printf "\n"; print "}" }
' > BENCH_telemetry.json
python3 -c "import json; d = json.load(open('BENCH_telemetry.json')); assert d, 'no benches parsed'" \
    || { echo "bench guard: BENCH_telemetry.json is empty or invalid" >&2; exit 1; }

echo "== bench guard: substrate rows =="
cargo bench -q -p govdns-bench --bench substrates > "$work/substrates.out"
cat "$work/substrates.out"
require_rows "$work/substrates.out" wire/encode wire/encoded_len wire/decode simnet_deliver \
    server_handle_query server_handle_nxdomain pdns_wildcard_search resolver_iterative_walk \
    zonefile/parse pdns_tsv/export pdns_tsv/import trace/decode_domain trace/read

echo "== bench guard: analysis rows =="
# One row per figure and table of the evaluation, over the bench
# fixture's campaign, plus the longitudinal reconstruction they read.
cargo bench -q -p govdns-bench --bench figures > "$work/figures.out"
cargo bench -q -p govdns-bench --bench tables > "$work/tables.out"
cat "$work/figures.out" "$work/tables.out"
require_rows "$work/figures.out" fig02_03_yearly_totals fig02_03_yearly_totals_raw \
    longitudinal_build fig04_domains_per_country fig05_ns_daily_mode fig06_d1ns_churn \
    fig07_private_share fig08_09_active_replication fig10_12_delegation_analysis \
    fig13_14_consistency_analysis levels_section3
require_rows "$work/tables.out" table1_diversity table2_3_provider_classification \
    probed_attribution_concentration_smells table2_major_providers_render \
    table3_top_providers_render

echo "== bench guard: campaign throughput scales with workers =="
# End-to-end probes/sec at 1/2/4/8 workers over the same world. The
# ratio gate catches a re-serialized hot path: on a multi-core machine
# 8 workers must deliver at least 2x the 1-worker throughput; on
# starved runners (< 4 cores) we only require that adding workers does
# not *halve* throughput — the signature of a lock convoy.
cargo bench -q -p govdns-bench --bench campaign | tee /dev/stderr | awk '
    BEGIN { print "{"; first = 1 }
    / ns\/iter / {
        if (!first) printf ",\n"
        first = 0
        printf "  \"%s\": %s", $2, $3
    }
    END { if (!first) printf "\n"; print "}" }
' > BENCH_campaign.json
python3 - <<'PY' || { echo "bench guard: campaign scaling regressed" >&2; exit 1; }
import json, os

d = json.load(open("BENCH_campaign.json"))
one = d["campaign/workers_1"]
eight = d["campaign/workers_8"]
assert one > 0 and eight > 0, f"degenerate timings: {d}"
# Same work per iteration, so throughput ratio = inverse time ratio.
ratio = one / eight
cores = os.cpu_count() or 1
floor = 2.0 if cores >= 4 else 0.5
# Stamp the measurement conditions into the artifact: numbers taken on
# a starved runner (< 4 cores) say nothing about parallel scaling and
# must not be trend-compared against multi-core measurements.
d["cores"] = cores
d["starved_runner"] = cores < 4
json.dump(d, open("BENCH_campaign.json", "w"), indent=2)
print(f"campaign bench: 8-worker/1-worker throughput ratio {ratio:.2f} "
      f"(floor {floor}, {cores} cores)")
assert ratio >= floor, (
    f"8 workers deliver only {ratio:.2f}x the 1-worker throughput "
    f"(floor {floor} on {cores} cores) — hot path re-serialized?")
PY

echo "== bench guard: flight recorder overhead =="
# traced_8 is the 8-worker campaign with the flight recorder on (full
# sampling, file sink). Workers hand event blocks to the dedicated
# trace sink thread over a channel; encoding and file writes happen
# there, so on a multi-core machine they overlap probing
# and traced throughput must stay within 0.90x of untraced. On starved
# runners (< 4 cores) there is no parallelism to hide the encode CPU
# behind — same policy as the worker-scaling gate above — so we only
# require tracing not to halve throughput.
python3 - <<'PY' || { echo "bench guard: tracing overhead regressed" >&2; exit 1; }
import json, os

d = json.load(open("BENCH_campaign.json"))
untraced = d["campaign/workers_8"]
traced = d["campaign/traced_8"]
assert untraced > 0 and traced > 0, f"degenerate timings: {d}"
# Same work per iteration, so throughput ratio = inverse time ratio.
ratio = untraced / traced
cores = os.cpu_count() or 1
floor = 0.90 if cores >= 4 else 0.5
print(f"trace bench: traced/untraced throughput ratio {ratio:.2f} "
      f"(floor {floor}, {cores} cores)")
json.dump({"campaign/workers_8": untraced, "campaign/traced_8": traced,
           "traced_over_untraced_throughput": round(ratio, 4),
           "cores": cores, "starved_runner": cores < 4},
          open("BENCH_trace.json", "w"), indent=2)
assert ratio >= floor, (
    f"tracing costs too much: traced throughput is {ratio:.2f}x untraced "
    f"(floor {floor} on {cores} cores) — is emission taking a lock or "
    f"doing I/O inline?")
PY

echo "ci: all green"
