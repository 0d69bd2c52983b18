#!/usr/bin/env bash
# tools/check.sh — the unified analysis gate.
#
# Runs the full verification matrix with one command:
#
#   1. plain         RelWithDebInfo build + full ctest
#   2. tsan          ThreadSanitizer build + `ctest -L tsan`
#   3. asan-ubsan    AddressSanitizer+UBSan build + full ctest
#   4. analyze       Clang -Wthread-safety over the annotated surface
#   5. clang-tidy    bugprone/concurrency/performance/cert-err profile
#   6. rpcl-lint     rpclgen --lint and --emit-bounds, both --Werror, over
#                    committed .x specs (lint failure = exit 1, wire-size
#                    bounds failure = exit 3; either fails the stage)
#   7. no-escapes    greps for CRICKET_NO_THREAD_SAFETY_ANALYSIS escapes
#   8. obs-trace     CRICKET_TRACE smoke run + trace schema/stitching check
#   9. fuzz-smoke    deterministic decode fuzzer, 10k iterations against the
#                    ASan+UBSan build (clean-throw-no-leak on every mutation)
#  10. fault-smoke   seeded fault-injection matrix (`ctest -L fault`) against
#                    the TSan build — loss recovery races are exactly where
#                    retry/reconnect/DRC state is touched from many threads
#  11. tenancy       multi-tenant admission + two-level fair share
#                    (`ctest -L tenancy`) against the TSan build
#  12. bench-json    every committed BENCH_*.json parses and still honours
#                    its gates — tenants fairness/throughput, migrate
#                    zero-failure/exactly-once/blackout-budget
#                    (validate_bench_json.py dispatches on "bench")
#  13. lock-graph    full ctest with CRICKET_LOCKCHECK=1: every test process
#                    dumps its held-before lock-order edges, then
#                    tools/lock_graph.py merges them suite-wide and fails on
#                    any cycle or self-deadlock (cross-binary inversions are
#                    invisible to any single process)
#  14. mcheck        deterministic interleaving model checker suites
#                    (`ctest -L mcheck`) against the TSan build — the
#                    explorer's own handshake machinery runs raced, so it is
#                    checked where races are fatal
#  15. migrate       live-migration suites (`ctest -L migrate`) against the
#                    TSan build — drain/transfer/flip run coordinator,
#                    serve, retry, and traffic threads concurrently, so the
#                    exactly-once machinery is exercised where races are
#                    fatal
#  16. taint-audit   wiretaint discipline: the taint suites (`ctest -L
#                    taint`), rpclgen --emit-taint strict CLI behaviour, and
#                    tools/taint_audit.py — every trust_unchecked() escape
#                    must carry a justification and match
#                    tools/taint_allowlist.json exactly (the no-escapes
#                    discipline, applied to the taint lattice); its JSON
#                    report is merged into check_summary.json as "taint"
#  17. modcache      content-addressed module cache suites (`ctest -L
#                    modcache`) against the TSan build — cache hit/insert/
#                    release races between concurrent client sessions, the
#                    two-phase load fallback under drop faults, and the LZ/
#                    fatbin hostile-stream corpus
#  18. release     plain -DCMAKE_BUILD_TYPE=Release build + full ctest — the
#                    -O3 build sees warnings (GCC's -Werror=restrict and
#                    friends) that RelWithDebInfo does not
#
# Stages whose toolchain is unavailable (no clang, no clang-tidy) report
# SKIP and do not fail the gate. The first FAIL stops the run; a summary
# table is always printed, and a machine-readable per-stage summary is
# written to build-check-logs/check_summary.json (schema enforced by
# tools/validate_check_json.py). Exit code: 0 iff no stage failed.
#
# Usage: tools/check.sh [--keep-going] [--jobs N]
set -u

cd "$(dirname "$0")/.." || exit 1
ROOT=$PWD

JOBS=$(nproc 2>/dev/null || echo 4)
KEEP_GOING=0
for arg in "$@"; do
  case "$arg" in
    --keep-going) KEEP_GOING=1 ;;
    --jobs=*) JOBS="${arg#--jobs=}" ;;
    --jobs) ;; # value consumed below
    *)
      if [[ "${prev:-}" == "--jobs" ]]; then JOBS="$arg"; else
        echo "usage: tools/check.sh [--keep-going] [--jobs N]" >&2
        exit 2
      fi ;;
  esac
  prev="$arg"
done

STAGES=()
RESULTS=()
FAILED=0

record() { # name result
  STAGES+=("$1")
  RESULTS+=("$2")
  case "$2" in
    PASS) echo "== $1: PASS" ;;
    SKIP*) echo "== $1: $2" ;;
    FAIL)
      echo "== $1: FAIL"
      FAILED=1
      ;;
  esac
}

run_stage() { # name log-suffix command...
  local name=$1; shift
  local log="$ROOT/build-check-logs/$name.log"
  mkdir -p "$ROOT/build-check-logs"
  echo "== $name: running (log: ${log#"$ROOT"/})"
  if "$@" >"$log" 2>&1; then
    record "$name" PASS
  else
    record "$name" FAIL
    tail -n 30 "$log" | sed 's/^/   | /'
  fi
}

should_continue() { [[ $FAILED -eq 0 || $KEEP_GOING -eq 1 ]]; }

# ---------------------------------------------------------------- 1: plain
run_stage plain bash -c '
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
  cmake --build build -j "$0" &&
  ctest --test-dir build --output-on-failure -j "$0"' "$JOBS"

# ----------------------------------------------------------------- 2: tsan
if should_continue; then
  run_stage tsan bash -c '
    cmake -B build-tsan -S . -DCRICKET_SANITIZE=thread \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
    cmake --build build-tsan -j "$0" &&
    ctest --test-dir build-tsan --output-on-failure -j "$0" -L tsan' "$JOBS"
fi

# ----------------------------------------------------------- 3: asan+ubsan
if should_continue; then
  run_stage asan-ubsan bash -c '
    cmake -B build-asan -S . -DCRICKET_SANITIZE=address,undefined \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
    cmake --build build-asan -j "$0" &&
    ctest --test-dir build-asan --output-on-failure -j "$0"' "$JOBS"
fi

# -------------------------------------------- 4: clang thread-safety (TSA)
if should_continue; then
  if command -v clang++ >/dev/null 2>&1; then
    run_stage analyze bash -c '
      cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ \
            -DCRICKET_ANALYZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
      cmake --build build-tsa -j "$0"' "$JOBS"
  else
    record analyze "SKIP (clang++ not installed)"
  fi
fi

# ------------------------------------------------------------ 5: clang-tidy
if should_continue; then
  if command -v clang-tidy >/dev/null 2>&1 && [[ -d build ]]; then
    # compile_commands for the tidy run only; the sources are the annotated
    # concurrency surface plus the rpcl front end.
    run_stage clang-tidy bash -c '
      cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null &&
      clang-tidy -p build --quiet \
        src/rpc/*.cpp src/rpcflow/*.cpp src/gpusim/*.cpp \
        src/rpcl/*.cpp src/vnet/*.cpp src/cricket/*.cpp'
  else
    record clang-tidy "SKIP (clang-tidy not installed)"
  fi
fi

# ------------------------------------------------------------- 6: rpcl lint
if should_continue; then
  if [[ -x build/src/rpcl/rpclgen ]]; then
    run_stage rpcl-lint bash -c '
      rc=0
      tmp=$(mktemp -d) || exit 1
      trap "rm -rf $tmp" EXIT
      for spec in src/*/specs/*.x; do
        echo "linting $spec"
        build/src/rpcl/rpclgen --lint --Werror "$spec" || rc=1
        echo "bounds-checking $spec"
        # Exit 3 = a wire-size bounds rule (RPCL011-RPCL015) fired.
        build/src/rpcl/rpclgen --emit-bounds "$spec" \
          "$tmp/$(basename "$spec" .x)_bounds.hpp" --Werror || rc=1
      done
      exit $rc'
  else
    record rpcl-lint "SKIP (build/src/rpcl/rpclgen missing — run plain stage first)"
  fi
fi

# ------------------------------------------------------------ 7: no-escapes
# The annotation layer offers CRICKET_NO_THREAD_SAFETY_ANALYSIS as a
# last-resort escape hatch; the gate keeps the count at zero outside the
# header that defines it.
if should_continue; then
  if grep -rn "CRICKET_NO_THREAD_SAFETY_ANALYSIS" \
       --include='*.cpp' --include='*.hpp' src tests bench tools examples \
       2>/dev/null | grep -v "src/sim/annotations.hpp"; then
    record no-escapes FAIL
  else
    record no-escapes PASS
  fi
fi

# -------------------------------------------------------------- 8: obs-trace
# End-to-end tracing smoke test: capture a span trace + metrics dump from a
# short memcpy bench run, then validate schema, layer coverage, and
# cross-thread xid stitching (tools/validate_trace.py, stdlib-only).
if should_continue; then
  if ! command -v python3 >/dev/null 2>&1; then
    record obs-trace "SKIP (python3 not installed)"
  elif [[ ! -x build/bench/bench_fig6_micro ]]; then
    record obs-trace "SKIP (build/bench/bench_fig6_micro missing — run plain stage first)"
  else
    run_stage obs-trace bash -c '
      out=$(mktemp -d) &&
      trap "rm -rf $out" EXIT &&
      CRICKET_TRACE="$out/trace.json" CRICKET_METRICS="$out/metrics.txt" \
        build/bench/bench_fig6_micro --api=memcpy --calls=500 &&
      python3 tools/validate_trace.py "$out/trace.json" \
        --metrics "$out/metrics.txt" --min-events 100'
  fi
fi

# -------------------------------------------------------------- 9: fuzz-smoke
# Deterministic mutational fuzzing of the untrusted decode surface under
# ASan+UBSan: every mutated record must either parse or throw a typed
# malformed-input error, with no leak, overflow, or unexpected exception.
if should_continue; then
  if [[ -x build-asan/tools/fuzz_decode ]]; then
    run_stage fuzz-smoke build-asan/tools/fuzz_decode --iters 10000
  else
    record fuzz-smoke "SKIP (build-asan/tools/fuzz_decode missing — run asan-ubsan stage first)"
  fi
fi

# ------------------------------------------------------------- 10: fault-smoke
# The faultnet matrix (drop/dup/reorder/corrupt/partition x serial/pipelined/
# batched) under ThreadSanitizer: recovery paths — retry timers, reconnect,
# in-flight resubmission, the duplicate-request cache — are the most
# thread-entangled code in the tree, so they run where races are fatal.
if should_continue; then
  if [[ -d build-tsan ]]; then
    run_stage fault-smoke ctest --test-dir build-tsan --output-on-failure \
      -j "$JOBS" -L fault
  else
    record fault-smoke "SKIP (build-tsan missing — run tsan stage first)"
  fi
fi

# --------------------------------------------------------------- 11: tenancy
# Multi-tenant admission + two-level fair share under ThreadSanitizer:
# admission runs on connection reader threads while quota accounting,
# scheduler catch-up blocking, and session teardown touch shared state —
# the label selects the tenancy suites on the TSan tree.
if should_continue; then
  if [[ -d build-tsan ]]; then
    run_stage tenancy ctest --test-dir build-tsan --output-on-failure \
      -j "$JOBS" -L tenancy
  else
    record tenancy "SKIP (build-tsan missing — run tsan stage first)"
  fi
fi

# ------------------------------------------------------------ 12: bench-json
# Every committed perf trajectory must stay parseable and keep honouring
# its gates (tools/validate_bench_json.py, stdlib-only, dispatching on the
# "bench" discriminator: tenants fairness/throughput, migrate rolling
# restart).
if should_continue; then
  if ! command -v python3 >/dev/null 2>&1; then
    record bench-json "SKIP (python3 not installed)"
  elif ! compgen -G "BENCH_*.json" >/dev/null; then
    record bench-json "SKIP (no BENCH_*.json committed — run the benches first)"
  else
    run_stage bench-json bash -c '
      rc=0
      for doc in BENCH_*.json; do
        python3 tools/validate_bench_json.py "$doc" || rc=1
      done
      exit $rc'
  fi
fi

# ------------------------------------------------------------- 13: lock-graph
# Whole-suite lock-order analysis: CRICKET_LOCKCHECK=1 puts a LockGraph
# observer on the sim/annotations.hpp seam in every test process (a process
# that alone exhibits a cycle exits 86 and fails its test), each process
# dumps its edges, and tools/lock_graph.py merges them — an A-then-B in one
# binary plus B-then-A in another is a deadlock no single process can see.
if should_continue; then
  if ! command -v python3 >/dev/null 2>&1; then
    record lock-graph "SKIP (python3 not installed)"
  elif [[ ! -d build ]]; then
    record lock-graph "SKIP (build missing — run plain stage first)"
  else
    run_stage lock-graph bash -c '
      dumps=$(mktemp -d) &&
      trap "rm -rf $dumps" EXIT &&
      CRICKET_LOCKCHECK=1 CRICKET_LOCKCHECK_DIR="$dumps" \
        ctest --test-dir build --output-on-failure -j "$0" &&
      python3 tools/lock_graph.py "$dumps"' "$JOBS"
  fi
fi

# ----------------------------------------------------------------- 14: mcheck
# The model-checker suites (lock-graph units, explorer self-checks against
# the intentionally broken mutants, and the five production-core models)
# under ThreadSanitizer — the label selects them on the TSan tree.
if should_continue; then
  if [[ -d build-tsan ]]; then
    run_stage mcheck ctest --test-dir build-tsan --output-on-failure \
      -j "$JOBS" -L mcheck
  else
    record mcheck "SKIP (build-tsan missing — run tsan stage first)"
  fi
fi

# ---------------------------------------------------------------- 15: migrate
# Live-migration suites under ThreadSanitizer: the drain barrier, chunked
# transfer, redirect flip, and DRC hand-off all run with coordinator,
# serve, and client retry threads racing — the label selects them on the
# TSan tree.
if should_continue; then
  if [[ -d build-tsan ]]; then
    run_stage migrate ctest --test-dir build-tsan --output-on-failure \
      -j "$JOBS" -L migrate
  else
    record migrate "SKIP (build-tsan missing — run tsan stage first)"
  fi
fi

# ------------------------------------------------------------- 16: taint-audit
# Wiretaint gate, three parts: (a) the taint-labelled suites (Untrusted<T>
# unit tests) on the plain tree; (b) rpclgen --emit-taint strict CLI
# behaviour on the committed specs (unknown flag and mode conflicts exit 2,
# a clean generation exits 0); (c) tools/taint_audit.py — every
# trust_unchecked() escape in src/ and tools/ must carry its justification
# and match tools/taint_allowlist.json exactly.
if should_continue; then
  if ! command -v python3 >/dev/null 2>&1; then
    record taint-audit "SKIP (python3 not installed)"
  elif [[ ! -d build || ! -x build/src/rpcl/rpclgen ]]; then
    record taint-audit "SKIP (build/src/rpcl/rpclgen missing — run plain stage first)"
  else
    run_stage taint-audit bash -c '
      set -e
      ctest --test-dir build --output-on-failure -j "$0" -L taint
      tmp=$(mktemp -d)
      trap "rm -rf $tmp" EXIT
      for spec in src/*/specs/*.x; do
        echo "taint-generating $spec"
        build/src/rpcl/rpclgen --emit-taint "$spec" \
          "$tmp/$(basename "$spec" .x)_taint.hpp"
        grep -q "namespace taint" "$tmp/$(basename "$spec" .x)_taint.hpp"
      done
      # Strict CLI: unknown flags and mode conflicts are usage errors.
      rc=0
      build/src/rpcl/rpclgen --emit-tain src/cricket/specs/cricket.x \
        "$tmp/x.hpp" 2>/dev/null || rc=$?
      [[ $rc -eq 2 ]] || { echo "unknown flag exited $rc, want 2"; exit 1; }
      rc=0
      build/src/rpcl/rpclgen --lint --emit-taint \
        src/cricket/specs/cricket.x 2>/dev/null || rc=$?
      [[ $rc -eq 2 ]] || { echo "--lint --emit-taint exited $rc, want 2"; exit 1; }
      python3 tools/taint_audit.py \
        --report build-check-logs/taint_audit.json' "$JOBS"
  fi
fi

# ---------------------------------------------------------------- 17: modcache
# Content-addressed module cache suites under ThreadSanitizer: concurrent
# sessions race acquire/insert/release against eviction and teardown, and
# the two-phase load negotiation (including drop-fault fallback) runs
# client, serve, and retry threads concurrently — the label selects them on
# the TSan tree.
if should_continue; then
  if [[ -d build-tsan ]]; then
    run_stage modcache ctest --test-dir build-tsan --output-on-failure \
      -j "$JOBS" -L modcache
  else
    record modcache "SKIP (build-tsan missing — run tsan stage first)"
  fi
fi

# ---------------------------------------------------------------- 18: release
# The configuration a user gets from `cmake -DCMAKE_BUILD_TYPE=Release`: the
# optimizer's extra flow analysis raises warnings the RelWithDebInfo stages
# never see, and -Werror turns them into build failures.
if should_continue; then
  run_stage release bash -c '
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release &&
    cmake --build build-release -j "$0" &&
    ctest --test-dir build-release --output-on-failure -j "$0"' "$JOBS"
fi

# ------------------------------------------------------------------ summary
echo
echo "---------------- check.sh summary ----------------"
for i in "${!STAGES[@]}"; do
  printf '  %-12s %s\n' "${STAGES[$i]}" "${RESULTS[$i]}"
done
echo "--------------------------------------------------"

# Machine-readable mirror of the table above, for CI and tooling. Stage
# names and results are shell-controlled ([a-z-]+ / PASS|FAIL|SKIP (...)),
# so plain string interpolation is JSON-safe here.
SUMMARY="$ROOT/build-check-logs/check_summary.json"
mkdir -p "$ROOT/build-check-logs"
{
  echo '{'
  echo '  "check": "check.sh",'
  echo "  \"failed\": $([[ $FAILED -eq 0 ]] && echo false || echo true),"
  echo '  "stages": ['
  for i in "${!STAGES[@]}"; do
    comma=$([[ $i -lt $((${#STAGES[@]} - 1)) ]] && echo , || echo '')
    printf '    {"name": "%s", "result": "%s"}%s\n' \
      "${STAGES[$i]}" "${RESULTS[$i]}" "$comma"
  done
  # The taint-audit stage leaves its per-subsystem report behind; merge it
  # so one document carries both the stage table and the escape census.
  if [[ -f "$ROOT/build-check-logs/taint_audit.json" ]]; then
    echo '  ],'
    printf '  "taint": %s\n' \
      "$(tr -d '\n' < "$ROOT/build-check-logs/taint_audit.json" | tr -s ' ')"
  else
    echo '  ]'
  fi
  echo '}'
} > "$SUMMARY"
if command -v python3 >/dev/null 2>&1; then
  if python3 tools/validate_check_json.py "$SUMMARY"; then
    echo "summary: $SUMMARY (validated)"
  else
    echo "summary: $SUMMARY FAILED validation" >&2
    FAILED=1
  fi
else
  echo "summary: $SUMMARY (python3 missing, not validated)"
fi
exit $FAILED
