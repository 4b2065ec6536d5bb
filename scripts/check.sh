#!/usr/bin/env bash
# Tier-1 verification plus a ThreadSanitizer pass over the concurrent STM
# and wrapper-map suites. Usage: scripts/check.sh [--skip-tsan]
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_TSAN=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "== tier-1: configure + build =="
cmake --preset default
cmake --build --preset default -j"$(nproc)"

echo "== tier-1: ctest =="
ctest --preset default

echo "== chaos: deterministic fault-injection suites =="
# Runs the seeded chaos differential suites (also part of tier-1; repeated
# here with -L chaos so their seeds land in this section of the log). A
# failure prints the reproducing seed; replay with
#   PROUST_CHAOS_SEED=<seed> ./build/tests/chaos_test --gtest_filter=...
ctest --test-dir build --output-on-failure -L chaos
# The label again, up to 50 passes, stopping at the first failure: the
# injected delays reorder real threads differently on every pass.
ctest --test-dir build --output-on-failure -L chaos --repeat until-fail:50

echo "== cm: contention-management suites =="
# Attempt histogram, the fallback gate's eligibility and attempt bound,
# watchdog, and the fallback-gate chaos matrix (same seed-replay contract).
ctest --test-dir build --output-on-failure -L cm
# Up to 50 passes, stopping at the first failure: the gate handoff and the
# watchdog's stall detection race running transactions.
ctest --test-dir build --output-on-failure -L cm --repeat until-fail:50

echo "== ebr: epoch reclamation =="
# The EBR grace-period protocol + skip-list churn and reclamation.
ctest --test-dir build --output-on-failure -L ebr

echo "== fastpath: unlocked read path =="
# Differential races of guarded wrapper reads (eager wrappers over the
# optimistic LAP on EagerAll, validated against their CA slot's orec; lazy
# wrappers read through their lock) against mutators across the map-config
# matrix, with and without chaos, torn pairs counted in the body and after
# commit, and the replays of the two-writer, locked-after-unlocked,
# pessimistic-after-unlocked and rolled-back-write interleavings
# (DESIGN.md §12).
ctest --test-dir build --output-on-failure -L fastpath
# The label again, up to 200 passes, stopping at the first failure: a torn
# pair between a locked read and a racing replay shows in a small share of
# passes, which one pass on an idle machine can miss.
ctest --test-dir build --output-on-failure -L fastpath --repeat until-fail:200

echo "== topology: detection, pin plans, harness pinning, bench CLI =="
# Sysfs-fixture detection, pin-plan orderings, bench-harness worker pinning
# (skips in sandboxes that refuse affinity syscalls), the bench CLI's
# rejection of bad command lines, and the CSV/JSON row output.
ctest --test-dir build --output-on-failure -L topology

echo "== durability: WAL + checkpoint crash/fault recovery matrices =="
# Live-process WAL paths (epoch-ordered roundtrip, segment rotation,
# torn-tail truncation, strict/relaxed acks, fail-stop on injected I/O
# errors), the common::Fs storage-fault seam (scripted/probabilistic
# EIO/ENOSPC/short writes, retry policies, fsync-always-fatal, fail
# modes), the checkpoint/compaction layer (consistent cuts, bounded
# recovery cost, corrupt-checkpoint fallback, fail-degrade), and the two
# fork-based crash matrices: a child is killed at every WAL *and*
# checkpoint chaos gate under injected storage errors, and recovery must
# replay exactly a prefix of the committed-oracle history. Failures print
# the seed (replay with PROUST_CHAOS_SEED=<seed>) and a
# scripts/wal_inspect.py invocation for the kept directory. The CI
# crash-matrix job additionally re-runs this label under ASan+UBSan.
python3 scripts/wal_inspect.py --selftest > /dev/null \
  && echo "wal_inspect selftest ok"
ctest --test-dir build --output-on-failure -L durability
# The live-process suites again, up to 50 passes each, stopping at the
# first failure: races between committers, the group committer and strict
# waiters that one pass on an idle machine can miss.
ctest --test-dir build --output-on-failure \
  -R '^(wal_test|checkpoint_test|chaos_fs_test)$' --repeat until-fail:50

echo "== bench: every bench_matrix preset at smoke size =="
# One ctest per preset (also part of tier-1), plus the driver's rejection of
# bad command lines.
ctest --test-dir build --output-on-failure -L bench

echo "== matrix: matrix preset smoke + CSV post-process =="
# Tiny grid over every family x pinning cell, CSV consumed end-to-end by
# plot_results.py (text fallback without matplotlib) — catches schema drift
# between the bench driver and the post-processor.
scripts/run_experiments.sh --preset=matrix --smoke --out build/smoke-results

if [[ "$SKIP_TSAN" == 1 ]]; then
  echo "== tsan: skipped =="
  exit 0
fi

echo "== tsan: build concurrent suites =="
cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)" \
  --target stm_concurrent_test core_map_concurrent_test \
  sync_test core_lock_test sync_stress_test chaos_test \
  cm_test cm_chaos_test ebr_test read_fast_path_test opacity_test \
  stm_clock_test wal_test chaos_fs_test checkpoint_test

echo "== tsan: run =="
# tsan.supp masks only the STM's validated-racy core (see the file header);
# races anywhere above the STM still fail the run. The lock suites guard
# plain data with abstract-lock holds, so the atomic-word acquire/release
# protocol's happens-before edges are machine-checked here.
TSAN="suppressions=$PWD/tsan.supp halt_on_error=1"
TSAN_OPTIONS="$TSAN" ./build-tsan/tests/stm_concurrent_test
TSAN_OPTIONS="$TSAN" ./build-tsan/tests/core_map_concurrent_test
TSAN_OPTIONS="$TSAN" ./build-tsan/tests/sync_test
TSAN_OPTIONS="$TSAN" ./build-tsan/tests/core_lock_test
TSAN_OPTIONS="$TSAN" ./build-tsan/tests/sync_stress_test
# Aborts that wrote in place tick the clock, and the opacity cases
# orchestrate guarded and visible readers against writers.
TSAN_OPTIONS="$TSAN" ./build-tsan/tests/stm_clock_test
TSAN_OPTIONS="$TSAN" ./build-tsan/tests/opacity_test
# Chaos under TSan: injected delays/aborts/timeouts shuffle the interleavings
# the sanitizer observes. A subset keeps the run inside the time budget;
# eager_opt_eagerall is the configuration both perfbench workloads run, with
# its reads unlocked, and the lazy wrappers on EagerAll take visible-reader
# CA reads.
TSAN_OPTIONS="$TSAN" ./build-tsan/tests/chaos_test \
  --gtest_filter='*eager_pess*:*lazy_memo_lazystm*:*eager_opt_eagerall*:*lazy_*_eagerall*:ChaosDeterminismTest.*'
# Contention management under TSan: the fallback gate's shared/exclusive
# handoff and the watchdog's stats snapshots race running transactions; the
# cm label runs the whole surface (unit + chaos matrix).
TSAN_OPTIONS="$TSAN" ctest --test-dir build-tsan --output-on-failure -L cm
# EBR under TSan: the epoch protocol's release sequences (and the skip
# list's unlink-then-retire churn) are exactly the sort of ordering TSan
# verifies.
TSAN_OPTIONS="$TSAN" ctest --test-dir build-tsan --output-on-failure -L ebr
# Fast path under TSan: unlocked readers traverse bases that mutators change
# in place; the base's own synchronization and the guarded read's orec
# re-check behind an acquire fence are the only thing standing between that
# and a data race, so this is the suite TSan earns its keep on.
TSAN_OPTIONS="$TSAN" ctest --test-dir build-tsan --output-on-failure -L fastpath
# Durability under TSan: the group committer, strict waiters and the error
# report share the failure state; the live-process suites run here, the
# fork-based crash matrices stay on ASan (crash-matrix CI job).
TSAN_OPTIONS="$TSAN" ctest --test-dir build-tsan --output-on-failure \
  -R '^(wal_test|chaos_fs_test|checkpoint_test)$'

echo "== all checks passed =="
