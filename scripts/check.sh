#!/usr/bin/env bash
# CI entry point: configure, build, run the full test suite, then smoke-test
# the parallel-rebuild, rebuild-service, and rebuild-fleet benchmarks (which assert that
# parallel rebuilds are bit-identical, a warm compile cache hits 100%,
# duplicate service requests coalesce, and injected faults recover via
# retry). The parallel-rebuild smoke runs with tracing enabled and fails if
# the exported Chrome trace is malformed, missing compile-job spans, or the
# tracing overhead clears the 5% bar (2 ms absolute floor); on a host with
# >= 4 hardware threads it also sweeps 4 threads and fails when the 4-thread
# speedup drops below 1.0x (on smaller hosts the bench prints a SKIP notice
# instead — see docs/PERFORMANCE.md). The overload soak smoke gates the
# robustness SLOs: tenant fairness under a hot-tenant flood, zero lost
# tickets, circuit-breaker recovery, and autoscaler convergence. A second build
# under ThreadSanitizer reruns the concurrency layer
# (scheduler — including the SchedStress pool/cache/epoch tests —
# registry, rebuild service, obs tracing/metrics, OCI layouts, whose
# copies share blob buffers, their proofs and unpacked layer trees across
# threads, vfs, whose shared nodes keep a digest memo that concurrent wave
# jobs fill, and the crash-resume sweep, whose 4-thread pass crashes the
# wave path from its commit hook) and the service + soak smoke benches. A third
# build under AddressSanitizer reruns the durability layer (write-ahead
# journal, crash/torn-write injection, fsck/repair), SHA-256, vfs, the tar
# parser's damage sweeps, OCI layouts and the registry, whose pulled blob
# buffers and layer-tree slots outlive the hub's sweep, plus
# the crash-resume smoke bench — crash paths unwind through partially
# written state, exactly where ASAN finds lifetime bugs.
#
# Usage: scripts/check.sh [build-dir]   (default: build)
#   COMT_SKIP_TSAN=1   skip the ThreadSanitizer stage.
#   COMT_SKIP_ASAN=1   skip the AddressSanitizer stage.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo/build}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

echo "== configure =="
cmake -B "$build_dir" -S "$repo"

echo "== build =="
cmake --build "$build_dir" -j "$jobs"

echo "== test =="
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"

echo "== bench smoke (tracing enabled) =="
# The bench itself validates the exported trace: it must re-parse through
# src/json, hold one "job:*" span per compile job, and every job span must
# nest under the root "rebuild" span — any violation is a non-zero exit.
"$build_dir/bench/parallel_rebuild" --smoke --trace "$build_dir/rebuild_trace.json"
test -s "$build_dir/rebuild_trace.json"
# The service smoke also gates what a finished ticket keeps: at most 0.3 KiB
# of heap per ticket over 5000 sequential tickets (sanitizer stages, whose
# allocators malloc's accounting cannot see, print a SKIP notice instead).
"$build_dir/bench/service_throughput" --smoke
"$build_dir/bench/crash_resume" --smoke
# Fleet smoke: duplicate submissions across replicas must dedup to one lease
# per distinct build, cross-replica reuse and shared-store cache hits must be
# nonzero, injected remote faults must actually fire, and no ticket may fail.
"$build_dir/bench/fleet_rebuild" --smoke
# Overload soak smoke, SLO-gated: quiet-tenant p99 queue wait must stay within
# 3x its solo baseline under a 10x hot-tenant flood, every ticket must reach a
# terminal state (zero lost, zero failed despite the flaky network), the
# breaker must trip and recover through half-open, and the autoscaler must
# converge back to min workers. On 1-hardware-thread hosts the bench
# auto-skips its heavy rows and records that provenance in the JSON.
"$build_dir/bench/soak" --smoke
# Distribution smoke: delta-pushing each optimized image against its generic
# parent must move < 40% of full-image bytes at a chunk dedup ratio > 2.5x
# (the CI floor is > 1.0), and a torn chunk upload must be detected as
# corrupt — never reassembled silently wrong — and heal bit-identical.
"$build_dir/bench/table3_image_size" --smoke

echo "== restart-persistence smoke =="
# Crash a rebuild whose journal and compile cache persist into one DiskStore
# directory, then resume with brand-new objects over the same directory: must
# replay the journal, serve a warm cache hit, and stay bit-identical.
"$build_dir/bench/crash_resume" --restart-smoke "$build_dir/restart-smoke-store"

if [ "${COMT_SKIP_TSAN:-0}" != "1" ]; then
  tsan_dir="${build_dir}-tsan"
  echo "== tsan build =="
  cmake -B "$tsan_dir" -S "$repo" -DCOMT_SANITIZE=thread
  cmake --build "$tsan_dir" -j "$jobs"

  echo "== tsan test (concurrency layer, layouts, vfs, crash resume) =="
  # Layout|Flatten: layout copies share blob buffers, their proofs and kept
  # layer trees, and concurrent flattens of one layout race to keep the same
  # tree. Vfs: every copy of a tree shares its nodes, and the first of the
  # wave jobs that digest one node fills the node's memo for all of them.
  # CrashResume: the sweep's 4-thread pass unwinds a wave-mode rebuild from
  # its commit hook while the pool's workers are parked. RegistryStress
  # includes pulls through per-puller chunk caches that read the hub's
  # chunk store under the shared lock while a remove sweeps it.
  ctest --test-dir "$tsan_dir" --output-on-failure -j "$jobs" \
        -R 'Sched|SchedStress|ThreadPool|Dag|CompileCache|RegistryStress|Service|FaultInjector|Obs|Store|Fleet|Transfer|Layout|Flatten|Vfs|CrashResume'

  echo "== tsan bench smoke =="
  "$tsan_dir/bench/service_throughput" --smoke
  # The soak under TSAN: weighted-fair queues, token buckets, the autoscaler's
  # resize path, and the breaker state machine all race for real here.
  "$tsan_dir/bench/soak" --smoke
fi

if [ "${COMT_SKIP_ASAN:-0}" != "1" ]; then
  asan_dir="${build_dir}-asan"
  echo "== asan build =="
  cmake -B "$asan_dir" -S "$repo" -DCOMT_SANITIZE=address
  cmake --build "$asan_dir" -j "$jobs"

  echo "== asan test (durability layer, SHA-256, vfs, tar, layouts, registry) =="
  # Sha256: the SHA-extension compressor loads 16 bytes at a time, so ASAN
  # must see any read past a buffer's end. Vfs: node content is reallocated
  # to its exact size. Tar: the parser's truncation and bit-flip sweeps read
  # right up to every cut. Layout: kept layer trees outlive the bytes they
  # were unpacked from. Registry: a pull holds the hub's blob buffers, their
  # tree slots and the blobs it reassembled from chunks after the hub lock
  # is released, while a remove sweeps (RegistryStressTest runs it through
  # local chunk caches too).
  ctest --test-dir "$asan_dir" --output-on-failure -j "$jobs" \
        -R 'Journal|Durable|Fsck|CrashResume|ServiceCrashRecovery|FaultInjector|LayoutPin|Registry|Store|Transfer|Sha256|Vfs|Tar|Layout'

  echo "== asan bench smoke =="
  "$asan_dir/bench/crash_resume" --smoke
fi

echo "check.sh: all green"
