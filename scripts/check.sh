#!/usr/bin/env bash
# Tier-1 gate plus the sanitizer sweeps:
#   1. Release build + full ctest suite
#   2. AddressSanitizer + UBSan build (the asan preset) + full ctest suite
#   3. ThreadSanitizer build (the tsan preset) + the concurrency-sensitive tests
#
# Usage: scripts/check.sh [--fast]
#   --fast skips the sanitizer builds (tier-1 only).

set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

echo "== tier-1: release build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j >/dev/null
ctest --test-dir build --output-on-failure

if [[ $FAST -eq 1 ]]; then
  echo "== done (fast mode: sanitizers skipped) =="
  exit 0
fi

echo "== asan: address- and UB-sanitized build + ctest =="
cmake --preset asan >/dev/null
cmake --build --preset asan -j >/dev/null
# ASan inflates stack frames severalfold; the MaxCallDepth=4000 recursion
# guard (EngineBoundary.RunawayRecursionGuarded) needs a deeper C stack
# than the default 8 MB to reach the engine's own limit first.
( ulimit -s 65536 && ctest --test-dir build-asan --output-on-failure )

echo "== tsan: thread-sanitized build + concurrency tests =="
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j >/dev/null
# The suites labelled `tsan` in tests/CMakeLists.txt (which says why
# hibernate_crash_test and native_test are not among them).
ctest --test-dir build-tsan --output-on-failure -L tsan

echo "== all checks passed =="
