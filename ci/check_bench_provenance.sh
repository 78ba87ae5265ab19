#!/usr/bin/env bash
# Checks that the committed BENCH_*.json envelopes were produced by the code
# they sit next to.
#
# Every benchmark artifact carries a `"commit"` stamp (written by
# `bench_commit()`: `$BIOCHIP_COMMIT`, or the repo's short HEAD). The stamp
# is allowed to trail HEAD — docs, CI and bench-artifact commits do not
# invalidate measurements — but only while nothing that can change the
# numbers has changed since: if any path under crates/ or a Cargo manifest
# differs between the stamped commit and HEAD, the artifact is stale and CI
# fails until it is regenerated.
#
# Usage: ci/check_bench_provenance.sh [repo-root]
set -euo pipefail

root="${1:-.}"
cd "$root"

expected="${BIOCHIP_COMMIT:-$(git rev-parse --short HEAD)}"
failed=0

for artifact in BENCH_*.json; do
  [ -e "$artifact" ] || continue

  stamp=$(sed -n 's/^[[:space:]]*"commit": "\([^"]*\)".*/\1/p' "$artifact" | head -n 1)
  if [ -z "$stamp" ]; then
    echo "$artifact: no commit stamp in the envelope" >&2
    failed=1
    continue
  fi

  # Exact match against the expected stamp (either may be the abbreviated
  # form of the other).
  case "$expected" in
    "$stamp"*)
      echo "$artifact: stamped $stamp (current)"
      continue
      ;;
  esac
  case "$stamp" in
    "$expected"*)
      echo "$artifact: stamped $stamp (current)"
      continue
      ;;
  esac

  # Older stamp: acceptable only when it is an ancestor of HEAD and no
  # result-bearing path changed since.
  if ! git rev-parse --verify --quiet "${stamp}^{commit}" >/dev/null; then
    echo "$artifact: stamped '$stamp', which is not a commit in this repository" >&2
    failed=1
    continue
  fi
  if ! git merge-base --is-ancestor "$stamp" HEAD; then
    echo "$artifact: stamped $stamp, which is not an ancestor of HEAD" >&2
    failed=1
    continue
  fi
  changed=$(git diff --name-only "$stamp" HEAD -- 'crates/' 'Cargo.toml' 'Cargo.lock' || true)
  if [ -n "$changed" ]; then
    echo "$artifact: stamped $stamp but result-bearing paths changed since:" >&2
    echo "$changed" | sed 's/^/  /' >&2
    echo "  regenerate the artifact on the current commit" >&2
    failed=1
  else
    echo "$artifact: stamped $stamp (ancestor, no result-bearing changes since)"
  fi
done

exit "$failed"
