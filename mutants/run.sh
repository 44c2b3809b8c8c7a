#!/usr/bin/env bash
# Plants each bug in mutants/*.patch into the committed HEAD and checks
# that a named test catches it.
#
# Usage: bash mutants/run.sh [NAME...]
#   Tests the committed HEAD, not the working tree (commit first). With
#   NAMEs, runs only mutants/NAME.patch; by default, every patch.
#
# A mutant is a unified diff that plants one bug. Its header, the text
# before the first `diff --git`, names on `must fail:` lines the
# `cargo test` invocations that must fail once it is applied; each ends
# in one test's full name and runs with `--exact`. The script checks
# HEAD out into a throwaway git worktree under target/mutants/ with one
# cargo target directory beside it. It first runs every named
# invocation on the unpatched tree: each must pass and run at least one
# test, so a renamed test cannot make a mutant look killed. Then it
# applies each patch in turn, runs its invocations and reverts it. It
# exits non-zero if a named test fails unpatched, a patch no longer
# applies, a patched tree does not build, or a mutant survives: a
# mutant is killed only when every invocation it names fails.
#
# Cutting a new mutant: break the code in a clean checkout, save
# `git diff > mutants/<name>.patch`, put the header above the diff,
# revert, commit, and run `bash mutants/run.sh <name>`.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
work=$root/target/mutants
tree=$work/tree
log=$work/log
export CARGO_TARGET_DIR=$work/target
# A test the mutant hangs counts as killed once this runs out.
limit=600

cleanup() {
    git -C "$root" worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
    git -C "$root" worktree prune
}
trap cleanup EXIT
cleanup
mkdir -p "$work" "$log"
git -C "$root" worktree add --quiet --detach "$tree" HEAD
cd "$tree"

patches=()
if [ $# -eq 0 ]; then
    patches=(mutants/*.patch)
else
    for name in "$@"; do patches+=("mutants/$name.patch"); done
fi

# The `cargo test` arguments a patch's header names, one invocation a line.
kills() { sed -n '/^diff --git/q; s/^must fail: cargo test //p' "$1"; }

# Runs one invocation into $log/$2; returns cargo's status (124 on a
# timeout).
run() {
    # shellcheck disable=SC2086 # the arguments are split on purpose
    timeout "$limit" cargo test -q $1 -- --exact </dev/null >"$log/$2" 2>&1
}

# Tests that passed in a finished run's log.
passed() { awk '/^test result:/ {n += $4} END {print n + 0}' "$1"; }

start=$(date +%s)
status=0

echo "== unpatched HEAD $(git rev-parse --short HEAD): every named test passes"
for p in "${patches[@]}"; do
    [ -f "$p" ] || { echo "no such mutant: $p"; exit 2; }
    [ -n "$(kills "$p")" ] || { echo "$p names no test"; status=1; }
done
while IFS= read -r inv; do
    if run "$inv" baseline && [ "$(passed "$log/baseline")" -gt 0 ]; then
        echo "  ok    cargo test $inv"
    else
        echo "  FAIL  cargo test $inv (fails, or runs no test, unpatched)"
        tail -n 20 "$log/baseline"
        status=1
    fi
done < <(for p in "${patches[@]}"; do kills "$p"; done | sort -u)
[ "$status" -eq 0 ] || exit "$status"

echo "== mutants"
killed=0
for p in "${patches[@]}"; do
    name=$(basename "$p" .patch)
    if ! git apply "$p" 2>"$log/$name.apply"; then
        echo "  STALE     $name: no longer applies; re-cut it against the moved code"
        cat "$log/$name.apply"
        status=1
        continue
    fi
    verdict=killed
    while IFS= read -r inv; do
        if run "$inv" "$name"; then
            verdict="SURVIVED  $name: cargo test $inv passes"
        elif grep -q "^error: could not compile" "$log/$name"; then
            verdict="NO BUILD  $name"
        else
            continue
        fi
        break
    done < <(kills "$p")
    if [ "$verdict" = killed ]; then
        echo "  killed    $name"
        killed=$((killed + 1))
    else
        echo "  $verdict"
        tail -n 20 "$log/$name"
        status=1
    fi
    git checkout --quiet -- .
    git clean --quiet -fd
done

echo "== $killed of ${#patches[@]} mutants killed in $(($(date +%s) - start)) s"
exit "$status"
