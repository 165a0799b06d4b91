#!/usr/bin/env bash
# Checks that the working tree produces byte-identical verdicts to a base
# revision: the attack matrix, the differential oracle, the
# plain-vs-decoded lockstep sweep, the observability report and a
# coverage-guided fuzz run (with the corpus it writes) on both protection
# backends, plus one budget-stopped oracle run.
#
# Usage: scripts/same_output.sh BASE_REV
#
# BASE_REV is exported with `git archive` into a scratch directory under
# $TMPDIR (default /tmp) and built there; the working tree is built in
# place. Every subcommand's JSON artifact, stdout and exit status, and
# every corpus file a fuzz run writes, are compared with `cmp`. Exits 0
# when everything matches, 1 on any difference, 2 on a usage or build
# error.
set -euo pipefail

if [[ $# -ne 1 ]]; then
    echo "usage: $0 BASE_REV" >&2
    exit 2
fi
base_rev=$1
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/same-output.XXXXXX")
trap 'rm -rf "$work"' EXIT

echo "== building $base_rev in $work/base" >&2
mkdir -p "$work/base"
git -C "$root" archive "$base_rev" | tar -x -C "$work/base"
cargo build --release --offline --quiet -p opec-eval \
    --manifest-path "$work/base/Cargo.toml" --target-dir "$work/base-target" || exit 2
echo "== building the working tree" >&2
cargo build --release --offline --quiet -p opec-eval --manifest-path "$root/Cargo.toml" || exit 2
target_dir=$(cargo metadata --offline --format-version 1 --no-deps \
    --manifest-path "$root/Cargo.toml" | sed -n 's/.*"target_directory":"\([^"]*\)".*/\1/p')

# name|backend|subcommand arguments (the JSON artifact flag is appended;
# `report` names it --obs-json, every other subcommand --json)
runs=(
    "attack|armv7m|attack-matrix --seeds 8"
    "attack|rv32-pmp|attack-matrix --seeds 8"
    "check|armv7m|check --seeds 16"
    "check|rv32-pmp|check --seeds 16"
    "lockstep|armv7m|check --lockstep --seeds 16"
    "lockstep|rv32-pmp|check --lockstep --seeds 16"
    "fuel20000|armv7m|check --seeds 2 --fuel 20000"
    "report|armv7m|report"
    "report|rv32-pmp|report"
    "fuzz|armv7m|fuzz --seeds 64 --corpus corpus"
    "fuzz|rv32-pmp|fuzz --seeds 64 --corpus corpus"
)

differ=0
for run in "${runs[@]}"; do
    IFS='|' read -r name backend args <<<"$run"
    json_flag=--json
    [[ $name == report ]] && json_flag=--obs-json
    for side in base head; do
        if [[ $side == base ]]; then
            bin="$work/base-target/release/opec-eval"
        else
            bin="$target_dir/release/opec-eval"
        fi
        out="$work/$side-$name-$backend"
        # Each side runs in its own directory, so relative paths (the
        # fuzz corpus) print the same and never collide.
        rundir="$work/run-$side-$name-$backend"
        mkdir -p "$rundir"
        status=0
        # shellcheck disable=SC2086 # $args is a word list on purpose
        (cd "$rundir" && "$bin" $args --backend "$backend" "$json_flag" "$out.json") \
            >"$out.stdout" 2>"$out.stderr" || status=$?
        echo "$status" >"$out.status"
    done
    same=yes
    for ext in json stdout status; do
        if ! cmp -s "$work/base-$name-$backend.$ext" "$work/head-$name-$backend.$ext"; then
            same=no
            echo "DIFFERS: $name on $backend ($ext)"
        fi
    done
    if [[ -d "$work/run-base-$name-$backend/corpus" ]]; then
        base_corpus="$work/run-base-$name-$backend/corpus"
        head_corpus="$work/run-head-$name-$backend/corpus"
        if [[ $(ls "$base_corpus") != $(ls "$head_corpus" 2>/dev/null) ]]; then
            same=no
            echo "DIFFERS: $name on $backend (corpus file names)"
        fi
        for file in "$base_corpus"/*; do
            if ! cmp -s "$file" "$head_corpus/${file##*/}"; then
                same=no
                echo "DIFFERS: $name on $backend (corpus ${file##*/})"
            fi
        done
    fi
    if [[ $same == yes ]]; then
        echo "same:    $name on $backend (exit $(cat "$work/head-$name-$backend.status"))"
    else
        differ=1
    fi
done

if [[ $differ -ne 0 ]]; then
    echo "outputs differ from $base_rev"
    exit 1
fi
echo "all outputs identical to $base_rev"
