#!/bin/sh
# Regenerate the golden-output JSON snapshots at the canonical operating
# point (--scale=0.01 --seed=3 --format=json --no-progress --jobs=1),
# one per line of drivers.txt.
#
# Only run this when an intentional change alters simulation results;
# never to paper over nondeterminism. After regenerating, re-run
# `ctest -R golden` and commit the new .jsonl files together with the
# change that motivated them.
#
# Usage: tests/golden/update.sh [build-dir]   (default: ./build)
set -euf

golden_dir=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
build_dir=${1:-"$golden_dir/../../build"}

if [ ! -d "$build_dir/bench" ]; then
    echo "error: '$build_dir/bench' not found; pass the build dir" >&2
    echo "usage: $0 [build-dir]" >&2
    exit 2
fi

while read -r name flags; do
    case $name in '' | '#'*) continue ;; esac
    bin="$build_dir/bench/$name"
    if [ ! -x "$bin" ]; then
        echo "error: '$bin' missing; build the bench targets first" >&2
        exit 2
    fi
    # Same label rule as tests/CMakeLists.txt (see drivers.txt).
    label=$(printf '%s\n' "$name $flags" |
        sed -e 's/ *$//' -e 's/[^A-Za-z0-9_][^A-Za-z0-9_]*/_/g')
    echo "regenerating $label.jsonl"
    # $flags is split into words on purpose (globbing is off: set -f).
    "$bin" --scale=0.01 --seed=3 --format=json --no-progress $flags \
        --jobs=1 --out="$golden_dir/$label.jsonl" < /dev/null
done < "$golden_dir/drivers.txt"

echo "done; verify with: ctest --test-dir $build_dir -R golden"
