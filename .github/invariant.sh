#!/usr/bin/env bash
# Byte-exact invariance check: runs one command under several flag
# variants and requires every variant's stdout to equal the first's.
#
#   bash .github/invariant.sh PREFIX EXT 'BASE COMMAND' LABEL=FLAGS...
#
# Each LABEL=FLAGS runs `BASE COMMAND FLAGS` (both split on spaces)
# with stdout written to PREFIX<LABEL><EXT>; FLAGS may be empty. Every
# output after the first is compared with the first by `cmp`. All
# variants run even after a mismatch, and the script exits non-zero if
# any run or comparison failed.
#
# Example: the quick serving report, event-driven at one thread and
# cycle-accurate at four, into serve_event.json and serve_cycle.json:
#
#   bash .github/invariant.sh serve_ .json 'target/release/maicc serve --quick --json' \
#       event= 'cycle=--engine cycle --threads 4'
set -uo pipefail

if [ "$#" -lt 4 ]; then
    echo "usage: $0 PREFIX EXT 'BASE COMMAND' LABEL=FLAGS LABEL=FLAGS..." >&2
    exit 2
fi
prefix=$1
ext=$2
read -r -a base <<<"$3"
shift 3

status=0
first=
for variant in "$@"; do
    label=${variant%%=*}
    read -r -a flags <<<"${variant#*=}"
    out="$prefix$label$ext"
    echo "+ ${base[*]} ${flags[*]} > $out"
    if ! "${base[@]}" "${flags[@]}" >"$out"; then
        echo "::error::\`${base[*]} ${flags[*]}\` failed"
        status=1
    elif [ -z "$first" ]; then
        first=$out
    elif ! cmp "$first" "$out"; then
        echo "::error::$out differs from $first"
        status=1
    fi
done
exit "$status"
