#!/bin/sh
# Census of the code the shipped entry points reach. From the repository
# root:
#
#	sh .github/census.sh [ALLOWLIST]
#
# Builds benchtables, tracestats, the five examples and bench with
# coverage of every package, runs them with CI's flag sets, and prints
# the share of statements reached and every function outside bench/
# that ran none, as "file func". With ALLOWLIST (lines "file func
# reason"; '#' starts a comment) it fails when an unreached function is
# not listed, or when a listed one is reached or gone.
set -eu

allow=${1:-}
root=$(pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/bin" "$work/cov"
export GOCOVERDIR="$work/cov"

build() { go build -cover -coverpkg=./... -o "$work/bin/$1" "$2"; }
build benchtables ./cmd/benchtables
build tracestats ./cmd/tracestats
build bench ./bench
examples=$(ls -d examples/*/)
for d in $examples; do build "ex-$(basename "$d")" "./$d"; done

# Every run starts in the scratch directory, so nothing lands in the tree.
cd "$work"
bt=bin/benchtables
$bt -quick > /dev/null
$bt -quick -audit -faults drop=0.01 > /dev/null
$bt -quick -latency lognorm:1,1.5 -reliable on > /dev/null
$bt -quick -procs 8 -progress -trace trace.json -events events.jsonl -manifest manifest.json > /dev/null 2>&1
OVERLAYNET_SHARDS=4 $bt -quick > /dev/null
$bt -only F1 -audit > /dev/null
$bt -quick -only E6 -audit -latency uniform:0.5,2.5 > /dev/null
$bt -only R1 > /dev/null
bin/tracestats events.jsonl > /dev/null
for d in $examples; do "bin/ex-$(basename "$d")" > /dev/null; done
bin/bench -smoke > /dev/null 2>&1

cd "$root"
go tool covdata textfmt -i="$work/cov" -o "$work/cover.txt"
go tool cover -func="$work/cover.txt" | tail -1
module=$(go list -m)
go tool covdata func -i="$work/cov" |
	awk -v m="$module/" '$NF == "0.0%" { f = $1; sub(m, "", f); sub(/:[0-9]+:$/, "", f); print f, $2 }' |
	grep -v '^bench/' | sort > "$work/unreached.txt"
echo "unreached functions outside bench/: $(wc -l < "$work/unreached.txt")"
cat "$work/unreached.txt"

[ -n "$allow" ] || exit 0
sed 's/#.*//' "$allow" | awk 'NF { print $1, $2 }' | sort > "$work/allowed.txt"
status=0
if comm -23 "$work/unreached.txt" "$work/allowed.txt" | grep .; then
	echo "census: the functions above are unreached and not in $allow"
	status=1
fi
if comm -13 "$work/unreached.txt" "$work/allowed.txt" | grep .; then
	echo "census: the functions above are in $allow but reached or gone"
	status=1
fi
exit $status
