#!/bin/sh
# check.sh — the repo's verification gate. Everything the README and
# EXPERIMENTS.md claim (builds clean, gofmt-clean, tests pass, race-free)
# is enforced here; run it before every commit (or via `make check`).
# Eight stages, none a subset of another: the fleet, watch, chaos, qos,
# exposition and migrate suites all run inside the one -race pass, and
# every T/F/R/A benchmark inside the one bench smoke.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "not gofmt-clean:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...

echo "== fuzz: 10 s of FuzzParse over the config dialect (seeds: the three configs/*.conf)"
go test ./internal/conf -run '^$' -fuzz FuzzParse -fuzztime 10s

echo "== fleet smoke: 2 daemons, 4 domains, assert spread (examples/fleet exits non-zero on failure)"
go run ./examples/fleet -hosts 2 -domains 4 -drain=false >/dev/null

echo "== monitoring-cycle count gate: monitor-sweep bytes_per_op <= 350000, allocs_per_op <= 400"
# Both counts repeat to under half a percent; the cycle read 3.5 MB and
# 2,777 objects before its buffers were retained (EXPERIMENTS.md T9).
line=$(go run ./bench --workload monitor-sweep --seed 1 --seconds 2 --trace 0 | tail -n 1)
count() { printf '%s\n' "$line" | sed -n "s/.*\"$1\":{\"unit\":\"[A-Za-z]*\",\"value\":\([0-9.e+]*\)}.*/\1/p"; }
bytes=$(count bytes_per_op)
allocs=$(count allocs_per_op)
echo "   bytes_per_op=$bytes allocs_per_op=$allocs"
awk -v b="$bytes" -v a="$allocs" 'BEGIN { exit !(b + 0 > 0 && b <= 350000 && a + 0 > 0 && a <= 400) }' || {
	echo "monitor-sweep allocates more per cycle than the gate allows" >&2
	exit 1
}

echo "== bench smoke: every benchmark runs once (-benchtime=1x)"
go test . -run '^$' -bench . -benchtime=1x >/dev/null

echo "== OK"
echo "loc: $(make -s loc | tr -s ' \n' ' ')"
