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

echo "== fuzz: 10 s of FuzzParse over the config dialect (seeds: the three configs/*.conf), 10 s of the definition decoder against encoding/xml"
go test ./internal/conf -run '^$' -fuzz FuzzParse -fuzztime 10s
go test ./internal/xmlspec -run '^$' -fuzz FuzzDecodeMatchesEncodingXML -fuzztime 10s

echo "== examples smoke: fleet (2 daemons, 4 domains, asserts spread), quickstart, monitoring, loadbalance, statemgmt and migration each exit 0"
go run ./examples/fleet -hosts 2 -domains 4 -drain=false >/dev/null
for example in quickstart monitoring loadbalance statemgmt migration; do
	go run ./examples/$example >/dev/null
done

echo "== count gates: bytes_per_op / allocs_per_op ceilings for monitor-sweep (8192 / 8), lifecycle-churn (8192 / 96), rpc-small (32 / 1) and fleet-place (40960 / 64)"
# The counts repeat to under half a percent. monitor-sweep read 3.5 MB
# and 2,777 objects per cycle before its buffers were retained
# (EXPERIMENTS.md T9); lifecycle-churn read 77 KB and 1,522 objects per
# op while qsim answered DomainInfo with four monitor round trips (T1),
# and 8.4 KB and 176 objects while definitions were decoded by
# encoding/xml, and 4.3 KB and 82 objects before each connection handed
# back the strings its peer repeats;
# rpc-small read 366 B and 9.6 objects per call before the remote hop
# recycled its dispatch records (T2b), and 23 B and 1.2 objects before
# the per-connection strings; fleet-place reads 33-34 KB and 48-50
# objects per placement. monitor-sweep read 23 KB and 55 objects per cycle
# while every /metrics scrape copied and sorted the registry.
count() { printf '%s\n' "$line" | sed -n "s/.*\"$1\":{\"unit\":\"[A-Za-z]*\",\"value\":\([0-9.e+]*\)}.*/\1/p"; }
while read -r workload maxbytes maxallocs; do
	line=$(go run ./bench --workload "$workload" --seed 1 --seconds 2 --trace 0 </dev/null | tail -n 1)
	bytes=$(count bytes_per_op)
	allocs=$(count allocs_per_op)
	echo "   $workload: bytes_per_op=$bytes allocs_per_op=$allocs"
	awk -v b="$bytes" -v a="$allocs" -v mb="$maxbytes" -v ma="$maxallocs" \
		'BEGIN { exit !(b + 0 > 0 && b <= mb + 0 && a + 0 > 0 && a <= ma + 0) }' || {
		echo "$workload allocates more per op than the gate allows" >&2
		exit 1
	}
done <<'ROWS'
monitor-sweep 8192 8
lifecycle-churn 8192 96
rpc-small 32 1
fleet-place 40960 64
ROWS

echo "== bench smoke: every benchmark runs once (-benchtime=1x)"
go test . -run '^$' -bench . -benchtime=1x >/dev/null

echo "== OK"
echo "loc: $(make -s loc | tr -s ' \n' ' ')"
