package telemetry

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/core"
)

// goldenRegistry holds every shape the registry renderer has to get
// right: counters, gauges, func metrics and histograms, with and
// without label clauses, with registered and generated HELP text, a
// family whose labelled series sorts after another family's
// (a_total / a_total_more / a_total{x="1"}), and a gauge sharing its
// base name with a counter.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("a_total").Add(7)
	r.Counter("a_total_more").Add(8)
	r.Counter(`a_total{x="1"}`).Add(9)
	r.Counter("rpc_tx_frames_total").Add(18446744073709551615)
	r.Counter("calls_total{" + Labels("proc", `we"ird\name`+"\n") + "}").Add(3)
	r.Counter("calls_total{" + Labels("proc", "plain", "program", "remote") + "}").Inc()
	r.CounterFunc("func_total", func() uint64 { return 42 })
	r.CounterFunc(`func_total{src="b"}`, func() uint64 { return 0 })
	r.Gauge("clients").Set(-2)
	r.Gauge("a_total_more").Set(5)
	r.Gauge(`depth{queue="prio"}`).Set(1 << 40)
	r.GaugeFunc("daemon_pool_workers", func() int64 { return 8 })
	r.GaugeFunc(`weird\help_name`, func() int64 { return -9223372036854775808 })
	h := r.Histogram("lat_seconds")
	for _, d := range []time.Duration{0, time.Nanosecond, time.Microsecond, 1500 * time.Microsecond,
		time.Second, 20 * time.Second} {
		h.Observe(d)
	}
	r.Histogram(`daemon_dispatch_seconds{program="remote",proc="NodeInventory"}`).Observe(3 * time.Millisecond)
	r.Histogram(`daemon_dispatch_seconds{program="remote",proc="GetHostname"}`)
	r.Histogram("empty_seconds")
	return r
}

const goldenFile = "testdata/registry_golden.prom"

// TestExpositionGoldenIdentity pins the append renderer to the bytes
// the fmt-based Snapshot.Prometheus it replaced produced for the same
// registry (testdata/registry_golden.prom was written by that
// renderer), and checks that the endpoint serves those bytes from its
// pooled scratch; TestExpositionCombinedEndpoint lints the endpoint.
func TestExpositionGoldenIdentity(t *testing.T) {
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	r := goldenRegistry()
	got := r.AppendPrometheus(nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("registry render differs from the golden capture:\n--- got\n%s\n--- want\n%s", got, want)
	}
	// Appending behind existing bytes leaves them alone.
	if got := r.AppendPrometheus([]byte("prefix\n")); !bytes.Equal(got, append([]byte("prefix\n"), want...)) {
		t.Fatal("AppendPrometheus does not append")
	}

	dc, err := NewDomainCollector(&fakeSource{rows: fakeRows(3)}, DomainCollectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Twice: the second scrape renders from the pooled scratch.
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		HandlerWith(r, dc).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		body := rec.Body.Bytes()
		if !bytes.HasPrefix(body, want) {
			t.Fatalf("scrape %d: endpoint does not start with the registry render", i)
		}
		if !bytes.Contains(body[len(want):], []byte("\ngovirt_domain_info{")) {
			t.Fatalf("scrape %d: domain families missing behind the registry render", i)
		}
	}
}

// goldenDomainSets holds the row shapes the domain renderer has to get
// right: names needing every label-value escape, a uuid resolved, one
// needing escapes and one unresolved, every state string, and two sets
// tagged host="..." the way virtfleetx builds them, one of them with a
// truncation count. A fresh copy per call: rendering fills in rows.
func goldenDomainSets() []DomainRowSet {
	return []DomainRowSet{
		{
			Extra:     Labels("host", "node-a"),
			Truncated: 3,
			Rows: []DomainRow{
				{Name: `we"ird`, UUID: "6f1c2d3e-0000-4000-8000-000000000001", State: core.DomainRunning,
					MemKiB: 1 << 19, MaxMemKiB: 1 << 20, VCPUs: 2, CPUTimeNs: 1_500_000_000, UptimeNs: 90_000_000_000},
				{Name: `back\slash`, State: core.DomainShutoff, MaxMemKiB: 1 << 20, VCPUs: 1},
				{Name: "new\nline", UUID: `u"2\`, State: core.DomainPaused,
					MemKiB: 262144, MaxMemKiB: 262144, VCPUs: 4, CPUTimeNs: 1_000, UptimeNs: 1},
			},
		},
		{
			Extra: Labels("host", `n"1\`),
			Rows: []DomainRow{
				{Name: "plain", UUID: "uuid-3", State: core.DomainCrashed, CPUTimeNs: 18446744073709551615},
				{Name: "", UUID: "uuid-4", State: core.DomainPMSuspended, MemKiB: 1, MaxMemKiB: 2, VCPUs: 1,
					UptimeNs: 3_600_000_000_000},
				{Name: "blocked", State: core.DomainBlocked},
				{Name: "nostate", State: core.DomainNoState},
				{Name: "stopping", State: core.DomainShutdown},
			},
		},
	}
}

const domainGoldenFile = "testdata/domain_golden.prom"

// TestDomainExpositionGolden pins AppendDomainExposition byte for byte
// for every label allowlist, for the fleet's host-tagged sets and for a
// collector's single untagged set. testdata/domain_golden.prom was
// written by the renderer that escaped every label value per sample.
func TestDomainExpositionGolden(t *testing.T) {
	want, err := os.ReadFile(domainGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, labels := range []DomainLabelSet{{}, {UUID: true}, {State: true}, AllDomainLabels()} {
		got = AppendDomainExposition(got, goldenDomainSets(), labels)
		single := goldenDomainSets()[:1]
		single[0].Extra, single[0].Truncated = "", 0
		got = AppendDomainExposition(got, single, labels)
	}
	got = AppendDomainExposition(got, nil, AllDomainLabels())
	if !bytes.Equal(got, want) {
		t.Fatalf("domain render differs from the golden capture:\n--- got\n%s\n--- want\n%s", got, want)
	}
}
