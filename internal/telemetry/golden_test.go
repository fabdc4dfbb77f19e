package telemetry

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
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
	got := r.Snapshot().AppendPrometheus(nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("registry render differs from the golden capture:\n--- got\n%s\n--- want\n%s", got, want)
	}
	// Appending behind existing bytes leaves them alone.
	if got := r.Snapshot().AppendPrometheus([]byte("prefix\n")); !bytes.Equal(got, append([]byte("prefix\n"), want...)) {
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
