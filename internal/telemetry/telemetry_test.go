package telemetry

import (
	"fmt"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter %d", c.Value())
	}
	if r.Counter("a_total") != c {
		t.Fatal("counter identity lost")
	}
	g := r.Gauge("b")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge %d", g.Value())
	}
	r.CounterFunc("f_total", func() uint64 { return 42 })
	r.GaugeFunc("fg", func() int64 { return -3 })
	snap := r.Snapshot()
	vals := map[string]uint64{}
	for _, c := range snap.Counters {
		vals[c.Name] = c.Value
	}
	if vals["a_total"] != 5 || vals["f_total"] != 42 {
		t.Fatalf("counter snapshot %v", vals)
	}
	var fg int64
	for _, g := range snap.Gauges {
		if g.Name == "fg" {
			fg = g.Value
		}
	}
	if fg != -3 {
		t.Fatalf("gauge func %d", fg)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds")
	// 100 observations spread uniformly from 1ms to 100ms.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count %d", s.Count)
	}
	p50 := time.Duration(s.P50Ns)
	p95 := time.Duration(s.P95Ns)
	p99 := time.Duration(s.P99Ns)
	if p50 < 20*time.Millisecond || p50 > 100*time.Millisecond {
		t.Fatalf("p50 %v", p50)
	}
	if p95 < p50 || p99 < p95 {
		t.Fatalf("quantiles unordered: %v %v %v", p50, p95, p99)
	}
	if s.MeanNs() == 0 {
		t.Fatal("mean zero")
	}
	// All observations in one bucket: quantiles interpolate inside it.
	h2 := r.Histogram("lat2_seconds")
	for i := 0; i < 10; i++ {
		h2.Observe(30 * time.Microsecond)
	}
	s2 := h2.Snapshot()
	if s2.P50Ns < 20_000 || s2.P50Ns > 50_000 {
		t.Fatalf("single-bucket p50 %d", s2.P50Ns)
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-time.Second) // clamped to zero, must not panic
	h.Observe(time.Hour)    // lands in +Inf bucket
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count %d", s.Count)
	}
	last := s.Buckets[len(s.Buckets)-1]
	if last.UpperNs != 0 || last.Cumulative != 3 {
		t.Fatalf("+Inf bucket %+v", last)
	}
	// Empty histogram quantiles are zero.
	var empty Histogram
	if es := empty.Snapshot(); es.P99Ns != 0 || es.Count != 0 {
		t.Fatalf("empty snapshot %+v", es)
	}
}

func TestBucketIndexMatchesBounds(t *testing.T) {
	bounds := BucketBounds()
	for i, bound := range bounds {
		if got := bucketIndex(bound); got != i {
			t.Fatalf("bound %d: bucket %d, want %d", bound, got, i)
		}
	}
	if got := bucketIndex(bounds[len(bounds)-1] + 1); got != len(bounds) {
		t.Fatalf("over-max bucket %d", got)
	}
	if got := bucketIndex(0); got != 0 {
		t.Fatalf("zero bucket %d", got)
	}
}

func TestPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter(`calls_total{proc="DomainGetInfo"}`).Add(3)
	r.Counter(`calls_total{proc="GetHostname"}`).Add(2)
	r.Gauge("clients").Set(4)
	r.Histogram(`lat_seconds{proc="DomainGetInfo"}`).Observe(1500 * time.Microsecond)
	text := string(r.AppendPrometheus(nil))

	for _, want := range []string{
		"# TYPE calls_total counter",
		`calls_total{proc="DomainGetInfo"} 3`,
		`calls_total{proc="GetHostname"} 2`,
		"# TYPE clients gauge",
		"clients 4",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{proc="DomainGetInfo",le="+Inf"} 1`,
		`lat_seconds_count{proc="DomainGetInfo"} 1`,
		`lat_seconds_sum{proc="DomainGetInfo"} 0.0015`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	// TYPE lines appear exactly once per base name.
	if strings.Count(text, "# TYPE calls_total counter") != 1 {
		t.Fatalf("duplicate TYPE lines:\n%s", text)
	}
	// Bucket `le` bounds are in seconds: 1µs bucket renders as 0.000001.
	if !strings.Contains(text, `le="0.000001"`) {
		t.Fatalf("missing seconds-unit bucket bound:\n%s", text)
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total").Inc()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "up_total 1") {
		t.Fatalf("body:\n%s", body)
	}
}

func TestTracerSlowCalls(t *testing.T) {
	tr := NewTracer(3, time.Nanosecond)
	var hooked []SlowCall
	tr.OnSlow(func(sc SlowCall) { hooked = append(hooked, sc) })
	for i := 0; i < 5; i++ {
		sp := tr.Start("remote", fmt.Sprintf("Proc%d", i), 7, uint32(i))
		sp.QueueWait = time.Duration(i) * time.Microsecond
		time.Sleep(100 * time.Microsecond)
		sp.Finish()
	}
	if tr.Started() != 5 || tr.SlowCount() != 5 {
		t.Fatalf("started %d slow %d", tr.Started(), tr.SlowCount())
	}
	calls := tr.SlowCalls()
	if len(calls) != 3 {
		t.Fatalf("ring kept %d", len(calls))
	}
	// Ring keeps the most recent three, oldest first.
	if calls[0].Proc != "Proc2" || calls[2].Proc != "Proc4" {
		t.Fatalf("ring order %+v", calls)
	}
	if calls[2].Client != 7 || calls[2].Serial != 4 || calls[2].Duration <= 0 {
		t.Fatalf("record %+v", calls[2])
	}
	if len(hooked) != 5 {
		t.Fatalf("hook fired %d times", len(hooked))
	}
}

func TestTracerThresholdAndNil(t *testing.T) {
	tr := NewTracer(4, time.Hour)
	sp := tr.Start("remote", "Fast", 1, 1)
	sp.Finish()
	if tr.SlowCount() != 0 || len(tr.SlowCalls()) != 0 {
		t.Fatal("fast call recorded as slow")
	}
	// Threshold 0 disables recording entirely.
	tr.SetThreshold(0)
	sp = tr.Start("remote", "Any", 1, 2)
	time.Sleep(time.Millisecond)
	sp.Finish()
	if tr.SlowCount() != 0 {
		t.Fatal("disabled tracer recorded a call")
	}
	if tr.Threshold() != 0 {
		t.Fatalf("threshold %v", tr.Threshold())
	}
	// A nil tracer opens a zero span, and a zero span is inert.
	var nilTracer *Tracer
	sp = nilTracer.Start("x", "y", 0, 0)
	sp.Finish()
	if nilTracer.SlowCalls() != nil {
		t.Fatal("nil tracer returned calls")
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("shared_total").Inc()
				r.Histogram("shared_seconds").Observe(time.Duration(j) * time.Microsecond)
				r.Gauge(fmt.Sprintf("g%d", n)).Set(int64(j))
				if j%100 == 0 {
					// Reads race registrations that drop the view under
					// them: a new series and a re-registered function.
					r.Counter(fmt.Sprintf("c%d_%d_total", n, j)).Inc()
					r.GaugeFunc("shared_func", func() int64 { return int64(j) })
					_ = r.Snapshot()
					_ = r.AppendPrometheus(nil)
				}
			}
		}(i)
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != 8*500 {
		t.Fatalf("lost updates: %d", got)
	}
	if got := r.Histogram("shared_seconds").Snapshot().Count; got != 8*500 {
		t.Fatalf("lost observations: %d", got)
	}
	text := string(r.AppendPrometheus(nil))
	lintExposition(t, text)
	if got := strings.Count(text, "\nc"); got != 8*5 || !strings.Contains(text, "\nshared_func 400\n") {
		t.Fatalf("final render has %d of 40 late counters, or a stale function:\n%s", got, text)
	}
}

// TestHistogramReadsNeverTorn observes from several goroutines while a
// loop renders and snapshots: in every reading each histogram's +Inf
// bucket equals its count and its cumulative buckets never decrease,
// as the exposition format requires.
func TestHistogramReadsNeverTorn(t *testing.T) {
	r := NewRegistry()
	hs := []*Histogram{r.Histogram("lat_seconds"), r.Histogram(`lat_seconds{op="b"}`)}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 1; g <= 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				hs[i%len(hs)].Observe(time.Duration(i%40_000*g) * time.Microsecond)
			}
		}(g)
	}
	defer func() { close(stop); wg.Wait() }()
	var buf []byte
	for n := 0; n < 500; n++ {
		buf = r.AppendPrometheus(buf[:0])
		var prev, inf uint64
		for _, line := range strings.Split(strings.TrimSuffix(string(buf), "\n"), "\n") {
			if strings.HasPrefix(line, "#") || strings.Contains(line, "_sum") {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseUint(line[sp+1:], 10, 64)
			if err != nil {
				t.Fatalf("render %d: %q: %v", n, line, err)
			}
			switch {
			case strings.Contains(line, "_count"):
				if v != inf {
					t.Fatalf("render %d: %q, but the +Inf bucket is %d", n, line, inf)
				}
				prev = 0
			case v < prev:
				t.Fatalf("render %d: %q after a cumulative count of %d", n, line, prev)
			default:
				prev, inf = v, v
			}
		}
		for _, h := range hs {
			s := h.Snapshot()
			if last := s.Buckets[len(s.Buckets)-1].Cumulative; s.Count != last {
				t.Fatalf("snapshot %d: count %d, last cumulative bucket %d", n, s.Count, last)
			}
		}
	}
}

// TestRegistryViewFollowsRegistrations: a render shows what was
// registered after the render before it, and the newest function of a
// re-registered name.
func TestRegistryViewFollowsRegistrations(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Inc()
	r.CounterFunc("f_total", func() uint64 { return 1 })
	r.GaugeFunc("g", func() int64 { return 1 })
	render := func() string { return string(r.AppendPrometheus(nil)) }
	if text := render(); !strings.Contains(text, "\na_total 1\n") || !strings.Contains(text, "\nf_total 1\n") {
		t.Fatalf("first render:\n%s", text)
	}

	r.Gauge(`late{x="1"}`).Set(3)
	r.Histogram("late_seconds")
	r.CounterFunc("f_total", func() uint64 { return 2 })
	r.GaugeFunc("g", func() int64 { return 2 })
	text := render()
	lintExposition(t, text)
	for _, want := range []string{"\nlate{x=\"1\"} 3\n", "\nlate_seconds_count 0\n", "\nf_total 2\n", "\ng 2\n"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render after registrations lacks %q:\n%s", want, text)
		}
	}
	if strings.Count(text, "\nf_total ") != 1 || strings.Count(text, "\ng ") != 1 {
		t.Fatalf("a re-registered function renders twice:\n%s", text)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 2 || snap.Counters[1].Name != "f_total" || snap.Counters[1].Value != 2 {
		t.Fatalf("snapshot counters %+v", snap.Counters)
	}
	if len(snap.Gauges) != 2 || snap.Gauges[0].Value != 2 || len(snap.Histograms) != 1 {
		t.Fatalf("snapshot gauges %+v, histograms %d", snap.Gauges, len(snap.Histograms))
	}
}

// TestFunctionMetricMayRegister: function metrics are sampled outside
// the registry's lock, so one that registers a metric while it is read
// neither deadlocks nor loses the metric it made.
func TestFunctionMetricMayRegister(t *testing.T) {
	r := NewRegistry()
	var calls atomic.Int64
	r.GaugeFunc("registers", func() int64 {
		n := calls.Add(1)
		r.Counter(fmt.Sprintf("made%d_total", n)).Inc()
		r.CounterFunc(fmt.Sprintf("made%d_func_total", n), func() uint64 { return uint64(n) })
		return n
	})
	done := make(chan string)
	go func() {
		r.Snapshot()
		r.AppendPrometheus(nil)
		done <- string(r.AppendPrometheus(nil))
	}()
	select {
	case text := <-done:
		if !strings.Contains(text, "\nmade2_total 1\n") || !strings.Contains(text, "\nmade2_func_total 2\n") {
			t.Fatalf("metrics registered while sampling are missing:\n%s", text)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a function metric that registers deadlocked the registry")
	}
}
