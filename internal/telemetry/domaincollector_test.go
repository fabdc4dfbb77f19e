package telemetry

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// fakeSource is a swappable DomainSource: fixed rows, optional error,
// optional blocking gate so tests can hold a sweep open.
type fakeSource struct {
	mu      sync.Mutex
	rows    []core.NamedDomainInfo
	err     error
	block   chan struct{} // non-nil: SweepInventory waits for close
	uuids   map[string]string
	lookups atomic.Int64
}

func (f *fakeSource) SweepInventory(inv *core.NodeInventory) error {
	f.mu.Lock()
	block, err := f.block, f.err
	f.mu.Unlock()
	if block != nil {
		<-block
	}
	if err != nil {
		return err
	}
	f.mu.Lock()
	inv.Domains = append(inv.Domains[:0], f.rows...)
	f.mu.Unlock()
	return nil
}

func (f *fakeSource) DomainUUID(name string) (string, bool) {
	f.lookups.Add(1)
	u, ok := f.uuids[name]
	return u, ok
}

func (f *fakeSource) setErr(err error) {
	f.mu.Lock()
	f.err = err
	f.mu.Unlock()
}

// scrape returns a copy of what one WriteExposition call writes.
func scrape(c *DomainCollector) ([]byte, error) {
	var b bytes.Buffer
	_, err := c.WriteExposition(&b)
	return b.Bytes(), err
}

// fakeRows builds n running domains.
func fakeRows(n int) []core.NamedDomainInfo {
	rows := make([]core.NamedDomainInfo, n)
	for i := range rows {
		rows[i] = core.NamedDomainInfo{
			Name: fmt.Sprintf("vm%05d", i),
			Info: core.DomainInfo{
				State: core.DomainRunning, MaxMemKiB: 1 << 20, MemKiB: 1 << 19,
				VCPUs: 2, CPUTimeNs: uint64(i) * 1_000_000,
			},
		}
	}
	return rows
}

// fakeClock is a hand-advanced clock for staleness tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestDomainCollectorSingleFlight is the ISSUE acceptance scenario: a
// 10k-domain host, 8 concurrent scrapers inside the staleness window,
// exactly one bulk sweep total.
func TestDomainCollectorSingleFlight(t *testing.T) {
	const scrapers = 8
	src := &fakeSource{rows: fakeRows(10_000), block: make(chan struct{})}
	c, err := NewDomainCollector(src, DomainCollectorConfig{
		Staleness: time.Hour,
		Labels:    []string{"domain", "state"},
	})
	if err != nil {
		t.Fatal(err)
	}

	outs := make([][]byte, scrapers)
	errs := make([]error, scrapers)
	var wg sync.WaitGroup
	for i := 0; i < scrapers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = scrape(c)
		}(i)
	}
	// One scraper is blocked inside the sweep; wait until the other
	// seven have coalesced onto it, then release.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced < scrapers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d scrapers coalesced", c.Stats().Coalesced)
		}
		time.Sleep(time.Millisecond)
	}
	close(src.block)
	wg.Wait()

	st := c.Stats()
	if st.Sweeps != 1 {
		t.Fatalf("sweeps = %d, want 1", st.Sweeps)
	}
	if st.Coalesced != scrapers-1 {
		t.Fatalf("coalesced = %d, want %d", st.Coalesced, scrapers-1)
	}
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("scraper %d: %v", i, errs[i])
		}
		if len(outs[i]) == 0 {
			t.Fatalf("scraper %d: empty exposition", i)
		}
		if string(outs[i]) != string(outs[0]) {
			t.Fatalf("scraper %d served a different render", i)
		}
	}
	if got := len(c.Rows()); got != 10_000 {
		t.Fatalf("rows = %d, want 10000", got)
	}
	if !strings.Contains(string(outs[0]), `govirt_domain_info{domain="vm00000",state="running"} 1`) {
		t.Fatalf("exposition missing expected series:\n%.400s", outs[0])
	}
}

// TestDomainCollectorStaleness drives the cache window with a fake
// clock: scrapes inside the window reuse the render, crossing it sweeps
// again.
func TestDomainCollectorStaleness(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	src := &fakeSource{rows: fakeRows(3)}
	c, err := NewDomainCollector(src, DomainCollectorConfig{
		Staleness: time.Second,
		Now:       clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := scrape(c); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Sweeps != 1 {
		t.Fatalf("sweeps within window = %d, want 1", st.Sweeps)
	}
	clk.Advance(999 * time.Millisecond) // still inside
	if _, err := scrape(c); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Sweeps != 1 {
		t.Fatalf("sweeps at window edge = %d, want 1", st.Sweeps)
	}
	clk.Advance(2 * time.Millisecond) // crosses the bound
	if _, err := scrape(c); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Sweeps != 2 {
		t.Fatalf("sweeps after expiry = %d, want 2", st.Sweeps)
	}
}

// TestDomainCollectorZeroStaleness: staleness 0 sweeps on every scrape.
func TestDomainCollectorZeroStaleness(t *testing.T) {
	src := &fakeSource{rows: fakeRows(2)}
	c, err := NewDomainCollector(src, DomainCollectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := scrape(c); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Sweeps != 3 {
		t.Fatalf("sweeps = %d, want 3", st.Sweeps)
	}
}

// TestDomainCollectorTruncation checks the cardinality cap and its
// counter.
func TestDomainCollectorTruncation(t *testing.T) {
	src := &fakeSource{rows: fakeRows(8)}
	c, err := NewDomainCollector(src, DomainCollectorConfig{MaxDomains: 5})
	if err != nil {
		t.Fatal(err)
	}
	out, err := scrape(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Rows()); got != 5 {
		t.Fatalf("rows = %d, want 5", got)
	}
	if st := c.Stats(); st.Truncated != 3 {
		t.Fatalf("truncated = %d, want 3", st.Truncated)
	}
	if !strings.Contains(string(out), "govirt_domains_truncated_total 3\n") {
		t.Fatalf("truncation counter missing:\n%s", out)
	}
	if !strings.Contains(string(out), "govirt_domains 5\n") {
		t.Fatalf("domain gauge missing:\n%s", out)
	}
}

// TestDomainCollectorLabelAllowlist: disabled labels vanish from the
// output and uuid resolution is skipped entirely.
func TestDomainCollectorLabelAllowlist(t *testing.T) {
	src := &fakeSource{rows: fakeRows(2), uuids: map[string]string{"vm00000": "u-0"}}
	c, err := NewDomainCollector(src, DomainCollectorConfig{Labels: []string{"domain"}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := scrape(c)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(out), "uuid=") || strings.Contains(string(out), "state=") {
		t.Fatalf("disabled labels leaked:\n%s", out)
	}
	if src.lookups.Load() != 0 {
		t.Fatalf("uuid lookups = %d, want 0 with uuid label off", src.lookups.Load())
	}

	if _, err := ParseDomainLabels([]string{"bogus"}); err == nil {
		t.Fatal("unknown label accepted")
	}
}

// TestDomainCollectorUUIDCache: uuids resolve once per domain, then come
// from the cache.
func TestDomainCollectorUUIDCache(t *testing.T) {
	src := &fakeSource{
		rows:  fakeRows(2),
		uuids: map[string]string{"vm00000": "uuid-a", "vm00001": "uuid-b"},
	}
	c, err := NewDomainCollector(src, DomainCollectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := scrape(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `uuid="uuid-a"`) {
		t.Fatalf("uuid label missing:\n%s", out)
	}
	if _, err := scrape(c); err != nil { // staleness 0: second sweep
		t.Fatal(err)
	}
	if got := src.lookups.Load(); got != 2 {
		t.Fatalf("uuid lookups = %d, want 2 (cached on resweep)", got)
	}
}

// TestDomainCollectorUUIDResolvesLate: a uuid lookup that fails leaves
// the label empty and is retried next sweep; once it answers, the
// domain's series carry the uuid and the lookups stop.
func TestDomainCollectorUUIDResolvesLate(t *testing.T) {
	src := &fakeSource{rows: fakeRows(1)}
	c, err := NewDomainCollector(src, DomainCollectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := scrape(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `govirt_domain_vcpus{domain="vm00000",uuid=""} 2`) {
		t.Fatalf("unresolved uuid label missing:\n%s", out)
	}
	src.uuids = map[string]string{"vm00000": "uuid-late"}
	for i := 0; i < 2; i++ {
		if out, err = scrape(c); err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(out, []byte(`uuid=""`)) ||
			!strings.Contains(string(out), `govirt_domain_vcpus{domain="vm00000",uuid="uuid-late"} 2`) {
			t.Fatalf("sweep %d after the uuid resolved:\n%s", i+2, out)
		}
	}
	if got := src.lookups.Load(); got != 2 {
		t.Fatalf("uuid lookups = %d, want 2 (one failed, one answered)", got)
	}
}

// TestDomainCollectorForgetsVanishedDomain: a domain that one sweep does
// not list comes back as a new domain — zero uptime, its new uuid — not
// with the record it left behind.
func TestDomainCollectorForgetsVanishedDomain(t *testing.T) {
	clk := &fakeClock{t: time.Unix(3000, 0)}
	src := &fakeSource{rows: fakeRows(1), uuids: map[string]string{"vm00000": "uuid-old"}}
	c, err := NewDomainCollector(src, DomainCollectorConfig{Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(rows []core.NamedDomainInfo) []byte {
		t.Helper()
		src.mu.Lock()
		src.rows = rows
		src.mu.Unlock()
		out, err := scrape(c)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	sweep(fakeRows(1))
	clk.Advance(time.Minute)
	sweep(fakeRows(1))
	if got := c.Rows()[0].UptimeNs; got != uint64(time.Minute) {
		t.Fatalf("uptime before vanishing = %v, want 1m", time.Duration(got))
	}
	sweep(nil)
	src.uuids = map[string]string{"vm00000": "uuid-new"}
	clk.Advance(time.Minute)
	out := sweep(fakeRows(1))
	if r := c.Rows()[0]; r.UptimeNs != 0 || r.UUID != "uuid-new" {
		t.Fatalf("returning domain: uptime %v, uuid %q; want 0 and uuid-new", time.Duration(r.UptimeNs), r.UUID)
	}
	if bytes.Contains(out, []byte("uuid-old")) ||
		!strings.Contains(string(out), `govirt_domain_info{domain="vm00000",uuid="uuid-new",state="running"} 1`) {
		t.Fatalf("returning domain rendered with its old identity:\n%s", out)
	}
}

// TestDomainCollectorRendersLikeRows: the identity clause the collector
// keeps per domain is, byte for byte, the one AppendDomainExposition
// builds for a row that arrives without one, for every label allowlist,
// with escapes in names and uuids, a host clause and a truncation count.
func TestDomainCollectorRendersLikeRows(t *testing.T) {
	rows := fakeRows(4)
	rows[0].Name, rows[1].Name, rows[2].Name = `we"ird`, `back\slash`, "new\nline"
	src := &fakeSource{rows: rows, uuids: map[string]string{`we"ird`: `u"1\`, `back\slash`: "uuid-2"}}
	extra := Labels("host", `h"1`)
	for _, list := range [][]string{nil, {"domain"}, {"uuid"}, {"state"}} {
		c, err := NewDomainCollector(src, DomainCollectorConfig{Labels: list, Extra: extra, MaxDomains: 3})
		if err != nil {
			t.Fatal(err)
		}
		out, err := scrape(c)
		if err != nil {
			t.Fatal(err)
		}
		plain := c.Rows()
		for i := range plain {
			plain[i].ident = ""
		}
		want := AppendDomainExposition(nil, []DomainRowSet{{Extra: extra, Rows: plain, Truncated: 1}}, c.labels)
		if !bytes.HasPrefix(out, want) {
			t.Fatalf("labels %v: collector render differs from the rows' render:\n--- got\n%s\n--- want\n%s", list, out, want)
		}
	}
}

// TestDomainCollectorUptime: observed uptime accumulates across sweeps
// while up and resets when the domain goes down.
func TestDomainCollectorUptime(t *testing.T) {
	clk := &fakeClock{t: time.Unix(2000, 0)}
	src := &fakeSource{rows: fakeRows(1)}
	c, err := NewDomainCollector(src, DomainCollectorConfig{Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scrape(c); err != nil {
		t.Fatal(err)
	}
	clk.Advance(90 * time.Second)
	if _, err := scrape(c); err != nil {
		t.Fatal(err)
	}
	if got := c.Rows()[0].UptimeNs; got != uint64(90*time.Second) {
		t.Fatalf("uptime = %v, want 90s", time.Duration(got))
	}
	src.mu.Lock()
	src.rows[0].Info.State = core.DomainShutoff
	src.mu.Unlock()
	if _, err := scrape(c); err != nil {
		t.Fatal(err)
	}
	if got := c.Rows()[0].UptimeNs; got != 0 {
		t.Fatalf("uptime after shutoff = %v, want 0", time.Duration(got))
	}
}

// TestDomainCollectorSweepError: a failed sweep surfaces as an error and
// the next scrape retries instead of serving the failure from cache.
func TestDomainCollectorSweepError(t *testing.T) {
	src := &fakeSource{rows: fakeRows(1)}
	src.setErr(errors.New("driver down"))
	c, err := NewDomainCollector(src, DomainCollectorConfig{Staleness: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scrape(c); err == nil {
		t.Fatal("sweep error not surfaced")
	}
	src.setErr(nil)
	out, err := scrape(c)
	if err != nil {
		t.Fatalf("retry after error: %v", err)
	}
	if len(out) == 0 {
		t.Fatal("empty exposition after recovery")
	}
	if st := c.Stats(); st.Sweeps != 2 || st.SweepErrors != 1 {
		t.Fatalf("sweeps=%d errors=%d, want 2/1", st.Sweeps, st.SweepErrors)
	}
}

// TestDomainCollectorConfigValidation rejects bad configurations.
func TestDomainCollectorConfigValidation(t *testing.T) {
	if _, err := NewDomainCollector(&fakeSource{}, DomainCollectorConfig{Staleness: -1}); err == nil {
		t.Fatal("negative staleness accepted")
	}
	if _, err := NewDomainCollector(&fakeSource{}, DomainCollectorConfig{MaxDomains: -1}); err == nil {
		t.Fatal("negative max domains accepted")
	}
	if _, err := NewDomainCollector(&fakeSource{}, DomainCollectorConfig{Labels: []string{"nope"}}); err == nil {
		t.Fatal("unknown label accepted")
	}
}

// TestScrapeAllocsRegression is the allocation gate behind
// BenchmarkT9_Scrape: a cached scrape allocates nothing, a sweeping
// scrape stays within a small fixed budget.
func TestScrapeAllocsRegression(t *testing.T) {
	src := &fakeSource{rows: fakeRows(100)}
	cached, err := NewDomainCollector(src, DomainCollectorConfig{Staleness: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cached.WriteExposition(io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := cached.WriteExposition(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("cached scrape allocates %.1f objects, want 0", got)
	}

	sweeping, err := NewDomainCollector(src, DomainCollectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweeping.WriteExposition(io.Discard); err != nil {
		t.Fatal(err) // warm the buffers and caches
	}
	// Steady-state sweep: the body is rendered in place.
	if got := testing.AllocsPerRun(200, func() {
		if _, err := sweeping.WriteExposition(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Fatalf("sweeping scrape allocates %.1f objects, want <= 2", got)
	}
}

// bodyArray identifies the collector's retained body: the address of
// its backing array and its capacity.
func bodyArray(c *DomainCollector) (*byte, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.cur.body
	return &b[:1][0], cap(b)
}

// heldWriter is a slow scraper: it sits inside Write, lease held,
// re-reading the body it was given until told to go on.
type heldWriter struct {
	entered chan struct{}
	resume  chan struct{}
	first   []byte // what the body held on entry
	changed bool   // the body stopped matching first while held
}

func (w *heldWriter) Write(p []byte) (int, error) {
	w.first = bytes.Clone(p)
	close(w.entered)
	for held := true; held; {
		select {
		case <-w.resume:
			held = false
		default:
		}
		if !bytes.Equal(p, w.first) {
			w.changed = true
		}
	}
	return len(p), nil
}

// TestDomainCollectorLeaseSafety: a reader still writing scrape N out
// sees its bytes unchanged while sweeps N+1 and N+2 render (run under
// -race: a sweep rendering into the held body is a data race), and
// once it lets go the collector is back to one body rendered in place.
func TestDomainCollectorLeaseSafety(t *testing.T) {
	src := &fakeSource{rows: fakeRows(200)}
	c, err := NewDomainCollector(src, DomainCollectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	w := &heldWriter{entered: make(chan struct{}), resume: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, err := c.WriteExposition(w)
		done <- err
	}()
	<-w.entered
	held, _ := bodyArray(c)

	var later [2][]byte
	for i := range later {
		src.mu.Lock()
		for j := range src.rows {
			src.rows[j].Info.CPUTimeNs += 1_000_000_000
		}
		src.mu.Unlock()
		if later[i], err = scrape(c); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(later[i], w.first) {
			t.Fatalf("sweep N+%d rendered the same bytes as sweep N; the test shows nothing", i+1)
		}
	}
	if now, _ := bodyArray(c); now == held {
		t.Fatal("a sweep rendered into the body a reader still holds")
	}
	close(w.resume)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if w.changed {
		t.Fatal("the held body changed under its reader")
	}

	// Every lease is back: sweeps reuse the one body from here on.
	before, _ := bodyArray(c)
	if got := testing.AllocsPerRun(5, func() {
		if _, err := c.WriteExposition(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Fatalf("a sweep with no reader allocates %.1f objects, want <= 2", got)
	}
	if after, _ := bodyArray(c); after != before {
		t.Fatal("a sweep with no reader moved to another body")
	}
	c.mu.Lock()
	leases := c.cur.leases
	c.mu.Unlock()
	if leases != 0 {
		t.Fatalf("%d leases outstanding with no reader", leases)
	}
}

// TestDomainCollectorBodyOutgrowsNoDigits: uptime and CPU-time values
// of 2,000 rows gaining digits sweep after sweep stay inside the body's
// headroom — the body is not reallocated.
func TestDomainCollectorBodyOutgrowsNoDigits(t *testing.T) {
	clk := &fakeClock{t: time.Unix(2000, 0)}
	src := &fakeSource{rows: fakeRows(2000)}
	c, err := NewDomainCollector(src, DomainCollectorConfig{Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteExposition(io.Discard); err != nil { // uptime "0"
		t.Fatal(err)
	}
	array, size := bodyArray(c)
	// 9.5 s, then across 10 s, then across 100 s; CPU time moves with it.
	for _, step := range []time.Duration{9500 * time.Millisecond, time.Second, 90 * time.Second} {
		clk.Advance(step)
		src.mu.Lock()
		for j := range src.rows {
			src.rows[j].Info.CPUTimeNs += uint64(step)
		}
		src.mu.Unlock()
		n, err := c.WriteExposition(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if a, s := bodyArray(c); a != array || s != size {
			t.Fatalf("after %v: body reallocated (%d bytes rendered, capacity %d -> %d)", step, n, size, s)
		}
	}
}

// discardResponse is a reusable http.ResponseWriter that keeps nothing.
type discardResponse struct {
	header http.Header
	status int
	n      int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) WriteHeader(code int)        { d.status = code }
func (d *discardResponse) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// daemonShapedRegistry holds what a running daemon registers: 80
// labelled counters over four families, 30 gauges (half of them
// functions) and 20 labelled histograms, every one of them written.
func daemonShapedRegistry() *Registry {
	reg := NewRegistry()
	for i := 0; i < 80; i++ {
		name := fmt.Sprintf("family%d_total{%s}", i%4, Labels("program", "remote", "proc", fmt.Sprintf("Proc%02d", i)))
		reg.Counter(name).Add(uint64(i) * 1_000)
	}
	for i := 0; i < 15; i++ {
		reg.Gauge(fmt.Sprintf("gauge%02d", i)).Set(int64(i))
		reg.GaugeFunc(fmt.Sprintf("gauge_func%02d", i), func() int64 { return int64(-i) })
	}
	for i := 0; i < 20; i++ {
		h := reg.Histogram(fmt.Sprintf("dispatch_seconds{%s}", Labels("proc", fmt.Sprintf("Proc%02d", i))))
		h.Observe(time.Duration(i+1) * 37 * time.Microsecond)
	}
	return reg
}

// TestColdScrapeSteadyState is the monitoring cycle's allocation gate: a
// cold scrape (staleness 0, so every one sweeps and renders) of 2,000
// domains and a daemon-shaped registry through the handler costs a
// fixed handful of small objects, not a body-sized buffer, a string per
// sample or an object per registered series.
func TestColdScrapeSteadyState(t *testing.T) {
	dc, err := NewDomainCollector(&fakeSource{rows: fakeRows(2000)}, DomainCollectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reg := daemonShapedRegistry()
	h := HandlerWith(reg, dc)
	rec := &discardResponse{header: http.Header{}}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	cycle := func() {
		rec.status, rec.n = http.StatusOK, 0
		h.ServeHTTP(rec, req)
		if rec.status != http.StatusOK || rec.n < 2000*7*40 {
			t.Fatalf("scrape: status %d, %d bytes", rec.status, rec.n)
		}
	}
	// The first cycle sizes the scratch and renders every uptime as "0",
	// the shortest a body gets; the second re-sizes it for real values.
	cycle()
	cycle()

	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(runs, cycle)
	runtime.ReadMemStats(&m1)
	// AllocsPerRun makes one warm-up call besides the counted ones.
	perCycle := (m1.TotalAlloc - m0.TotalAlloc) / (runs + 1)
	maxAllocs, maxBytes := 2.0, uint64(64<<10)
	if raceEnabled {
		// sync.Pool drops a quarter of its puts under the race detector,
		// so the handler's pooled output buffer may be regrown on any
		// cycle. A pool that kept nothing costs 21 objects and ~150 KB
		// per cycle here; an object per registered series (130) or a
		// body-sized buffer (over 560 KB) still fails.
		maxAllocs, maxBytes = 32, 192<<10
	}
	if allocs > maxAllocs || perCycle > maxBytes {
		t.Fatalf("cold scrape of 2,000 domains: %.0f allocs and %d B per cycle, want <= %.0f and <= %d KiB",
			allocs, perCycle, maxAllocs, maxBytes>>10)
	}

	// The registry render itself reads every value in place.
	buf := reg.AppendPrometheus(nil)
	if got := testing.AllocsPerRun(runs, func() { buf = reg.AppendPrometheus(buf[:0]) }); got != 0 {
		t.Fatalf("registry render into a retained buffer allocates %.1f objects, want 0", got)
	}
}
