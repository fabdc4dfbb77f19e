// Per-domain Prometheus export: the scrape-time bulk collector.
//
// The paper's non-intrusive claim is hardest to keep under heavy remote
// monitoring: per-domain stats for thousands of guests is the workload
// that multiplies management cost fastest. The DomainCollector keeps it
// flat by construction:
//
//   - one scrape = one bulk NodeInventoryInto sweep,
//   - the rendered exposition is cached for a staleness bound, so N
//     Prometheus servers scraping the same host within the window cost
//     one sweep total (single-flight: concurrent scrapers coalesce onto
//     the in-flight sweep instead of starting their own), and
//   - cardinality is explicit: a max-domain cap with a truncation
//     counter, and a label allowlist so high-churn labels (uuid, state)
//     can be dropped at the source.
//
// Cost model: the collector retains exactly one rendered body, for as
// long as it lives, because its size is set by the host's domain count
// and that does not change from one sweep to the next. A scrape inside
// the staleness window is two mutex acquisitions and zero allocations:
// it takes a counted lease on the retained body, writes it out and lets
// go. A sweep renders into that same body in place when no lease is
// outstanding — the steady state, O(1) allocations however many domains
// — and only a sweep that finds a reader still writing the last body
// out allocates a fresh one, leaving the old one to that reader and
// then to the collector. The body is sized a sixty-fourth above the
// last render, so uptime and CPU-time values gaining digits do not
// regrow it, and is re-sized rather than left at whatever append grew
// it to when they do. No exported method hands out the bare slice.
// BenchmarkT9_Scrape, TestScrapeAllocsRegression and
// TestColdScrapeSteadyState gate this.
//
// Per domain it keeps one record — uuid, up-since time and the escaped
// clause domain="…"[,uuid="…"], built when the domain is first listed
// and again only when its uuid resolves — so a sweep costs one map
// lookup per row and the render copies that clause into all seven
// families. A sweep drops the records of domains it did not list.
package telemetry

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// DomainRow is one domain's exported monitoring row — the unit both the
// daemon's /metrics endpoint and the fleet-wide aggregated scrape render.
type DomainRow struct {
	Name      string
	UUID      string // empty when the uuid label is disabled or unresolved
	State     core.DomainState
	MemKiB    uint64
	MaxMemKiB uint64
	VCPUs     int
	CPUTimeNs uint64
	UptimeNs  uint64 // observed time in an up state; 0 when down

	// ident is the escaped identity clause (see domainIdent), kept per
	// domain by the collector, filled in by AppendDomainExposition.
	ident string
}

// DomainRowSet groups one host's rows for rendering. Extra is a
// pre-rendered label clause (use Labels) appended to every series —
// the fleet aggregator sets host="..." here so the same family can
// carry many hosts' rows without colliding.
type DomainRowSet struct {
	Extra     string
	Rows      []DomainRow
	Truncated uint64 // cumulative rows dropped by the cardinality cap
}

// DomainLabelSet selects which per-domain labels are emitted. The
// domain name label is always present — without it every row would
// collapse into one series.
type DomainLabelSet struct {
	UUID  bool
	State bool
}

// AllDomainLabels enables every per-domain label.
func AllDomainLabels() DomainLabelSet { return DomainLabelSet{UUID: true, State: true} }

// ParseDomainLabels reads a label allowlist ("uuid", "state"; "domain"
// is implied and accepted). A nil or empty list means all labels.
func ParseDomainLabels(list []string) (DomainLabelSet, error) {
	if len(list) == 0 {
		return AllDomainLabels(), nil
	}
	var ls DomainLabelSet
	for _, l := range list {
		switch l {
		case "domain":
			// always on
		case "uuid":
			ls.UUID = true
		case "state":
			ls.State = true
		default:
			return DomainLabelSet{}, fmt.Errorf("telemetry: unknown domain label %q (have domain, uuid, state)", l)
		}
	}
	return ls, nil
}

// DomainSource is the seam the collector sweeps through. core.DriverConn
// satisfies it via NewDriverDomainCollector; tests substitute fakes.
type DomainSource interface {
	// SweepInventory refreshes *inv in place — the one bulk call per
	// sweep. Implementations reuse inv's storage where they can.
	SweepInventory(inv *core.NodeInventory) error
	// DomainUUID resolves a domain name to its UUID. Called only for
	// names not already cached and only when the uuid label is enabled.
	DomainUUID(name string) (string, bool)
}

// driverSource adapts a driver connection: the sweep is its
// NodeInventoryInto, uuid resolution is one LookupDomain per unseen
// name.
type driverSource struct{ d core.DriverConn }

func (s driverSource) SweepInventory(inv *core.NodeInventory) error {
	return s.d.NodeInventoryInto(inv)
}

func (s driverSource) DomainUUID(name string) (string, bool) {
	meta, err := s.d.LookupDomain(name)
	if err != nil {
		return "", false
	}
	return meta.UUID, true
}

// DomainCollectorConfig tunes a DomainCollector.
type DomainCollectorConfig struct {
	// Staleness is how long a rendered sweep keeps being served to new
	// scrapers. 0 sweeps on every scrape (concurrent scrapers still
	// coalesce onto one in-flight sweep).
	Staleness time.Duration
	// MaxDomains caps exported rows; excess rows are dropped and
	// counted in govirt_domains_truncated_total. 0 = unlimited.
	MaxDomains int
	// Labels is the label allowlist (see ParseDomainLabels); nil = all.
	Labels []string
	// Extra is a pre-rendered label clause (use Labels helper) stamped
	// on every series, e.g. `host="node1"` for fleet aggregation.
	Extra string
	// Now overrides the clock (tests). nil = time.Now.
	Now func() time.Time
}

// DomainCollectorStats is a point-in-time view of the collector's own
// counters.
type DomainCollectorStats struct {
	Scrapes     uint64 // WriteExposition calls and handler scrapes
	Coalesced   uint64 // scrapes that waited on another scraper's sweep
	Sweeps      uint64 // bulk sweeps actually executed
	SweepErrors uint64
	Truncated   uint64 // rows ever dropped by the MaxDomains cap
	LastSweep   time.Duration
}

// DomainCollector renders per-domain metrics at scrape time from bulk
// inventory sweeps, behind a staleness-bounded single-flight cache.
type DomainCollector struct {
	src    DomainSource
	labels DomainLabelSet
	extra  string
	stale  time.Duration
	maxDom int
	now    func() time.Time

	// Collector-level counters are atomic: scrapers bump them while a
	// sweep renders them without holding mu.
	scrapes     atomic.Uint64
	coalesced   atomic.Uint64
	sweeps      atomic.Uint64
	sweepErrors atomic.Uint64
	truncated   atomic.Uint64
	lastSweepNs atomic.Int64

	mu       sync.Mutex
	cond     *sync.Cond
	sweeping bool
	sweptAt  time.Time
	cur      *exposition // last good render; nil before the first
	lastErr  error
	pubRows  []DomainRow // published copy of rows for Rows()

	// Sweep working state: owned by whichever scraper holds the
	// sweeping flag, so it needs no lock of its own.
	inv      core.NodeInventory
	rows     []DomainRow
	known    map[string]*domainRecord // by domain name
	gen      uint64                   // sweeps through buildRows
	sizeHint int
}

// domainRecord is what the collector keeps about one domain from one
// sweep to the next.
type domainRecord struct {
	uuid    string    // "" until resolved
	ident   string    // the rows' identity clause, built for the collector's labels
	upSince time.Time // zero while the domain is down
	seen    uint64    // the gen of the last sweep that listed the domain
}

// NewDomainCollector builds a collector over an arbitrary source.
func NewDomainCollector(src DomainSource, cfg DomainCollectorConfig) (*DomainCollector, error) {
	labels, err := ParseDomainLabels(cfg.Labels)
	if err != nil {
		return nil, err
	}
	if cfg.Staleness < 0 {
		return nil, fmt.Errorf("telemetry: negative staleness %v", cfg.Staleness)
	}
	if cfg.MaxDomains < 0 {
		return nil, fmt.Errorf("telemetry: negative max domains %d", cfg.MaxDomains)
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	c := &DomainCollector{
		src:    src,
		labels: labels,
		extra:  cfg.Extra,
		stale:  cfg.Staleness,
		maxDom: cfg.MaxDomains,
		now:    now,
		known:  make(map[string]*domainRecord),
	}
	c.cond = sync.NewCond(&c.mu)
	return c, nil
}

// NewDriverDomainCollector builds a collector sweeping a driver
// connection — the form the daemon and the CLIs use.
func NewDriverDomainCollector(d core.DriverConn, cfg DomainCollectorConfig) (*DomainCollector, error) {
	return NewDomainCollector(driverSource{d: d}, cfg)
}

// exposition is one rendered scrape body and the number of readers
// still writing it out. A sweep may overwrite body only at zero leases.
type exposition struct {
	body   []byte
	leases int // guarded by DomainCollector.mu
}

// WriteExposition writes the per-domain metrics in Prometheus text
// format to w. Within the staleness window it serves the retained
// render without sweeping; otherwise exactly one caller sweeps while
// concurrent scrapers wait for (and share) its result. A failed sweep
// is returned before any byte is written.
func (c *DomainCollector) WriteExposition(w io.Writer) (int, error) {
	e, err := c.acquire()
	if err != nil {
		return 0, err
	}
	defer c.release(e)
	return w.Write(e.body)
}

// acquire returns the current exposition, sweeping first when it is
// stale, with a lease that keeps later sweeps off its body until
// release. New leases are only granted while no sweep runs, so a body
// the sweeper finds unleased stays unleased while it renders.
func (c *DomainCollector) acquire() (*exposition, error) {
	c.scrapes.Add(1)
	c.mu.Lock()
	if c.sweeping {
		// Single-flight: a sweep is already running; its result is the
		// freshest answer we can give, so take it when it lands rather
		// than queueing another sweep.
		c.coalesced.Add(1)
		for c.sweeping {
			c.cond.Wait()
		}
		e, err := c.cur, c.lastErr
		if err == nil {
			e.leases++
		}
		c.mu.Unlock()
		return e, err
	}
	if c.lastErr == nil && !c.sweptAt.IsZero() && c.now().Sub(c.sweptAt) < c.stale {
		e := c.cur
		e.leases++
		c.mu.Unlock()
		return e, nil
	}
	c.sweeping = true
	c.mu.Unlock()

	start := time.Now()
	err := c.src.SweepInventory(&c.inv)
	var e *exposition
	if err == nil {
		c.buildRows(c.now())
		c.mu.Lock()
		if e = c.cur; e == nil || e.leases > 0 {
			// A reader is still writing the last body out: it keeps
			// that one, this sweep and the ones after it get a new one.
			e = new(exposition)
		}
		c.mu.Unlock()
		c.renderInto(e)
	}
	c.sweeps.Add(1)
	c.lastSweepNs.Store(int64(time.Since(start)))
	if err != nil {
		c.sweepErrors.Add(1)
	}

	c.mu.Lock()
	c.sweeping = false
	c.sweptAt = c.now()
	c.lastErr = err
	if err == nil {
		e.leases++
		c.cur = e
		c.pubRows = append(c.pubRows[:0], c.rows...)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	return e, err
}

// release ends a lease taken by acquire.
func (c *DomainCollector) release(e *exposition) {
	c.mu.Lock()
	e.leases--
	c.mu.Unlock()
}

// Rows returns a copy of the rows behind the last successful sweep.
// Scrape first to have one.
func (c *DomainCollector) Rows() []DomainRow {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]DomainRow(nil), c.pubRows...)
}

// Stats reports the collector's own counters.
func (c *DomainCollector) Stats() DomainCollectorStats {
	return DomainCollectorStats{
		Scrapes:     c.scrapes.Load(),
		Coalesced:   c.coalesced.Load(),
		Sweeps:      c.sweeps.Load(),
		SweepErrors: c.sweepErrors.Load(),
		Truncated:   c.truncated.Load(),
		LastSweep:   time.Duration(c.lastSweepNs.Load()),
	}
}

// isUp reports whether a state keeps the observed-uptime clock running.
func isUp(s core.DomainState) bool {
	switch s {
	case core.DomainRunning, core.DomainBlocked, core.DomainPaused, core.DomainPMSuspended:
		return true
	default:
		return false
	}
}

// buildRows converts the swept inventory into export rows through the
// cardinality cap and the per-domain records, and forgets the domains it
// did not list. Only the active sweeper runs here.
func (c *DomainCollector) buildRows(now time.Time) {
	doms := c.inv.Domains
	if c.maxDom > 0 && len(doms) > c.maxDom {
		c.truncated.Add(uint64(len(doms) - c.maxDom))
		doms = doms[:c.maxDom]
	}
	c.gen++
	rows := c.rows[:0]
	for _, nd := range doms {
		rec := c.known[nd.Name]
		if rec == nil {
			rec = new(domainRecord)
			c.known[nd.Name] = rec
		}
		rec.seen = c.gen
		if c.labels.UUID && rec.uuid == "" {
			if u, ok := c.src.DomainUUID(nd.Name); ok && u != "" {
				rec.uuid, rec.ident = u, ""
			}
		}
		if rec.ident == "" {
			rec.ident = domainIdent(nd.Name, rec.uuid, c.labels.UUID)
		}
		row := DomainRow{
			Name: nd.Name, UUID: rec.uuid, State: nd.Info.State,
			MemKiB: nd.Info.MemKiB, MaxMemKiB: nd.Info.MaxMemKiB,
			VCPUs: nd.Info.VCPUs, CPUTimeNs: nd.Info.CPUTimeNs,
			ident: rec.ident,
		}
		if !isUp(nd.Info.State) {
			rec.upSince = time.Time{}
		} else if rec.upSince.IsZero() {
			rec.upSince = now
		} else if d := now.Sub(rec.upSince); d > 0 {
			row.UptimeNs = uint64(d)
		}
		rows = append(rows, row)
	}
	c.rows = rows
	if len(c.known) > len(rows) {
		for name, rec := range c.known {
			if rec.seen != c.gen {
				delete(c.known, name)
			}
		}
	}
}

// bodyCap is the capacity a body gets for a render of n bytes: a
// sixty-fourth above it, room for every row's uptime and CPU time to
// gain digits, not the quarter more append leaves behind when it grows.
func bodyCap(n int) int { return n + n/64 + 512 }

// renderInto writes the current rows into e.body, which no reader holds.
func (c *DomainCollector) renderInto(e *exposition) {
	if want := bodyCap(c.sizeHint); e.body == nil || cap(e.body) > 2*want {
		e.body = make([]byte, 0, want) // a new body, or the host shrank
	}
	set := DomainRowSet{Extra: c.extra, Rows: c.rows, Truncated: c.truncated.Load()}
	out := AppendDomainExposition(e.body[:0], []DomainRowSet{set}, c.labels)
	out = c.appendCollectorStats(out)
	c.sizeHint = len(out)
	if cap(out) != cap(e.body) {
		// First render, or the host grew: append regrew the body.
		out = append(make([]byte, 0, bodyCap(len(out))), out...)
	}
	e.body = out
}

// appendCollectorStats renders the collector's self-measurement
// families. Values are as of sweep time: a cached scrape serves the
// numbers its sweep saw, which is exactly the staleness contract.
func (c *DomainCollector) appendCollectorStats(dst []byte) []byte {
	clause := ""
	if c.extra != "" {
		clause = "{" + c.extra + "}"
	}
	stat := func(dst []byte, name, kind, help string, v uint64) []byte {
		dst = appendFamilyHeader(dst, name, kind, help)
		dst = append(dst, name...)
		dst = append(dst, clause...)
		dst = append(dst, ' ')
		dst = appendUint(dst, v)
		return append(dst, '\n')
	}
	dst = stat(dst, "govirt_domain_sweeps_total", "counter",
		"Bulk inventory sweeps executed by the domain collector.", c.sweeps.Load())
	dst = stat(dst, "govirt_domain_sweep_errors_total", "counter",
		"Bulk inventory sweeps that failed.", c.sweepErrors.Load())
	dst = stat(dst, "govirt_domain_scrapes_total", "counter",
		"Scrapes answered by the domain collector (cached or swept).", c.scrapes.Load())
	dst = stat(dst, "govirt_domain_scrapes_coalesced_total", "counter",
		"Scrapes that coalesced onto another scraper's in-flight sweep.", c.coalesced.Load())
	dst = appendFamilyHeader(dst, "govirt_domain_sweep_duration_seconds", "gauge",
		"Duration of the last bulk inventory sweep.")
	dst = append(dst, "govirt_domain_sweep_duration_seconds"...)
	dst = append(dst, clause...)
	dst = append(dst, ' ')
	dst = appendSeconds(dst, uint64(c.lastSweepNs.Load()))
	return append(dst, '\n')
}
