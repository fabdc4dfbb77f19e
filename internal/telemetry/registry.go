// Package telemetry is the measurement substrate of the management
// plane: a stdlib-only, lock-cheap metrics registry (atomic counters,
// gauges, fixed-bucket latency histograms with quantile snapshots) plus
// lightweight per-call tracing (spans with a bounded ring of recent slow
// calls). It exists because the paper's non-intrusive claim needs the
// management side itself to be observable without touching guests: the
// daemon, RPC layer and drivers all report here, and the admin API, the
// optional Prometheus endpoint and the bench harness all read from here.
//
// Hot-path cost model: a registered Counter/Gauge/Histogram handle is a
// pointer; updating it is one or two atomic operations and never takes a
// lock. Registry lookups (get-or-create by name) take a read lock and
// are meant for set-up paths, with callers caching the handle. Reads
// (the exposition render and Snapshot) walk one sorted, immutable view
// of the registry, built on the first read after a registration, so a
// render copies no map, sorts nothing and allocates only its output.
package telemetry

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set installs an absolute value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add shifts the value by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// numBuckets is the count of finite histogram buckets.
const numBuckets = 22

// bucketBoundsNs are the fixed histogram bucket upper bounds in
// nanoseconds, log-spaced 1-2-5 from 1µs to 10s. Durations above the
// last bound land in the implicit +Inf bucket.
var bucketBoundsNs = [numBuckets]uint64{
	1_000, 2_000, 5_000,
	10_000, 20_000, 50_000,
	100_000, 200_000, 500_000,
	1_000_000, 2_000_000, 5_000_000,
	10_000_000, 20_000_000, 50_000_000,
	100_000_000, 200_000_000, 500_000_000,
	1_000_000_000, 2_000_000_000, 5_000_000_000,
	10_000_000_000,
}

// Histogram accumulates durations into fixed log-spaced buckets. All
// updates are atomic; Observe never allocates or locks. The count is
// the buckets' total as a reader loads them, so a reading's +Inf bucket
// always equals its count, however Observe races with it.
type Histogram struct {
	buckets [numBuckets + 1]atomic.Uint64 // +1 for +Inf
	sumNs   atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.sumNs.Add(ns)
}

// bucketIndex finds the first bucket whose bound is >= ns via binary
// search over the fixed bounds.
func bucketIndex(ns uint64) int {
	lo, hi := 0, len(bucketBoundsNs)
	for lo < hi {
		mid := (lo + hi) / 2
		if bucketBoundsNs[mid] >= ns {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo // == len(bucketBoundsNs) means +Inf
}

// HistogramSnapshot is a point-in-time view of a histogram with
// estimated quantiles.
type HistogramSnapshot struct {
	Name    string
	Count   uint64
	SumNs   uint64
	P50Ns   uint64
	P95Ns   uint64
	P99Ns   uint64
	Buckets []BucketCount
}

// BucketCount is one cumulative histogram bucket.
type BucketCount struct {
	UpperNs    uint64 // 0 means +Inf
	Cumulative uint64
}

// MeanNs returns the arithmetic mean in nanoseconds.
func (s HistogramSnapshot) MeanNs() uint64 {
	if s.Count == 0 {
		return 0
	}
	return s.SumNs / s.Count
}

// load reads every bucket once, in order.
func (h *Histogram) load() (counts [numBuckets + 1]uint64) {
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return counts
}

// upperNs is bucket i's upper bound; 0 stands for +Inf.
func upperNs(i int) uint64 {
	if i < numBuckets {
		return bucketBoundsNs[i]
	}
	return 0
}

// Snapshot captures the histogram's buckets and computes quantiles.
func (h *Histogram) Snapshot() HistogramSnapshot {
	counts := h.load()
	snap := HistogramSnapshot{SumNs: h.sumNs.Load(), Buckets: make([]BucketCount, len(counts))}
	for i, c := range counts {
		snap.Count += c
		snap.Buckets[i] = BucketCount{UpperNs: upperNs(i), Cumulative: snap.Count}
	}
	snap.P50Ns = quantile(counts[:], snap.Count, 0.50)
	snap.P95Ns = quantile(counts[:], snap.Count, 0.95)
	snap.P99Ns = quantile(counts[:], snap.Count, 0.99)
	return snap
}

// quantile estimates the q-quantile by linear interpolation inside the
// bucket containing the target rank. The +Inf bucket reports the last
// finite bound.
func quantile(counts []uint64, total uint64, q float64) uint64 {
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, c := range counts {
		if seen+c <= rank {
			seen += c
			continue
		}
		if i >= len(bucketBoundsNs) {
			return bucketBoundsNs[len(bucketBoundsNs)-1]
		}
		lower := uint64(0)
		if i > 0 {
			lower = bucketBoundsNs[i-1]
		}
		upper := bucketBoundsNs[i]
		// Position of the target rank inside this bucket.
		frac := float64(rank-seen+1) / float64(c)
		return lower + uint64(frac*float64(upper-lower))
	}
	return bucketBoundsNs[len(bucketBoundsNs)-1]
}

// CounterSnapshot and GaugeSnapshot are point-in-time metric views.
type CounterSnapshot struct {
	Name  string
	Value uint64
}

// GaugeSnapshot is a point-in-time gauge view.
type GaugeSnapshot struct {
	Name  string
	Value int64
}

// Snapshot is a consistent-enough view of a whole registry: every metric
// is read atomically, function metrics are sampled at snapshot time.
type Snapshot struct {
	Counters   []CounterSnapshot
	Gauges     []GaugeSnapshot
	Histograms []HistogramSnapshot
}

// Registry holds named metrics. Names follow the Prometheus convention
// and may carry a label clause: `daemon_clients{server="govirtd"}`.
// Get-or-create methods are safe for concurrent use; the returned handle
// should be cached by hot paths.
type Registry struct {
	mu           sync.RWMutex
	counters     map[string]*Counter
	gauges       map[string]*Gauge
	histograms   map[string]*Histogram
	counterFuncs map[string]func() uint64
	gaugeFuncs   map[string]func() int64
	view         []series // nil once a registration has made it stale
}

// series is one entry of a registry's view: a metric and how to read
// it. Exactly one of counter, gauge and hist is set.
type series struct {
	name, base, labels string // labels is the clause without its braces
	kind               string // "counter", "gauge" or "histogram"
	opens              bool   // first series of its family: carries HELP and TYPE
	counter            func() uint64
	gauge              func() int64
	hist               *Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:     make(map[string]*Counter),
		gauges:       make(map[string]*Gauge),
		histograms:   make(map[string]*Histogram),
		counterFuncs: make(map[string]func() uint64),
		gaugeFuncs:   make(map[string]func() int64),
	}
}

// Default is the process-wide registry. Components that have no natural
// owner to thread a registry through (the RPC substrate, drivers) report
// here; the daemon uses it unless built with an explicit registry.
var Default = NewRegistry()

// getOrCreate returns m's metric under name, creating it on first use.
func getOrCreate[T any](r *Registry, m map[string]*T, name string) *T {
	r.mu.RLock()
	v, ok := m[name]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok = m[name]; !ok {
		v = new(T)
		m[name] = v
		r.view = nil
	}
	return v
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter { return getOrCreate(r, r.counters, name) }

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge { return getOrCreate(r, r.gauges, name) }

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram { return getOrCreate(r, r.histograms, name) }

// CounterFunc registers a counter sampled by calling fn at snapshot
// time. Re-registering a name replaces the function: when a component is
// rebuilt (tests, daemon restarts in-process) the newest source wins.
func (r *Registry) CounterFunc(name string, fn func() uint64) { register(r, r.counterFuncs, name, fn) }

// GaugeFunc registers a gauge sampled by calling fn at snapshot time.
// Re-registering a name replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() int64) { register(r, r.gaugeFuncs, name, fn) }

// register installs fn under name in m, replacing any earlier one.
func register[F any](r *Registry, m map[string]F, name string, fn F) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m[name] = fn
	r.view = nil
}

// series returns the registry's view: every series in exposition order
// (counters, gauges, histograms, each group sorted by name). The slice
// is never written once built, so callers walk it without the lock and
// function metrics are never called under it.
func (r *Registry) series() []series {
	r.mu.RLock()
	v := r.view
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.view == nil {
		r.view = r.buildView()
	}
	return r.view
}

// buildView lays out the view under the write lock.
func (r *Registry) buildView() []series {
	v := make([]series, 0, len(r.counters)+len(r.counterFuncs)+len(r.gauges)+len(r.gaugeFuncs)+len(r.histograms))
	for name, c := range r.counters {
		v = append(v, series{name: name, kind: "counter", counter: c.Value})
	}
	for name, fn := range r.counterFuncs {
		v = append(v, series{name: name, kind: "counter", counter: fn})
	}
	for name, g := range r.gauges {
		v = append(v, series{name: name, kind: "gauge", gauge: g.Value})
	}
	for name, fn := range r.gaugeFuncs {
		v = append(v, series{name: name, kind: "gauge", gauge: fn})
	}
	for name, h := range r.histograms {
		v = append(v, series{name: name, kind: "histogram", hist: h})
	}
	// The kinds sort in exposition order: counters, gauges, histograms.
	slices.SortFunc(v, func(a, b series) int {
		return cmp.Or(strings.Compare(a.kind, b.kind), strings.Compare(a.name, b.name))
	})
	// Sorted names put `a_total_more` between `a_total` and
	// `a_total{x="1"}`, so a family's opening is found by set, not by
	// comparing each base name with the one before it.
	opened := make(map[string]bool)
	for i := range v {
		s := &v[i]
		s.base, s.labels = splitName(s.name)
		s.opens = !opened[s.base]
		opened[s.base] = true
	}
	return v
}

// Snapshot samples every metric, in the view's order: each group
// sorted by name, so renderings are stable.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	for _, s := range r.series() {
		switch {
		case s.hist != nil:
			hs := s.hist.Snapshot()
			hs.Name = s.name
			snap.Histograms = append(snap.Histograms, hs)
		case s.counter != nil:
			snap.Counters = append(snap.Counters, CounterSnapshot{Name: s.name, Value: s.counter()})
		default:
			snap.Gauges = append(snap.Gauges, GaugeSnapshot{Name: s.name, Value: s.gauge()})
		}
	}
	return snap
}
