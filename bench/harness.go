package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// sizes are the workload dimensions. The defaults are the ones every
// commit is measured with; the smoke test shrinks them so the suite
// stays fast under -race.
type sizes struct {
	RPCDomains     int // running domains per rpc-small client connection
	MonitorDomains int // running domains swept by monitor-sweep
	FleetHosts     int // daemons launched by fleet-place
	FleetDomains   int // seeded domains per fleet-place daemon
	PlanEvery      int // fleet-place times a rebalance plan every Nth cycle
}

var defaultSizes = sizes{RPCDomains: 64, MonitorDomains: 2000, FleetHosts: 128, FleetDomains: 50, PlanEvery: 50}

// runConfig is one invocation of one workload.
type runConfig struct {
	Workload string
	Seed     int64
	Warmup   time.Duration
	Window   time.Duration // measured, untraced window
	Trace    bool          // also run the traced window and the layer probes
	Sizes    sizes
	OutDir   string
	// BreakCheck makes the workload expect a wrong answer, to prove that
	// a failed correctness check fails the run.
	BreakCheck bool
	// Quick is the smoke test's mode: one set-up and short probes, so
	// every code path runs without the repetitions steady numbers need.
	Quick bool
}

// setupSplit is how a workload's set-up time divides.
type setupSplit struct {
	Launch time.Duration // daemons constructed and listening
	Settle time.Duration // client connections established
	Seed   time.Duration // domains defined and started
}

// opResult is the outcome of one closed-loop operation.
type opResult struct {
	Lat       time.Duration // the timed part of the operation
	Propagate time.Duration // state change issued -> observed; 0 = none
	OK        bool          // every reply was checked and correct
	// Aux marks a background client's operation: verified and counted
	// as attempted, but not a latency or throughput sample.
	Aux bool
}

// workload is one closed-loop traffic mix driven through public APIs.
type workload interface {
	// Setup builds daemons, connections and domains from the seed.
	Setup(cfg *runConfig) (setupSplit, error)
	// Clients is the number of closed-loop client goroutines.
	Clients() int
	// Op runs and verifies one operation for client c. It must not
	// allocate on its own account: allocations are attributed to the
	// program under test.
	Op(c int, rng *rand.Rand, tr *tracer) opResult
	// Check verifies the end-of-window invariants while everything is
	// still up.
	Check() error
	// Teardown stops everything Setup started and verifies nothing is
	// left behind.
	Teardown() error
	// Inputs hands the layer probes what the workload really sent and
	// the live objects they may measure while the clients are idle.
	Inputs() probeInputs
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "rpc-small":
		return &rpcSmall{}, nil
	case "monitor-sweep":
		return &monitorSweep{}, nil
	case "lifecycle-churn":
		return &lifecycleChurn{}, nil
	case "fleet-place":
		return &fleetPlace{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// recorder holds one client's samples. Everything is preallocated so the
// measured window's allocation counts belong to the program under test.
type recorder struct {
	lat       []uint32 // ns per op
	at        []uint32 // µs since window start at op end
	prop      []uint32 // ns per propagate sample
	propAt    []uint32
	attempted int
	failed    int
	maps      [][]byte // off-heap mappings backing the slices above
}

func newRecorder(capacity int) *recorder {
	r := &recorder{}
	for _, b := range []*[]uint32{&r.lat, &r.at, &r.prop, &r.propAt} {
		*b = r.offHeap(capacity)
	}
	return r
}

// offHeap returns an empty sample buffer of the given capacity mapped
// outside the Go heap. Tens of megabytes of harness samples on the heap
// would raise the GC's pacing target far above what the daemon and its
// clients keep live, hiding the allocation pressure the benchmark is
// there to show, and would be counted into heap_mb.
func (r *recorder) offHeap(capacity int) []uint32 {
	if capacity < 1 {
		capacity = 1
	}
	mem, err := syscall.Mmap(-1, 0, capacity*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]uint32, 0, capacity)
	}
	r.maps = append(r.maps, mem)
	return unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), capacity)[:0]
}

// release unmaps the sample buffers; the counts stay readable.
func (r *recorder) release() {
	for _, mem := range r.maps {
		_ = syscall.Munmap(mem) // nothing to do about a failed unmap at exit
	}
	*r = recorder{attempted: r.attempted, failed: r.failed}
}

func clampNs(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// windowResult is everything one measured window produced.
type windowResult struct {
	elapsed   time.Duration
	recs      []*recorder
	cpu       time.Duration // process user+sys over the window
	mallocs   uint64
	bytes     uint64
	heapLive  uint64 // HeapAlloc after a forced GC at the end of the window
	heapInuse uint64 // HeapInuse at the same moment
	gcCycles  uint32
	gcCPU     float64 // seconds of GC CPU over the window
}

func (w *windowResult) ops() (attempted, failed int) {
	for _, r := range w.recs {
		attempted += r.attempted
		failed += r.failed
	}
	return
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// drive runs the closed loop for d: every client goroutine issues its
// next operation only when the previous one has completed. capacity
// sizes the sample buffers; tracers is nil for an untraced window.
func drive(w workload, seed int64, d time.Duration, capacity int, tracers []*tracer) *windowResult {
	n := w.Clients()
	res := &windowResult{recs: make([]*recorder, n)}
	for c := range res.recs {
		res.recs[c] = newRecorder(capacity)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	cpu0 := processCPU()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec := res.recs[c]
			rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
			var tr *tracer
			if tracers != nil {
				tr = tracers[c]
				tr.base = start
			}
			for {
				opStart := tr.begin()
				r := w.Op(c, rng, tr)
				tr.endOp(opStart)
				since := time.Since(start)
				if since > d {
					return // an operation that outlives the window is not counted
				}
				rec.attempted++
				if !r.OK {
					rec.failed++
				}
				if !r.Aux && len(rec.lat) < cap(rec.lat) {
					rec.lat = append(rec.lat, clampNs(r.Lat))
					rec.at = append(rec.at, uint32(since/time.Microsecond))
					if r.Propagate > 0 {
						rec.prop = append(rec.prop, clampNs(r.Propagate))
						rec.propAt = append(rec.propAt, uint32(since/time.Microsecond))
					}
				}
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = d
	res.cpu = processCPU() - cpu0
	res.gcCPU = gcCPUSeconds() - gc0
	runtime.ReadMemStats(&m1)
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.bytes = m1.TotalAlloc - m0.TotalAlloc
	res.gcCycles = m1.NumGC - m0.NumGC
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.heapLive, res.heapInuse = m1.HeapAlloc, m1.HeapInuse
	return res
}

// merged returns all clients' samples with their window offsets.
func merged(recs []*recorder, prop bool) (ns, at []uint32) {
	for _, r := range recs {
		if prop {
			ns, at = append(ns, r.prop...), append(at, r.propAt...)
		} else {
			ns, at = append(ns, r.lat...), append(at, r.at...)
		}
	}
	return
}

func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// minWindowSamples is how many samples a p99 window must hold, so that
// at least ten lie beyond the percentile.
const minWindowSamples = 1000

// windowedP99 splits the window into equal time slices, one per second
// where the rate allows and longer where a second holds fewer than
// minWindowSamples samples, and returns the median of the slices' p99s:
// one scheduler hiccup on a shared box then moves one slice, not the
// metric. It also returns the number of slices used.
func windowedP99(ns, at []uint32, elapsed time.Duration) (float64, int) {
	if len(ns) == 0 {
		return 0, 0
	}
	slices := int(elapsed / time.Second)
	if most := len(ns) / minWindowSamples; slices > most {
		slices = most
	}
	if slices < 1 {
		slices = 1
	}
	width := float64(elapsed/time.Microsecond) / float64(slices)
	buckets := make([][]uint32, slices)
	for i, v := range ns {
		b := int(float64(at[i]) / width)
		if b >= slices {
			b = slices - 1
		}
		buckets[b] = append(buckets[b], v)
	}
	p99s := make([]float64, 0, slices)
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		p99s = append(p99s, percentile(b, 0.99))
	}
	return medianOf(p99s), len(p99s)
}

func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sorted returns an ascending copy of the samples.
func sorted(ns []uint32) []uint32 {
	s := append([]uint32(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func p50(ns []uint32) float64 { return percentile(sorted(ns), 0.50) }

// midMean is the interquartile mean of ascending samples: the mean of
// their middle half. On a one-humped distribution it sits at the median;
// on rpc-small, where half the calls find every thread awake (8 µs) and
// half find one parked (12 to 20 µs), the median itself stands on the
// cliff between the humps and jumps by a fifth from run to run, while
// the mean of the middle half moves with both humps and repeats.
func midMean(asc []uint32) float64 {
	mid := asc[len(asc)/4 : len(asc)-len(asc)/4]
	if len(mid) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range mid {
		sum += float64(v)
	}
	return sum / float64(len(mid))
}

// latencies summarises one sample stream in µs: the mean of its middle
// half, its median and its windowed p99.
type latencies struct{ mid, p50, p99 metric }

func latencyMetrics(recs []*recorder, prop bool, elapsed time.Duration) latencies {
	ns, at := merged(recs, prop)
	p99, _ := windowedP99(ns, at, elapsed)
	asc := sorted(ns)
	us := func(v float64) metric { return metric{Value: v / 1e3, Samples: len(ns)} }
	return latencies{mid: us(midMean(asc)), p50: us(percentile(asc, 0.50)), p99: us(p99)}
}
