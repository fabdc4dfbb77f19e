package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// runResult is what one run of one workload measured.
type runResult struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	EndToEnd  metricSet `json:"end_to_end"`
	PerLayer  metricSet `json:"per_layer,omitempty"`
	TracePath string    `json:"trace,omitempty"`
}

func (r *runResult) failRatio() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

const (
	minSetups   = 3
	maxSetups   = 50
	setupBudget = 1500 * time.Millisecond // keep repeating cheap set-ups this long
)

// liveGoroutines counts goroutines, leaving out rpc keepalive tickers of
// closed clients: rpc.Client's keepalive loop notices Close only at its
// next tick (5 s by default), so for that long after a teardown they are
// still there. Waiting them out would cost every run five seconds; a
// keepalive loop that never exits still shows, in the next run's baseline.
func liveGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	live := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, "rpc.(*Client).startKeepalive") {
			live++
		}
	}
	return live
}

// waitGoroutines gives exiting goroutines a moment and reports how many
// remain above the baseline.
func waitGoroutines(baseline int) int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := liveGoroutines() - baseline
		if n <= 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// timeSetups sets the workload up several times, tearing each down
// again, and returns how each set-up divided. With keep it leaves the
// last one running and returns it.
func timeSetups(cfg *runConfig, baseline int, keep bool) (workload, []setupSplit, error) {
	var splits []setupSplit
	began := time.Now()
	for {
		w, err := newWorkload(cfg.Workload)
		if err != nil {
			return nil, nil, err
		}
		split, err := w.Setup(cfg)
		if err != nil {
			w.Teardown() //nolint:errcheck // reporting the set-up error
			return nil, nil, fmt.Errorf("%s: set-up: %w", cfg.Workload, err)
		}
		splits = append(splits, split)
		enough := len(splits) >= minSetups && (time.Since(began) >= setupBudget || len(splits) >= maxSetups)
		if enough = enough || cfg.Trace || cfg.Quick; enough && keep {
			return w, splits, nil
		}
		if err := w.Teardown(); err != nil {
			return nil, nil, fmt.Errorf("%s: teardown: %w", cfg.Workload, err)
		}
		if left := waitGoroutines(baseline); left > 0 {
			return nil, nil, fmt.Errorf("%s: %d goroutines outlived teardown", cfg.Workload, left)
		}
		if enough {
			return nil, splits, nil
		}
	}
}

func (s setupSplit) total() time.Duration { return s.Launch + s.Settle + s.Seed }

// fastestSetup is the set-up time a run reports: the quickest of its
// set-ups. They are taken in two batches, before the warm-up and after
// the teardown, half a minute apart, because the box changes speed by a
// third for seconds at a time and a co-tenant only ever adds time.
func fastestSetup(splits []setupSplit) setupSplit {
	best := splits[0]
	for _, s := range splits[1:] {
		if s.total() < best.total() {
			best = s
		}
	}
	return best
}

func primarySamples(res *windowResult) int {
	n := 0
	for _, r := range res.recs {
		n += len(r.lat)
	}
	return n
}

// capacityFor sizes the sample buffers of a window from the rate a
// shorter window just showed.
func capacityFor(prev *windowResult, next time.Duration) int {
	most := 0
	for _, r := range prev.recs {
		if r.attempted > most {
			most = r.attempted
		}
	}
	perSec := float64(most) / prev.elapsed.Seconds()
	return int(perSec*next.Seconds()*1.5) + 4096
}

// runWorkload performs one complete run: set-up, warm-up, the measured
// window, optionally the traced window and the layer probes, the
// end-of-run invariants and teardown. An error means an invariant broke
// and the command must exit non-zero.
func runWorkload(cfg *runConfig) (*runResult, error) {
	runtime.GC()
	baseline := liveGoroutines()
	w, splits, err := timeSetups(cfg, baseline, true)
	if err != nil {
		return nil, err
	}
	torn := false
	defer func() {
		if !torn {
			w.Teardown() //nolint:errcheck // already failing
		}
	}()

	warm := drive(w, cfg.Seed+1, cfg.Warmup, 1<<16, nil)
	capacity := capacityFor(warm, cfg.Window)
	releaseAll(warm)
	win := drive(w, cfg.Seed, cfg.Window, capacity, nil)
	defer releaseAll(win)

	res := &runResult{Workload: cfg.Workload, Seed: cfg.Seed, EndToEnd: metricSet{}}
	res.Attempted, res.Failed = win.ops()
	ops := primarySamples(win)
	if ops == 0 {
		return nil, fmt.Errorf("%s: no operation completed in %v", cfg.Workload, cfg.Window)
	}
	e := res.EndToEnd
	e["ops_per_s"] = metric{Value: float64(ops) / win.elapsed.Seconds(), Samples: ops}
	lat := latencyMetrics(win.recs, false, win.elapsed)
	e["op_mid_us"] = lat.mid
	e["cpu_us_per_op"] = metric{Value: float64(win.cpu.Microseconds()) / float64(ops), Samples: ops}
	e["allocs_per_op"] = metric{Value: float64(win.mallocs) / float64(ops), Samples: ops}
	e["bytes_per_op"] = metric{Value: float64(win.bytes) / float64(ops), Samples: ops}
	e["heap_mb"] = metric{Value: float64(win.heapLive) / (1 << 20), Samples: 1}

	var p *prober
	if cfg.Trace {
		p = &prober{cfg: cfg, budget: probeBudget, out: metricSet{}}
		if cfg.Quick {
			p.budget = probeBudget / 30
		}
		res.PerLayer = p.out
		tracers := make([]*tracer, w.Clients())
		for c := range tracers {
			tracers[c] = newTracer(c)
		}
		before := snapTelemetry()
		sampler := startDepthSampler(w.Inputs().Pool)
		traced := drive(w, cfg.Seed+2, cfg.Window, capacity, tracers)
		defer releaseAll(traced)
		depth := sampler.finish()
		after := snapTelemetry()
		a, f := traced.ops()
		res.Attempted, res.Failed = res.Attempted+a, res.Failed+f
		if res.TracePath, err = writeTrace(cfg, tracers); err != nil {
			return nil, err
		}
		tops := primarySamples(traced)
		p.set("trace.overhead_ratio", float64(tops)/float64(ops), tops)
		p.set("client.fail_ratio", res.failRatio(), res.Attempted)
		p.out["client.op_p50_us"], p.out["client.op_p99_us"] = lat.p50, lat.p99
		prop := latencyMetrics(traced.recs, true, traced.elapsed) // zeros where nothing propagates
		p.out["client.propagate_p50_us"], p.out["client.propagate_p99_us"] = prop.p50, prop.p99
		p.set("runtime.heap_inuse_mb", float64(win.heapInuse)/(1<<20), 1)
		p.set("runtime.gc_cpu_fraction", traced.gcCPU/(traced.elapsed.Seconds()*float64(runtime.GOMAXPROCS(0))), int(traced.gcCycles))
		p.set("runtime.gc_cycles", float64(traced.gcCycles), 1)

		p.in = w.Inputs()
		v, n := histDeltaP50(before, after, "daemon_queue_wait_seconds")
		p.set("daemon.queue_wait_p50_ns", v, n)
		v, n = histDeltaP50(before, after, "daemon_dispatch_seconds")
		p.set("daemon.dispatch_p50_ns", v, n)
		p.set("daemon.queue_depth_max", float64(depth), 1)
		shed := 0.0
		if p.in.Pool != nil {
			shed = float64(p.in.Pool.Stats().Shed)
		}
		p.set("daemon.shed_total", shed, 1)
		p.set("watch.coalesced_total", counterDelta(before, after, "events_coalesced_total"), tops)
		p.set("watch.dropped_total", counterDelta(before, after, "events_dropped_total"), tops)
		p.set("watch.gaps_total", float64(p.in.Gaps)+counterDelta(before, after, "fleet_watch_gaps_total"), tops)
		p.set("watch.started_folded_total", float64(p.in.MissedStart), tops)
		p.set("fleet.schedule_retries_total", counterDelta(before, after, "fleet_placement_retries_total"), tops)
		p.set("scale.launch_s", splits[0].Launch.Seconds(), 1)
		p.set("scale.settle_s", splits[0].Settle.Seconds(), 1)
		p.set("scale.seed_s", splits[0].Seed.Seconds(), 1)
		p.runProbes()
		p.unattributed(lat.p50.Value)
	}

	checkErr := w.Check()
	torn = true
	if err := w.Teardown(); err != nil && checkErr == nil {
		checkErr = err
	}
	left := waitGoroutines(baseline)
	if p != nil {
		p.set("runtime.goroutines_delta", float64(left), 1)
		for _, err := range p.errs {
			if checkErr == nil {
				checkErr = err
			}
		}
	}
	if left > 0 && checkErr == nil {
		checkErr = fmt.Errorf("%s: %d goroutines outlived teardown", cfg.Workload, left)
	}
	if checkErr != nil {
		return res, checkErr
	}
	if !cfg.Trace && !cfg.Quick {
		_, more, err := timeSetups(cfg, baseline, false)
		if err != nil {
			return res, err
		}
		splits = append(splits, more...)
	}
	e["setup_s"] = metric{Value: fastestSetup(splits).total().Seconds(), Samples: len(splits)}
	return res, nil
}

func releaseAll(w *windowResult) {
	for _, r := range w.recs {
		r.release()
	}
}
