package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/fleet"
	"repro/internal/scale"
	"repro/internal/wire"
)

// fleetPlace is the controller workload: scale.Launch stands up a
// simulated fleet over memnet in watch mode with polling effectively
// off, and one controller loop places a domain through the scheduler,
// watches the registry's cached summary follow the placement and its
// removal, and every so often plans a rebalance. The fleet scheduler and
// summary cache, the watch reconcile loop and memnet do the work; no
// socket syscall is involved. Its set-up — launch, settle, seed — is the
// harness cost ROADMAP item 5 names and never profiled.
type fleetPlace struct {
	f         *scale.Fleet
	perHost   int
	wantHost  int // active domains a host must show once a cycle has cleaned up
	total     int
	planEvery int
	names     []string
	xmls      []string
	cycles    int
	offset    int
	row       map[string]int      // host → its row in Registry.Summaries
	batch     []fleet.Placement   // placed, not yet verified and removed
	from      fleet.WatchStats    // the registry's counters before the batch
	before    []fleet.HostSummary // its summaries before the batch
	placed    []fleet.HostSummary // and once the batch had settled
	sweeps0   uint64
	planNs    []uint32 // rebalance plan timings, one every planEvery cycles
}

const (
	fleetNames     = 64
	summaryTimeout = 250 * time.Millisecond // a change that takes longer to show is a failed op
	settlePause    = time.Millisecond       // a placement's events and fetches land within about 150 µs
	placeBatch     = 8                      // placements verified and removed together
)

func (w *fleetPlace) Clients() int { return 1 }

func (w *fleetPlace) Setup(cfg *runConfig) (split setupSplit, err error) {
	registerDrivers()
	t0 := time.Now()
	w.f, err = scale.Launch(scale.Options{
		Hosts:          cfg.Sizes.FleetHosts,
		DomainsPerHost: cfg.Sizes.FleetDomains,
		PollInterval:   time.Hour, // every refresh in the window must come from the watch stream
		Log:            quiet,
	})
	if err != nil {
		return split, err
	}
	split.Settle = w.f.SettleTime
	split.Launch = time.Since(t0) - w.f.SettleTime
	if err = w.f.SeedDomains(); err != nil {
		return split, err
	}
	split.Seed = w.f.SeedTime
	w.perHost = cfg.Sizes.FleetDomains
	w.wantHost = w.perHost
	w.total = cfg.Sizes.FleetHosts * cfg.Sizes.FleetDomains
	w.planEvery = cfg.Sizes.PlanEvery
	for _, i := range seededPerm(cfg.Seed, fleetNames) {
		name := fmt.Sprintf("s%04x-place-%02d", cfg.Seed&0xffff, i)
		w.names = append(w.names, name)
		w.xmls = append(w.xmls, domainXML("test", name, 256, 1))
	}
	w.offset = int(cfg.Seed % fleetNames)
	w.batch = make([]fleet.Placement, 0, placeBatch)
	w.row = map[string]int{}
	for i, s := range w.f.Reg.Summaries() {
		w.row[s.Host] = i
	}
	w.planNs = make([]uint32, 0, 4096)
	// Seeding events are still draining into the registry; the window
	// must start from a quiet fleet.
	if err = w.waitFleet(w.total); err != nil {
		return split, err
	}
	w.sweeps0 = w.f.Reg.WatchStats().Sweeps
	if cfg.BreakCheck {
		w.wantHost++
	}
	return split, nil
}

// count is the number of the batch's first n placements that went to host.
func (w *fleetPlace) count(host string, n int) int {
	k := 0
	for _, p := range w.batch[:n] {
		if p.Host == host {
			k++
		}
	}
	return k
}

// settled reports whether the registry has finished absorbing the batch,
// given the counters and summaries from before its first Schedule: it
// has counted at least one watch event per placement (defined and
// started, or started alone when the stream coalesced them), every
// targeted fetch it began has landed (each landing moves one host's
// generation), and every host counts its new domains running beside the
// seeded ones. The fleet is otherwise idle, so every movement of the
// counters belongs to this batch.
//
// A lifecycle step issued while a fetch is still in flight can be
// overwritten by the fetch's older answer, which would leave the summary
// wrong until the host's next sweep — an hour away here.
//
// A host must show at least its seeded and its new domains, not exactly
// them: Schedule adds its placement to the summary optimistically, and
// when the fetch of the new record has already landed the host stays
// over-counted by one until its next fetch or sweep. That is the
// registry's behaviour at this commit, reported as
// fleet.summary_overcount; the cycle neither hides nor trips on it, and
// checks the removals as deltas from what the settled batch showed.
func (w *fleetPlace) settled(now []fleet.HostSummary) bool {
	st := w.f.Reg.WatchStats()
	fetches := st.TargetedFetches - w.from.TargetedFetches
	if st.WatchEvents-w.from.WatchEvents < uint64(len(w.batch)) || fetches == 0 {
		return false
	}
	var landed uint64
	for i, p := range w.batch {
		if w.count(p.Host, i) > 0 {
			continue // host already judged
		}
		was, is := &w.before[w.row[p.Host]], &now[w.row[p.Host]]
		k := w.count(p.Host, len(w.batch))
		if is.Gen == was.Gen || was.ActiveDomains < w.wantHost || is.ActiveDomains < w.wantHost+k ||
			is.ActiveDomains-was.ActiveDomains != is.TotalDomains-was.TotalDomains {
			return false
		}
		landed += is.Gen - was.Gen
	}
	return landed >= fetches
}

// removed reports whether every host of the batch shows, against the
// summaries taken when the batch had settled, as many fewer domains
// (active, or defined) as the first n placements put there.
func (w *fleetPlace) removed(now []fleet.HostSummary, n int, active bool) bool {
	for _, p := range w.batch {
		was, is := &w.placed[w.row[p.Host]], &now[w.row[p.Host]]
		k := w.count(p.Host, n)
		if active && is.ActiveDomains != was.ActiveDomains-k || !active && is.TotalDomains != was.TotalDomains-k {
			return false
		}
	}
	return true
}

// await reads the registry's cached summaries until done accepts them,
// and returns them. It yields between reads; its callers come to it when
// the change has normally arrived, so it nearly always reads once, which
// keeps the copies of the summary table, and with them bytes_per_op, the
// same from cycle to cycle.
func (w *fleetPlace) await(done func([]fleet.HostSummary) bool) ([]fleet.HostSummary, bool) {
	start := time.Now()
	for {
		if sums := w.f.Reg.Summaries(); done(sums) {
			return sums, true
		}
		if time.Since(start) > summaryTimeout {
			return nil, false
		}
		runtime.Gosched()
	}
}

func (w *fleetPlace) waitFleet(want int) error {
	deadline := time.Now().Add(5 * time.Second)
	for w.f.Domains() != want {
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet-place: fleet shows %d active domains, want %d", w.f.Domains(), want)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// Op places one domain. Only Schedule is timed. Placements are verified
// and removed a batch at a time, so that most Schedule calls find the
// registry and the daemons as a busy controller would — a call that
// follows a sleep pays for waking every thread on its path and measures
// the box more than the scheduler.
func (w *fleetPlace) Op(_ int, _ *rand.Rand, tr *tracer) opResult {
	slot := (w.offset + w.cycles) % len(w.xmls)
	w.cycles++
	reg := w.f.Reg
	if len(w.batch) == 0 {
		w.before, w.from = reg.Summaries(), reg.WatchStats()
	}
	start := time.Now()
	t := tr.begin()
	p, err := reg.Schedule(w.xmls[slot])
	tr.end(spanSchedule, t)
	res := opResult{Lat: time.Since(start)}
	if err != nil {
		return res
	}
	w.batch = append(w.batch, p)
	res.OK = p.Attempts == 1
	if len(w.batch) == cap(w.batch) {
		var ok bool
		res.Propagate, ok = w.retire(tr)
		res.OK = res.OK && ok
	}
	if w.planEvery > 0 && w.cycles%w.planEvery == 0 {
		t = tr.begin()
		planStart := time.Now()
		fleet.PlanRebalance(reg.Inventory(), fleet.RebalanceOptions{SkewThreshold: 0.05, MaxMigrations: 64})
		if len(w.planNs) < cap(w.planNs) {
			w.planNs = append(w.planNs, clampNs(time.Since(planStart)))
		}
		tr.end(spanPlan, t)
	}
	return res
}

// retire checks, through the registry's cached summaries alone, that the
// batch's placements reached it, then destroys and undefines them and
// checks that each step reached it too. The waits sleep: everything has
// normally landed within a tenth of the pause, a sleeping controller
// leaves both processors to the registry, and it costs no CPU, so
// cpu_us_per_op is the program's. Only the last Destroy is waited for
// awake and timed: issued → the host's summary shows the domain stopped.
// A batch that fails a check counts as one failed operation; whatever
// the checks say, every domain goes, so that a cycle never leaves the
// fleet larger than it found it.
func (w *fleetPlace) retire(tr *tracer) (propagate time.Duration, ok bool) {
	defer func() { w.batch = w.batch[:0] }()
	reg, last := w.f.Reg, len(w.batch)-1
	time.Sleep(settlePause)
	w.placed, ok = w.await(w.settled)

	for _, p := range w.batch[:last] {
		t := tr.begin()
		ok = p.Domain.Destroy() == nil && ok
		tr.end(spanDestroy, t)
	}
	if ok {
		time.Sleep(settlePause)
		_, ok = w.await(func(now []fleet.HostSummary) bool { return w.removed(now, last, true) })
	}
	seen := reg.WatchStats().WatchEvents
	t := tr.begin()
	issued := time.Now()
	ok = w.batch[last].Domain.Destroy() == nil && ok
	tr.end(spanDestroy, t)
	if ok {
		// One atomic load per turn until the registry counts the event,
		// which it does just before it patches the summary.
		t = tr.begin()
		for reg.WatchStats().WatchEvents == seen && time.Since(issued) < summaryTimeout {
			runtime.Gosched()
		}
		runtime.Gosched()
		_, ok = w.await(func(now []fleet.HostSummary) bool { return w.removed(now, last+1, true) })
		tr.end(spanEventWait, t)
		propagate = time.Since(issued)
	}

	for _, p := range w.batch {
		t := tr.begin()
		ok = p.Domain.Undefine() == nil && ok
		tr.end(spanUndefine, t)
	}
	if ok {
		time.Sleep(settlePause)
		_, ok = w.await(func(now []fleet.HostSummary) bool { return w.removed(now, last+1, false) })
	}
	if !ok {
		propagate = 0
	}
	return propagate, ok
}

func (w *fleetPlace) Check() error {
	if n := len(w.batch); n > 0 { // the window ended inside a batch
		if _, ok := w.retire(nil); !ok {
			return fmt.Errorf("fleet-place: the last %d placements did not show in the registry's summaries", n)
		}
	}
	if st := w.f.Reg.WatchStats(); st.Sweeps != w.sweeps0 {
		return fmt.Errorf("fleet-place: registry swept %d times during the window, want pure event push", st.Sweeps-w.sweeps0)
	}
	// One authoritative sweep, after the sweep count was read: every
	// placed domain must really be gone from the daemons.
	w.f.Reg.RefreshNow()
	if got := w.f.Domains(); got != w.total {
		return fmt.Errorf("fleet-place: daemons hold %d running domains at the end, want %d", got, w.total)
	}
	return nil
}

func (w *fleetPlace) Teardown() error {
	if w.f != nil {
		w.f.Close()
	}
	return nil
}

func (w *fleetPlace) Inputs() probeInputs {
	var hostURI string
	if sums := w.f.Reg.Summaries(); len(sums) > 0 {
		hostURI = sums[0].URI
	}
	return probeInputs{
		Transport: "mem",
		URI:       hostURI,
		XML:       w.xmls[0],
		Backends:  []string{"test"},
		Rows:      w.perHost,
		Fleet:     w.f,
		Sweeps:    w.f.Reg.WatchStats().Sweeps - w.sweeps0,
		Overcount: w.f.Domains() - w.total - len(w.batch),
		PlanNs:    w.planNs,
		Codec: []codecSample{
			{Args: &wire.XMLArgs{XML: w.xmls[0]}, Reply: &wire.DomainMetaReply{
				Meta: wire.DomainMeta{Name: w.names[0], UUID: "00000000-0000-4000-8000-000000000000", ID: -1},
			}, Weight: 1},
			{Args: &wire.NameArgs{Name: w.names[0]}, Reply: &struct{}{}, Weight: 1},
		},
		// Schedule ranks the cached summaries, then defines and starts on
		// the chosen host: two calls over memnet.
		Path: []pathTerm{
			{"fleet.rank_ns", 1}, {"xmlspec.parse_domain_ns", 2}, {"rpc.client_call_ns", 2},
			{"drivers.remote.overhead_ns", 2}, {"daemon.submit_to_run_ns", 2},
			{"drivers.common.define_ns", 1}, {"drivers.common.create_ns", 1},
		},
	}
}
