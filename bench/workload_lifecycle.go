package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/drivers/common"
	"repro/internal/events"
	"repro/internal/wire"
)

// lifecycleChurn drives the write path: client A runs full lifecycles
// (define, create, suspend, resume, destroy, undefine) against qsim,
// xsim and csim in rotation with a watch stream open, while client B
// reads a fixed running domain beside every lifecycle. It is the same
// rpc and daemon path as rpc-small plus xmlspec parsing, drivers/common
// locking and state machine, three differently shaped native hypervisor
// APIs and the events-to-watch push — a read-side gain bought with a
// write-side cost shows here.
//
// The journal is on in the traced run only. The benchmark may write
// nowhere but its checkout, and there an fsync is a real disk flush:
// with the journal on, eight-second windows of one process spread 14%
// on throughput and median and 27% on p99, against 3% with it off or on
// tmpfs. Gated numbers have to repeat, so the untraced run leaves the
// journal off; the traced run gates nothing, turns it on, and reports
// the statestore layer and the journalled lifecycle beside the probes.
type lifecycleChurn struct {
	fx        *fixture
	stateRoot string
	backends  []*churnBackend
	ops       int // client A's op counter: the backend and name rotation
	offset    int // seeded start of the rotation

	reader      *core.Connect
	fixed       *core.Domain
	fixedVCPUs  int
	readTokens  chan struct{} // A → B: one lifecycle started, read beside it
	readTimer   *time.Timer
	eventTimer  *time.Timer
	missedStart atomic.Uint64 // lifecycles whose started event was coalesced away
	gaps        atomic.Uint64
}

var churnDrivers = []string{"qsim", "xsim", "csim"}

const (
	churnNames       = 32 // seeded definitions per back end, reused in rotation
	readsPerLifecyle = 8  // client B's reads beside each of client A's lifecycles
	eventTimeout     = 5 * time.Second
)

// churnBackend is client A's connection to one driver, its watch
// stream, and what the stream has shown of the lifecycle in flight.
type churnBackend struct {
	driver string
	conn   *core.Connect
	watch  core.WatchHandle
	names  []string
	xmls   []string

	mu        sync.Mutex
	cur       string    // domain of the lifecycle in flight
	startedAt time.Time // when its started event arrived
	gone      chan struct{}
	owner     *lifecycleChurn
}

func (b *churnBackend) onEvent(ev events.Event, gap bool) {
	now := time.Now()
	if gap {
		b.owner.gaps.Add(1)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if ev.Domain != b.cur {
		return
	}
	switch ev.Type {
	case events.EventStarted:
		if b.startedAt.IsZero() {
			b.startedAt = now
		}
	case events.EventUndefined:
		select {
		case b.gone <- struct{}{}:
		default:
		}
	}
}

func (w *lifecycleChurn) Clients() int { return 2 }

func (w *lifecycleChurn) Setup(cfg *runConfig) (split setupSplit, err error) {
	t0 := time.Now()
	if cfg.Trace {
		w.stateRoot = filepath.Join(cfg.OutDir, fmt.Sprintf("journal-%d-%d", os.Getpid(), endpointSeq.Add(1)))
		if err = os.MkdirAll(w.stateRoot, 0o755); err != nil {
			return split, err
		}
		common.SetStateRoot(w.stateRoot)
	}
	if w.fx, err = startDaemon(daemonOpts{Transport: "unix"}); err != nil {
		return split, err
	}
	split.Launch = time.Since(t0)
	t1 := time.Now()
	for _, drv := range churnDrivers {
		b := &churnBackend{driver: drv, gone: make(chan struct{}, 1), owner: w}
		if b.conn, err = core.Open(w.fx.uri(drv, "/system")); err != nil {
			return split, err
		}
		w.backends = append(w.backends, b)
		if b.watch, err = b.conn.WatchEvents("", nil, b.onEvent); err != nil {
			return split, err
		}
		for _, i := range seededPerm(cfg.Seed, churnNames) {
			name := fmt.Sprintf("s%04x-%s-%02d", cfg.Seed&0xffff, drv, i)
			b.names = append(b.names, name)
			b.xmls = append(b.xmls, domainXML(drv, name, 256, 1))
		}
	}
	if w.reader, err = core.Open(w.fx.uri("qsim", "/system")); err != nil {
		return split, err
	}
	split.Settle = time.Since(t1)
	t2 := time.Now()
	w.fixedVCPUs = 2
	if w.fixed, err = w.reader.CreateDomainXML(domainXML("qsim", fmt.Sprintf("s%04x-fixed", cfg.Seed&0xffff), 512, w.fixedVCPUs)); err != nil {
		return split, err
	}
	split.Seed = time.Since(t2)
	w.offset = int(cfg.Seed % int64(len(w.backends)))
	w.readTokens = make(chan struct{}, 1)
	w.readTimer = time.NewTimer(time.Hour)
	w.eventTimer = time.NewTimer(time.Hour)
	if cfg.BreakCheck {
		w.fixedVCPUs++
	}
	return split, nil
}

// rearm resets a timer the calling goroutine owns, so a wait with a
// timeout costs no allocation. go.mod selects the pre-1.23 timer
// channels, which must be drained before Reset.
func rearm(t *time.Timer, d time.Duration) <-chan time.Time {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
	return t.C
}

func (w *lifecycleChurn) Op(c int, _ *rand.Rand, tr *tracer) opResult {
	if c == 1 {
		return w.readBeside(tr)
	}
	n := w.ops
	w.ops++
	b := w.backends[(w.offset+n)%len(w.backends)]
	slot := (n / len(w.backends)) % len(b.names)
	b.mu.Lock()
	b.cur, b.startedAt = b.names[slot], time.Time{}
	b.mu.Unlock()
	// Hand client B its reads for this lifecycle. The send waits while B
	// is a whole lifecycle behind, so the reads per lifecycle, and with
	// them the allocations per op, do not depend on scheduling luck; it
	// gives up once B has left at the end of a window.
	select {
	case w.readTokens <- struct{}{}:
	case <-rearm(w.eventTimer, 10*time.Millisecond):
	}

	start := time.Now()
	t := tr.begin()
	dom, err := b.conn.DefineDomain(b.xmls[slot])
	tr.end(spanDefine, t)
	if err != nil {
		return opResult{Lat: time.Since(start)}
	}
	t = tr.begin()
	createIssued := time.Now()
	err = dom.Create()
	tr.end(spanCreate, t)
	ok := err == nil
	t = tr.begin()
	ok = dom.Suspend() == nil && ok
	tr.end(spanSuspend, t)
	t = tr.begin()
	ok = dom.Resume() == nil && ok
	tr.end(spanResume, t)
	t = tr.begin()
	ok = dom.Destroy() == nil && ok
	tr.end(spanDestroy, t)
	t = tr.begin()
	ok = dom.Undefine() == nil && ok
	tr.end(spanUndefine, t)
	res := opResult{Lat: time.Since(start)}

	// The lifecycle is verified, outside its timing, by the watch
	// stream: the domain's terminal event must arrive. Coalescing may
	// fold earlier events into later ones, never drop the last.
	t = tr.begin()
	select {
	case <-b.gone:
	case <-rearm(w.eventTimer, eventTimeout):
		ok = false
	}
	tr.end(spanEventWait, t)
	b.mu.Lock()
	startedAt := b.startedAt
	b.mu.Unlock()
	if startedAt.IsZero() {
		w.missedStart.Add(1)
	} else {
		res.Propagate = startedAt.Sub(createIssued)
	}
	res.OK = ok
	return res
}

// readBeside is client B: for every lifecycle client A starts it reads
// the fixed domain a few times. Its reads are verified and count as
// attempts, but the end-to-end timings are client A's.
func (w *lifecycleChurn) readBeside(tr *tracer) opResult {
	select {
	case <-w.readTokens:
	case <-rearm(w.readTimer, 10*time.Millisecond):
		return opResult{OK: true, Aux: true} // client A is idle or done; let the loop see the deadline
	}
	start := time.Now()
	ok := true
	for i := 0; i < readsPerLifecyle; i++ {
		t := tr.begin()
		info, err := w.fixed.Info()
		tr.end(spanDomainInfo, t)
		ok = ok && err == nil && info.State == core.DomainRunning && info.VCPUs == w.fixedVCPUs
	}
	return opResult{Lat: time.Since(start) / readsPerLifecyle, OK: ok, Aux: true}
}

func (w *lifecycleChurn) Check() error {
	for _, b := range w.backends {
		doms, err := b.conn.ListAllDomains(0)
		if err != nil {
			return err
		}
		if len(doms) != 0 {
			return fmt.Errorf("lifecycle-churn: %s still holds %d domains (first %q)", b.driver, len(doms), doms[0].Name())
		}
	}
	return nil
}

func (w *lifecycleChurn) Teardown() error {
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if w.fixed != nil {
		note(w.fixed.Destroy())
		note(w.fixed.Undefine())
	}
	for _, b := range w.backends {
		if b.watch != nil {
			note(b.watch.Close())
		}
		b.conn.Close() //nolint:errcheck // the daemon is going away with it
	}
	if w.reader != nil {
		w.reader.Close() //nolint:errcheck
	}
	if w.fx != nil {
		w.fx.stop()
	}
	if w.readTimer != nil {
		w.readTimer.Stop()
		w.eventTimer.Stop()
	}
	if w.stateRoot == "" {
		return firstErr
	}
	// Every definition was undefined, so the journal must hold no
	// document; then the scratch directory goes.
	common.SetStateRoot("")
	left := 0
	note(filepath.WalkDir(w.stateRoot, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			left++
		}
		return err
	}))
	if left != 0 {
		note(fmt.Errorf("lifecycle-churn: %d journal files left under %s", left, w.stateRoot))
	}
	note(os.RemoveAll(w.stateRoot))
	return firstErr
}

func (w *lifecycleChurn) Inputs() probeInputs {
	b := w.backends[0]
	return probeInputs{
		Transport:   "unix",
		URI:         w.fx.uri("qsim", "/system"),
		Conn:        w.reader,
		Domain:      w.fixed.Name(),
		XML:         b.xmls[0],
		Backends:    churnDrivers,
		Pool:        w.fx.srv.Pool(),
		JournalRoot: w.stateRoot,
		Gaps:        w.gaps.Load(),
		MissedStart: w.missedStart.Load(),
		Codec: []codecSample{
			{Args: &wire.XMLArgs{XML: b.xmls[0]}, Reply: &wire.DomainMetaReply{
				Meta: wire.DomainMeta{Name: b.names[0], UUID: w.fixed.UUID(), ID: -1},
			}, Weight: 1},
			{Args: &wire.NameArgs{Name: b.names[0]}, Reply: &struct{}{}, Weight: 5},
		},
		// Six calls per lifecycle; define parses the XML and journals
		// it, create and destroy flip the active marker.
		Path: []pathTerm{
			{"rpc.client_call_ns", 6}, {"drivers.remote.overhead_ns", 6}, {"daemon.submit_to_run_ns", 6},
			{"drivers.common.define_ns", 1}, {"drivers.common.create_ns", 1}, {"drivers.common.suspend_resume_ns", 1},
			{"drivers.common.destroy_ns", 1}, {"drivers.common.undefine_ns", 1},
		},
	}
}
