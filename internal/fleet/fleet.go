// Package fleet is the multi-daemon orchestration layer: it turns N
// independent govirtd daemons, each managing one host through the
// uniform API, into a single schedulable pool. The paper's thesis is
// that one management application can drive many heterogeneous
// hypervisor hosts through one stable API; this package is that
// application's core, composed entirely over the public surface —
// core.Open with remote URIs, nodeinfo/stats polling for non-intrusive
// inventory, lifecycle events for cache invalidation, and the migration
// engine for rebalancing.
//
// Three parts:
//
//   - the host Registry dials every configured URI, tracks per-host
//     health (keepalive-backed connections, reconnect with exponential
//     backoff) and maintains a cached inventory per host;
//   - the Scheduler (scheduler.go) answers "where should this domain
//     run" with pluggable policies and performs define+start on the
//     winner, retrying on another host when one dies mid-placement;
//   - the Rebalancer (rebalance.go) watches load skew and drains hot
//     hosts by live-migrating domains between daemons.
//
// The registry is built to scale to thousands of hosts in one process:
// the host table is fixed at New (so looking a host up takes no lock,
// and each host's state sits behind that host's own), connection health
// and inventory polling run on a bounded pool of workers fed by a
// due-time queue (instead of one goroutine per host), and every
// placement decision reads compact per-host summaries (HostSummary)
// maintained incrementally on refresh rather than deep inventory
// clones.
package fleet

import (
	"container/heap"
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"path"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/logging"
	"repro/internal/uri"
)

// HostState is a host's position in the registry's health model.
type HostState int

// Host states. A host cycles Connecting → Up → Down → Connecting...
const (
	HostConnecting HostState = iota
	HostUp
	HostDown
)

var hostStateNames = map[HostState]string{
	HostConnecting: "connecting",
	HostUp:         "up",
	HostDown:       "down",
}

func (s HostState) String() string {
	if n, ok := hostStateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Config configures a Registry.
type Config struct {
	Hosts        []string      // connection URIs, one daemon each
	PollInterval time.Duration // inventory refresh period (default 2s)
	BackoffMin   time.Duration // first reconnect delay (default 100ms)
	BackoffMax   time.Duration // reconnect delay ceiling (default 10s)
	// BackoffJitter spreads reconnect delays by up to this fraction of
	// the base delay (default 0.2), so a fleet that lost one daemon does
	// not hammer it in lock-step when it returns. Negative disables.
	BackoffJitter float64
	// CallTimeout, when positive, is appended to every host URI as
	// call_timeout_ms so each remote call is deadline-bounded; zero keeps
	// the remote driver's default. URIs that already carry the parameter
	// are left alone.
	CallTimeout time.Duration
	// Workers bounds the fan-out of the shared poll/health worker pool:
	// at most this many hosts are being connected or refreshed at any
	// moment, however large the fleet. Default min(16, max(2, NumCPU)).
	Workers int
	// Seed fixes the jitter PRNG for reproducible chaos runs; 0 seeds
	// from the configuration (still deterministic, just unchosen).
	Seed   int64
	Policy Policy // placement policy (default Spread())
	Log    *logging.Logger
}

func (c *Config) applyDefaults() {
	if c.PollInterval <= 0 {
		c.PollInterval = 2 * time.Second
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 100 * time.Millisecond
	}
	if c.BackoffMax < c.BackoffMin {
		c.BackoffMax = 10 * time.Second
	}
	if c.BackoffJitter == 0 {
		c.BackoffJitter = 0.2
	}
	if c.BackoffJitter < 0 {
		c.BackoffJitter = 0
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
		if c.Workers < 2 {
			c.Workers = 2
		}
		if c.Workers > 16 {
			c.Workers = 16
		}
	}
	if c.Seed == 0 {
		c.Seed = int64(len(c.Hosts)) + 1
	}
	if c.Policy == nil {
		c.Policy = Spread()
	}
	if c.Log == nil {
		c.Log = logging.NewQuiet(logging.Error)
	}
}

// withCallTimeout appends the call_timeout_ms parameter to a host URI
// unless the URI already sets one.
func withCallTimeout(hostURI string, d time.Duration) string {
	if d <= 0 || strings.Contains(hostURI, "call_timeout_ms=") {
		return hostURI
	}
	sep := "?"
	if strings.Contains(hostURI, "?") {
		sep = "&"
	}
	return fmt.Sprintf("%s%scall_timeout_ms=%d", hostURI, sep, d.Milliseconds())
}

// host is the registry's per-daemon record. The connection is owned by
// whichever pool worker is servicing the host; consumers take a
// reference under the lock and tolerate the connection failing
// underneath them (those failures are the typed retryable kind).
type host struct {
	name string
	uri  string
	idx  int // position in Registry.order and the summary cache

	mu      sync.Mutex
	conn    *core.Connect
	state   HostState
	lastErr error
	inv     HostInventory
	sum     HostSummary // aggregates mirrored from inv, O(1) to read

	// sweep is the retained inventory scratch for NodeInventoryInto:
	// row storage and name strings survive between polls, so a
	// steady-state sweep allocates almost nothing. sweepMu serializes
	// refreshes (the poll worker and RefreshNow callers can overlap).
	sweepMu sync.Mutex
	sweep   core.NodeInventory

	// Watch-stream reconcile state (see watch.go), guarded by mu. In
	// watch mode events patch inv/sum in place; needResync records that a
	// sequence gap made the incremental state untrustworthy (one bulk
	// sweep is owed, however many gaps piled up), and pending holds
	// domains whose events alone couldn't produce a full record.
	// fetching lists, sorted, the names of the targeted fetch in flight:
	// a name touched while its fetch is out goes back on pending, and the
	// fetch's older answer for it is dropped.
	watch      core.WatchHandle
	watching   bool
	needResync bool
	pending    map[string]struct{}
	fetching   []string
	recIdx     map[string]int // name → inv.Domains index, built lazily
	patchGen   uint64         // bumped by every event patch and placement

	// placed holds domains Schedule started here that the cache cannot
	// vouch for yet. The summary counts an entry while the name has no
	// record, so the next placement sees the pressure; the record that
	// lands for the name replaces the entry instead of adding to it.
	placed map[string]placement

	// bo paces reconnect attempts. Only the worker currently servicing
	// the host touches it; hand-off between workers is ordered by the
	// due-queue lock.
	bo backoffTimer

	// Due-queue bookkeeping, guarded by Registry.qmu.
	due     time.Time
	heapIdx int  // index in the due-heap, -1 while being serviced
	poked   bool // refresh requested while being serviced
}

// HostStatus is the externally visible health row for one host.
type HostStatus struct {
	Name    string
	URI     string
	State   HostState
	Err     string // last connection error while down
	Domains int    // active domains at last refresh
	MemLoad float64
	CPULoad float64
}

// Registry manages the pool of daemon connections and their cached
// inventories.
type Registry struct {
	cfg Config
	log *slog.Logger // module "fleet"

	// The host table, by name and in configuration order. New fills
	// both and nothing writes them afterwards.
	hosts map[string]*host
	order []*host

	// sums is the fleet-wide score cache: every host's compact summary,
	// in configuration order, mirrored here on each inventory event
	// (refresh, up/down flip, placement). The scheduler reads the whole
	// fleet's placement state under one RWMutex instead of taking a
	// thousand per-host locks per decision.
	sumMu sync.RWMutex
	sums  []HostSummary

	// Due-time queue driving the worker pool: hosts ordered by when
	// they next need attention (first connect, poll tick, backoff
	// retry, event poke).
	qmu    sync.Mutex
	queue  dueHeap
	closed bool
	kick   chan struct{} // wakes the dispatcher after queue changes

	work chan *host
	stop chan struct{}
	wg   sync.WaitGroup

	rngMu sync.Mutex
	rng   *rand.Rand // backoff jitter; seeded for reproducibility

	// now is the registry's clock; tests substitute a fake one to make
	// scheduling deterministic.
	now func() time.Time

	// Reconcile accounting, snapshotted by WatchStats. Tests assert the
	// watch-mode guarantees (idle quiescence, one-event-hop propagation)
	// against these rather than the process-global telemetry counters.
	nSweeps  atomic.Uint64
	nEvents  atomic.Uint64
	nResyncs atomic.Uint64
	nFetches atomic.Uint64

	// hookAfterDefine, when set by tests, runs between the define and
	// start halves of a placement — the window where a dying daemon must
	// surface a retryable error.
	hookAfterDefine func(hostName string)
}

// New builds a Registry over the configured host URIs. Call Start to
// begin connecting.
func New(cfg Config) (*Registry, error) {
	cfg.applyDefaults()
	if len(cfg.Hosts) == 0 {
		return nil, core.Errorf(core.ErrInvalidArg, "fleet: no hosts configured")
	}
	r := &Registry{
		cfg:   cfg,
		log:   cfg.Log.For("fleet"),
		hosts: make(map[string]*host, len(cfg.Hosts)),
		kick:  make(chan struct{}, 1),
		work:  make(chan *host),
		stop:  make(chan struct{}),
		now:   time.Now,
		rng:   rand.New(rand.NewSource(cfg.Seed)), //nolint:gosec // jitter only
	}
	for i, s := range cfg.Hosts {
		u, err := uri.Parse(s)
		if err != nil {
			return nil, core.Errorf(core.ErrInvalidArg, "fleet: host %d: %v", i, err)
		}
		name := hostName(u, i)
		if _, dup := r.hosts[name]; dup {
			return nil, core.Errorf(core.ErrInvalidArg, "fleet: duplicate host %q", name)
		}
		s = withCallTimeout(s, cfg.CallTimeout)
		h := &host{name: name, uri: s, idx: i, heapIdx: -1}
		h.bo = newBackoffTimer(cfg.BackoffMin, cfg.BackoffMax, cfg.BackoffJitter)
		h.inv = HostInventory{Host: name, URI: s, State: HostConnecting}
		h.sum = HostSummary{Host: name, URI: s, State: HostConnecting}
		r.hosts[name] = h
		r.order = append(r.order, h)
		r.sums = append(r.sums, h.sum)
	}
	return r, nil
}

// hostName derives a stable human-readable name for a host URI:
// host[:port] for TCP, the socket file's base name for unix sockets,
// else a positional fallback.
func hostName(u *uri.URI, idx int) string {
	if u.Host != "" {
		if u.Port != 0 {
			return fmt.Sprintf("%s:%d", u.Host, u.Port)
		}
		return u.Host
	}
	if sock, ok := u.Param("socket"); ok {
		base := path.Base(sock)
		if ext := path.Ext(base); ext != "" {
			base = base[:len(base)-len(ext)]
		}
		if base != "" && base != "." && base != "/" {
			return base
		}
	}
	return fmt.Sprintf("host%d", idx)
}

// Start launches the dispatcher and the bounded worker pool, and queues
// every host for an immediate first connection attempt.
func (r *Registry) Start() {
	fleetHostsKnown.Add(int64(len(r.order)))
	now := r.now()
	r.qmu.Lock()
	for _, h := range r.order {
		h.due = now
		heap.Push(&r.queue, h)
	}
	r.qmu.Unlock()
	r.wg.Add(1)
	go r.dispatch()
	workers := r.cfg.Workers
	if workers > len(r.order) {
		workers = len(r.order)
	}
	for i := 0; i < workers; i++ {
		r.wg.Add(1)
		go r.worker()
	}
}

// Close tears down every connection and stops the workers.
func (r *Registry) Close() {
	r.qmu.Lock()
	if r.closed {
		r.qmu.Unlock()
		return
	}
	r.closed = true
	r.qmu.Unlock()
	close(r.stop)
	r.wg.Wait()
	fleetHostsKnown.Add(-int64(len(r.order)))
	for _, h := range r.order {
		h.mu.Lock()
		if h.conn != nil {
			h.conn.Close() //nolint:errcheck
			h.conn = nil
		}
		if h.watch != nil {
			h.watch.Close() //nolint:errcheck
			h.watch = nil
		}
		h.watching = false
		if h.state == HostUp {
			fleetHostsUp.Add(-1)
		}
		h.state = HostDown
		h.inv.State = HostDown
		h.sum.State = HostDown
		h.mu.Unlock()
	}
}

// dispatch owns the due-queue: it hands each host whose due time has
// arrived to a pool worker and sleeps until the next deadline
// otherwise. Hosts are out of the queue while a worker services them
// (heapIdx == -1) and re-enter when the worker is done, so a host is
// never serviced twice concurrently.
func (r *Registry) dispatch() {
	defer r.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		r.qmu.Lock()
		var next *host
		wait := time.Duration(-1)
		if len(r.queue) > 0 {
			now := r.now()
			if d := r.queue[0].due.Sub(now); d <= 0 {
				next = heap.Pop(&r.queue).(*host)
			} else {
				wait = d
			}
		}
		r.qmu.Unlock()
		if next != nil {
			select {
			case r.work <- next:
			case <-r.stop:
				return
			}
			continue
		}
		if wait < 0 {
			wait = time.Hour // empty queue: sleep until kicked
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-r.kick:
		case <-timer.C:
		case <-r.stop:
			return
		}
	}
}

// kickDispatch nudges the dispatcher after the queue head may have
// changed; it never blocks.
func (r *Registry) kickDispatch() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// requeue schedules the host's next service time. A poke that arrived
// while the host was being serviced pulls the deadline forward to now.
func (r *Registry) requeue(h *host, due time.Time) {
	r.qmu.Lock()
	if r.closed {
		r.qmu.Unlock()
		return
	}
	if h.poked {
		h.poked = false
		now := r.now()
		if due.After(now) {
			due = now
		}
	}
	h.due = due
	if h.heapIdx < 0 {
		heap.Push(&r.queue, h)
	} else {
		heap.Fix(&r.queue, h.heapIdx)
	}
	r.qmu.Unlock()
	r.kickDispatch()
}

// pokeHost requests an immediate refresh of the host: if it is queued,
// its deadline moves to now; if a worker is servicing it, the worker
// requeues it immediately when done. Callers must not block (event
// delivery goroutines land here).
func (r *Registry) pokeHost(h *host) {
	r.qmu.Lock()
	if r.closed {
		r.qmu.Unlock()
		return
	}
	if h.heapIdx < 0 {
		h.poked = true
		r.qmu.Unlock()
		return
	}
	now := r.now()
	if h.due.After(now) {
		h.due = now
		heap.Fix(&r.queue, h.heapIdx)
	}
	r.qmu.Unlock()
	r.kickDispatch()
}

// worker services hosts handed out by the dispatcher: one connection
// attempt or one inventory refresh per turn, then the host goes back in
// the queue with its next deadline.
func (r *Registry) worker() {
	defer r.wg.Done()
	for {
		select {
		case h := <-r.work:
			r.requeue(h, r.service(h))
		case <-r.stop:
			return
		}
	}
}

// service performs one unit of attention for the host and returns when
// it next needs any: PollInterval after a good refresh, now for an
// immediate reconnect after a freshly detected failure, or the jittered
// backoff delay while the daemon stays unreachable.
func (r *Registry) service(h *host) time.Time {
	h.mu.Lock()
	conn := h.conn
	up := h.state == HostUp
	watching := h.watching
	h.mu.Unlock()

	if up && conn != nil {
		if watching {
			return r.serviceWatch(h, conn)
		}
		err := r.refresh(h, conn)
		if err == nil {
			return r.now().Add(r.cfg.PollInterval)
		}
		if core.IsCode(err, core.ErrOverloaded) {
			// The daemon is alive but shedding our class: admission
			// rejected the sweep before dispatch. Tearing down the
			// connection would only add reconnect load to an overloaded
			// host — keep it up and poll again after the server's hint.
			return r.overloadDelay(h, err)
		}
		if hostFailed(err) {
			conn.Close() //nolint:errcheck
			r.setDown(h, err)
			// Reconnect immediately once: the daemon may have bounced.
			return r.now()
		}
		// Transient operation error (e.g. racing undefine): keep the
		// host up, try again next tick.
		r.log.LogAttrs(context.TODO(), slog.LevelWarn, "inventory refresh",
			slog.String("host", h.name), slog.Any("err", err))
		return r.now().Add(r.cfg.PollInterval)
	}

	conn, err := core.Open(h.uri)
	if err != nil {
		r.setDown(h, err)
		fleetReconnects.Inc()
		return r.now().Add(r.jittered(&h.bo))
	}
	h.bo.reset()
	r.setUp(h, conn)
	if err := r.startWatch(h, conn); err != nil {
		// Subscribing to events failed outright: the transport is
		// already suspect, so treat it like a failed connect instead of
		// running blind on a connection that just dropped a call.
		conn.Close() //nolint:errcheck
		r.setDown(h, err)
		return r.now().Add(r.jittered(&h.bo))
	}
	if err := r.refresh(h, conn); err != nil && core.IsRetryable(err) {
		if core.IsCode(err, core.ErrOverloaded) {
			return r.overloadDelay(h, err)
		}
		conn.Close() //nolint:errcheck
		r.setDown(h, err)
		return r.now().Add(r.jittered(&h.bo))
	}
	return r.now().Add(r.cfg.PollInterval)
}

// overloadDelay schedules the host's next attention after an admission
// rejection: the later of the server's retry-after hint and the normal
// poll interval. The host stays up — cached state keeps serving reads.
func (r *Registry) overloadDelay(h *host, err error) time.Time {
	fleetOverloadBackoffs.Inc()
	d := core.RetryAfterOf(err)
	if d < r.cfg.PollInterval {
		d = r.cfg.PollInterval
	}
	r.log.LogAttrs(context.TODO(), slog.LevelWarn, "host overloaded, backing off",
		slog.String("host", h.name), slog.Duration("backoff", d), slog.Any("err", err))
	return r.now().Add(d)
}

// jittered draws the host's next backoff delay using the registry's
// seeded PRNG.
func (r *Registry) jittered(bo *backoffTimer) time.Duration {
	r.rngMu.Lock()
	f := r.rng.Float64()
	r.rngMu.Unlock()
	return bo.next(f)
}

// readAttempts bounds how often a read-only inventory call is retried
// when it fails with a transient transport error (a dropped frame, a
// per-call deadline). One lost frame must not condemn a healthy host;
// a genuinely dead connection fails fast and non-retryably, so the
// retries cost nothing there.
const readAttempts = 3

func retryRead(f func() error) (err error) {
	for i := 0; i < readAttempts; i++ {
		// An admission rejection is retryable, but hot-retrying would
		// spend the host's tokens faster: surface it so the poll loop
		// backs off.
		if err = f(); err == nil || !core.IsRetryable(err) || core.IsCode(err, core.ErrOverloaded) {
			return err
		}
	}
	return err
}

// refresh collects one inventory snapshot over the given connection in
// one NodeInventoryInto call (one round trip to a remote host).
func (r *Registry) refresh(h *host, conn *core.Connect) error {
	fleetPolls.Inc()
	r.nSweeps.Add(1)
	h.mu.Lock()
	gen0 := h.patchGen
	h.mu.Unlock()
	d := conn.Driver()
	h.sweepMu.Lock()
	err := retryRead(func() error { return d.NodeInventoryInto(&h.sweep) })
	if err != nil {
		h.sweepMu.Unlock()
		return err
	}
	node, records := h.sweep.Node, recordsFromRows(h.sweep.Domains)
	h.sweepMu.Unlock()
	h.mu.Lock()
	h.inv = HostInventory{
		Host: h.name, URI: h.uri, State: h.state, DriverType: h.inv.DriverType,
		Node: node, Domains: records, Gen: h.inv.Gen + 1, CollectedAt: time.Now(),
	}
	h.recIdx = nil // sweep replaced the record slice wholesale
	// A placement or watch event patched the cache while the sweep was
	// in flight: the snapshot just installed may predate it. Keep the
	// placements the snapshot does not show yet and, in watch mode, owe
	// the host one more sweep rather than trust it.
	raced := h.patchGen != gen0
	for name := range h.placed {
		if !raced || h.recordIndex(name) >= 0 {
			delete(h.placed, name)
		}
	}
	h.resum()
	r.publishSum(h)
	raced = raced && h.watching
	if raced {
		h.needResync = true
	}
	h.mu.Unlock()
	if raced {
		r.pokeHost(h)
	}
	return nil
}

// placement is a domain Schedule started on a host, as the host's
// cache holds it until a fetch or sweep reports the domain.
type placement struct {
	req Request
	// midFetch: placed while a targeted fetch asking for the domain was
	// out, so the start is newer than that fetch's answer.
	midFetch bool
}

// resum recomputes the host's summary from its records and the
// placements they do not show yet. Caller holds h.mu.
func (h *host) resum() {
	h.sum = h.inv.Summary()
	for name, p := range h.placed {
		if h.recordIndex(name) < 0 {
			h.sum.addPlaced(p.req)
		}
	}
}

// publishSum mirrors h.sum into the fleet-wide summary cache. The
// caller holds h.mu, which orders cache writes for the host; the lock
// order is always h.mu then sumMu.
func (r *Registry) publishSum(h *host) {
	r.sumMu.Lock()
	r.sums[h.idx] = h.sum
	r.sumMu.Unlock()
}

// recordsFromRows converts bulk monitoring rows to inventory records.
func recordsFromRows(rows []core.NamedDomainInfo) []DomainRecord {
	records := make([]DomainRecord, len(rows))
	for i, row := range rows {
		records[i] = DomainRecord{
			Name: row.Name, State: row.Info.State, MemKiB: row.Info.MemKiB,
			MaxMemKiB: row.Info.MaxMemKiB, VCPUs: row.Info.VCPUs, CPUTimeNs: row.Info.CPUTimeNs,
		}
	}
	return records
}

func (r *Registry) setUp(h *host, conn *core.Connect) {
	drvType, _ := conn.Type()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state != HostUp {
		fleetHostsUp.Add(1)
	}
	h.conn = conn
	h.state = HostUp
	h.lastErr = nil
	h.inv.State = HostUp
	h.inv.DriverType = drvType
	h.sum.State = HostUp
	h.sum.DriverType = drvType
	r.publishSum(h)
	r.log.LogAttrs(context.TODO(), slog.LevelInfo, "host up",
		slog.String("host", h.name), slog.String("driver", drvType))
}

func (r *Registry) setDown(h *host, err error) {
	h.mu.Lock()
	if h.state == HostUp {
		fleetHostsUp.Add(-1)
		r.log.LogAttrs(context.TODO(), slog.LevelWarn, "host down",
			slog.String("host", h.name), slog.Any("err", err))
	}
	h.conn = nil
	h.state = HostDown
	h.lastErr = err
	h.inv.State = HostDown
	h.inv.Domains = nil
	watch := h.watch
	h.watch = nil
	h.watching = false
	h.needResync = false
	h.pending = nil
	h.fetching = nil
	h.recIdx = nil
	clear(h.placed)
	h.sum = h.inv.Summary()
	r.publishSum(h)
	h.mu.Unlock()
	if watch != nil {
		// Best-effort: the transport underneath is usually already dead,
		// and a closed stream stops delivering stale callbacks.
		watch.Close() //nolint:errcheck
	}
}

// markDown records an externally observed host failure (a placement or
// migration call failing retryably): the connection is closed so the
// host's next poll notices and enters reconnect.
func (r *Registry) markDown(name string, err error) {
	h := r.hosts[name]
	if h == nil {
		return
	}
	h.mu.Lock()
	conn := h.conn
	h.mu.Unlock()
	if conn != nil {
		conn.Close() //nolint:errcheck
	}
	r.pokeHost(h)
	_ = err
}

// hostFailed reports whether the host failed, not the operation: err is
// retryable, or the registry closed the connection on seeing the host die.
func hostFailed(err error) bool {
	return core.IsRetryable(err) || core.IsCode(err, core.ErrConnectionClosed)
}

// notePlacement folds a just-placed domain into the host's cached
// summary, so scheduling pressure is visible to the very next placement
// decision, and pokes the host's poll so the authoritative per-domain
// inventory follows asynchronously. A record the watch stream already
// delivered is marked running; otherwise the placement is held in
// h.placed until its record lands, so it is counted once either way.
// The scheduler never waits on a refresh round trip; callers that need
// the full inventory current call RefreshNow themselves.
func (r *Registry) notePlacement(name string, req Request) {
	h := r.hosts[name]
	if h == nil {
		return
	}
	h.mu.Lock()
	h.patchGen++
	mid := h.inFetch(req.Name)
	known := h.recordIndex(req.Name) >= 0
	if known {
		h.patchState(req.Name, core.DomainRunning)
	} else if _, ok := h.placed[req.Name]; !ok {
		h.sum.addPlaced(req)
	}
	if !known || mid {
		if h.placed == nil {
			h.placed = make(map[string]placement)
		}
		h.placed[req.Name] = placement{req: req, midFetch: mid}
	}
	r.publishSum(h)
	h.mu.Unlock()
	r.pokeHost(h)
}

// Host returns the named host's live connection, or a retryable error
// when the host is not up.
func (r *Registry) Host(name string) (*core.Connect, error) {
	h := r.hosts[name]
	if h == nil {
		return nil, core.Errorf(core.ErrInvalidArg, "fleet: unknown host %q", name)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state != HostUp || h.conn == nil {
		return nil, core.Errorf(core.ErrHostUnreachable, "fleet: host %q is %s", h.name, h.state)
	}
	return h.conn, nil
}

// Hosts lists the configured host names in configuration order.
func (r *Registry) Hosts() []string {
	out := make([]string, len(r.order))
	for i, h := range r.order {
		out[i] = h.name
	}
	return out
}

// Status reports per-host health. It reads the cached summaries, so at
// fleet scale it stays O(hosts) with no per-domain work.
func (r *Registry) Status() []HostStatus {
	out := make([]HostStatus, 0, len(r.order))
	for _, h := range r.order {
		h.mu.Lock()
		st := HostStatus{
			Name: h.name, URI: h.uri, State: h.state,
			Domains: h.sum.ActiveDomains, MemLoad: h.sum.MemLoad(), CPULoad: h.sum.CPULoad(),
		}
		if h.lastErr != nil {
			st.Err = h.lastErr.Error()
		}
		h.mu.Unlock()
		out = append(out, st)
	}
	return out
}

// Inventory snapshots every host's cached inventory, in configuration
// order. This deep-copies every domain record; scale-sensitive callers
// (the scheduler, status displays) use Summaries instead.
func (r *Registry) Inventory() []HostInventory {
	out := make([]HostInventory, 0, len(r.order))
	for _, h := range r.order {
		h.mu.Lock()
		out = append(out, h.inv.clone())
		h.mu.Unlock()
	}
	return out
}

// Summaries snapshots the compact per-host aggregates, in configuration
// order: one lock and one memcpy of the score cache, however many
// domains the fleet carries.
func (r *Registry) Summaries() []HostSummary {
	r.sumMu.RLock()
	out := append([]HostSummary(nil), r.sums...)
	r.sumMu.RUnlock()
	return out
}

// RefreshNow synchronously refreshes the named hosts (all when none are
// given), so callers that just mutated the fleet observe their writes.
func (r *Registry) RefreshNow(names ...string) {
	hosts := r.order
	if len(names) > 0 {
		hosts = make([]*host, 0, len(names))
		for _, name := range names {
			if h := r.hosts[name]; h != nil {
				hosts = append(hosts, h)
			}
		}
	}
	for _, h := range hosts {
		h.mu.Lock()
		conn := h.conn
		up := h.state == HostUp
		h.mu.Unlock()
		if up && conn != nil {
			err := r.refresh(h, conn)
			if err != nil && core.IsRetryable(err) && !core.IsCode(err, core.ErrOverloaded) {
				r.markDown(h.name, err)
			}
		}
	}
}

// WaitSettled blocks until every host has resolved its first connection
// attempt (up or down) or the timeout elapses; it returns the number of
// hosts up.
func (r *Registry) WaitSettled(timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		settled, up := true, 0
		for _, h := range r.order {
			h.mu.Lock()
			switch h.state {
			case HostUp:
				up++
			case HostConnecting:
				settled = false
			}
			h.mu.Unlock()
		}
		if settled || time.Now().After(deadline) {
			return up
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// WaitHostState blocks until the named host reaches the wanted state,
// reporting whether it did before the timeout.
func (r *Registry) WaitHostState(name string, want HostState, timeout time.Duration) bool {
	h := r.hosts[name]
	if h == nil {
		return false
	}
	deadline := time.Now().Add(timeout)
	for {
		h.mu.Lock()
		got := h.state
		h.mu.Unlock()
		if got == want {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// dueHeap is a min-heap of hosts ordered by their next service time.
type dueHeap []*host

func (q dueHeap) Len() int            { return len(q) }
func (q dueHeap) Less(i, j int) bool  { return q[i].due.Before(q[j].due) }
func (q dueHeap) Swap(i, j int)       { q[i], q[j] = q[j], q[i]; q[i].heapIdx = i; q[j].heapIdx = j }
func (q *dueHeap) Push(x interface{}) { h := x.(*host); h.heapIdx = len(*q); *q = append(*q, h) }
func (q *dueHeap) Pop() interface{} {
	old := *q
	n := len(old)
	h := old[n-1]
	old[n-1] = nil
	h.heapIdx = -1
	*q = old[:n-1]
	return h
}
