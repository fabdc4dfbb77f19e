// Package scale is the mega-fleet simulation harness: it stands up N
// fake-hypervisor daemons in one process — each a real govirtd instance
// with the full RPC stack, served over in-memory transports (memnet) —
// seeds them with domains, and drives them through a fleet.Registry
// exactly as virtfleetx drives real daemons. It exists to measure how
// the management layer behaves three orders of magnitude past the
// hand-run examples: 1,000 daemons / 100,000 domains is the design
// point (ROADMAP open item 2), and the T8 benchmark tier records the
// 10/100/1,000-host curve it produces.
package scale

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/daemon"
	"repro/internal/fleet"
	"repro/internal/logging"
)

// Options sizes a simulated fleet.
type Options struct {
	Hosts          int           // simulated daemons (default 10)
	DomainsPerHost int           // seeded domains per daemon (default 100)
	DomainMemMiB   int           // per-domain memory (default 256)
	DomainVCPUs    int           // per-domain vCPUs (default 1)
	PollInterval   time.Duration // registry poll interval (default 2s)
	Workers        int           // registry poll worker fan-out (default: registry default)
	SeedFanout     int           // concurrent hosts while seeding (default 32)
	Policy         string        // placement policy name (default "spread")
	Log            *logging.Logger
}

func (o *Options) applyDefaults() {
	if o.Hosts <= 0 {
		o.Hosts = 10
	}
	if o.DomainsPerHost < 0 {
		o.DomainsPerHost = 0
	} else if o.DomainsPerHost == 0 {
		o.DomainsPerHost = 100
	}
	if o.DomainMemMiB <= 0 {
		o.DomainMemMiB = 256
	}
	if o.DomainVCPUs <= 0 {
		o.DomainVCPUs = 1
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 2 * time.Second
	}
	if o.SeedFanout <= 0 {
		o.SeedFanout = 32
	}
	if o.Log == nil {
		o.Log = logging.NewQuiet(logging.Error)
	}
}

// Fleet is a running simulated fleet: the daemons, the registry driving
// them, and the measurements taken while bringing it up.
type Fleet struct {
	Opts  Options
	Reg   *fleet.Registry
	Names []string // registry host names, configuration order

	// SettleTime is how long the registry took from Start to every
	// host's first connection resolving.
	SettleTime time.Duration
	// SeedTime is how long seeding DomainsPerHost×Hosts domains took
	// (zero until SeedDomains runs).
	SeedTime time.Duration

	daemons []*daemon.Daemon
	seq     int64
}

// launchSeq disambiguates memnet endpoint names across multiple fleets
// in one process (benchmark tiers run back to back).
var launchSeq atomic.Int64

// Launch starts the daemons and the registry and waits for the fleet to
// settle. Callers must have registered the test and remote drivers.
func Launch(opts Options) (*Fleet, error) {
	opts.applyDefaults()
	f := &Fleet{Opts: opts, seq: launchSeq.Add(1)}
	uris := make([]string, 0, opts.Hosts)
	for i := 0; i < opts.Hosts; i++ {
		name := f.endpoint(i)
		d := daemon.New(opts.Log)
		srv, err := d.AddServer("govirtd", 2, 8, 2, daemon.ClientLimits{})
		if err != nil {
			f.Close()
			return nil, err
		}
		srv.AddProgram(daemon.NewRemoteProgram(srv))
		if err := srv.ListenMem(name, daemon.ServiceConfig{}); err != nil {
			f.Close()
			return nil, err
		}
		f.daemons = append(f.daemons, d)
		uris = append(uris, fmt.Sprintf("test+mem://%s/empty", name))
	}

	policy, err := fleet.PolicyByName(opts.Policy)
	if err != nil {
		f.Close()
		return nil, err
	}
	reg, err := fleet.New(fleet.Config{
		Hosts:        uris,
		PollInterval: opts.PollInterval,
		Workers:      opts.Workers,
		Policy:       policy,
		Log:          opts.Log,
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	f.Reg = reg
	f.Names = reg.Hosts()

	start := time.Now()
	reg.Start()
	if up := reg.WaitSettled(2 * time.Minute); up != opts.Hosts {
		f.Close()
		return nil, fmt.Errorf("scale: only %d/%d hosts settled up", up, opts.Hosts)
	}
	f.SettleTime = time.Since(start)
	return f, nil
}

// endpoint names one daemon's memnet listener.
func (f *Fleet) endpoint(i int) string {
	return fmt.Sprintf("sim%d-node%04d", f.seq, i)
}

// Close tears down the registry and every daemon.
func (f *Fleet) Close() {
	if f.Reg != nil {
		f.Reg.Close()
	}
	var wg sync.WaitGroup
	for _, d := range f.daemons {
		wg.Add(1)
		go func(d *daemon.Daemon) {
			defer wg.Done()
			d.Shutdown()
		}(d)
	}
	wg.Wait()
}

// domainXML builds the minimal workload description the fake
// hypervisor simulates.
func domainXML(name string, memMiB, vcpus int) string {
	return fmt.Sprintf(`<domain type='test'>
  <name>%s</name>
  <description>cpu_util=0.2 dirty_pages_sec=500</description>
  <memory unit='MiB'>%d</memory>
  <vcpu>%d</vcpu>
  <os><type arch='x86_64'>hvm</type></os>
</domain>`, name, memMiB, vcpus)
}

// SeedDomains defines and starts DomainsPerHost domains on every host
// through the registry's own connections, SeedFanout hosts at a time,
// then refreshes the inventories so the registry sees what it seeded.
// (Daemon-side driver state is per client connection, so the fleet's
// domains must be created over the connections the fleet holds.)
func (f *Fleet) SeedDomains() error {
	start := time.Now()
	sem := make(chan struct{}, f.Opts.SeedFanout)
	errCh := make(chan error, len(f.Names))
	var wg sync.WaitGroup
	for hi, name := range f.Names {
		wg.Add(1)
		sem <- struct{}{}
		go func(hi int, name string) {
			defer wg.Done()
			defer func() { <-sem }()
			conn, err := f.Reg.Host(name)
			if err != nil {
				errCh <- fmt.Errorf("scale: host %s: %w", name, err)
				return
			}
			for di := 0; di < f.Opts.DomainsPerHost; di++ {
				xml := domainXML(fmt.Sprintf("d%04d-%04d", hi, di),
					f.Opts.DomainMemMiB, f.Opts.DomainVCPUs)
				if _, err := conn.CreateDomainXML(xml); err != nil {
					errCh <- fmt.Errorf("scale: seed host %s domain %d: %w", name, di, err)
					return
				}
			}
			errCh <- nil
		}(hi, name)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return err
		}
	}
	f.Reg.RefreshNow()
	f.SeedTime = time.Since(start)
	return nil
}

// ScheduleProbes places n probe domains through the scheduler and
// returns the per-placement wall-clock latencies in call order.
func (f *Fleet) ScheduleProbes(n int) ([]time.Duration, error) {
	lats := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		xml := domainXML(fmt.Sprintf("probe%d-%04d", f.seq, i),
			f.Opts.DomainMemMiB, f.Opts.DomainVCPUs)
		t0 := time.Now()
		if _, err := f.Reg.Schedule(xml); err != nil {
			return lats, fmt.Errorf("scale: probe %d: %w", i, err)
		}
		lats = append(lats, time.Since(t0))
	}
	return lats, nil
}

// PlanRebalance snapshots the fleet inventory and runs the pure
// rebalance planner over it — the full planning operation an operator's
// `virtfleetx rebalance --dry-run` performs — returning how long the
// snapshot+plan took and how many moves it proposed.
func (f *Fleet) PlanRebalance(opts fleet.RebalanceOptions) (time.Duration, int) {
	t0 := time.Now()
	moves, _, _, _ := fleet.PlanRebalance(f.Reg.Inventory(), opts)
	return time.Since(t0), len(moves)
}

// RegistryBytes estimates the registry's retained per-host working set:
// the cached inventory records plus the equally sized bulk-sweep
// scratch, and the record name strings. It is deliberately an
// accounting walk, not a heap measurement, so the number isolates the
// registry from the simulated daemons sharing the process.
func (f *Fleet) RegistryBytes() uint64 {
	var total uint64
	const perRecord = uint64(unsafe.Sizeof(fleet.DomainRecord{}))
	const perHost = uint64(unsafe.Sizeof(fleet.HostInventory{}))
	for _, inv := range f.Reg.Inventory() {
		// ×2: the published HostInventory and the retained sweep scratch
		// both hold a full row set.
		total += perHost + 2*perRecord*uint64(len(inv.Domains))
		for i := range inv.Domains {
			total += 2 * uint64(len(inv.Domains[i].Name))
		}
	}
	return total
}

// Domains returns the fleet-wide active domain count from the cached
// summaries.
func (f *Fleet) Domains() int {
	n := 0
	for _, s := range f.Reg.Summaries() {
		n += s.ActiveDomains
	}
	return n
}

// Percentile returns the p-th percentile (0..100) of the given latency
// samples using nearest-rank on a sorted copy.
func Percentile(lats []time.Duration, p float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(float64(len(s))*p/100+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
