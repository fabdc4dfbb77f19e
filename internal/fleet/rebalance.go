package fleet

import (
	"context"
	"log/slog"
	"sync"

	"repro/internal/core"
	"repro/internal/migrate"
)

// Move is one planned migration: a domain leaving a hot host for a
// colder one.
type Move struct {
	Domain string
	From   string
	To     string
	MemKiB uint64
	VCPUs  int
}

// RebalanceOptions tunes a rebalancing pass.
type RebalanceOptions struct {
	// SkewThreshold is the load spread (hottest minus coldest host) the
	// pass tries to get under. Default 0.2.
	SkewThreshold float64
	// MaxMigrations caps the number of moves in one pass. Default 16.
	MaxMigrations int
	// Concurrency bounds how many migrations run at once. Default 1:
	// migrations contend for network bandwidth, so serial is the safe
	// default. Default 1.
	Concurrency int
	// Drain names a host to empty completely (maintenance mode); when
	// set, every active domain on it is moved off regardless of skew.
	Drain string
	// Migrate carries through to the live-migration engine.
	Migrate core.MigrateOptions
	// OnMigration, when set, observes each finished migration.
	OnMigration func(MigrationRecord)
}

func (o *RebalanceOptions) applyDefaults() {
	if o.SkewThreshold <= 0 {
		o.SkewThreshold = 0.2
	}
	if o.MaxMigrations <= 0 {
		o.MaxMigrations = 16
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 1
	}
}

// MigrationRecord is the outcome of one executed move.
type MigrationRecord struct {
	Domain string
	From   string
	To     string
	Result migrate.Result
	Err    error
}

// RebalanceResult summarizes a rebalancing pass.
type RebalanceResult struct {
	SkewBefore float64
	SkewAfter  float64
	Planned    []Move
	Migrations []MigrationRecord
	Converged  bool // the simulated plan reached the threshold (or emptied the drain host)
}

// planHost is the planner's working state for one host: the compact
// summary aggregates (kept incrementally current as simulated moves
// apply) plus the domain records needed to pick what to move. Load and
// free-memory reads are O(1), so each planning step costs O(hosts) +
// O(domains on the host being drained) instead of rescanning every
// domain record in the fleet per comparison.
type planHost struct {
	sum     HostSummary
	domains []DomainRecord
}

func (p *planHost) load() float64   { return p.sum.Load() }
func (p *planHost) freeMem() uint64 { return p.sum.FreeMemKiB() }
func (p *planHost) up() bool        { return p.sum.State == HostUp }

// loadWith projects the host's load with an extra active domain placed
// on it — the arithmetic form of "clone, append, recompute".
func (p *planHost) loadWith(memKiB uint64, vcpus int) float64 {
	after := p.sum
	after.AllocMemKiB += memKiB
	after.AllocVCPUs += vcpus
	return after.Load()
}

// planSkew is Skew over the planner's incrementally maintained state.
func planSkew(sim []planHost) float64 {
	min, max, n := 0.0, 0.0, 0
	for i := range sim {
		if !sim[i].up() {
			continue
		}
		l := sim[i].load()
		if n == 0 || l < min {
			min = l
		}
		if n == 0 || l > max {
			max = l
		}
		n++
	}
	if n < 2 {
		return 0
	}
	return max - min
}

// PlanRebalance computes the moves that bring a fleet snapshot under
// the skew threshold (or drain the named host), simulating each move on
// compact per-host state. It is pure — no connections are touched — so
// the planner can be unit-tested and benchmarked on synthetic fleets;
// the live Rebalance path executes exactly the plan this returns.
func PlanRebalance(invs []HostInventory, opts RebalanceOptions) ([]Move, float64, float64, bool) {
	opts.applyDefaults()
	sim := make([]planHost, len(invs))
	for i := range invs {
		sim[i].sum = invs[i].Summary()
		sim[i].domains = append([]DomainRecord(nil), invs[i].Domains...)
	}
	skewBefore := planSkew(sim)
	var moves []Move
	converged := false
	for len(moves) < opts.MaxMigrations {
		var mv *Move
		if opts.Drain != "" {
			mv = planDrainMove(sim, opts.Drain)
			if mv == nil {
				// No move either because the drain host is empty (done) or
				// because no target can take what is left (stuck).
				converged = drainEmpty(sim, opts.Drain)
				break
			}
		} else {
			if planSkew(sim) <= opts.SkewThreshold {
				converged = true
				break
			}
			mv = planSkewMove(sim)
			if mv == nil {
				break // no move improves the spread
			}
		}
		applyMove(sim, *mv)
		moves = append(moves, *mv)
	}
	if opts.Drain == "" && planSkew(sim) <= opts.SkewThreshold {
		converged = true
	}
	return moves, skewBefore, planSkew(sim), converged
}

// drainEmpty reports whether the drain host has no active domains left
// in the simulated state (vacuously true for unknown hosts).
func drainEmpty(sim []planHost, drain string) bool {
	src := findHost(sim, drain)
	return src == nil || src.sum.ActiveDomains == 0
}

// planDrainMove picks the next domain to evacuate from the drain host:
// largest domain first, each to the least-loaded host that fits.
func planDrainMove(sim []planHost, drain string) *Move {
	src := findHost(sim, drain)
	if src == nil {
		return nil
	}
	var dom *DomainRecord
	for i := range src.domains {
		d := &src.domains[i]
		if !d.Active() {
			continue
		}
		if dom == nil || d.MemKiB > dom.MemKiB {
			dom = d
		}
	}
	if dom == nil {
		return nil
	}
	dst := pickTarget(sim, drain, dom.MemKiB)
	if dst == nil {
		return nil
	}
	return &Move{Domain: dom.Name, From: drain, To: dst.sum.Host, MemKiB: dom.MemKiB, VCPUs: dom.VCPUs}
}

// planSkewMove picks one move that narrows the load spread: the
// smallest active domain on the hottest host whose relocation to the
// coldest fitting host actually reduces skew.
func planSkewMove(sim []planHost) *Move {
	var hot *planHost
	for i := range sim {
		if !sim[i].up() {
			continue
		}
		if hot == nil || sim[i].load() > hot.load() {
			hot = &sim[i]
		}
	}
	if hot == nil {
		return nil
	}
	// Smallest first: small moves converge without overshooting (a big
	// domain bouncing between two hosts would thrash).
	var dom *DomainRecord
	for i := range hot.domains {
		d := &hot.domains[i]
		if !d.Active() {
			continue
		}
		if dom == nil || d.MemKiB < dom.MemKiB {
			dom = d
		}
	}
	if dom == nil {
		return nil
	}
	dst := pickTarget(sim, hot.sum.Host, dom.MemKiB)
	if dst == nil {
		return nil
	}
	// No-progress guard, judged pairwise: the destination must stay
	// strictly below where the source started, or the move just swaps
	// which host is hot (a giant domain bouncing between two hosts).
	// Judging the global spread instead would deadlock on ties — with
	// two equally hot hosts, no single move changes the global max.
	if dst.loadWith(dom.MemKiB, dom.VCPUs) >= hot.load() {
		return nil
	}
	return &Move{Domain: dom.Name, From: hot.sum.Host, To: dst.sum.Host,
		MemKiB: dom.MemKiB, VCPUs: dom.VCPUs}
}

// pickTarget returns the least-loaded up host (other than exclude) with
// enough free memory, or nil.
func pickTarget(sim []planHost, exclude string, memKiB uint64) *planHost {
	var best *planHost
	for i := range sim {
		ph := &sim[i]
		if !ph.up() || ph.sum.Host == exclude {
			continue
		}
		if ph.freeMem() < memKiB {
			continue
		}
		if best == nil || ph.load() < best.load() ||
			(ph.load() == best.load() && ph.sum.Host < best.sum.Host) {
			best = ph
		}
	}
	return best
}

// applyMove updates the simulated state as if the move completed,
// adjusting the summary aggregates in place.
func applyMove(sim []planHost, mv Move) {
	if src := findHost(sim, mv.From); src != nil {
		for i := range src.domains {
			if src.domains[i].Name == mv.Domain {
				if src.domains[i].Active() {
					src.sum.AllocMemKiB -= src.domains[i].MemKiB
					src.sum.AllocVCPUs -= src.domains[i].VCPUs
					src.sum.ActiveDomains--
				}
				src.sum.TotalDomains--
				src.domains = append(src.domains[:i], src.domains[i+1:]...)
				break
			}
		}
	}
	if dst := findHost(sim, mv.To); dst != nil {
		dst.domains = append(dst.domains, DomainRecord{
			Name: mv.Domain, State: core.DomainRunning, MemKiB: mv.MemKiB, VCPUs: mv.VCPUs,
		})
		dst.sum.AllocMemKiB += mv.MemKiB
		dst.sum.AllocVCPUs += mv.VCPUs
		dst.sum.ActiveDomains++
		dst.sum.TotalDomains++
	}
}

func findHost(sim []planHost, name string) *planHost {
	for i := range sim {
		if sim[i].sum.Host == name {
			return &sim[i]
		}
	}
	return nil
}

// Rebalance plans against the current inventory and executes the moves
// by live-migrating domains between daemons, at most opts.Concurrency at
// a time. Cancelling the context stops new moves from starting; moves
// already in flight run to completion so no domain is lost mid-copy.
func (r *Registry) Rebalance(ctx context.Context, opts RebalanceOptions) (RebalanceResult, error) {
	opts.applyDefaults()
	if opts.Drain != "" && r.hosts[opts.Drain] == nil {
		return RebalanceResult{}, core.Errorf(core.ErrInvalidArg,
			"fleet: unknown drain host %q", opts.Drain)
	}
	r.RefreshNow()
	moves, skewBefore, _, converged := PlanRebalance(r.Inventory(), opts)
	res := RebalanceResult{SkewBefore: skewBefore, Planned: moves, Converged: converged}

	sem := make(chan struct{}, opts.Concurrency)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	cancelled := false
	for _, mv := range moves {
		if ctx.Err() != nil {
			cancelled = true
			break
		}
		select {
		case <-ctx.Done():
			cancelled = true
		case sem <- struct{}{}:
		}
		if cancelled {
			break
		}
		wg.Add(1)
		go func(mv Move) {
			defer wg.Done()
			defer func() { <-sem }()
			rec := r.executeMove(ctx, mv, opts.Migrate)
			mu.Lock()
			res.Migrations = append(res.Migrations, rec)
			mu.Unlock()
			if opts.OnMigration != nil {
				opts.OnMigration(rec)
			}
		}(mv)
	}
	wg.Wait()

	touched := map[string]bool{}
	for _, rec := range res.Migrations {
		touched[rec.From] = true
		touched[rec.To] = true
	}
	names := make([]string, 0, len(touched))
	for name := range touched {
		names = append(names, name)
	}
	if len(names) > 0 {
		r.RefreshNow(names...)
	}
	res.SkewAfter = SkewSummaries(r.Summaries())
	if cancelled {
		res.Converged = false
		return res, ctx.Err()
	}
	for _, rec := range res.Migrations {
		if rec.Err != nil {
			res.Converged = false
		}
	}
	return res, nil
}

// executeMove drives one live migration between two fleet hosts. The
// rebalance context flows into the migration, so cancelling a rebalance
// aborts in-flight transfers cleanly (sources resume, destinations are
// undone).
func (r *Registry) executeMove(ctx context.Context, mv Move, opts core.MigrateOptions) MigrationRecord {
	rec := MigrationRecord{Domain: mv.Domain, From: mv.From, To: mv.To}
	srcConn, err := r.Host(mv.From)
	if err != nil {
		rec.Err = err
		fleetRebalanceFailures.Inc()
		return rec
	}
	dstConn, err := r.Host(mv.To)
	if err != nil {
		rec.Err = err
		fleetRebalanceFailures.Inc()
		return rec
	}
	dom, err := srcConn.LookupDomain(mv.Domain)
	if err != nil {
		rec.Err = err
		fleetRebalanceFailures.Inc()
		return rec
	}
	opts.UndefineSource = true
	rec.Result, rec.Err = migrate.MigrateContext(ctx, dom, dstConn, opts)
	if rec.Err != nil {
		fleetRebalanceFailures.Inc()
		r.log.LogAttrs(ctx, slog.LevelWarn, "migrate",
			slog.String("domain", mv.Domain), slog.String("from", mv.From), slog.String("to", mv.To),
			slog.Any("err", rec.Err))
	} else {
		fleetRebalanceMigrations.Inc()
		r.log.LogAttrs(ctx, slog.LevelInfo, "migrated",
			slog.String("domain", mv.Domain), slog.String("from", mv.From), slog.String("to", mv.To),
			slog.Float64("total_ms", rec.Result.TotalTimeMs()),
			slog.Float64("downtime_ms", rec.Result.DowntimeMs()))
	}
	return rec
}
