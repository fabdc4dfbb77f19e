package common

import (
	"sync"

	"repro/internal/core"
)

// sweepScratch holds the per-sweep working slices so repeated polls of
// the same host allocate nothing. Pooled entries retain at most one
// sweep's worth of record/name references, all owned by a Base anyway.
type sweepScratch struct {
	recs   []*record
	got    []bool
	active []string
	idx    []int
}

var sweepPool = sync.Pool{New: func() interface{} { return new(sweepScratch) }}

// InfoBatcher is an optional Hooks extension for drivers whose native
// layer can answer a whole monitoring sweep in one registry pass.
// InfoEach calls fn once per named guest still known natively, in input
// order; names that vanished mid-sweep are skipped. Drivers without it
// fall back to one Info call per guest.
type InfoBatcher interface {
	InfoEach(names []string, fn func(i int, info core.DomainInfo))
}

// DomainListInfo implements core.DriverConn: one registry pass under a
// single lock acquisition instead of a list + N lookups. Guests that
// vanish between the registry snapshot and the hypervisor query are
// skipped, matching the interface contract.
func (b *Base) DomainListInfo(flags core.ListFlags, names []string) ([]core.NamedDomainInfo, error) {
	return b.domainListInfo(flags, names, nil)
}

// domainListInfo appends the sweep's rows into dst (reusing its
// capacity) and returns the filled slice; DomainListInfo passes nil,
// NodeInventoryInto passes the retained inventory's rows.
func (b *Base) domainListInfo(flags core.ListFlags, names []string, dst []core.NamedDomainInfo) ([]core.NamedDomainInfo, error) {
	if err := b.beginOp("driver.op.bulkinfo"); err != nil {
		return nil, err
	}
	if flags == 0 {
		flags = core.ListActive | core.ListInactive
	}
	sc := sweepPool.Get().(*sweepScratch)
	defer sweepPool.Put(sc)

	// Snapshot matching records in one critical section, building the
	// result rows in place: inactive rows are final immediately, active
	// rows hold their name and get their info filled by the hypervisor
	// query below. recs parallels rows (nil = inactive/final) so the
	// sweep needs no separate entry scratch however large the fleet is.
	b.mu.Lock()
	rows := dst
	recs := sc.recs[:0]
	if len(names) > 0 {
		for _, n := range names {
			r, ok := b.defs[n]
			if !ok {
				continue
			}
			if r.active {
				rows = append(rows, core.NamedDomainInfo{Name: n})
				recs = append(recs, r)
			} else {
				rows = append(rows, core.NamedDomainInfo{Name: n, Info: b.inactiveInfo(r)})
				recs = append(recs, nil)
			}
		}
	} else {
		if cap(rows) < len(b.defs) {
			grown := make([]core.NamedDomainInfo, len(rows), len(b.defs))
			copy(grown, rows)
			rows = grown
		}
		for _, r := range b.order {
			if r.active && flags&core.ListActive == 0 {
				continue
			}
			if !r.active && flags&core.ListInactive == 0 {
				continue
			}
			if r.active {
				rows = append(rows, core.NamedDomainInfo{Name: r.name})
				recs = append(recs, r)
			} else {
				rows = append(rows, core.NamedDomainInfo{Name: r.name, Info: b.inactiveInfo(r)})
				recs = append(recs, nil)
			}
		}
		// Rows come out in definition order, not name order: sorting a
		// large fleet would cost more than the rest of the sweep, while
		// a STABLE order lets a polling client decode repeated sweeps
		// over its previous rows without re-allocating the unchanged
		// names. ListDomains remains the sorted view.
	}
	b.mu.Unlock()
	sc.recs = recs

	// Query the hypervisor outside the registry lock: in one batched
	// pass when the hooks support it, else one call per guest. A guest
	// that stopped between snapshot and query leaves got[i] false and is
	// compacted away below.
	if cap(sc.got) < len(rows) {
		sc.got = make([]bool, len(rows))
	}
	got := sc.got[:len(rows)]
	clear(got)
	if batcher, ok := b.hooks.(InfoBatcher); ok {
		active := sc.active[:0]
		idx := sc.idx[:0]
		for i := range rows {
			if recs[i] != nil {
				active = append(active, rows[i].Name)
				idx = append(idx, i)
			}
		}
		sc.active, sc.idx = active, idx
		if len(active) > 0 {
			batcher.InfoEach(active, func(i int, info core.DomainInfo) {
				rows[idx[i]].Info = info
				got[idx[i]] = true
			})
		}
	} else {
		for i := range rows {
			if recs[i] == nil {
				continue
			}
			if info, err := b.hooks.Info(rows[i].Name); err == nil {
				rows[i].Info = info
				got[i] = true
			}
		}
	}

	// Crash-transition bookkeeping for the whole sweep under one lock
	// (noteState would lock once per guest); events fire outside it.
	var crashed []*record
	b.mu.Lock()
	for i := range rows {
		if recs[i] != nil && got[i] && recs[i].crashed(rows[i].Info.State) {
			crashed = append(crashed, recs[i])
		}
	}
	b.mu.Unlock()
	for _, r := range crashed {
		b.announceCrash(r)
	}

	// Compact away vanished guests in place.
	w := 0
	for i := range rows {
		if recs[i] != nil && !got[i] {
			continue
		}
		rows[w] = rows[i]
		w++
	}
	return rows[:w], nil
}

// NodeInventoryInto implements core.DriverConn: the sweep rows are
// rebuilt inside inv's existing Domains capacity, so a steady-state
// poller (or the daemon answering one) allocates nothing per sweep.
func (b *Base) NodeInventoryInto(inv *core.NodeInventory) error {
	node, err := b.NodeInfo()
	if err != nil {
		return err
	}
	rows, err := b.domainListInfo(0, nil, inv.Domains[:0])
	if err != nil {
		return err
	}
	inv.Node, inv.Domains = node, rows
	return nil
}
