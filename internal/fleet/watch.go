package fleet

// Watch-driven reconciliation. The registry does not poll a host whose
// driver can push: each host connection opens a server-push watch stream
// (core.Connect.WatchEvents) and lifecycle events patch the cached
// inventory and summary directly, so a change on a daemon is visible to
// the scheduler one event-hop later with no RPC issued. The periodic
// service turn degenerates to a traffic-free liveness check; a full
// sweep runs only on (re)connect, on an explicit RefreshNow, or when
// the stream reports a sequence gap — and however many gaps pile up
// between turns, the host owes exactly one resync sweep.
//
// Events that cannot produce a complete record on their own (defined,
// started-while-unknown, migrated: the event carries no sizing) park
// the domain on a pending set; the next service turn resolves the whole
// set with one targeted bulk DomainListInfo call.

import (
	"context"
	"log/slog"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/events"
)

// WatchStats is a point-in-time snapshot of the registry's reconcile
// accounting. Tests assert the watch-mode guarantees against it — a
// quiesced fleet performs zero sweeps across a poll window, a lifecycle
// change lands without one — because unlike the process-global
// telemetry counters it is scoped to a single Registry.
type WatchStats struct {
	Sweeps          uint64 // full inventory sweeps (connect, poll, resync)
	WatchEvents     uint64 // events folded into cached state
	Resyncs         uint64 // sweeps owed to detected stream gaps
	TargetedFetches uint64 // bulk fetches for event-incomplete records
}

// WatchStats returns the registry's reconcile accounting.
func (r *Registry) WatchStats() WatchStats {
	return WatchStats{
		Sweeps:          r.nSweeps.Load(),
		WatchEvents:     r.nEvents.Load(),
		Resyncs:         r.nResyncs.Load(),
		TargetedFetches: r.nFetches.Load(),
	}
}

// startWatch opens the host's watch stream on a fresh connection.
// Events patch the cached inventory in place; frame loss and queue
// overflow surface through the handler's gap flag and are answered with
// one bulk resync. A driver that answers ErrNoSupport delivers no events
// at all: the host stays un-watched and Registry.service sweeps it every
// PollInterval. Any other error is returned so the caller tears the
// connection down and retries with backoff instead of running blind.
func (r *Registry) startWatch(h *host, conn *core.Connect) error {
	handle, err := conn.WatchEvents("", nil, func(ev events.Event, gap bool) {
		r.onWatchEvent(h, ev, gap)
	})
	if err != nil {
		if core.IsCode(err, core.ErrNoSupport) {
			return nil
		}
		return err
	}
	h.mu.Lock()
	h.watch = handle
	h.watching = true
	h.needResync = false
	h.pending = nil
	h.mu.Unlock()
	return nil
}

// serviceWatch is one watch-mode service turn. Steady state costs no
// RPC at all: the turn checks transport liveness from client-side
// state, performs the one owed resync sweep if a gap was detected,
// drains the targeted-fetch set, and sleeps another PollInterval.
func (r *Registry) serviceWatch(h *host, conn *core.Connect) time.Time {
	if !conn.Alive() {
		conn.Close() //nolint:errcheck
		r.setDown(h, core.Errorf(core.ErrConnectionClosed, "fleet: watch transport lost"))
		return r.now() // reconnect immediately once
	}
	h.mu.Lock()
	resync := h.needResync
	h.needResync = false
	var names []string
	if resync {
		h.pending = nil // the full sweep supersedes targeted fetches
	} else if len(h.pending) > 0 {
		names = h.takePending()
	}
	h.mu.Unlock()

	var err error
	switch {
	case resync:
		r.nResyncs.Add(1)
		fleetWatchResyncs.Inc()
		err = r.refresh(h, conn)
	case len(names) > 0:
		err = r.fetchPending(h, conn, names)
	default:
		return r.now().Add(r.cfg.PollInterval) // idle: zero RPC
	}
	if err == nil {
		return r.now().Add(r.cfg.PollInterval)
	}
	if core.IsCode(err, core.ErrOverloaded) {
		// Admission rejected the reconcile before dispatch: nothing was
		// applied, so owe the host a sweep (the drained pending set must
		// not be lost) and back off by the server's hint — without
		// touching the connection or the watch stream.
		h.mu.Lock()
		h.needResync = true
		h.mu.Unlock()
		return r.overloadDelay(h, err)
	}
	if hostFailed(err) {
		conn.Close() //nolint:errcheck
		r.setDown(h, err)
		return r.now()
	}
	// Transient operation error: owe the host a sweep instead of
	// trusting whatever state the half-finished reconcile left behind.
	r.log.LogAttrs(context.TODO(), slog.LevelWarn, "watch reconcile",
		slog.String("host", h.name), slog.Any("err", err))
	h.mu.Lock()
	h.needResync = true
	h.mu.Unlock()
	return r.now().Add(r.cfg.PollInterval)
}

// onWatchEvent is the watch-stream callback. It runs on the
// connection's event-delivery goroutine and must not block, so it only
// patches cached state and pulls the host's service turn forward.
func (r *Registry) onWatchEvent(h *host, ev events.Event, gap bool) {
	if gap {
		fleetWatchGaps.Inc()
		h.mu.Lock()
		if h.watching {
			h.needResync = true
		}
		h.mu.Unlock()
		r.pokeHost(h)
		if ev.Type == 0 {
			return // heartbeat-revealed gap carries no event to apply
		}
	}
	r.nEvents.Add(1)
	fleetWatchEvents.Inc()
	r.applyWatchEvent(h, ev)
}

// applyWatchEvent folds one lifecycle event into the host's cached
// inventory and summary — the one-event-hop path: by the time the
// handler returns, Summaries reflects the change and no RPC was issued.
func (r *Registry) applyWatchEvent(h *host, ev events.Event) {
	h.mu.Lock()
	if !h.watching || h.state != HostUp {
		h.mu.Unlock()
		return // stream outlived the host's up-phase; resync covers it
	}
	h.patchGen++
	changed, unknown := false, false
	switch ev.Type {
	case events.EventUndefined:
		removed := h.removeRecord(ev.Domain)
		changed = h.unplace(ev.Domain) || removed
	case events.EventStopped, events.EventShutdown:
		changed, unknown = h.patchState(ev.Domain, core.DomainShutoff)
	case events.EventCrashed:
		changed, unknown = h.patchState(ev.Domain, core.DomainCrashed)
	case events.EventSuspended:
		changed, unknown = h.patchState(ev.Domain, core.DomainPaused)
	case events.EventResumed, events.EventStarted:
		changed, unknown = h.patchState(ev.Domain, core.DomainRunning)
	default:
		// Defined, migrated, or a future type: the record's sizing
		// cannot be derived from the event alone.
		unknown = true
	}
	// A domain whose fetch is in flight is fetched again: the reply
	// may predate this event.
	fetch := ev.Domain != "" && (unknown || h.inFetch(ev.Domain))
	if fetch {
		h.requeue(ev.Domain)
	}
	if changed {
		h.inv.Gen++
		h.sum.Gen = h.inv.Gen
		r.publishSum(h)
	}
	h.mu.Unlock()
	if fetch {
		r.pokeHost(h)
	}
}

// fetchPending resolves domains whose events alone couldn't produce a
// full record: one bulk DomainListInfo call for exactly those names,
// merged into the cached inventory. Names the host no longer reports
// are treated as undefined. A name touched while the call was out is
// back on pending; its row may predate the touch, so it is not applied.
func (r *Registry) fetchPending(h *host, conn *core.Connect, names []string) error {
	r.nFetches.Add(1)
	fleetWatchFetches.Inc()
	d := conn.Driver()
	var rows []core.NamedDomainInfo
	err := retryRead(func() (err error) {
		rows, err = d.DomainListInfo(0, names)
		return err
	})
	if err != nil {
		h.mu.Lock()
		h.fetching = nil
		h.mu.Unlock()
		return err
	}
	r.applyFetch(h, names, rows)
	return nil
}

// takePending drains the pending set into the sorted names of the
// targeted fetch about to leave, and marks them in flight. Caller holds
// h.mu.
func (h *host) takePending() []string {
	names := make([]string, 0, len(h.pending))
	for n := range h.pending {
		names = append(names, n)
	}
	sort.Strings(names)
	h.pending = nil
	h.fetching = names
	return names
}

// applyFetch merges a targeted fetch's rows for names into the cache.
func (r *Registry) applyFetch(h *host, names []string, rows []core.NamedDomainInfo) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fetching = nil
	got := make(map[string]core.DomainInfo, len(rows))
	for _, row := range rows {
		got[row.Name] = row.Info
	}
	for _, name := range names {
		p, placed := h.placed[name]
		if _, again := h.pending[name]; again {
			if p.midFetch {
				p.midFetch = false // the next fetch leaves after the start
				h.placed[name] = p
			}
			continue
		}
		delete(h.placed, name)
		info, ok := got[name]
		if !ok {
			h.removeRecord(name)
			continue
		}
		rec := DomainRecord{
			Name: name, State: info.State, MemKiB: info.MemKiB,
			MaxMemKiB: info.MaxMemKiB, VCPUs: info.VCPUs, CPUTimeNs: info.CPUTimeNs,
		}
		if placed && p.midFetch && !rec.Active() {
			// The answer predates Schedule's start; the Started event
			// that follows it would find the record already running.
			rec.State = core.DomainRunning
			if rec.MemKiB == 0 {
				rec.MemKiB = rec.MaxMemKiB
			}
		}
		h.upsertRecord(rec)
	}
	h.inv.Gen++
	h.inv.CollectedAt = time.Now()
	h.resum()
	r.publishSum(h)
}

// inFetch reports whether the targeted fetch in flight asks for name.
// Caller holds h.mu.
func (h *host) inFetch(name string) bool {
	i := sort.SearchStrings(h.fetching, name)
	return i < len(h.fetching) && h.fetching[i] == name
}

// requeue puts name on the pending set for the next targeted fetch.
// Caller holds h.mu.
func (h *host) requeue(name string) {
	if h.pending == nil {
		h.pending = make(map[string]struct{})
	}
	h.pending[name] = struct{}{}
}

// unplace drops the name's placement and recomputes the summary,
// reporting whether there was one. Caller holds h.mu.
func (h *host) unplace(name string) bool {
	if _, ok := h.placed[name]; !ok {
		return false
	}
	delete(h.placed, name)
	h.resum()
	return true
}

// recordIndex returns the domain's position in h.inv.Domains, building
// the name index lazily on the first patch after each sweep (sweeps
// replace the record slice wholesale and simply drop the index).
// Caller holds h.mu.
func (h *host) recordIndex(name string) int {
	if h.recIdx == nil {
		h.recIdx = make(map[string]int, len(h.inv.Domains))
		for i := range h.inv.Domains {
			h.recIdx[h.inv.Domains[i].Name] = i
		}
	}
	if i, ok := h.recIdx[name]; ok {
		return i
	}
	return -1
}

// patchState flips a known record to the given state, maintaining the
// summary's allocation aggregates incrementally; unknown reports that
// no record exists (the caller schedules a targeted fetch). Caller
// holds h.mu.
func (h *host) patchState(name string, st core.DomainState) (changed, unknown bool) {
	i := h.recordIndex(name)
	if i < 0 {
		return false, true
	}
	rec := &h.inv.Domains[i]
	if rec.State == st {
		return false, false
	}
	wasActive := rec.Active()
	rec.State = st
	if isActive := rec.Active(); isActive != wasActive {
		// Drivers report no current memory for an inactive domain, and
		// an event carries none: a started domain is charged its
		// maximum until its next fetch or sweep says otherwise.
		if isActive {
			if rec.MemKiB == 0 {
				rec.MemKiB = rec.MaxMemKiB
			}
			h.sum.ActiveDomains++
			h.sum.AllocMemKiB += rec.MemKiB
			h.sum.AllocVCPUs += rec.VCPUs
		} else {
			h.sum.ActiveDomains--
			h.sum.AllocMemKiB -= rec.MemKiB
			h.sum.AllocVCPUs -= rec.VCPUs
			rec.MemKiB = 0
		}
	}
	return true, false
}

// removeRecord deletes a domain's record (swap-delete; record order is
// not meaningful) and rolls its contribution out of the summary.
// Caller holds h.mu.
func (h *host) removeRecord(name string) bool {
	i := h.recordIndex(name)
	if i < 0 {
		return false
	}
	rec := h.inv.Domains[i]
	if rec.Active() {
		h.sum.ActiveDomains--
		h.sum.AllocMemKiB -= rec.MemKiB
		h.sum.AllocVCPUs -= rec.VCPUs
	}
	h.sum.TotalDomains--
	last := len(h.inv.Domains) - 1
	if i != last {
		h.inv.Domains[i] = h.inv.Domains[last]
		h.recIdx[h.inv.Domains[i].Name] = i
	}
	h.inv.Domains = h.inv.Domains[:last]
	delete(h.recIdx, name)
	return true
}

// upsertRecord installs a freshly fetched row, replacing any existing
// record for the name. The caller recomputes h.sum wholesale
// afterwards, so no aggregate maintenance happens here. Caller holds
// h.mu.
func (h *host) upsertRecord(rec DomainRecord) {
	if i := h.recordIndex(rec.Name); i >= 0 {
		h.inv.Domains[i] = rec
		return
	}
	h.inv.Domains = append(h.inv.Domains, rec)
	h.recIdx[rec.Name] = len(h.inv.Domains) - 1
}
