package fleet

import (
	"testing"

	"repro/internal/core"
	"repro/internal/events"
)

// The tests below drive one host's cache through the interleavings a
// placement races with — watch events, a targeted fetch out on the
// wire, Schedule's own note — in a fixed order, with no daemon, and
// check that the summary counts the placed domain exactly once at every
// step.

const cacheVMKiB = 1024

// watchedHost returns a registry whose one host is up and watching,
// without starting the registry: nothing but the test touches its cache.
func watchedHost(t *testing.T) (*Registry, *host) {
	t.Helper()
	reg, err := New(Config{Hosts: []string{"test:///empty"}})
	if err != nil {
		t.Fatal(err)
	}
	h := reg.order[0]
	h.mu.Lock()
	h.state, h.inv.State, h.watching = HostUp, HostUp, true
	h.inv.Node = core.NodeInfo{MemoryKiB: 1 << 20, CPUs: 8}
	h.resum()
	reg.publishSum(h)
	h.mu.Unlock()
	return reg, h
}

func vmRow(st core.DomainState) core.NamedDomainInfo {
	info := core.DomainInfo{State: st, MaxMemKiB: cacheVMKiB, VCPUs: 1}
	if st == core.DomainRunning {
		info.MemKiB = cacheVMKiB
	}
	return core.NamedDomainInfo{Name: "vm", Info: info}
}

func event(reg *Registry, h *host, typ events.Type) {
	reg.applyWatchEvent(h, events.Event{Type: typ, Domain: "vm"})
}

// beginFetch sends the host's targeted fetch: it returns the names the
// fetch asks for, which its reply must later be applied against.
func beginFetch(h *host) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.takePending()
}

func place(reg *Registry, h *host) {
	reg.notePlacement(h.name, Request{Name: "vm", TypeName: "test", MemKiB: cacheVMKiB, VCPUs: 1})
}

// wantCounted checks the host's cached summary: active running domains,
// defined domains and the memory they hold.
func wantCounted(t *testing.T, reg *Registry, step string, active, total int) {
	t.Helper()
	s := reg.Summaries()[0]
	if s.ActiveDomains != active || s.TotalDomains != total || s.AllocMemKiB != uint64(active*cacheVMKiB) {
		t.Fatalf("%s: active %d total %d alloc %d KiB, want %d %d %d KiB",
			step, s.ActiveDomains, s.TotalDomains, s.AllocMemKiB, active, total, active*cacheVMKiB)
	}
}

func wantPending(t *testing.T, h *host, want bool) {
	t.Helper()
	h.mu.Lock()
	_, got := h.pending["vm"]
	h.mu.Unlock()
	if got != want {
		t.Fatalf("vm pending = %v, want %v", got, want)
	}
}

func TestPlacementAfterItsRecordCountsOnce(t *testing.T) {
	reg, h := watchedHost(t)
	event(reg, h, events.EventDefined)
	event(reg, h, events.EventStarted)
	names := beginFetch(h)
	reg.applyFetch(h, names, []core.NamedDomainInfo{vmRow(core.DomainRunning)})
	wantCounted(t, reg, "record landed", 1, 1)
	place(reg, h)
	wantCounted(t, reg, "placement noted after its record", 1, 1)
}

func TestStaleFetchAfterStartedEventIsDropped(t *testing.T) {
	reg, h := watchedHost(t)
	event(reg, h, events.EventDefined)
	names := beginFetch(h)
	event(reg, h, events.EventStarted) // the reply below predates this
	place(reg, h)
	wantCounted(t, reg, "placed, fetch out", 1, 1)
	reg.applyFetch(h, names, []core.NamedDomainInfo{vmRow(core.DomainShutoff)})
	wantCounted(t, reg, "stale reply", 1, 1)
	wantPending(t, h, true)
	names = beginFetch(h)
	reg.applyFetch(h, names, []core.NamedDomainInfo{vmRow(core.DomainRunning)})
	wantCounted(t, reg, "second reply", 1, 1)
}

func TestPlacementNewerThanFetchReply(t *testing.T) {
	reg, h := watchedHost(t)
	event(reg, h, events.EventDefined)
	names := beginFetch(h)
	place(reg, h)
	reg.applyFetch(h, names, []core.NamedDomainInfo{vmRow(core.DomainShutoff)})
	wantCounted(t, reg, "reply from before the start", 1, 1)
	wantPending(t, h, false)
	event(reg, h, events.EventStarted)
	wantCounted(t, reg, "started event", 1, 1)
	event(reg, h, events.EventStopped)
	wantCounted(t, reg, "stopped event", 0, 1)
}

func TestEventDuringFetchOutranksItsReply(t *testing.T) {
	reg, h := watchedHost(t)
	event(reg, h, events.EventDefined)
	reg.applyFetch(h, beginFetch(h), []core.NamedDomainInfo{vmRow(core.DomainShutoff)})
	event(reg, h, events.EventStarted)
	wantCounted(t, reg, "started", 1, 1)
	event(reg, h, events.EventDefined) // a redefinition sends it out again
	names := beginFetch(h)
	event(reg, h, events.EventStopped)
	reg.applyFetch(h, names, []core.NamedDomainInfo{vmRow(core.DomainRunning)})
	wantCounted(t, reg, "reply from before the stop", 0, 1)
	wantPending(t, h, true)
}

func TestStartedRecordChargesItsMaximum(t *testing.T) {
	reg, h := watchedHost(t)
	event(reg, h, events.EventDefined)
	reg.applyFetch(h, beginFetch(h), []core.NamedDomainInfo{vmRow(core.DomainShutoff)})
	wantCounted(t, reg, "defined", 0, 1)
	event(reg, h, events.EventStarted)
	wantCounted(t, reg, "started", 1, 1)
	event(reg, h, events.EventStopped)
	wantCounted(t, reg, "stopped", 0, 1)
}

func TestUndefineOfUnseenPlacement(t *testing.T) {
	reg, h := watchedHost(t)
	place(reg, h)
	wantCounted(t, reg, "placed", 1, 1)
	event(reg, h, events.EventUndefined)
	wantCounted(t, reg, "undefined", 0, 0)
}
