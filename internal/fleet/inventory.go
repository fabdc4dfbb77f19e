package fleet

import (
	"time"

	"repro/internal/core"
)

// DomainRecord is one domain's slice of a host inventory, carrying just
// what placement and rebalancing decisions need.
type DomainRecord struct {
	Name      string
	State     core.DomainState
	MemKiB    uint64
	MaxMemKiB uint64
	VCPUs     int
	CPUTimeNs uint64
}

// Active reports whether the domain currently occupies host resources.
func (d DomainRecord) Active() bool {
	switch d.State {
	case core.DomainRunning, core.DomainBlocked, core.DomainPaused, core.DomainPMSuspended:
		return true
	default:
		return false
	}
}

// HostInventory is a point-in-time view of one host: its capacity
// (nodeinfo) and the domains it carries, all collected non-intrusively
// through the uniform API. The registry refreshes it on the poll
// interval and immediately after any lifecycle event on the host.
type HostInventory struct {
	Host        string // registry name for the host
	URI         string
	State       HostState
	DriverType  string // server-side driver ("qsim", "test", ...)
	Node        core.NodeInfo
	Domains     []DomainRecord
	Gen         uint64 // increments on every refresh
	CollectedAt time.Time
}

// clone deep-copies the inventory so planners can mutate it freely.
func (inv *HostInventory) clone() HostInventory {
	out := *inv
	out.Domains = make([]DomainRecord, len(inv.Domains))
	copy(out.Domains, inv.Domains)
	return out
}

// HostSummary is the compact per-host aggregate the scheduler and
// rebalance planner work from: capacity and allocation totals, no
// per-domain records. The registry keeps one per host, recomputed in
// the same pass as each inventory refresh, so reading fleet-wide
// placement state is O(hosts) however many domains the fleet carries.
type HostSummary struct {
	Host          string
	URI           string
	State         HostState
	DriverType    string
	MemoryKiB     uint64 // node capacity
	CPUs          int
	AllocMemKiB   uint64 // memory of active domains
	AllocVCPUs    int    // vCPUs of active domains
	ActiveDomains int
	TotalDomains  int
	Gen           uint64
}

// Summary condenses the inventory into its per-host aggregate form.
func (inv *HostInventory) Summary() HostSummary {
	s := HostSummary{
		Host: inv.Host, URI: inv.URI, State: inv.State, DriverType: inv.DriverType,
		MemoryKiB: inv.Node.MemoryKiB, CPUs: inv.Node.CPUs,
		TotalDomains: len(inv.Domains), Gen: inv.Gen,
	}
	for i := range inv.Domains {
		if d := &inv.Domains[i]; d.Active() {
			s.ActiveDomains++
			s.AllocMemKiB += d.MemKiB
			s.AllocVCPUs += d.VCPUs
		}
	}
	return s
}

// addPlaced counts a placement whose record has not been collected yet
// as one more running domain sized by its request.
func (s *HostSummary) addPlaced(req Request) {
	s.ActiveDomains++
	s.TotalDomains++
	s.AllocMemKiB += req.MemKiB
	s.AllocVCPUs += req.VCPUs
}

// FreeMemKiB returns the unallocated host memory (0 when overcommitted).
func (s *HostSummary) FreeMemKiB() uint64 {
	if s.AllocMemKiB >= s.MemoryKiB {
		return 0
	}
	return s.MemoryKiB - s.AllocMemKiB
}

// MemLoad returns allocated memory as a fraction of host memory.
func (s *HostSummary) MemLoad() float64 {
	if s.MemoryKiB == 0 {
		return 0
	}
	return float64(s.AllocMemKiB) / float64(s.MemoryKiB)
}

// CPULoad returns allocated vCPUs as a fraction of host CPUs.
func (s *HostSummary) CPULoad() float64 {
	if s.CPUs == 0 {
		return 0
	}
	return float64(s.AllocVCPUs) / float64(s.CPUs)
}

// Load is the scalar load: the hotter of the memory and vCPU fractions.
func (s *HostSummary) Load() float64 {
	if m, c := s.MemLoad(), s.CPULoad(); m > c {
		return m
	} else {
		return c
	}
}

// SkewSummaries returns the load spread (hottest minus coldest) across
// the up hosts of a summary snapshot; 0 when fewer than two are up.
func SkewSummaries(sums []HostSummary) float64 {
	min, max, n := 0.0, 0.0, 0
	for i := range sums {
		if sums[i].State != HostUp {
			continue
		}
		l := sums[i].Load()
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
