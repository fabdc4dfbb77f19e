package core

import "fmt"

// DomainState is the public domain lifecycle state.
type DomainState int

// Public domain states.
const (
	DomainNoState DomainState = iota
	DomainRunning
	DomainBlocked
	DomainPaused
	DomainShutdown
	DomainShutoff
	DomainCrashed
	DomainPMSuspended
)

var domainStateNames = map[DomainState]string{
	DomainNoState:     "no state",
	DomainRunning:     "running",
	DomainBlocked:     "blocked",
	DomainPaused:      "paused",
	DomainShutdown:    "in shutdown",
	DomainShutoff:     "shut off",
	DomainCrashed:     "crashed",
	DomainPMSuspended: "pmsuspended",
}

func (s DomainState) String() string {
	if n, ok := domainStateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// DomainMeta is the identity tuple of a domain handle.
type DomainMeta struct {
	Name string
	UUID string
	ID   int // positive while running, -1 otherwise
}

// DomainInfo is the classic compact info block.
type DomainInfo struct {
	State     DomainState
	MaxMemKiB uint64
	MemKiB    uint64
	VCPUs     int
	CPUTimeNs uint64
}

// DomainStats is the extended monitoring snapshot used by non-intrusive
// fleet monitoring: everything is collected hypervisor-side.
type DomainStats struct {
	State      DomainState
	CPUTimeNs  uint64
	MemKiB     uint64
	MaxMemKiB  uint64
	VCPUs      int
	RdBytes    uint64
	WrBytes    uint64
	RdReqs     uint64
	WrReqs     uint64
	RxBytes    uint64
	TxBytes    uint64
	RxPkts     uint64
	TxPkts     uint64
	DirtyPages uint64
}

// NodeInfo describes the host node a connection manages.
type NodeInfo struct {
	Model     string
	MemoryKiB uint64
	CPUs      int
	MHz       int
	NUMANodes int
	Sockets   int
	Cores     int
	Threads   int
}

// NamedDomainInfo pairs a domain name with its compact info block; the
// unit of bulk monitoring sweeps.
type NamedDomainInfo struct {
	Name string
	Info DomainInfo
}

// NodeInventory is a whole-host monitoring snapshot collected in one
// driver call: the node summary plus the info of every domain.
type NodeInventory struct {
	Node    NodeInfo
	Domains []NamedDomainInfo
}

// ListFlags selects which domains ListAllDomains returns.
type ListFlags int

// List filters; zero lists everything.
const (
	ListActive ListFlags = 1 << iota
	ListInactive
)

// MaxMigrateStreams caps a migration's parallel streams: the engine
// clamps ParallelStreams to it (beyond it the bandwidth model's returns
// are within noise), and a destination's MigratePrepare refuses more.
const MaxMigrateStreams = 64

// MigrateOptions tunes a live migration.
type MigrateOptions struct {
	BandwidthMBps  uint64 // transfer link bandwidth; 0 = 1000
	MaxDowntimeMs  uint64 // convergence target; 0 = 300
	MaxIterations  int    // pre-copy rounds before forced stop-and-copy; 0 = 30
	UndefineSource bool   // remove the source definition after success

	// ParallelStreams splits every copy round across N concurrent
	// transfer streams. Aggregate throughput grows monotonically with N
	// but is bounded by the link: each stream pays a fixed per-stream
	// protocol overhead, so the gain flattens as N rises. 0 = 1; above
	// MaxMigrateStreams is clamped to it.
	ParallelStreams int

	// AutoConverge progressively throttles the source vCPUs when the
	// dirty rate outruns effective bandwidth for consecutive rounds, so
	// otherwise non-convergent workloads still meet the downtime target.
	// The throttle is restored on switch-over or abort.
	AutoConverge bool

	// PostCopy switches execution to the destination after one pre-copy
	// round and fault-pulls missing pages on demand: downtime is bounded
	// by the switch-over handshake regardless of dirty rate, traded
	// against a longer total time and a pull-stream failure mode
	// (ErrPostCopy).
	PostCopy bool
}
