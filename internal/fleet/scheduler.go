package fleet

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/xmlspec"
)

// Request is the resource ask extracted from a domain definition: what
// the scheduler needs to know to place it.
type Request struct {
	Name     string
	TypeName string // hypervisor type attribute ("test", "qsim", ...)
	MemKiB   uint64
	VCPUs    int
}

// ParseRequest extracts a placement request from domain XML, validating
// the definition the same way define would so a bad document fails
// before any host is touched.
func ParseRequest(xmlDesc string) (Request, error) {
	def, err := xmlspec.ParseDomain([]byte(xmlDesc))
	if err != nil {
		return Request{}, core.Errorf(core.ErrXML, "%v", err)
	}
	memKiB, err := def.Memory.KiB()
	if err != nil {
		return Request{}, core.Errorf(core.ErrXML, "%v", err)
	}
	vcpus := int(def.VCPU.Count)
	if vcpus <= 0 {
		vcpus = 1
	}
	return Request{Name: def.Name, TypeName: def.Type, MemKiB: memKiB, VCPUs: vcpus}, nil
}

// Policy scores candidate hosts for a request; the scheduler places on
// the highest-scoring host and falls through the ranking on failure.
// Score is only called for hosts that passed the capability and
// capacity filters. Policies see the compact per-host summary, never
// the per-domain records, so scoring stays O(1) per host and the
// scheduler never has to materialize full inventories.
type Policy interface {
	Name() string
	Score(req Request, sum *HostSummary) float64
}

type policyFunc struct {
	name  string
	score func(req Request, sum *HostSummary) float64
}

func (p policyFunc) Name() string                                { return p.name }
func (p policyFunc) Score(req Request, sum *HostSummary) float64 { return p.score(req, sum) }

// Spread prefers the least-loaded host, keeping headroom everywhere —
// the default policy.
func Spread() Policy {
	return policyFunc{name: "spread", score: func(req Request, sum *HostSummary) float64 {
		return 1 - loadAfter(req, sum)
	}}
}

// Pack prefers the most-loaded host that still fits, consolidating the
// fleet onto few hosts so the rest can be drained or powered down.
func Pack() Policy {
	return policyFunc{name: "pack", score: func(req Request, sum *HostSummary) float64 {
		return loadAfter(req, sum)
	}}
}

// Weighted scores free capacity with explicit cpu/memory weights; with
// equal weights it behaves like Spread but lets operators bias toward
// whichever resource their workloads contend on.
func Weighted(cpuWeight, memWeight float64) Policy {
	name := fmt.Sprintf("weighted(cpu=%g,mem=%g)", cpuWeight, memWeight)
	return policyFunc{name: name, score: func(req Request, sum *HostSummary) float64 {
		memFree := 1 - sum.MemLoad()
		cpuFree := 1 - sum.CPULoad()
		return (cpuWeight*cpuFree + memWeight*memFree) / (cpuWeight + memWeight)
	}}
}

// PolicyByName resolves the textual policy names used by config files
// and the CLI.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", "spread":
		return Spread(), nil
	case "pack":
		return Pack(), nil
	case "weighted":
		return Weighted(1, 1), nil
	default:
		return nil, core.Errorf(core.ErrInvalidArg, "fleet: unknown policy %q", name)
	}
}

// loadAfter projects the host's scalar load as if the request were
// already placed there.
func loadAfter(req Request, sum *HostSummary) float64 {
	mem, cpu := sum.MemLoad(), sum.CPULoad()
	if sum.MemoryKiB > 0 {
		mem += float64(req.MemKiB) / float64(sum.MemoryKiB)
	}
	if sum.CPUs > 0 {
		cpu += float64(req.VCPUs) / float64(sum.CPUs)
	}
	if mem > cpu {
		return mem
	}
	return cpu
}

// eligible reports whether a host summary can take the request: up,
// matching driver capability, and with enough free memory.
func eligible(req Request, sum *HostSummary) bool {
	if sum.State != HostUp {
		return false
	}
	if req.TypeName != "" && sum.DriverType != "" && sum.DriverType != req.TypeName {
		return false
	}
	return sum.FreeMemKiB() >= req.MemKiB
}

// CandidateSummaries filters a summary snapshot down to the hosts that
// can take the request. It is a pure function so policies can be
// unit-tested and benchmarked on synthetic summaries.
func CandidateSummaries(req Request, sums []HostSummary) []HostSummary {
	out := make([]HostSummary, 0, len(sums))
	for i := range sums {
		if eligible(req, &sums[i]) {
			out = append(out, sums[i])
		}
	}
	return out
}

// RankSummaries orders the candidate hosts for a request best-first
// under the given policy: O(hosts) filtering and scoring plus the sort,
// with no per-domain work at all. Ties break on host name so rankings
// are deterministic.
func RankSummaries(p Policy, req Request, sums []HostSummary) []string {
	type scored struct {
		host  string
		score float64
	}
	rows := make([]scored, 0, len(sums))
	for i := range sums {
		if eligible(req, &sums[i]) {
			rows = append(rows, scored{sums[i].Host, p.Score(req, &sums[i])})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].score != rows[j].score {
			return rows[i].score > rows[j].score
		}
		return rows[i].host < rows[j].host
	})
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = row.host
	}
	return out
}

// Placement reports where Schedule put a domain and what it took to get
// there.
type Placement struct {
	Domain      *core.Domain
	Host        string
	Attempts    int
	FailedHosts []string // hosts that died mid-placement and were retried past
}

// Schedule places the domain described by xmlDesc on the best host under
// the registry's policy: rank the up hosts, then define+start on each in
// order until one succeeds. A host failing with a retryable (host-level)
// error is marked down and the next candidate is tried; an operation
// error (duplicate name, invalid XML) aborts immediately since it would
// fail identically everywhere.
func (r *Registry) Schedule(xmlDesc string) (Placement, error) {
	start := time.Now()
	req, err := ParseRequest(xmlDesc)
	if err != nil {
		fleetPlacementFailures.Inc()
		return Placement{}, err
	}
	// Score the eligible hosts in one pass over the score cache, then
	// select best-first by linear scan: the normal case tries one host,
	// so a full O(n log n) sort of the fleet (the dominant cost at 1,000
	// hosts) buys nothing.
	type cand struct {
		host  string
		score float64
	}
	r.sumMu.RLock()
	cands := make([]cand, 0, len(r.sums))
	for i := range r.sums {
		if eligible(req, &r.sums[i]) {
			cands = append(cands, cand{r.sums[i].Host, r.cfg.Policy.Score(req, &r.sums[i])})
		}
	}
	r.sumMu.RUnlock()
	if len(cands) == 0 {
		fleetPlacementFailures.Inc()
		return Placement{}, core.Errorf(core.ErrOperationInvalid,
			"fleet: no host can take %q (%d KiB, %d vcpus)", req.Name, req.MemKiB, req.VCPUs)
	}

	var p Placement
	for len(cands) > 0 {
		best := 0
		for i := 1; i < len(cands); i++ {
			if cands[i].score > cands[best].score ||
				(cands[i].score == cands[best].score && cands[i].host < cands[best].host) {
				best = i
			}
		}
		hostName := cands[best].host
		cands[best] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]

		p.Attempts++
		dom, err := r.placeOn(hostName, xmlDesc)
		if err != nil {
			if hostFailed(err) {
				r.log.LogAttrs(context.TODO(), slog.LevelWarn, "placement failed, trying next host",
					slog.String("domain", req.Name), slog.String("host", hostName), slog.Any("err", err))
				r.markDown(hostName, err)
				p.FailedHosts = append(p.FailedHosts, hostName)
				fleetPlacementRetries.Inc()
				continue
			}
			fleetPlacementFailures.Inc()
			return p, err
		}
		p.Domain = dom
		p.Host = hostName
		fleetPlacements.Inc()
		fleetPlacementLatency.Observe(time.Since(start))
		r.notePlacement(hostName, req)
		return p, nil
	}
	fleetPlacementFailures.Inc()
	return p, core.Errorf(core.ErrHostUnreachable,
		"fleet: all %d candidate hosts failed while placing %q", p.Attempts, req.Name)
}

// placeOn runs the define+start pair on one host. If start fails for a
// non-host reason the define is rolled back so retries elsewhere don't
// leave orphans behind.
func (r *Registry) placeOn(hostName, xmlDesc string) (*core.Domain, error) {
	conn, err := r.Host(hostName)
	if err != nil {
		return nil, err
	}
	dom, err := conn.DefineDomain(xmlDesc)
	if err != nil {
		return nil, err
	}
	if r.hookAfterDefine != nil {
		r.hookAfterDefine(hostName)
	}
	if err := dom.Create(); err != nil {
		if !hostFailed(err) {
			_ = dom.Undefine() // best effort; the host is still healthy
		}
		return nil, err
	}
	return dom, nil
}
