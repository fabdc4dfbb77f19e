package common

import (
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/hyper"
	"repro/internal/nodeinfo"
	"repro/internal/xmlspec"
)

func TestDefToConfig(t *testing.T) {
	cur := xmlspec.Memory{Unit: "MiB", Value: 512}
	def := &xmlspec.Domain{
		Type:          "test",
		Name:          "d",
		UUID:          "11111111-2222-3333-4444-555555555555",
		Description:   "cpu_util=0.75 dirty_pages_sec=1234 block_iops=55 net_pps=66 unrelated words",
		Memory:        xmlspec.Memory{Unit: "GiB", Value: 1},
		CurrentMemory: &cur,
		VCPU:          xmlspec.VCPU{Count: 3},
		Devices: xmlspec.Devices{
			Disks: []xmlspec.Disk{{Type: "file", Source: xmlspec.DiskSource{File: "/x"},
				Target: xmlspec.DiskTarget{Dev: "vda"}}},
			Interfaces: []xmlspec.Interface{{Type: "network",
				MAC:    &xmlspec.MAC{Address: "52:54:00:00:00:01"},
				Source: xmlspec.InterfaceSource{Network: "default"}}},
		},
	}
	cfg, err := DefToConfig(def)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "d" || cfg.VCPUs != 3 {
		t.Fatalf("%+v", cfg)
	}
	if cfg.MaxMemKiB != 1024*1024 || cfg.MemKiB != 512*1024 {
		t.Fatalf("memory: max=%d cur=%d", cfg.MaxMemKiB, cfg.MemKiB)
	}
	if cfg.CPUUtil != 0.75 || cfg.DirtyPagesSec != 1234 || cfg.BlockIOPS != 55 || cfg.NetPPS != 66 {
		t.Fatalf("workload hints: %+v", cfg)
	}
	if len(cfg.Disks) != 1 || cfg.Disks[0].Target != "vda" {
		t.Fatalf("disks: %+v", cfg.Disks)
	}
	if len(cfg.NICs) != 1 || cfg.NICs[0].MAC != "52:54:00:00:00:01" || cfg.NICs[0].Network != "default" {
		t.Fatalf("nics: %+v", cfg.NICs)
	}
	if cfg.UUID.IsNil() {
		t.Fatal("uuid not propagated")
	}
}

func TestDefToConfigBadMemoryUnit(t *testing.T) {
	def := &xmlspec.Domain{
		Type: "test", Name: "d",
		Memory: xmlspec.Memory{Unit: "XB", Value: 1},
		VCPU:   xmlspec.VCPU{Count: 1},
	}
	if _, err := DefToConfig(def); err == nil {
		t.Fatal("bad unit accepted")
	}
}

func TestApplyWorkloadHintsIgnoresMalformed(t *testing.T) {
	var cfg hyper.Config
	applyWorkloadHints(&cfg, "cpu_util=notanumber dirty_pages_sec= block_iops net_pps=10")
	if cfg.NetPPS != 10 {
		t.Fatalf("good hint lost: %+v", cfg)
	}
	if cfg.BlockIOPS != 0 || cfg.DirtyPagesSec != 0 {
		t.Fatalf("malformed hints applied: %+v", cfg)
	}
	// A value with trailing garbage is malformed too, not read up to it.
	var trailing hyper.Config
	applyWorkloadHints(&trailing, "net_pps=10x cpu_util=0.5.1 block_iops=7")
	if trailing.NetPPS != 0 || trailing.CPUUtil != 0 || trailing.BlockIOPS != 7 {
		t.Fatalf("trailing garbage applied: %+v", trailing)
	}
}

// TestApplyWorkloadHintsAllocs pins parsing a well-formed description
// without allocating.
func TestApplyWorkloadHintsAllocs(t *testing.T) {
	var cfg hyper.Config
	desc := "bench guest\tcpu_util=0.25 dirty_pages_sec=2000\nblock_iops=150 net_pps=10"
	if got := testing.AllocsPerRun(100, func() { applyWorkloadHints(&cfg, desc) }); got != 0 {
		t.Errorf("%.1f allocs per parse, want 0", got)
	}
	if cfg.CPUUtil != 0.25 || cfg.DirtyPagesSec != 2000 || cfg.BlockIOPS != 150 || cfg.NetPPS != 10 {
		t.Fatalf("hints not applied: %+v", cfg)
	}
}

func TestStateMapping(t *testing.T) {
	cases := map[hyper.State]core.DomainState{
		hyper.StateRunning:     core.DomainRunning,
		hyper.StatePaused:      core.DomainPaused,
		hyper.StateShutdown:    core.DomainShutdown,
		hyper.StateShutoff:     core.DomainShutoff,
		hyper.StateCrashed:     core.DomainCrashed,
		hyper.StatePMSuspended: core.DomainPMSuspended,
		hyper.State(99):        core.DomainNoState,
	}
	for in, want := range cases {
		if got := StateFromHyper(in); got != want {
			t.Errorf("StateFromHyper(%v)=%v want %v", in, got, want)
		}
	}
}

func TestStatsAndInfoFromMachine(t *testing.T) {
	st := hyper.Stats{
		State: hyper.StateRunning, CPUTimeNs: 1, MemKiB: 2, MaxMemKiB: 3, VCPUs: 4,
		RdBytes: 5, WrBytes: 6, RdReqs: 7, WrReqs: 8,
		RxBytes: 9, TxBytes: 10, RxPkts: 11, TxPkts: 12, DirtyPages: 13,
	}
	stats := StatsFromMachine(st)
	if stats.State != core.DomainRunning || stats.CPUTimeNs != 1 || stats.DirtyPages != 13 ||
		stats.RdBytes != 5 || stats.TxPkts != 12 {
		t.Fatalf("%+v", stats)
	}
	info := InfoFromMachine(st)
	if info.State != core.DomainRunning || info.MaxMemKiB != 3 || info.MemKiB != 2 ||
		info.VCPUs != 4 || info.CPUTimeNs != 1 {
		t.Fatalf("%+v", info)
	}
}

func TestMarkCrashedEmitsEvent(t *testing.T) {
	// Minimal hooks: nothing is called for MarkCrashed.
	b := New(nopHooks{}, Options{Node: testNode(t)})
	col := events.NewCollector()
	b.EventBus().Subscribe("", nil, col.Callback())
	if _, err := b.DefineDomain(`<domain type='nop'><name>d</name><memory>1024</memory><vcpu>1</vcpu><os><type>hvm</type></os></domain>`); err != nil {
		t.Fatal(err)
	}
	b.MarkCrashed("d")
	b.MarkCrashed("ghost") // unknown: silently ignored
	evs := col.Events()
	var crashes int
	for _, ev := range evs {
		if ev.Type == events.EventCrashed {
			crashes++
			if ev.Domain != "d" || ev.UUID == "" {
				t.Fatalf("crash event %+v", ev)
			}
		}
	}
	if crashes != 1 {
		t.Fatalf("crash events: %d", crashes)
	}
}

// nopHooks is a do-nothing Hooks implementation for Base unit tests.
type nopHooks struct{}

func (nopHooks) Type() string                           { return "nop" }
func (nopHooks) Version() (string, error)               { return "nop 1", nil }
func (nopHooks) GuestOSType() string                    { return "hvm" }
func (nopHooks) Start(*xmlspec.Domain) error            { return nil }
func (nopHooks) Stop(string, bool) error                { return nil }
func (nopHooks) Reboot(string) error                    { return nil }
func (nopHooks) Suspend(string) error                   { return nil }
func (nopHooks) Resume(string) error                    { return nil }
func (nopHooks) Info(string) (core.DomainInfo, error)   { return core.DomainInfo{}, nil }
func (nopHooks) Stats(string) (core.DomainStats, error) { return core.DomainStats{}, nil }
func (nopHooks) SetMemory(string, uint64) error         { return nil }
func (nopHooks) SetVCPUs(string, int) error             { return nil }
func (nopHooks) ID(string) int                          { return 1 }
func (nopHooks) Machine(string) (*hyper.Machine, error) { return nil, nil }

func testNode(t *testing.T) *nodeinfo.Node {
	t.Helper()
	n, err := nodeinfo.NewNode("unit", nodeinfo.ProfileLaptop)
	if err != nil {
		t.Fatal(err)
	}
	return n
}
