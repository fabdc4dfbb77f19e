// Package qemu implements the qsim driver: the uniform API translated
// into qsim's native JSON monitor protocol, one emulator process per
// guest. Every operation that changes the guest is a monitor command,
// mirroring how the original architecture drives QEMU through its
// monitor. Reads come from the emulator process's own accounting, as
// libvirt's qemuDomainGetInfo takes CPU time from /proc/<pid>/stat and
// vCPUs from the definition instead of asking the monitor.
package qemu

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/drivers/common"
	"repro/internal/hyper"
	"repro/internal/hyper/qsim"
	"repro/internal/logging"
	"repro/internal/nodeinfo"
	"repro/internal/uri"
	"repro/internal/xmlspec"
)

// hooks drives qsim through emulator monitors.
type hooks struct {
	mu  sync.Mutex
	hv  *qsim.Hypervisor
	emu map[string]*qsim.Emulator
}

func (h *hooks) Type() string             { return "qsim" }
func (h *hooks) Version() (string, error) { return h.hv.Version(), nil }
func (h *hooks) GuestOSType() string      { return "hvm" }

func (h *hooks) Start(def *xmlspec.Domain) error {
	cfg, err := common.DefToConfig(def)
	if err != nil {
		return err
	}
	h.mu.Lock()
	e, exists := h.emu[def.Name]
	h.mu.Unlock()
	if !exists {
		e, err = h.hv.Launch(cfg)
		if err != nil {
			return err
		}
		h.mu.Lock()
		h.emu[def.Name] = e
		h.mu.Unlock()
	}
	if err := e.Monitor().ExecuteCommand("system_boot", nil, nil); err != nil {
		// Boot failed: reap the process so a retry starts clean.
		h.mu.Lock()
		delete(h.emu, def.Name)
		h.mu.Unlock()
		h.hv.Quit(def.Name, true) //nolint:errcheck
		return err
	}
	return nil
}

func (h *hooks) monitor(name string) (*qsim.Monitor, error) {
	h.mu.Lock()
	e, ok := h.emu[name]
	h.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("qemu: no emulator process for %q", name)
	}
	return e.Monitor(), nil
}

func (h *hooks) Stop(name string, graceful bool) error {
	mon, err := h.monitor(name)
	if err != nil {
		return err
	}
	cmd := "quit"
	if graceful {
		cmd = "system_powerdown"
	}
	if err := mon.ExecuteCommand(cmd, nil, nil); err != nil {
		return err
	}
	// The guest is off: reap the emulator process, like QEMU exiting.
	h.mu.Lock()
	delete(h.emu, name)
	h.mu.Unlock()
	return h.hv.Quit(name, false)
}

func (h *hooks) Reboot(name string) error {
	mon, err := h.monitor(name)
	if err != nil {
		return err
	}
	return mon.ExecuteCommand("system_reset", nil, nil)
}

func (h *hooks) Suspend(name string) error {
	mon, err := h.monitor(name)
	if err != nil {
		return err
	}
	return mon.ExecuteCommand("stop", nil, nil)
}

func (h *hooks) Resume(name string) error {
	mon, err := h.monitor(name)
	if err != nil {
		return err
	}
	return mon.ExecuteCommand("cont", nil, nil)
}

func (h *hooks) Info(name string) (core.DomainInfo, error) {
	// Reads come from the emulator process's accounting, not the monitor.
	m, err := h.Machine(name)
	if err != nil {
		return core.DomainInfo{}, err
	}
	return common.InfoFromMachine(m.Stats()), nil
}

func (h *hooks) emulator(name string) (*qsim.Emulator, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e, ok := h.emu[name]
	return e, ok
}

func (h *hooks) Stats(name string) (core.DomainStats, error) {
	info, err := h.Info(name)
	if err != nil {
		return core.DomainStats{}, err
	}
	mon, err := h.monitor(name)
	if err != nil {
		return core.DomainStats{}, err
	}
	var blk struct {
		RdBytes uint64 `json:"rd_bytes"`
		WrBytes uint64 `json:"wr_bytes"`
		RdOps   uint64 `json:"rd_operations"`
		WrOps   uint64 `json:"wr_operations"`
	}
	if err := mon.ExecuteCommand("query-blockstats", nil, &blk); err != nil {
		return core.DomainStats{}, err
	}
	var nst struct {
		RxBytes uint64 `json:"rx_bytes"`
		TxBytes uint64 `json:"tx_bytes"`
		RxPkts  uint64 `json:"rx_packets"`
		TxPkts  uint64 `json:"tx_packets"`
	}
	if err := mon.ExecuteCommand("query-netstats", nil, &nst); err != nil {
		return core.DomainStats{}, err
	}
	return core.DomainStats{
		State:     info.State,
		CPUTimeNs: info.CPUTimeNs,
		MemKiB:    info.MemKiB,
		MaxMemKiB: info.MaxMemKiB,
		VCPUs:     info.VCPUs,
		RdBytes:   blk.RdBytes,
		WrBytes:   blk.WrBytes,
		RdReqs:    blk.RdOps,
		WrReqs:    blk.WrOps,
		RxBytes:   nst.RxBytes,
		TxBytes:   nst.TxBytes,
		RxPkts:    nst.RxPkts,
		TxPkts:    nst.TxPkts,
	}, nil
}

func (h *hooks) SetMemory(name string, kib uint64) error {
	mon, err := h.monitor(name)
	if err != nil {
		return err
	}
	return mon.ExecuteCommand("balloon", map[string]uint64{"value": kib * 1024}, nil)
}

func (h *hooks) SetVCPUs(name string, n int) error {
	mon, err := h.monitor(name)
	if err != nil {
		return err
	}
	return mon.ExecuteCommand("set-vcpus", map[string]int{"count": n}, nil)
}

func (h *hooks) ID(name string) int {
	e, ok := h.emulator(name)
	if !ok {
		return -1
	}
	return e.Machine().ID()
}

func (h *hooks) Machine(name string) (*hyper.Machine, error) {
	e, ok := h.emulator(name)
	if !ok {
		return nil, fmt.Errorf("qemu: no emulator process for %q", name)
	}
	return e.Machine(), nil
}

// New opens a qemu driver connection on a fresh qsim hypervisor. The
// shared-state variant (one hypervisor per process, as under a daemon) is
// provided by NewShared.
func New(u *uri.URI, log *logging.Logger) (core.DriverConn, error) {
	node, err := nodeinfo.NewNode("qsimhost", nodeinfo.ProfileServer)
	if err != nil {
		return nil, err
	}
	return NewOn(qsim.New(node), node, log), nil
}

// NewOn builds a driver connection over an existing hypervisor instance.
func NewOn(hv *qsim.Hypervisor, node *nodeinfo.Node, log *logging.Logger) core.DriverConn {
	h := &hooks{hv: hv, emu: make(map[string]*qsim.Emulator)}
	return common.New(h, common.Options{Node: node, Networks: true, Storage: true, Log: log})
}

// Register installs the qemu driver in the core registry under the
// "qsim" scheme.
func Register(log *logging.Logger) {
	core.Register("qsim", func(u *uri.URI) (core.DriverConn, error) {
		return New(u, log)
	})
}
