// Package test implements the mock driver: a fully functional local
// driver backed directly by the simulation substrate, with a canned
// "default" environment. Like its namesake in the original architecture
// it exists so management applications and the daemon can be exercised
// without any hypervisor.
package test

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/drivers/common"
	"repro/internal/hyper"
	"repro/internal/logging"
	"repro/internal/nodeinfo"
	"repro/internal/uri"
	"repro/internal/xmlspec"
)

// hooks implements common.Hooks directly on a hyper.Host.
type hooks struct {
	mu   sync.Mutex
	host *hyper.Host
}

func (h *hooks) Type() string             { return "test" }
func (h *hooks) Version() (string, error) { return "test 1.0", nil }
func (h *hooks) GuestOSType() string      { return "hvm" }

func (h *hooks) Start(def *xmlspec.Domain) error {
	cfg, err := common.DefToConfig(def)
	if err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, exists := h.host.Machine(def.Name); !exists {
		m, err := hyper.NewMachine(cfg)
		if err != nil {
			return err
		}
		if err := h.host.AddMachine(m); err != nil {
			return err
		}
	}
	return h.host.StartMachine(def.Name)
}

func (h *hooks) machine(name string) (*hyper.Machine, error) {
	m, ok := h.host.Machine(name)
	if !ok {
		return nil, fmt.Errorf("test: no native machine %q", name)
	}
	return m, nil
}

func (h *hooks) Stop(name string, graceful bool) error {
	m, err := h.machine(name)
	if err != nil {
		return err
	}
	if graceful {
		if err := m.Shutdown(); err != nil {
			return err
		}
	} else if err := m.Destroy(); err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.host.RemoveMachine(name)
}

func (h *hooks) Reboot(name string) error {
	m, err := h.machine(name)
	if err != nil {
		return err
	}
	return m.Reboot()
}

func (h *hooks) Suspend(name string) error {
	m, err := h.machine(name)
	if err != nil {
		return err
	}
	return m.Pause()
}

func (h *hooks) Resume(name string) error {
	m, err := h.machine(name)
	if err != nil {
		return err
	}
	return m.Resume()
}

func (h *hooks) Info(name string) (core.DomainInfo, error) {
	m, err := h.machine(name)
	if err != nil {
		return core.DomainInfo{}, err
	}
	return common.InfoFromMachine(m.Stats()), nil
}

// InfoEach implements common.InfoBatcher: one registry pass answers a
// whole monitoring sweep instead of a lock + lookup per guest, and each
// machine contributes only the monitoring fields instead of a full
// Stats snapshot.
func (h *hooks) InfoEach(names []string, fn func(i int, info core.DomainInfo)) {
	h.host.MachineEach(names, func(i int, m *hyper.Machine) {
		st, cpu, mem, maxMem, vcpus := m.MonitorStats()
		fn(i, core.DomainInfo{
			State: common.StateFromHyper(st), MaxMemKiB: maxMem,
			MemKiB: mem, VCPUs: vcpus, CPUTimeNs: cpu,
		})
	})
}

func (h *hooks) Stats(name string) (core.DomainStats, error) {
	m, err := h.machine(name)
	if err != nil {
		return core.DomainStats{}, err
	}
	return common.StatsFromMachine(m.Stats()), nil
}

func (h *hooks) SetMemory(name string, kib uint64) error {
	m, err := h.machine(name)
	if err != nil {
		return err
	}
	return m.SetMemory(kib)
}

func (h *hooks) SetVCPUs(name string, n int) error {
	m, err := h.machine(name)
	if err != nil {
		return err
	}
	return m.SetVCPUs(n)
}

func (h *hooks) ID(name string) int {
	m, err := h.machine(name)
	if err != nil {
		return -1
	}
	return m.ID()
}

func (h *hooks) Machine(name string) (*hyper.Machine, error) { return h.machine(name) }

// New opens a test driver connection. The URI path selects the canned
// environment: "/default" pre-defines a domain, a network and a storage
// pool; any other path starts empty.
func New(u *uri.URI, log *logging.Logger) (core.DriverConn, error) {
	node, err := nodeinfo.NewNode("testhost", nodeinfo.ProfileServer)
	if err != nil {
		return nil, err
	}
	h := &hooks{host: hyper.NewHost(node, 10)}
	scope := "default"
	if u != nil && u.Path != "" && u.Path != "/" {
		scope = strings.TrimPrefix(u.Path, "/")
	}
	b := common.New(h, common.Options{
		Node: node, Networks: true, Storage: true, Log: log, Scope: scope,
	})
	if u == nil || u.Path == "/default" {
		// When a state journal already replayed the default environment,
		// re-defining it would collide; the replayed objects win (the
		// canned domain comes back defined but not running).
		if names, _ := b.ListDomains(0); len(names) == 0 {
			if err := populateDefault(b); err != nil {
				return nil, fmt.Errorf("test: populate default objects: %w", err)
			}
		}
	}
	return b, nil
}

// DefaultDomainXML is the canned domain the default environment defines.
const DefaultDomainXML = `
<domain type='test'>
  <name>test</name>
  <description>cpu_util=0.4 dirty_pages_sec=500 block_iops=100 net_pps=500</description>
  <memory unit='MiB'>512</memory>
  <vcpu>2</vcpu>
  <os><type arch='x86_64'>hvm</type></os>
  <devices>
    <disk type='file' device='disk'>
      <source file='/var/lib/test/images/test.img'/>
      <target dev='vda' bus='virtio'/>
    </disk>
    <interface type='network'>
      <mac address='52:54:00:te:replaced:below'/>
      <source network='default'/>
    </interface>
  </devices>
</domain>`

// DefaultNetworkXML is the canned network of the default environment.
const DefaultNetworkXML = `
<network>
  <name>default</name>
  <bridge name='testbr0'/>
  <forward mode='nat'/>
  <ip address='192.168.122.1' netmask='255.255.255.0'>
    <dhcp><range start='192.168.122.2' end='192.168.122.254'/></dhcp>
  </ip>
</network>`

// DefaultPoolXML is the canned storage pool of the default environment.
const DefaultPoolXML = `
<pool type='dir'>
  <name>default-pool</name>
  <capacity unit='GiB'>100</capacity>
  <target><path>/var/lib/test/images</path></target>
</pool>`

func populateDefault(b *common.Base) error {
	// A journal replay may have brought back any subset of the default
	// objects (replay skips individual failures), so each one that
	// already exists is left as the replay produced it.
	skipDup := func(err error) error {
		if core.IsCode(err, core.ErrDuplicate) {
			return nil
		}
		return err
	}
	if err := skipDup(b.DefineNetwork(DefaultNetworkXML)); err != nil {
		return err
	}
	if err := b.StartNetwork("default"); err != nil && !core.IsCode(err, core.ErrOperationInvalid) {
		return err
	}
	if err := skipDup(b.DefineStoragePool(DefaultPoolXML)); err != nil {
		return err
	}
	if err := b.StartStoragePool("default-pool"); err != nil && !core.IsCode(err, core.ErrOperationInvalid) {
		return err
	}
	// Fix the placeholder MAC before defining.
	xml := fixDefaultMAC(DefaultDomainXML)
	if _, err := b.DefineDomain(xml); err != nil {
		return skipDup(err)
	}
	return b.CreateDomain("test")
}

func fixDefaultMAC(xml string) string {
	return replaceOnce(xml, "52:54:00:te:replaced:below", "52:54:00:aa:00:01")
}

func replaceOnce(s, old, new string) string {
	for i := 0; i+len(old) <= len(s); i++ {
		if s[i:i+len(old)] == old {
			return s[:i] + new + s[i+len(old):]
		}
	}
	return s
}

// Register installs the test driver in the core registry.
func Register(log *logging.Logger) {
	core.Register("test", func(u *uri.URI) (core.DriverConn, error) {
		return New(u, log)
	})
}
