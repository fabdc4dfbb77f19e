// Package drivers_test exercises every local driver through the uniform
// core API — the central claim of the architecture: identical management
// code runs against qsim (JSON monitor), xsim (hypercalls), csim
// (container engine) and the mock driver.
package drivers_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/drivers/lxc"
	"repro/internal/drivers/qemu"
	qtest "repro/internal/drivers/test"
	"repro/internal/drivers/xen"
	"repro/internal/events"
	"repro/internal/logging"
)

// openers gives one fresh DriverConn per driver under test.
var openers = map[string]func(t *testing.T) core.DriverConn{
	"qsim": func(t *testing.T) core.DriverConn {
		c, err := qemu.New(nil, logging.NewQuiet(logging.Error))
		if err != nil {
			t.Fatal(err)
		}
		return c
	},
	"xsim": func(t *testing.T) core.DriverConn {
		c, err := xen.New(nil, logging.NewQuiet(logging.Error))
		if err != nil {
			t.Fatal(err)
		}
		return c
	},
	"csim": func(t *testing.T) core.DriverConn {
		c, err := lxc.New(nil, logging.NewQuiet(logging.Error))
		if err != nil {
			t.Fatal(err)
		}
		return c
	},
}

func domainXML(driver, name string) string {
	return fmt.Sprintf(`
<domain type='%s'>
  <name>%s</name>
  <description>cpu_util=0.5 dirty_pages_sec=1000 block_iops=100 net_pps=500</description>
  <memory unit='MiB'>1024</memory>
  <vcpu>2</vcpu>
  <os><type arch='x86_64'>hvm</type></os>
  <devices>
    <disk type='file' device='disk'>
      <source file='/images/%s.img'/>
      <target dev='vda' bus='virtio'/>
    </disk>
  </devices>
</domain>`, driver, name, name)
}

func forEachDriver(t *testing.T, fn func(t *testing.T, name string, drv core.DriverConn)) {
	for name, open := range openers {
		name, open := name, open
		t.Run(name, func(t *testing.T) {
			fn(t, name, open(t))
		})
	}
}

func TestUniformLifecycle(t *testing.T) {
	forEachDriver(t, func(t *testing.T, name string, drv core.DriverConn) {
		meta, err := drv.DefineDomain(domainXML(name, "vm1"))
		if err != nil {
			t.Fatal(err)
		}
		if meta.Name != "vm1" || meta.UUID == "" || meta.ID != -1 {
			t.Fatalf("meta %+v", meta)
		}
		info, err := drv.DomainInfo("vm1")
		if err != nil || info.State != core.DomainShutoff {
			t.Fatalf("inactive info %+v %v", info, err)
		}
		if info.MaxMemKiB != 1024*1024 || info.VCPUs != 2 {
			t.Fatalf("inactive info from definition: %+v", info)
		}

		if err := drv.CreateDomain("vm1"); err != nil {
			t.Fatal(err)
		}
		info, err = drv.DomainInfo("vm1")
		if err != nil || info.State != core.DomainRunning {
			t.Fatalf("running info %+v %v", info, err)
		}
		meta, _ = drv.LookupDomain("vm1")
		if meta.ID <= 0 {
			t.Fatalf("running domain id %d", meta.ID)
		}

		if err := drv.SuspendDomain("vm1"); err != nil {
			t.Fatal(err)
		}
		if st, _ := drv.DomainInfo("vm1"); st.State != core.DomainPaused {
			t.Fatalf("paused state %v", st.State)
		}
		if err := drv.ResumeDomain("vm1"); err != nil {
			t.Fatal(err)
		}
		if err := drv.RebootDomain("vm1"); err != nil {
			t.Fatal(err)
		}
		if err := drv.ShutdownDomain("vm1"); err != nil {
			t.Fatal(err)
		}
		if st, _ := drv.DomainInfo("vm1"); st.State != core.DomainShutoff {
			t.Fatalf("state after shutdown %v", st.State)
		}

		// Start again, destroy hard.
		if err := drv.CreateDomain("vm1"); err != nil {
			t.Fatal(err)
		}
		if err := drv.DestroyDomain("vm1"); err != nil {
			t.Fatal(err)
		}
		if err := drv.UndefineDomain("vm1"); err != nil {
			t.Fatal(err)
		}
		if _, err := drv.LookupDomain("vm1"); !core.IsCode(err, core.ErrNoDomain) {
			t.Fatalf("lookup after undefine: %v", err)
		}
	})
}

func TestUniformErrorStates(t *testing.T) {
	forEachDriver(t, func(t *testing.T, name string, drv core.DriverConn) {
		if _, err := drv.DefineDomain("<garbage"); !core.IsCode(err, core.ErrXML) {
			t.Fatalf("bad xml: %v", err)
		}
		if _, err := drv.DefineDomain(domainXML("wrongtype", "x")); !core.IsCode(err, core.ErrInvalidArg) {
			t.Fatalf("wrong type: %v", err)
		}
		if err := drv.CreateDomain("ghost"); !core.IsCode(err, core.ErrNoDomain) {
			t.Fatalf("create missing: %v", err)
		}
		if _, err := drv.DefineDomain(domainXML(name, "vm")); err != nil {
			t.Fatal(err)
		}
		if err := drv.ShutdownDomain("vm"); !core.IsCode(err, core.ErrOperationInvalid) {
			t.Fatalf("shutdown inactive: %v", err)
		}
		if err := drv.SuspendDomain("vm"); !core.IsCode(err, core.ErrOperationInvalid) {
			t.Fatalf("suspend inactive: %v", err)
		}
		if err := drv.CreateDomain("vm"); err != nil {
			t.Fatal(err)
		}
		if err := drv.CreateDomain("vm"); !core.IsCode(err, core.ErrOperationInvalid) {
			t.Fatalf("double create: %v", err)
		}
		if err := drv.UndefineDomain("vm"); !core.IsCode(err, core.ErrOperationInvalid) {
			t.Fatalf("undefine active: %v", err)
		}
		if _, err := drv.DefineDomain(domainXML(name, "vm")); !core.IsCode(err, core.ErrOperationInvalid) {
			t.Fatalf("redefine active: %v", err)
		}
	})
}

func TestUniformTuningAndStats(t *testing.T) {
	forEachDriver(t, func(t *testing.T, name string, drv core.DriverConn) {
		if _, err := drv.DefineDomain(domainXML(name, "tune")); err != nil {
			t.Fatal(err)
		}
		if err := drv.CreateDomain("tune"); err != nil {
			t.Fatal(err)
		}
		if err := drv.SetDomainMemory("tune", 512*1024); err != nil {
			t.Fatal(err)
		}
		info, err := drv.DomainInfo("tune")
		if err != nil || info.MemKiB != 512*1024 {
			t.Fatalf("balloon: %+v %v", info, err)
		}
		if err := drv.SetDomainMemory("tune", 16*1024*1024); !core.IsCode(err, core.ErrInvalidArg) {
			t.Fatalf("over-max balloon: %v", err)
		}
		if err := drv.SetDomainVCPUs("tune", 1); err != nil {
			t.Fatal(err)
		}
		if info, err := drv.DomainInfo("tune"); err != nil || info.VCPUs != 1 {
			t.Fatalf("vcpus after set: %+v %v", info, err)
		}
		if err := drv.SetDomainVCPUs("tune", 99); !core.IsCode(err, core.ErrInvalidArg) {
			t.Fatalf("over-max vcpus: %v", err)
		}
		// Advance the workload and observe non-intrusive stats.
		ma, ok := drv.(core.MachineAccess)
		if !ok {
			t.Fatal("driver lacks machine access")
		}
		m, err := ma.Machine("tune")
		if err != nil {
			t.Fatal(err)
		}
		m.RunFor(2_000_000_000)
		stats, err := drv.DomainStats("tune")
		if err != nil {
			t.Fatal(err)
		}
		if stats.CPUTimeNs == 0 {
			t.Fatalf("no cpu time in stats: %+v", stats)
		}
		if name != "csim" && stats.RdReqs+stats.WrReqs == 0 {
			t.Fatalf("%s: no block activity: %+v", name, stats)
		}
		// Info and Stats read the same accounting: their shared fields agree.
		info, err = drv.DomainInfo("tune")
		if err != nil {
			t.Fatal(err)
		}
		want := core.DomainInfo{State: stats.State, MaxMemKiB: stats.MaxMemKiB,
			MemKiB: stats.MemKiB, VCPUs: stats.VCPUs, CPUTimeNs: stats.CPUTimeNs}
		if info != want || info.CPUTimeNs == 0 {
			t.Fatalf("info %+v disagrees with stats %+v", info, stats)
		}
	})
}

func TestUniformListingAndXML(t *testing.T) {
	forEachDriver(t, func(t *testing.T, name string, drv core.DriverConn) {
		for i := 0; i < 3; i++ {
			if _, err := drv.DefineDomain(domainXML(name, fmt.Sprintf("d%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := drv.CreateDomain("d1"); err != nil {
			t.Fatal(err)
		}
		all, _ := drv.ListDomains(0)
		if len(all) != 3 {
			t.Fatalf("all: %v", all)
		}
		active, _ := drv.ListDomains(core.ListActive)
		if len(active) != 1 || active[0] != "d1" {
			t.Fatalf("active: %v", active)
		}
		inactive, _ := drv.ListDomains(core.ListInactive)
		if len(inactive) != 2 {
			t.Fatalf("inactive: %v", inactive)
		}
		xml, err := drv.DomainXML("d0")
		if err != nil || !strings.Contains(xml, "<name>d0</name>") {
			t.Fatalf("xml: %v\n%s", err, xml)
		}
		meta, _ := drv.LookupDomain("d0")
		byUUID, err := drv.LookupDomainByUUID(meta.UUID)
		if err != nil || byUUID.Name != "d0" {
			t.Fatalf("uuid lookup: %+v %v", byUUID, err)
		}
		if _, err := drv.LookupDomainByUUID("not-a-uuid"); !core.IsCode(err, core.ErrInvalidArg) {
			t.Fatalf("bad uuid: %v", err)
		}
		if _, err := drv.LookupDomainByUUID("00000000-0000-0000-0000-00000000ffff"); !core.IsCode(err, core.ErrNoDomain) {
			t.Fatalf("unknown uuid: %v", err)
		}
	})
}

// TestDomainListInfoNamesFilter pins the by-name form of the bulk
// sweep: rows come back in the order asked, a name that is not defined
// is skipped rather than failing the call, and no other domain shows.
func TestDomainListInfoNamesFilter(t *testing.T) {
	forEachDriver(t, func(t *testing.T, name string, drv core.DriverConn) {
		for i := 0; i < 3; i++ {
			if _, err := drv.DefineDomain(domainXML(name, fmt.Sprintf("d%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := drv.CreateDomain("d1"); err != nil {
			t.Fatal(err)
		}
		rows, err := drv.DomainListInfo(0, []string{"d1", "ghost", "d0"})
		if err != nil || len(rows) != 2 || rows[0].Name != "d1" || rows[1].Name != "d0" {
			t.Fatalf("named sweep: %+v %v", rows, err)
		}
		if rows[0].Info.State != core.DomainRunning || rows[1].Info.State != core.DomainShutoff {
			t.Fatalf("named sweep states: %+v", rows)
		}
	})
}

func TestUniformCapabilitiesAndNode(t *testing.T) {
	forEachDriver(t, func(t *testing.T, name string, drv core.DriverConn) {
		caps, err := drv.CapabilitiesXML()
		if err != nil || !strings.Contains(caps, "<capabilities>") {
			t.Fatalf("caps: %v", err)
		}
		if !strings.Contains(caps, fmt.Sprintf(`type="%s"`, name)) {
			t.Fatalf("caps missing domain type %s:\n%s", name, caps)
		}
		ni, err := drv.NodeInfo()
		if err != nil || ni.CPUs == 0 || ni.MemoryKiB == 0 {
			t.Fatalf("nodeinfo: %+v %v", ni, err)
		}
		v, err := drv.Version()
		if err != nil || v == "" {
			t.Fatalf("version: %q %v", v, err)
		}
		hn, err := drv.Hostname()
		if err != nil || hn == "" {
			t.Fatalf("hostname: %q %v", hn, err)
		}
	})
}

func TestLifecycleEvents(t *testing.T) {
	forEachDriver(t, func(t *testing.T, name string, drv core.DriverConn) {
		src, ok := drv.(core.EventSource)
		if !ok {
			t.Fatal("driver is not an event source")
		}
		col := events.NewCollector()
		src.EventBus().Subscribe("", nil, col.Callback())
		if _, err := drv.DefineDomain(domainXML(name, "ev")); err != nil {
			t.Fatal(err)
		}
		if err := drv.CreateDomain("ev"); err != nil {
			t.Fatal(err)
		}
		if err := drv.SuspendDomain("ev"); err != nil {
			t.Fatal(err)
		}
		if err := drv.ResumeDomain("ev"); err != nil {
			t.Fatal(err)
		}
		if err := drv.DestroyDomain("ev"); err != nil {
			t.Fatal(err)
		}
		if err := drv.UndefineDomain("ev"); err != nil {
			t.Fatal(err)
		}
		var types []events.Type
		for _, ev := range col.Events() {
			types = append(types, ev.Type)
		}
		want := []events.Type{
			events.EventDefined, events.EventStarted, events.EventSuspended,
			events.EventResumed, events.EventStopped, events.EventUndefined,
		}
		if len(types) != len(want) {
			t.Fatalf("events %v", types)
		}
		for i := range want {
			if types[i] != want[i] {
				t.Fatalf("event %d = %v, want %v", i, types[i], want[i])
			}
		}
	})
}

func TestNetworkAttachmentOnCreate(t *testing.T) {
	forEachDriver(t, func(t *testing.T, name string, drv core.DriverConn) {
		netXML := `
<network>
  <name>default</name>
  <forward mode='nat'/>
  <ip address='10.10.0.1' netmask='255.255.255.0'>
    <dhcp><range start='10.10.0.10' end='10.10.0.100'/></dhcp>
  </ip>
</network>`
		if err := drv.DefineNetwork(netXML); err != nil {
			t.Fatal(err)
		}
		xml := fmt.Sprintf(`
<domain type='%s'>
  <name>netvm</name>
  <memory unit='MiB'>256</memory>
  <vcpu>1</vcpu>
  <os><type>hvm</type></os>
  <devices>
    <interface type='network'>
      <mac address='52:54:00:12:34:56'/>
      <source network='default'/>
    </interface>
  </devices>
</domain>`, name)
		if _, err := drv.DefineDomain(xml); err != nil {
			t.Fatal(err)
		}
		// Network down: create must fail and leave the domain inactive.
		if err := drv.CreateDomain("netvm"); err == nil {
			t.Fatal("create with inactive network accepted")
		}
		if info, _ := drv.DomainInfo("netvm"); info.State != core.DomainShutoff {
			t.Fatalf("failed create left state %v", info.State)
		}
		if err := drv.StartNetwork("default"); err != nil {
			t.Fatal(err)
		}
		if err := drv.CreateDomain("netvm"); err != nil {
			t.Fatal(err)
		}
		leases, err := drv.NetworkDHCPLeases("default")
		if err != nil || len(leases) != 1 {
			t.Fatalf("leases %v %v", leases, err)
		}
		if leases[0].MAC != "52:54:00:12:34:56" || leases[0].Hostname != "netvm" {
			t.Fatalf("lease %+v", leases[0])
		}
		// Stopping the domain releases the lease.
		if err := drv.DestroyDomain("netvm"); err != nil {
			t.Fatal(err)
		}
		leases, _ = drv.NetworkDHCPLeases("default")
		if len(leases) != 0 {
			t.Fatalf("lease not released: %v", leases)
		}
	})
}

func TestTestDriverDefaultEnvironment(t *testing.T) {
	drv, err := qtest.New(nil, logging.NewQuiet(logging.Error))
	if err != nil {
		t.Fatal(err)
	}
	names, err := drv.ListDomains(core.ListActive)
	if err != nil || len(names) != 1 || names[0] != "test" {
		t.Fatalf("default domains: %v %v", names, err)
	}
	info, err := drv.DomainInfo("test")
	if err != nil || info.State != core.DomainRunning {
		t.Fatalf("default domain: %+v %v", info, err)
	}
	nets, _ := drv.ListNetworks()
	if len(nets) != 1 || nets[0] != "default" {
		t.Fatalf("default networks: %v", nets)
	}
	if active, _ := drv.NetworkIsActive("default"); !active {
		t.Fatal("default network inactive")
	}
	pools, _ := drv.ListStoragePools()
	if len(pools) != 1 || pools[0] != "default-pool" {
		t.Fatalf("default pools: %v", pools)
	}
	pi, _ := drv.StoragePoolInfo("default-pool")
	if !pi.Active || pi.CapacityKiB != 100*1024*1024 {
		t.Fatalf("pool info %+v", pi)
	}
}

// TestStorageSupportMatrix pins which drivers manage storage — qsim
// does, xsim and csim answer ErrNoSupport — and that each answer keeps
// its code through a daemon.
func TestStorageSupportMatrix(t *testing.T) {
	want := map[string]core.ErrorCode{"qsim": 0, "xsim": core.ErrNoSupport, "csim": core.ErrNoSupport}
	for _, transport := range []string{"local", "memnet"} {
		for name, code := range want {
			t.Run(transport+"/"+name, func(t *testing.T) {
				drv := openOver(t, transport, name)
				if err := drv.DefineStoragePool(qtest.DefaultPoolXML); core.CodeOf(err) != code {
					t.Fatalf("define pool: %v, want code %v", err, code)
				}
				if _, err := drv.ListStoragePools(); core.CodeOf(err) != code {
					t.Fatalf("list pools: %v, want code %v", err, code)
				}
			})
		}
	}
}

func TestQsimBootModelSlowerThanCsim(t *testing.T) {
	// The abstraction must preserve native performance envelopes: a full
	// VM boot is modelled far slower than a container start.
	q := openers["qsim"](t)
	c := openers["csim"](t)
	if _, err := q.DefineDomain(domainXML("qsim", "b")); err != nil {
		t.Fatal(err)
	}
	if err := q.CreateDomain("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DefineDomain(domainXML("csim", "b")); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateDomain("b"); err != nil {
		t.Fatal(err)
	}
	qm, _ := q.(core.MachineAccess).Machine("b")
	cm, _ := c.(core.MachineAccess).Machine("b")
	qBoot := qm.Stats().SimTimeNs
	cBoot := cm.Stats().SimTimeNs
	if qBoot <= cBoot*10 {
		t.Fatalf("modelled boots: qsim %d ns vs csim %d ns — envelope collapsed", qBoot, cBoot)
	}
}

func TestCrashDetectionEmitsEvent(t *testing.T) {
	forEachDriver(t, func(t *testing.T, name string, drv core.DriverConn) {
		col := events.NewCollector()
		drv.(core.EventSource).EventBus().Subscribe("", []events.Type{events.EventCrashed}, col.Callback())
		if _, err := drv.DefineDomain(domainXML(name, "cr")); err != nil {
			t.Fatal(err)
		}
		if err := drv.CreateDomain("cr"); err != nil {
			t.Fatal(err)
		}
		m, err := drv.(core.MachineAccess).Machine("cr")
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Crash(); err != nil {
			t.Fatal(err)
		}
		// The monitor's next observation surfaces the crash exactly once.
		for i := 0; i < 3; i++ {
			if info, err := drv.DomainInfo("cr"); err != nil || info.State != core.DomainCrashed {
				t.Fatalf("info after crash: %+v %v", info, err)
			}
		}
		if col.Len() != 1 {
			t.Fatalf("crash events: %d, want exactly 1", col.Len())
		}
		if col.Events()[0].Domain != "cr" {
			t.Fatalf("event %+v", col.Events()[0])
		}
		// Recovery and a second crash emit again.
		if err := drv.DestroyDomain("cr"); err != nil {
			t.Fatal(err)
		}
		if err := drv.CreateDomain("cr"); err != nil {
			t.Fatal(err)
		}
		if _, err := drv.DomainInfo("cr"); err != nil {
			t.Fatal(err)
		}
		m2, _ := drv.(core.MachineAccess).Machine("cr")
		if err := m2.Crash(); err != nil {
			t.Fatal(err)
		}
		if _, err := drv.DomainStats("cr"); err != nil {
			t.Fatal(err)
		}
		if col.Len() != 2 {
			t.Fatalf("crash events after second crash: %d, want 2", col.Len())
		}
	})
}
