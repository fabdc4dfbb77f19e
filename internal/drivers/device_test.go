package drivers_test

import (
	"strings"
	"testing"

	"repro/internal/core"
)

const diskDeviceXML = `
<disk type='file' device='disk'>
  <source file='/images/extra.qcow2'/>
  <target dev='vdz' bus='virtio'/>
</disk>`

const nicDeviceXML = `
<interface type='network'>
  <mac address='52:54:00:de:ad:01'/>
  <source network='default'/>
</interface>`

func TestDiskAttachDetachAllDrivers(t *testing.T) {
	forEachDriver(t, func(t *testing.T, name string, drv core.DriverConn) {
		if _, err := drv.DefineDomain(domainXML(name, "vm")); err != nil {
			t.Fatal(err)
		}
		if err := drv.AttachDevice("vm", diskDeviceXML); err != nil {
			t.Fatal(err)
		}
		xml, err := drv.DomainXML("vm")
		if err != nil || !strings.Contains(xml, `dev="vdz"`) {
			t.Fatalf("attached disk missing from XML: %v\n%s", err, xml)
		}
		// Same target again: duplicate.
		if err := drv.AttachDevice("vm", diskDeviceXML); !core.IsCode(err, core.ErrDuplicate) {
			t.Fatalf("duplicate target: %v", err)
		}
		if err := drv.DetachDevice("vm", diskDeviceXML); err != nil {
			t.Fatal(err)
		}
		xml, _ = drv.DomainXML("vm")
		if strings.Contains(xml, `dev="vdz"`) {
			t.Fatal("detached disk still in XML")
		}
		if err := drv.DetachDevice("vm", diskDeviceXML); !core.IsCode(err, core.ErrInvalidArg) {
			t.Fatalf("double detach: %v", err)
		}
	})
}

func TestNICHotplugLeasesAddress(t *testing.T) {
	forEachDriver(t, func(t *testing.T, name string, drv core.DriverConn) {
		netXML := `
<network>
  <name>default</name>
  <forward mode='nat'/>
  <ip address='10.20.0.1' netmask='255.255.255.0'>
    <dhcp><range start='10.20.0.10' end='10.20.0.100'/></dhcp>
  </ip>
</network>`
		if err := drv.DefineNetwork(netXML); err != nil {
			t.Fatal(err)
		}
		if err := drv.StartNetwork("default"); err != nil {
			t.Fatal(err)
		}
		if _, err := drv.DefineDomain(domainXML(name, "vm")); err != nil {
			t.Fatal(err)
		}
		if err := drv.CreateDomain("vm"); err != nil {
			t.Fatal(err)
		}
		// Live attach leases immediately.
		if err := drv.AttachDevice("vm", nicDeviceXML); err != nil {
			t.Fatal(err)
		}
		leases, _ := drv.NetworkDHCPLeases("default")
		if len(leases) != 1 || leases[0].MAC != "52:54:00:de:ad:01" {
			t.Fatalf("leases after hot-attach: %v", leases)
		}
		// Duplicate MAC rejected.
		if err := drv.AttachDevice("vm", nicDeviceXML); !core.IsCode(err, core.ErrDuplicate) {
			t.Fatalf("duplicate MAC: %v", err)
		}
		// Live detach releases the lease.
		if err := drv.DetachDevice("vm", nicDeviceXML); err != nil {
			t.Fatal(err)
		}
		leases, _ = drv.NetworkDHCPLeases("default")
		if len(leases) != 0 {
			t.Fatalf("lease survived hot-detach: %v", leases)
		}
	})
}

func TestAttachToInactiveNetworkFails(t *testing.T) {
	drv := openers["qsim"](t)
	if err := drv.DefineNetwork(`<network><name>default</name><ip address='10.1.1.1' netmask='255.255.255.0'><dhcp><range start='10.1.1.10' end='10.1.1.20'/></dhcp></ip></network>`); err != nil {
		t.Fatal(err)
	}
	if _, err := drv.DefineDomain(domainXML("qsim", "vm")); err != nil {
		t.Fatal(err)
	}
	if err := drv.CreateDomain("vm"); err != nil {
		t.Fatal(err)
	}
	// Network defined but not started: live attach must fail and leave
	// the definition unchanged.
	if err := drv.AttachDevice("vm", nicDeviceXML); !core.IsCode(err, core.ErrOperationInvalid) {
		t.Fatalf("attach to inactive network: %v", err)
	}
	xml, _ := drv.DomainXML("vm")
	if strings.Contains(xml, "52:54:00:de:ad:01") {
		t.Fatal("failed attach mutated the definition")
	}
}

func TestAttachRejectsGarbage(t *testing.T) {
	drv := openers["xsim"](t)
	if _, err := drv.DefineDomain(domainXML("xsim", "vm")); err != nil {
		t.Fatal(err)
	}
	if err := drv.AttachDevice("vm", "<garbage"); !core.IsCode(err, core.ErrXML) {
		t.Fatalf("garbage device: %v", err)
	}
	if err := drv.AttachDevice("vm", "<console type='pty'/>"); !core.IsCode(err, core.ErrXML) {
		t.Fatalf("unsupported element: %v", err)
	}
	if err := drv.AttachDevice("ghost", diskDeviceXML); !core.IsCode(err, core.ErrNoDomain) {
		t.Fatalf("missing domain: %v", err)
	}
	if err := drv.DetachDevice("vm", `<interface type='network'><source network='x'/></interface>`); !core.IsCode(err, core.ErrInvalidArg) {
		t.Fatalf("mac-less detach: %v", err)
	}
}
