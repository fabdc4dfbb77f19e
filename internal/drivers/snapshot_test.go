package drivers_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/events"
)

func TestSnapshotLifecycleAllDrivers(t *testing.T) {
	forEachDriver(t, func(t *testing.T, name string, drv core.DriverConn) {
		if _, err := drv.DefineDomain(domainXML(name, "vm")); err != nil {
			t.Fatal(err)
		}
		// Snapshot of a powered-off domain.
		offSnap, err := drv.CreateSnapshot("vm", "")
		if err != nil {
			t.Fatal(err)
		}
		if offSnap == "" {
			t.Fatal("no generated snapshot name")
		}
		// Named snapshot of a running domain with a modified balloon.
		if err := drv.CreateDomain("vm"); err != nil {
			t.Fatal(err)
		}
		if err := drv.SetDomainMemory("vm", 512*1024); err != nil {
			t.Fatal(err)
		}
		liveSnap, err := drv.CreateSnapshot("vm",
			`<domainsnapshot><name>live</name><description>before upgrade</description></domainsnapshot>`)
		if err != nil {
			t.Fatal(err)
		}
		if liveSnap != "live" {
			t.Fatalf("name %q", liveSnap)
		}
		// Still running after a live snapshot.
		if info, _ := drv.DomainInfo("vm"); info.State != core.DomainRunning {
			t.Fatalf("live snapshot changed state to %v", info.State)
		}

		snaps, err := drv.ListSnapshots("vm")
		if err != nil || len(snaps) != 2 || snaps[0] != offSnap || snaps[1] != "live" {
			t.Fatalf("snapshots %v %v", snaps, err)
		}
		xml, err := drv.SnapshotXML("vm", "live")
		if err != nil || !strings.Contains(xml, "before upgrade") || !strings.Contains(xml, "running") {
			t.Fatalf("snapshot xml %v:\n%s", err, xml)
		}

		// Change state, then revert to the live snapshot: running again
		// with the snapshot's balloon.
		if err := drv.DestroyDomain("vm"); err != nil {
			t.Fatal(err)
		}
		if err := drv.RevertSnapshot("vm", "live"); err != nil {
			t.Fatal(err)
		}
		info, err := drv.DomainInfo("vm")
		if err != nil || info.State != core.DomainRunning {
			t.Fatalf("after revert: %+v %v", info, err)
		}
		if info.MemKiB != 512*1024 {
			t.Fatalf("balloon not restored: %d", info.MemKiB)
		}

		// Revert to the powered-off snapshot stops the domain.
		if err := drv.RevertSnapshot("vm", offSnap); err != nil {
			t.Fatal(err)
		}
		if info, _ := drv.DomainInfo("vm"); info.State != core.DomainShutoff {
			t.Fatalf("after off-revert: %v", info.State)
		}

		// Delete and verify.
		if err := drv.DeleteSnapshot("vm", "live"); err != nil {
			t.Fatal(err)
		}
		if err := drv.DeleteSnapshot("vm", "live"); !core.IsCode(err, core.ErrInvalidArg) {
			t.Fatalf("double delete: %v", err)
		}
		snaps, _ = drv.ListSnapshots("vm")
		if len(snaps) != 1 {
			t.Fatalf("snapshots after delete: %v", snaps)
		}
	})
}

func TestSnapshotErrors(t *testing.T) {
	forEachDriver(t, func(t *testing.T, name string, drv core.DriverConn) {
		if _, err := drv.CreateSnapshot("ghost", ""); !core.IsCode(err, core.ErrNoDomain) {
			t.Fatalf("snapshot of missing domain: %v", err)
		}
		if _, err := drv.ListSnapshots("ghost"); !core.IsCode(err, core.ErrNoDomain) {
			t.Fatalf("list of missing domain: %v", err)
		}
		if _, err := drv.DefineDomain(domainXML(name, "vm")); err != nil {
			t.Fatal(err)
		}
		if _, err := drv.CreateSnapshot("vm", "<garbage"); !core.IsCode(err, core.ErrXML) {
			t.Fatalf("bad snapshot xml: %v", err)
		}
		if _, err := drv.CreateSnapshot("vm", `<domainsnapshot><name>s1</name></domainsnapshot>`); err != nil {
			t.Fatal(err)
		}
		if _, err := drv.CreateSnapshot("vm", `<domainsnapshot><name>s1</name></domainsnapshot>`); !core.IsCode(err, core.ErrDuplicate) {
			t.Fatalf("duplicate snapshot: %v", err)
		}
		if err := drv.RevertSnapshot("vm", "nope"); !core.IsCode(err, core.ErrInvalidArg) {
			t.Fatalf("revert missing snapshot: %v", err)
		}
		if _, err := drv.SnapshotXML("vm", "nope"); !core.IsCode(err, core.ErrInvalidArg) {
			t.Fatalf("xml of missing snapshot: %v", err)
		}
	})
}

func TestSnapshotRevertPausedState(t *testing.T) {
	drv := openers["qsim"](t)
	if _, err := drv.DefineDomain(domainXML("qsim", "vm")); err != nil {
		t.Fatal(err)
	}
	if err := drv.CreateDomain("vm"); err != nil {
		t.Fatal(err)
	}
	if err := drv.SuspendDomain("vm"); err != nil {
		t.Fatal(err)
	}
	if _, err := drv.CreateSnapshot("vm", `<domainsnapshot><name>paused</name></domainsnapshot>`); err != nil {
		t.Fatal(err)
	}
	if err := drv.ResumeDomain("vm"); err != nil {
		t.Fatal(err)
	}
	if err := drv.RevertSnapshot("vm", "paused"); err != nil {
		t.Fatal(err)
	}
	if info, _ := drv.DomainInfo("vm"); info.State != core.DomainPaused {
		t.Fatalf("reverted state %v, want paused", info.State)
	}
}

func TestManagedSaveAllDrivers(t *testing.T) {
	forEachDriver(t, func(t *testing.T, name string, drv core.DriverConn) {
		if _, err := drv.DefineDomain(domainXML(name, "vm")); err != nil {
			t.Fatal(err)
		}
		// Managed save needs an active domain.
		if err := drv.ManagedSave("vm"); !core.IsCode(err, core.ErrOperationInvalid) {
			t.Fatalf("save of inactive domain: %v", err)
		}
		if err := drv.CreateDomain("vm"); err != nil {
			t.Fatal(err)
		}
		if err := drv.SetDomainMemory("vm", 512*1024); err != nil {
			t.Fatal(err)
		}
		if err := drv.ManagedSave("vm"); err != nil {
			t.Fatal(err)
		}
		if info, _ := drv.DomainInfo("vm"); info.State != core.DomainShutoff {
			t.Fatalf("state after save: %v", info.State)
		}
		if has, err := drv.HasManagedSave("vm"); err != nil || !has {
			t.Fatalf("HasManagedSave %v %v", has, err)
		}
		// Start restores the image: balloon preserved, image consumed.
		if err := drv.CreateDomain("vm"); err != nil {
			t.Fatal(err)
		}
		info, err := drv.DomainInfo("vm")
		if err != nil || info.State != core.DomainRunning || info.MemKiB != 512*1024 {
			t.Fatalf("restored info %+v %v", info, err)
		}
		if has, _ := drv.HasManagedSave("vm"); has {
			t.Fatal("image not consumed by restore")
		}
	})
}

func TestManagedSaveRemoveBootsFresh(t *testing.T) {
	drv := openers["csim"](t)
	if _, err := drv.DefineDomain(domainXML("csim", "vm")); err != nil {
		t.Fatal(err)
	}
	if err := drv.CreateDomain("vm"); err != nil {
		t.Fatal(err)
	}
	if err := drv.SetDomainMemory("vm", 256*1024); err != nil {
		t.Fatal(err)
	}
	if err := drv.ManagedSave("vm"); err != nil {
		t.Fatal(err)
	}
	if err := drv.ManagedSaveRemove("vm"); err != nil {
		t.Fatal(err)
	}
	if err := drv.ManagedSaveRemove("vm"); !core.IsCode(err, core.ErrOperationInvalid) {
		t.Fatalf("double remove: %v", err)
	}
	if err := drv.CreateDomain("vm"); err != nil {
		t.Fatal(err)
	}
	// Fresh boot uses the definition's memory, not the saved balloon.
	if info, _ := drv.DomainInfo("vm"); info.MemKiB != 1024*1024 {
		t.Fatalf("fresh boot balloon %d", info.MemKiB)
	}
}

func TestManagedSavePausedDomain(t *testing.T) {
	drv := openers["xsim"](t)
	if _, err := drv.DefineDomain(domainXML("xsim", "vm")); err != nil {
		t.Fatal(err)
	}
	if err := drv.CreateDomain("vm"); err != nil {
		t.Fatal(err)
	}
	if err := drv.SuspendDomain("vm"); err != nil {
		t.Fatal(err)
	}
	if err := drv.ManagedSave("vm"); err != nil {
		t.Fatal(err)
	}
	col := events.NewCollector()
	drv.(core.EventSource).EventBus().Subscribe("vm", nil, col.Callback())
	if err := drv.CreateDomain("vm"); err != nil {
		t.Fatal(err)
	}
	if info, _ := drv.DomainInfo("vm"); info.State != core.DomainPaused {
		t.Fatalf("restored state %v, want paused", info.State)
	}
	// A watcher learns the restored guest is paused, as after a revert.
	var got []events.Type
	for _, ev := range col.Events() {
		got = append(got, ev.Type)
	}
	if want := []events.Type{events.EventStarted, events.EventSuspended}; !slices.Equal(got, want) {
		t.Fatalf("restore events %v, want %v", got, want)
	}
}
