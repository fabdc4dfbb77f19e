package drivers_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/drivers/common"
	"repro/internal/statestore"
)

// Concurrency probes: two clients act on one domain at once, and the
// outcome must be one that some sequential order of the two calls
// allows. Each probe runs seeded rounds on every hypervisor driver, in
// process and through a daemon over memnet.

// probeRounds is the number of rounds each probe runs per driver and
// transport.
const probeRounds = 200

// forEachTransport runs fn on a fresh connection to each hypervisor
// driver, local and over memnet.
func forEachTransport(t *testing.T, fn func(t *testing.T, name string, drv core.DriverConn)) {
	for _, transport := range []string{"local", "memnet"} {
		for _, name := range []string{"qsim", "xsim", "csim"} {
			t.Run(transport+"/"+name, func(t *testing.T) {
				fn(t, name, openOver(t, transport, name))
			})
		}
	}
}

// race runs a and b at once and returns their errors. The seed picks
// which of the two yields before it calls, and for how long, so the
// rounds cover both orders and the interleavings between them.
func race(rng *rand.Rand, a, b func() error) (errA, errB error) {
	delayA, delayB := rng.Intn(4), 0
	if rng.Intn(2) == 0 {
		delayA, delayB = delayB, delayA
	}
	var wg sync.WaitGroup
	wg.Add(2)
	run := func(delay int, f func() error, err *error) {
		defer wg.Done()
		for i := 0; i < delay; i++ {
			runtime.Gosched()
		}
		*err = f()
	}
	go run(delayA, a, &errA)
	go run(delayB, b, &errB)
	wg.Wait()
	return errA, errB
}

// defineVM defines the probe domain and returns its UUID.
func defineVM(t *testing.T, name string, drv core.DriverConn) string {
	t.Helper()
	meta, err := drv.DefineDomain(domainXML(name, "vm"))
	if err != nil {
		t.Fatal(err)
	}
	return meta.UUID
}

// TestConcurrentCreateUndefine: Create and Undefine of an inactive
// domain cannot both succeed. If they did, a guest would run that no
// call can see or stop.
func TestConcurrentCreateUndefine(t *testing.T) {
	forEachTransport(t, func(t *testing.T, name string, drv core.DriverConn) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < probeRounds; i++ {
			defineVM(t, name, drv)
			created, undefined := race(rng,
				func() error { return drv.CreateDomain("vm") },
				func() error { return drv.UndefineDomain("vm") })
			switch {
			case created == nil && undefined == nil:
				t.Fatalf("round %d: create and undefine both succeeded", i)
			case created == nil:
				if err := drv.DestroyDomain("vm"); err != nil {
					t.Fatal(err)
				}
				if err := drv.UndefineDomain("vm"); err != nil {
					t.Fatal(err)
				}
			case undefined != nil:
				t.Fatalf("round %d: both failed: create %v, undefine %v", i, created, undefined)
			}
		}
	})
}

// TestConcurrentCreateRedefine: a redefinition racing Create either
// comes first, and the guest boots its 4 vCPUs, or comes second and is
// refused because the domain is active. A guest running 2 vCPUs under
// an accepted 4-vCPU definition fits no order.
func TestConcurrentCreateRedefine(t *testing.T) {
	forEachTransport(t, func(t *testing.T, name string, drv core.DriverConn) {
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < probeRounds; i++ {
			uuid := defineVM(t, name, drv)
			four := strings.Replace(domainXML(name, "vm"), "<vcpu>2</vcpu>",
				"<uuid>"+uuid+"</uuid><vcpu>4</vcpu>", 1)
			created, redefined := race(rng,
				func() error { return drv.CreateDomain("vm") },
				func() error { _, err := drv.DefineDomain(four); return err })
			if created != nil {
				t.Fatalf("round %d: create: %v", i, created)
			}
			info, err := drv.DomainInfo("vm")
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case redefined == nil && info.VCPUs != 4:
				t.Fatalf("round %d: redefinition to 4 vCPUs accepted, guest runs %d", i, info.VCPUs)
			case redefined != nil && !core.IsCode(redefined, core.ErrOperationInvalid):
				t.Fatalf("round %d: redefine: %v", i, redefined)
			}
			if err := drv.DestroyDomain("vm"); err != nil {
				t.Fatal(err)
			}
			if err := drv.UndefineDomain("vm"); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestConcurrentInfoDestroy: an info read beside a destroy answers as
// the running guest or as shut off, never with an error. Every driver
// answers alike.
func TestConcurrentInfoDestroy(t *testing.T) {
	forEachTransport(t, func(t *testing.T, name string, drv core.DriverConn) {
		rng := rand.New(rand.NewSource(3))
		defineVM(t, name, drv)
		for i := 0; i < probeRounds; i++ {
			if err := drv.CreateDomain("vm"); err != nil {
				t.Fatal(err)
			}
			var info core.DomainInfo
			read, destroyed := race(rng,
				func() (err error) { info, err = drv.DomainInfo("vm"); return err },
				func() error { return drv.DestroyDomain("vm") })
			if read != nil || destroyed != nil {
				t.Fatalf("round %d: info %v, destroy %v", i, read, destroyed)
			}
			if info.State != core.DomainRunning && info.State != core.DomainShutoff {
				t.Fatalf("round %d: info state %v", i, info.State)
			}
		}
	})
}

// TestConcurrentUndefineDefineJournal: an Undefine racing a Define of
// the same name, with a state root set. Both calls succeed in either
// order, and whatever is listed afterwards is what a restart replays:
// a listed domain has its journal file, an unlisted one has none.
func TestConcurrentUndefineDefineJournal(t *testing.T) {
	for _, transport := range []string{"local", "memnet"} {
		for _, name := range []string{"qsim", "xsim", "csim"} {
			t.Run(transport+"/"+name, func(t *testing.T) {
				root := t.TempDir()
				common.SetStateRoot(root)
				t.Cleanup(func() { common.SetStateRoot("") })
				drv := openOver(t, transport, name)
				file := filepath.Join(root, name, statestore.KindDomains, "vm")
				rng := rand.New(rand.NewSource(4))
				for i := 0; i < probeRounds; i++ {
					uuid := defineVM(t, name, drv)
					again := strings.Replace(domainXML(name, "vm"), "<vcpu>",
						"<uuid>"+uuid+"</uuid><vcpu>", 1)
					undefined, defined := race(rng,
						func() error { return drv.UndefineDomain("vm") },
						func() error { _, err := drv.DefineDomain(again); return err })
					if undefined != nil || defined != nil {
						t.Fatalf("round %d: undefine %v, define %v", i, undefined, defined)
					}
					names, err := drv.ListDomains(0)
					if err != nil {
						t.Fatal(err)
					}
					_, statErr := os.Stat(file)
					if listed := slices.Contains(names, "vm"); listed != (statErr == nil) {
						t.Fatalf("round %d: listed %v, journal file: %v", i, listed, statErr)
					}
					if i < probeRounds-1 && slices.Contains(names, "vm") {
						if err := drv.UndefineDomain("vm"); err != nil {
							t.Fatal(err)
						}
					}
				}
				want, _ := drv.ListDomains(0)
				got, err := openers[name](t).ListDomains(0)
				if err != nil || !slices.Equal(got, want) {
					t.Fatalf("replayed %v (%v), listed %v", got, err, want)
				}
			})
		}
	}
}

// TestHotplugBesideXMLReads: definition reads run beside device
// attach and detach. The race detector checks that a read never sees a
// definition being edited, and each read shows the disk or does not.
func TestHotplugBesideXMLReads(t *testing.T) {
	forEachTransport(t, func(t *testing.T, name string, drv core.DriverConn) {
		defineVM(t, name, drv)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if xml, err := drv.DomainXML("vm"); err != nil || !strings.Contains(xml, `dev="vda"`) {
					t.Errorf("xml read: %v\n%s", err, xml)
					return
				}
			}
		}()
		for i := 0; i < 50; i++ {
			if err := drv.AttachDevice("vm", diskDeviceXML); err != nil {
				t.Fatal(err)
			}
			if err := drv.DetachDevice("vm", diskDeviceXML); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
	})
}

// TestLifecycleBesideInfoReads: info reads run beside create and
// destroy. The race detector checks the reads against the lifecycle
// commits, and no read fails.
func TestLifecycleBesideInfoReads(t *testing.T) {
	forEachTransport(t, func(t *testing.T, name string, drv core.DriverConn) {
		defineVM(t, name, drv)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := drv.DomainInfo("vm"); err != nil {
					t.Errorf("info read: %v", err)
					return
				}
			}
		}()
		for i := 0; i < 50; i++ {
			if err := drv.CreateDomain("vm"); err != nil {
				t.Fatal(err)
			}
			if err := drv.DestroyDomain("vm"); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
	})
}

// TestUndefineDropsAbandonedInboundMigration: a transfer prepared and
// never finished (its source died) ends when its domain is undefined,
// so the redefined name can be prepared again. A late finish of the
// dropped cookie fails and changes nothing.
func TestUndefineDropsAbandonedInboundMigration(t *testing.T) {
	forEachTransport(t, func(t *testing.T, name string, drv core.DriverConn) {
		defineVM(t, name, drv)
		abandoned, err := drv.MigratePrepare("vm", 1024, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := drv.UndefineDomain("vm"); err != nil {
			t.Fatal(err)
		}
		defineVM(t, name, drv)
		cookie, err := drv.MigratePrepare("vm", 1024, 1)
		if err != nil {
			t.Fatalf("prepare after undefine and redefine: %v", err)
		}
		if err := drv.MigrateFinish(abandoned, false); err == nil {
			t.Fatal("finish of the dropped transfer succeeded")
		}
		if err := drv.MigrateFinish(cookie, true); err != nil {
			t.Fatal(err)
		}
	})
}
