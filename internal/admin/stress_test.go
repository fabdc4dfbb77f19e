package admin_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/typedparams"
)

// TestStressMixedLoadWithAdminChurn hammers the daemon with concurrent
// management clients running full lifecycles while two admin connections
// continuously change live settings at the same time: one resizes the
// workerpool and rewrites the log filters, the other the client limit
// and the log level. It passes when nothing deadlocks, no operation
// fails unexpectedly, and the daemon ends with each connection's last
// values.
func TestStressMixedLoadWithAdminChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	td := startDaemon(t)

	const (
		clients   = 6
		cyclesPer = 25
	)
	var failures atomic.Int64
	var wg sync.WaitGroup

	// Management load.
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := core.Open("test+unix:///default?socket=" +
				strings.ReplaceAll(td.mgmtSock, "/", "%2F"))
			if err != nil {
				t.Errorf("client %d: open: %v", id, err)
				failures.Add(1)
				return
			}
			defer conn.Close()
			name := fmt.Sprintf("stress%d", id)
			xml := fmt.Sprintf(`<domain type='test'><name>%s</name><memory unit='MiB'>64</memory><vcpu>1</vcpu><os><type>hvm</type></os></domain>`, name)
			dom, err := conn.DefineDomain(xml)
			if err != nil {
				t.Errorf("client %d: define: %v", id, err)
				failures.Add(1)
				return
			}
			for c := 0; c < cyclesPer; c++ {
				ops := []func() error{
					dom.Create,
					dom.Suspend,
					dom.Resume,
					func() error { _, err := dom.Stats(); return err },
					func() error { _, err := dom.CreateSnapshot(""); return err },
					dom.Destroy,
				}
				for _, op := range ops {
					if err := op(); err != nil {
						t.Errorf("client %d cycle %d: %v", id, c, err)
						failures.Add(1)
						return
					}
				}
			}
		}(i)
	}

	// Admin churn in parallel.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			err := td.set("govirtd", "max_workers", fmt.Sprint(4+i%12), "prio_workers", fmt.Sprint(i%4))
			if err != nil {
				t.Errorf("admin churn %d: %v", i, err)
				failures.Add(1)
				return
			}
			if err := td.set("govirtd", "log_filters", fmt.Sprintf(`"%d:daemon %d:rpc"`, i%4+1, (i+1)%4+1)); err != nil {
				t.Errorf("log churn %d: %v", i, err)
				failures.Add(1)
				return
			}
			if _, err := td.adm.ListClients("govirtd"); err != nil {
				t.Errorf("client list churn %d: %v", i, err)
				failures.Add(1)
				return
			}
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		adm, err := admin.Open(td.adminSock)
		if err != nil {
			t.Errorf("second admin connection: %v", err)
			failures.Add(1)
			return
		}
		defer adm.Close()
		for i := 0; i < 200; i++ {
			l := typedparams.NewList()
			l.AddString("max_clients", fmt.Sprint(50+i)) //nolint:errcheck
			l.AddString("log_level", fmt.Sprint(i%4+1))  //nolint:errcheck
			if err := adm.SetSettings("govirtd", l); err != nil {
				t.Errorf("limit churn %d: %v", i, err)
				failures.Add(1)
				return
			}
		}
	}()

	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d failures under stress", failures.Load())
	}
	// The daemon is still coherent: workerpool params readable, within
	// bounds, and no clients leaked (they all closed).
	settings := td.settings(t, "govirtd")
	if settings["min_workers"] != "2" || settings["max_workers"] != fmt.Sprint(4+199%12) ||
		settings["max_clients"] != "249" || settings["log_level"] != "4" {
		t.Fatalf("settings after stress: %v", settings)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur := td.gauges(t)[`daemon_clients{server="govirtd"}`]
		if cur == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d clients leaked", cur)
		}
		time.Sleep(time.Millisecond)
	}
}
