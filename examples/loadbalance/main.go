// Loadbalance: the admin interface's flagship use case. A daemon serves
// a burst of clients with a deliberately small workerpool; the operator
// watches the job queue build up through the admin API and widens the
// pool at runtime — no restart, no dropped connections — then watches
// the queue drain. Ends by bumping the client connection limit after
// observing rejected connections, the exact scenario that motivated the
// administration interface.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/drivers/remote"
	drvtest "repro/internal/drivers/test"
	"repro/internal/logging"
	"repro/internal/typedparams"
)

func main() {
	logger := logging.NewQuiet(logging.Error)
	drvtest.Register(logger)
	remote.Register()

	dir, err := os.MkdirTemp("", "loadbalance")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Daemon with a deliberately tiny pool and low client limit.
	d := daemon.New(logger)
	mgmt, err := d.AddServer("govirtd", 1, 2, 1, daemon.ClientLimits{MaxClients: 6})
	if err != nil {
		log.Fatal(err)
	}
	mgmt.AddProgram(daemon.NewRemoteProgram(mgmt))
	mgmtSock := filepath.Join(dir, "govirtd.sock")
	if err := mgmt.ListenUnix(mgmtSock, daemon.ServiceConfig{}); err != nil {
		log.Fatal(err)
	}
	adm, err := d.AddServer("admin", 1, 2, 1, daemon.ClientLimits{MaxClients: 4})
	if err != nil {
		log.Fatal(err)
	}
	adm.AddProgram(admin.NewProgram(d))
	admSock := filepath.Join(dir, "admin.sock")
	if err := adm.ListenUnix(admSock, daemon.ServiceConfig{}); err != nil {
		log.Fatal(err)
	}
	defer d.Shutdown()

	admConn, err := admin.Open(admSock)
	if err != nil {
		log.Fatal(err)
	}
	defer admConn.Close()

	mgmtURI := "test+unix:///default?socket=" + strings.ReplaceAll(mgmtSock, "/", "%2F")

	// The pool's limits are live settings; what it is doing with them is
	// in the daemon's metrics.
	gauge := func(name string) int64 {
		m, err := admConn.Metrics()
		if err != nil {
			log.Fatal(err)
		}
		for _, g := range m.Gauges {
			if g.Name == name+`{server="govirtd"}` {
				return g.Value
			}
		}
		return 0
	}
	setting := func(key string) string {
		settings, err := admConn.Settings("govirtd", key)
		if err != nil {
			log.Fatal(err)
		}
		v, _ := settings.GetString(key)
		return v
	}
	set := func(key, value string) {
		l := typedparams.NewList()
		l.AddString(key, value) //nolint:errcheck
		if err := admConn.SetSettings("govirtd", l); err != nil {
			log.Fatal(err)
		}
	}
	show := func(when string) {
		workers, busy := gauge("daemon_pool_workers"), gauge("daemon_pool_busy_workers")
		fmt.Printf("%-28s max_workers=%-3s workers=%-3d free=%-3d queueDepth=%d\n",
			when, setting("max_workers"), workers, workers-busy, gauge("daemon_pool_queue_depth"))
	}

	// Phase 1: burst of clients against the tiny pool.
	show("before burst:")
	var wg sync.WaitGroup
	runBurst := func() {
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn, err := core.Open(mgmtURI)
				if err != nil {
					return
				}
				defer conn.Close()
				for j := 0; j < 300; j++ {
					if _, err := conn.Hostname(); err != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	t0 := time.Now()
	runBurst()
	smallPool := time.Since(t0)
	show("after burst (2 workers):")

	// Phase 2: the operator widens the pool at runtime.
	set("max_workers", "16")
	set("min_workers", "8")
	show("after config-set:")

	t0 = time.Now()
	runBurst()
	bigPool := time.Since(t0)
	show("after burst (16 workers):")

	fmt.Printf("\nburst wall time: %-8v with 2 workers max\n", smallPool.Round(time.Millisecond))
	fmt.Printf("burst wall time: %-8v with 16 workers max\n", bigPool.Round(time.Millisecond))

	// Phase 3: connection-limit management. Overload the limit, observe
	// rejections, raise the limit through the admin API.
	var conns []*core.Connect
	rejected := 0
	for i := 0; i < 10; i++ {
		c, err := core.Open(mgmtURI)
		if err != nil {
			rejected++
			continue
		}
		conns = append(conns, c)
	}
	fmt.Printf("\nconnections: %d accepted, %d rejected (clients=%d, max_clients=%s)\n",
		len(conns), rejected, gauge("daemon_clients"), setting("max_clients"))

	set("max_clients", "64")
	extra, err := core.Open(mgmtURI)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after config-set max_clients=64: new connection accepted")
	extra.Close()
	for _, c := range conns {
		c.Close()
	}

	fmt.Println("\nThis tuned one daemon under load. For balancing load across" +
		" several daemons\n— placement policies and live-migration rebalancing —" +
		" see examples/fleet.")
}
