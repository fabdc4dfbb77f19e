// Package repro holds the benchmark harness: one bench per table and
// figure of the reconstructed evaluation (see DESIGN.md, Experiment
// index) plus the ablations. Run with:
//
//	go test -run '^$' -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/drivers/common"
	"repro/internal/drivers/lxc"
	"repro/internal/drivers/qemu"
	"repro/internal/drivers/remote"
	drvtest "repro/internal/drivers/test"
	"repro/internal/drivers/xen"
	"repro/internal/faultpoint"
	"repro/internal/fleet"
	"repro/internal/hyper"
	"repro/internal/hyper/qsim"
	"repro/internal/hyper/xsim"
	"repro/internal/logging"
	"repro/internal/migrate"
	"repro/internal/nodeinfo"
	"repro/internal/qos"
	"repro/internal/rpc"
	"repro/internal/scale"
	"repro/internal/telemetry"
	"repro/internal/typedparams"
	"repro/internal/uri"
)

var quiet = logging.NewQuiet(logging.Error)

func driverConn(b *testing.B, name string) core.DriverConn {
	b.Helper()
	u := &uri.URI{Driver: name, Path: "/system"}
	var (
		drv core.DriverConn
		err error
	)
	switch name {
	case "qsim":
		drv, err = qemu.New(u, quiet)
	case "xsim":
		drv, err = xen.New(u, quiet)
	case "csim":
		drv, err = lxc.New(u, quiet)
	case "test":
		u.Path = "/empty"
		drv, err = drvtest.New(u, quiet)
	default:
		b.Fatalf("unknown driver %s", name)
	}
	if err != nil {
		b.Fatal(err)
	}
	return drv
}

func benchDomainXML(driver, name string) string {
	return fmt.Sprintf(`<domain type='%s'><name>%s</name><description>cpu_util=0.4 dirty_pages_sec=1000 block_iops=100 net_pps=500</description><memory unit='MiB'>512</memory><vcpu>2</vcpu><os><type arch='x86_64'>hvm</type></os></domain>`, driver, name)
}

func mustDefineStart(b *testing.B, drv core.DriverConn, driver, name string) {
	b.Helper()
	if _, err := drv.DefineDomain(benchDomainXML(driver, name)); err != nil {
		b.Fatal(err)
	}
	if err := drv.CreateDomain(name); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkT1_AbstractionOverhead measures the info operation through
// the uniform API and through each hypervisor's native interface,
// quantifying the layer's cost (Table T1).
func BenchmarkT1_AbstractionOverhead(b *testing.B) {
	b.Run("qsim/uniform", func(b *testing.B) {
		drv := driverConn(b, "qsim")
		mustDefineStart(b, drv, "qsim", "vm")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := drv.DomainInfo("vm"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("qsim/native", func(b *testing.B) {
		node, _ := nodeinfo.NewNode("n", nodeinfo.ProfileServer)
		hv := qsim.New(node)
		e, err := hv.Launch(hyper.Config{Name: "vm", VCPUs: 2, MemKiB: 512 * 1024})
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Monitor().ExecuteCommand("system_boot", nil, nil); err != nil {
			b.Fatal(err)
		}
		// The four queries a monitor client needs for Info's five fields.
		var (
			st      struct{ Status string }
			balloon struct{ Actual uint64 }
			cpus    []struct {
				Index int `json:"cpu-index"`
			}
			cpu struct {
				CPUTimeNs uint64 `json:"cpu_time_ns"`
			}
		)
		queries := []struct {
			cmd   string
			reply interface{}
		}{{"query-status", &st}, {"query-balloon", &balloon}, {"query-cpus", &cpus}, {"query-cpustats", &cpu}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				if err := e.Monitor().ExecuteCommand(q.cmd, nil, q.reply); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("xsim/uniform", func(b *testing.B) {
		drv := driverConn(b, "xsim")
		mustDefineStart(b, drv, "xsim", "vm")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := drv.DomainInfo("vm"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("xsim/native", func(b *testing.B) {
		node, _ := nodeinfo.NewNode("n", nodeinfo.ProfileServer)
		hv := xsim.New(node)
		res := hv.Call(xsim.Domain0, xsim.Hypercall{Op: xsim.OpDomainCreate, Args: xsim.CreateArgs{
			Name: "vm", VCPUs: 2, MemKiB: 512 * 1024,
		}})
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		id := res.Value.(xsim.DomID)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := hv.Call(xsim.Domain0, xsim.Hypercall{Op: xsim.OpDomainGetInfo, Dom: id}); r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	})
	b.Run("csim/uniform", func(b *testing.B) {
		drv := driverConn(b, "csim")
		mustDefineStart(b, drv, "csim", "vm")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := drv.DomainInfo("vm"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkT2_Transports compares the same round trip over in-process
// dispatch, a unix socket and a TCP socket (Table T2).
func BenchmarkT2_Transports(b *testing.B) {
	b.Run("local", func(b *testing.B) {
		drv := driverConn(b, "test")
		mustDefineStart(b, drv, "test", "vm")
		conn := core.OpenWith(&uri.URI{Driver: "test"}, drv)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := conn.Hostname(); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, tr := range []string{"unix", "tcp"} {
		b.Run(tr, func(b *testing.B) {
			conn := startBenchDaemon(b, tr)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := conn.Hostname(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tr+"/dominfo", func(b *testing.B) {
			conn := startBenchDaemon(b, tr)
			dom, err := conn.LookupDomain("test")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dom.Info(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkT2b_BulkSweep measures the monitoring-sweep cost over a unix
// socket as the fleet grows (Table T2b): the per-domain loop issues one
// round trip per domain, the bulk procedure issues exactly one for the
// whole host. A single DomainInfo round trip is included as the unit the
// bulk sweep is compared against.
func BenchmarkT2b_BulkSweep(b *testing.B) {
	setup := func(b *testing.B, domains int) *core.Connect {
		b.Helper()
		conn := startBenchDaemon(b, "unix")
		for i := 0; i < domains; i++ {
			dom, err := conn.DefineDomain(benchDomainXML("test", fmt.Sprintf("vm%04d", i)))
			if err != nil {
				b.Fatal(err)
			}
			if err := dom.Create(); err != nil {
				b.Fatal(err)
			}
		}
		return conn
	}
	b.Run("single-dominfo", func(b *testing.B) {
		conn := setup(b, 1)
		dom, err := conn.LookupDomain("vm0000")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dom.Info(); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, domains := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("singles/domains-%d", domains), func(b *testing.B) {
			conn := setup(b, domains)
			names, err := conn.ListAllDomains(0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, dom := range names {
					if _, err := dom.Info(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(domains), "domains")
		})
		b.Run(fmt.Sprintf("bulk/domains-%d", domains), func(b *testing.B) {
			conn := setup(b, domains)
			// Steady-state polling form: the inventory is retained
			// across sweeps, exactly as the fleet poller holds it.
			var inv core.NodeInventory
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := conn.NodeInventoryInto(&inv); err != nil {
					b.Fatal(err)
				}
				if len(inv.Domains) < domains {
					b.Fatalf("inventory lost domains: %d < %d", len(inv.Domains), domains)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(domains), "domains")
		})
	}
}

// startBenchDaemon brings up a daemon with the test driver and returns a
// remote connection over the chosen transport.
func startBenchDaemon(b *testing.B, transport string) *core.Connect {
	return startBenchDaemonOn(b, transport, daemon.New(quiet))
}

// startBenchDaemonOn is startBenchDaemon with a caller-supplied daemon,
// so benches can compare instrumented and uninstrumented builds.
func startBenchDaemonOn(b *testing.B, transport string, d *daemon.Daemon) *core.Connect {
	b.Helper()
	core.ResetRegistryForTest()
	drvtest.Register(quiet)
	remote.Register()
	srv, err := d.AddServer("govirtd", 2, 8, 2, daemon.ClientLimits{MaxClients: 64})
	if err != nil {
		b.Fatal(err)
	}
	srv.AddProgram(daemon.NewRemoteProgram(srv))
	var uriStr string
	switch transport {
	case "unix":
		sock := filepath.Join(b.TempDir(), "b.sock")
		if err := srv.ListenUnix(sock, daemon.ServiceConfig{}); err != nil {
			b.Fatal(err)
		}
		uriStr = "test+unix:///default?socket=" + strings.ReplaceAll(sock, "/", "%2F")
	case "tcp":
		addr, err := srv.ListenTCP("127.0.0.1:0", daemon.ServiceConfig{Transport: daemon.TransportTCP})
		if err != nil {
			b.Fatal(err)
		}
		host, port, _ := strings.Cut(addr, ":")
		uriStr = fmt.Sprintf("test+tcp://%s:%s/default", host, port)
	}
	conn, err := core.Open(uriStr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		conn.Close()
		d.Shutdown()
		core.ResetRegistryForTest()
	})
	return conn
}

// BenchmarkT3_Lifecycle runs the full start/destroy cycle per driver and
// reports the modelled guest-visible latency alongside the management
// overhead (Table T3).
func BenchmarkT3_Lifecycle(b *testing.B) {
	for _, driver := range []string{"qsim", "xsim", "csim", "test"} {
		b.Run(driver, func(b *testing.B) {
			drv := driverConn(b, driver)
			if _, err := drv.DefineDomain(benchDomainXML(driver, "vm")); err != nil {
				b.Fatal(err)
			}
			var simNs uint64
			ma := drv.(core.MachineAccess)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := drv.CreateDomain("vm"); err != nil {
					b.Fatal(err)
				}
				if m, err := ma.Machine("vm"); err == nil {
					simNs += m.Stats().SimTimeNs
				}
				if err := drv.DestroyDomain("vm"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric(float64(simNs)/float64(b.N)/1e6, "simulated-ms/op")
			}
		})
	}
}

// BenchmarkT4_Monitoring polls the full stats of a fleet of N domains,
// the non-intrusive monitoring workload (Table T4).
func BenchmarkT4_Monitoring(b *testing.B) {
	for _, fleet := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("domains-%d", fleet), func(b *testing.B) {
			drv := driverConn(b, "test")
			for i := 0; i < fleet; i++ {
				mustDefineStart(b, drv, "test", fmt.Sprintf("vm%04d", i))
			}
			names, err := drv.ListDomains(core.ListActive)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, n := range names {
					if _, err := drv.DomainStats(n); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(fleet), "domains")
		})
	}
}

// BenchmarkT5_Admin measures the admin-plane operations over a unix
// socket (Table T5, extension).
func BenchmarkT5_Admin(b *testing.B) {
	setup := func(b *testing.B) *admin.Connect {
		b.Helper()
		d := daemon.New(quiet)
		srv, err := d.AddServer("govirtd", 2, 8, 2, daemon.ClientLimits{MaxClients: 64})
		if err != nil {
			b.Fatal(err)
		}
		srv.AddProgram(daemon.NewRemoteProgram(srv))
		adm, err := d.AddServer("admin", 1, 2, 1, daemon.ClientLimits{MaxClients: 8})
		if err != nil {
			b.Fatal(err)
		}
		adm.AddProgram(admin.NewProgram(d))
		sock := filepath.Join(b.TempDir(), "a.sock")
		if err := adm.ListenUnix(sock, daemon.ServiceConfig{}); err != nil {
			b.Fatal(err)
		}
		conn, err := admin.Open(sock)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			conn.Close()
			d.Shutdown()
		})
		return conn
	}
	b.Run("config", func(b *testing.B) {
		conn := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := conn.Settings("govirtd"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("config-set", func(b *testing.B) {
		conn := setup(b)
		params := typedparams.NewList()
		params.AddString("max_workers", "8") //nolint:errcheck
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := conn.SetSettings("govirtd", params); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("client-list", func(b *testing.B) {
		conn := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := conn.ListClients("admin"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("config-set-log-filters", func(b *testing.B) {
		conn := setup(b)
		params := typedparams.NewList()
		params.AddString("log_filters", `"3:rpc 4:daemon.server 1:driver.test"`) //nolint:errcheck
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := conn.SetSettings("govirtd", params); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkT6_TelemetryOverhead compares the T2 unix-socket op mix
// (Hostname + DomainInfo) against a daemon built with telemetry disabled
// entirely (Table T6). The instrumented dispatch path must stay within
// 5% of the uninstrumented one.
func BenchmarkT6_TelemetryOverhead(b *testing.B) {
	for _, mode := range []string{"uninstrumented", "instrumented"} {
		b.Run(mode, func(b *testing.B) {
			var d *daemon.Daemon
			if mode == "instrumented" {
				d = daemon.New(quiet)
			} else {
				d = daemon.NewWithTelemetry(quiet, nil)
			}
			conn := startBenchDaemonOn(b, "unix", d)
			dom, err := conn.LookupDomain("test")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := conn.Hostname(); err != nil {
					b.Fatal(err)
				}
				if _, err := dom.Info(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF1_Scale measures list and lookup latency as the number of
// defined domains grows (Figure F1).
func BenchmarkF1_Scale(b *testing.B) {
	for _, count := range []int{10, 100, 1000, 10000} {
		drv := driverConn(b, "test")
		for i := 0; i < count; i++ {
			if _, err := drv.DefineDomain(benchDomainXML("test", fmt.Sprintf("vm%05d", i))); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("list/domains-%d", count), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := drv.ListDomains(0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("lookup/domains-%d", count), func(b *testing.B) {
			target := fmt.Sprintf("vm%05d", count/2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := drv.LookupDomain(target); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// workUnit simulates one request's service time: daemon workers spend
// most of a request waiting on the hypervisor, so the cost is a wait,
// not CPU — which is exactly why additional workers raise throughput.
func workUnit() {
	time.Sleep(100 * time.Microsecond)
}

// BenchmarkF2_Workerpool measures job throughput as the worker limit
// grows under concurrent submission (Figure F2). Expected shape: ns/op
// scales inversely with workers until the dispatch path saturates.
func BenchmarkF2_Workerpool(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			pool, err := daemon.NewWorkerpool(workers, workers, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer pool.Shutdown()
			b.ResetTimer()
			var wg sync.WaitGroup
			wg.Add(b.N)
			for i := 0; i < b.N; i++ {
				if err := pool.Submit(func() {
					workUnit()
					wg.Done()
				}, false); err != nil {
					b.Fatal(err)
				}
			}
			wg.Wait()
		})
	}
}

// BenchmarkF3_Migration sweeps memory size and dirty rate through the
// pre-copy model, reporting the modelled totals (Figure F3). The ns/op
// value is the engine's own computational cost.
func BenchmarkF3_Migration(b *testing.B) {
	for _, memGiB := range []uint64{1, 4, 16} {
		for _, dirty := range []uint64{1_000, 100_000, 1_000_000} {
			name := fmt.Sprintf("mem-%dGiB/dirty-%dpps", memGiB, dirty)
			b.Run(name, func(b *testing.B) {
				var last migrate.Result
				for i := 0; i < b.N; i++ {
					res, err := migrate.Estimate(
						migrate.Workload{MemKiB: memGiB * 1024 * 1024, DirtyPagesSec: dirty},
						core.MigrateOptions{BandwidthMBps: 1000, MaxDowntimeMs: 300, MaxIterations: 30})
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(last.TotalTimeMs(), "sim-total-ms")
				b.ReportMetric(last.DowntimeMs(), "sim-downtime-ms")
				b.ReportMetric(float64(last.Iterations), "iterations")
			})
		}
	}
}

// BenchmarkF4_XDR measures serialization throughput across payload
// shapes (Figure F4).
func BenchmarkF4_XDR(b *testing.B) {
	type small struct {
		A uint32
		B uint64
		S string
	}
	type statsLike struct {
		State      uint32
		CPUTimeNs  uint64
		MemKiB     uint64
		MaxMemKiB  uint64
		VCPUs      uint32
		RdBytes    uint64
		WrBytes    uint64
		RdReqs     uint64
		WrReqs     uint64
		RxBytes    uint64
		TxBytes    uint64
		RxPkts     uint64
		TxPkts     uint64
		DirtyPages uint64
	}
	cases := []struct {
		name string
		v    interface{}
		mk   func() interface{}
	}{
		{"small", &small{A: 1, B: 2, S: "domain-name"}, func() interface{} { return &small{} }},
		{"stats", &statsLike{CPUTimeNs: 1 << 40, MemKiB: 1 << 20}, func() interface{} { return &statsLike{} }},
		{"xml-4KiB", &struct{ X string }{strings.Repeat("<x/>", 1024)}, func() interface{} { return &struct{ X string }{} }},
		{"xml-64KiB", &struct{ X string }{strings.Repeat("<x/>", 16384)}, func() interface{} { return &struct{ X string }{} }},
	}
	for _, c := range cases {
		b.Run("marshal/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			var total int
			for i := 0; i < b.N; i++ {
				out, err := rpc.Marshal(c.v)
				if err != nil {
					b.Fatal(err)
				}
				total += len(out)
			}
			b.SetBytes(int64(total / b.N))
		})
		data, err := rpc.Marshal(c.v)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("unmarshal/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if err := rpc.Unmarshal(data, c.mk()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// synthFleet builds a synthetic fleet snapshot for the pure scheduler
// and planner benches: server-profile hosts with a sawtooth of existing
// load so policies have real choices to make.
func synthFleet(hosts int) []fleet.HostInventory {
	invs := make([]fleet.HostInventory, 0, hosts)
	for i := 0; i < hosts; i++ {
		inv := fleet.HostInventory{
			Host: fmt.Sprintf("host%04d", i), State: fleet.HostUp, DriverType: "test",
			Node: core.NodeInfo{MemoryKiB: 256 * 1024 * 1024, CPUs: 64},
		}
		for j := 0; j < i%8; j++ {
			inv.Domains = append(inv.Domains, fleet.DomainRecord{
				Name: fmt.Sprintf("vm%04d-%d", i, j), State: core.DomainRunning,
				MemKiB: 8 * 1024 * 1024, VCPUs: 4,
			})
		}
		invs = append(invs, inv)
	}
	return invs
}

// startBenchFleet brings up n in-process daemons and a fleet registry
// over them, for the live placement and rebalance benches.
func startBenchFleet(b *testing.B, n int) *fleet.Registry {
	b.Helper()
	core.ResetRegistryForTest()
	drvtest.Register(quiet)
	remote.Register()
	dir := b.TempDir()
	var uris []string
	for i := 0; i < n; i++ {
		d := daemon.New(quiet)
		srv, err := d.AddServer("govirtd", 2, 8, 2, daemon.ClientLimits{MaxClients: 64})
		if err != nil {
			b.Fatal(err)
		}
		srv.AddProgram(daemon.NewRemoteProgram(srv))
		sock := filepath.Join(dir, fmt.Sprintf("node%d.sock", i))
		if err := srv.ListenUnix(sock, daemon.ServiceConfig{}); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(d.Shutdown)
		uris = append(uris, "test+unix:///empty?socket="+strings.ReplaceAll(sock, "/", "%2F"))
	}
	reg, err := fleet.New(fleet.Config{Hosts: uris, PollInterval: time.Second, Log: quiet})
	if err != nil {
		b.Fatal(err)
	}
	reg.Start()
	b.Cleanup(func() {
		reg.Close()
		core.ResetRegistryForTest()
	})
	if up := reg.WaitSettled(5 * time.Second); up != n {
		b.Fatalf("%d/%d fleet hosts up", up, n)
	}
	return reg
}

// BenchmarkF5_Placement measures the fleet scheduler (Figure F5): the
// pure ranking pass across fleet sizes and policies, and a live
// place-and-teardown cycle against three in-process daemons.
func BenchmarkF5_Placement(b *testing.B) {
	req := fleet.Request{Name: "new", TypeName: "test", MemKiB: 8 * 1024 * 1024, VCPUs: 4}
	for _, hosts := range []int{10, 100, 1000} {
		invs := synthFleet(hosts)
		sums := make([]fleet.HostSummary, len(invs))
		for i := range invs {
			sums[i] = invs[i].Summary()
		}
		for _, pol := range []fleet.Policy{fleet.Spread(), fleet.Pack()} {
			b.Run(fmt.Sprintf("rank/%s/hosts-%d", pol.Name(), hosts), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if got := fleet.RankSummaries(pol, req, sums); len(got) == 0 {
						b.Fatal("empty ranking")
					}
				}
			})
		}
	}
	b.Run("live/schedule-3hosts", func(b *testing.B) {
		reg := startBenchFleet(b, 3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Full cycle: rank, define+start over RPC, then tear the
			// domain back down so the fleet stays at steady state.
			p, err := reg.Schedule(benchDomainXML("test", fmt.Sprintf("vm%06d", i)))
			if err != nil {
				b.Fatal(err)
			}
			if err := p.Domain.Destroy(); err != nil {
				b.Fatal(err)
			}
			if err := p.Domain.Undefine(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkT7_Rebalance measures the fleet rebalancer (Table T7): the
// pure planning pass across fleet sizes, and a live drain that moves a
// domain between two daemons by iterative pre-copy each iteration.
func BenchmarkT7_Rebalance(b *testing.B) {
	for _, hosts := range []int{4, 16, 64} {
		invs := synthFleet(hosts)
		b.Run(fmt.Sprintf("plan/hosts-%d", hosts), func(b *testing.B) {
			b.ReportAllocs()
			var moves int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mv, _, _, _ := fleet.PlanRebalance(invs, fleet.RebalanceOptions{
					SkewThreshold: 0.05, MaxMigrations: 64,
				})
				moves = len(mv)
			}
			b.ReportMetric(float64(moves), "moves")
		})
	}
	b.Run("live/drain-migrate", func(b *testing.B) {
		reg := startBenchFleet(b, 2)
		p, err := reg.Schedule(benchDomainXML("test", "wanderer"))
		if err != nil {
			b.Fatal(err)
		}
		from := p.Host
		var simTotalNs, simDownNs uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := reg.Rebalance(context.Background(), fleet.RebalanceOptions{Drain: from})
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Migrations) != 1 || res.Migrations[0].Err != nil {
				b.Fatalf("drain pass: %+v", res)
			}
			from = res.Migrations[0].To
			simTotalNs += res.Migrations[0].Result.TotalTimeNs
			simDownNs += res.Migrations[0].Result.DowntimeNs
		}
		b.StopTimer()
		if b.N > 0 {
			b.ReportMetric(float64(simTotalNs)/float64(b.N)/1e6, "sim-total-ms/op")
			b.ReportMetric(float64(simDownNs)/float64(b.N)/1e6, "sim-downtime-ms/op")
		}
	})
}

// BenchmarkR1_Recovery measures crash recovery (Table R1): the time a
// restarted daemon spends replaying its state journal back into a
// serving driver, versus the number of persistently defined domains.
// Each iteration is one full recovery — open a fresh driver base over
// the same journal and verify every domain came back.
func BenchmarkR1_Recovery(b *testing.B) {
	for _, count := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("domains-%d", count), func(b *testing.B) {
			common.SetStateRoot(b.TempDir())
			defer common.SetStateRoot("")
			u := &uri.URI{Driver: "test", Path: "/r1"}
			seed, err := drvtest.New(u, quiet)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < count; i++ {
				if _, err := seed.DefineDomain(benchDomainXML("test", fmt.Sprintf("vm%05d", i))); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recovered, err := drvtest.New(u, quiet)
				if err != nil {
					b.Fatal(err)
				}
				names, err := recovered.ListDomains(0)
				if err != nil {
					b.Fatal(err)
				}
				if len(names) != count {
					b.Fatalf("recovered %d/%d domains", len(names), count)
				}
			}
		})
	}
}

// startChaosFleet brings up n journal-backed daemons (distinct state
// scopes, so a connection dropped by a fault replays its environment
// instead of forgetting it) and a registry with fast reconnect and a
// per-call deadline — the configuration the chaos suite exercises.
func startChaosFleet(b *testing.B, n int) *fleet.Registry {
	b.Helper()
	core.ResetRegistryForTest()
	drvtest.Register(quiet)
	remote.Register()
	common.SetStateRoot(b.TempDir())
	b.Cleanup(func() { common.SetStateRoot("") })
	dir := b.TempDir()
	var uris []string
	for i := 0; i < n; i++ {
		d := daemon.New(quiet)
		srv, err := d.AddServer("govirtd", 2, 8, 2, daemon.ClientLimits{MaxClients: 64})
		if err != nil {
			b.Fatal(err)
		}
		srv.AddProgram(daemon.NewRemoteProgram(srv))
		sock := filepath.Join(dir, fmt.Sprintf("node%d.sock", i))
		if err := srv.ListenUnix(sock, daemon.ServiceConfig{}); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(d.Shutdown)
		uris = append(uris, fmt.Sprintf("test+unix:///env%d?socket=%s",
			i, strings.ReplaceAll(sock, "/", "%2F")))
	}
	reg, err := fleet.New(fleet.Config{
		Hosts:        uris,
		PollInterval: 200 * time.Millisecond,
		BackoffMin:   10 * time.Millisecond,
		BackoffMax:   100 * time.Millisecond,
		CallTimeout:  250 * time.Millisecond,
		Seed:         42,
		Log:          quiet,
	})
	if err != nil {
		b.Fatal(err)
	}
	reg.Start()
	b.Cleanup(func() {
		reg.Close()
		core.ResetRegistryForTest()
	})
	if up := reg.WaitSettled(5 * time.Second); up != n {
		b.Fatalf("%d/%d fleet hosts up", up, n)
	}
	return reg
}

// BenchmarkR2_RebalanceUnderFaults measures the drain-migration cycle of
// T7 with a fraction of received RPC frames deterministically dropped
// (Table R2). Faulted passes are retried after the fleet re-settles, so
// ns/op captures the real operational cost of transport loss; the
// reported metrics separate clean moves from faulted passes.
func BenchmarkR2_RebalanceUnderFaults(b *testing.B) {
	for _, prob := range []float64{0, 0.05, 0.10} {
		// No '%' in the name: it would reach the unix socket path via
		// b.TempDir and be eaten by the URI percent-decoder.
		b.Run(fmt.Sprintf("recv-drop-%d", int(prob*100+0.5)), func(b *testing.B) {
			reg := startChaosFleet(b, 2)
			p, err := reg.Schedule(benchDomainXML("test", "wanderer"))
			if err != nil {
				b.Fatal(err)
			}
			from := p.Host
			if prob > 0 {
				faultpoint.Default.Set("rpc.recv", faultpoint.Spec{
					Mode: faultpoint.ModeDrop, Prob: prob,
				})
				faultpoint.Default.Arm(42)
				b.Cleanup(faultpoint.Default.Disarm)
			}
			var moved, faulted int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := reg.Rebalance(context.Background(), fleet.RebalanceOptions{Drain: from})
				if err != nil || len(res.Migrations) == 0 {
					faulted++
					reg.WaitSettled(5 * time.Second)
					continue
				}
				rec := res.Migrations[len(res.Migrations)-1]
				if rec.Err != nil {
					faulted++
					reg.WaitSettled(5 * time.Second)
					continue
				}
				from = rec.To
				moved++
			}
			b.StopTimer()
			b.ReportMetric(float64(moved), "migrations")
			b.ReportMetric(float64(faulted), "faulted-passes")
		})
	}
}

// BenchmarkA1_PriorityWorkers is the ablation for the priority-worker
// split: latency of a guaranteed-finish job while every ordinary worker
// is wedged, with and without priority workers.
func BenchmarkA1_PriorityWorkers(b *testing.B) {
	for _, prio := range []int{0, 2} {
		b.Run(fmt.Sprintf("prio-%d", prio), func(b *testing.B) {
			pool, err := daemon.NewWorkerpool(2, 2, prio)
			if err != nil {
				b.Fatal(err)
			}
			defer pool.Shutdown()
			// Wedge the ordinary workers with jobs that only finish when
			// released.
			release := make(chan struct{})
			for i := 0; i < 2; i++ {
				pool.Submit(func() { <-release }, false) //nolint:errcheck
			}
			defer close(release)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				done := make(chan struct{})
				if err := pool.Submit(func() { close(done) }, true); err != nil {
					b.Fatal(err)
				}
				if prio > 0 {
					<-done // completes despite the wedge
				}
				// With prio == 0 the job can never run until release; we
				// measure only the submission path there.
			}
		})
	}
}

// lockedFilters is the mutex-based comparator for ablation A2: every
// filter check takes the same lock the redefiner holds, the design the
// read-copy-update swap replaces.
type lockedFilters struct {
	mu      sync.Mutex
	level   logging.Priority
	filters []logging.Filter
}

func (l *lockedFilters) enabled(module string, p logging.Priority) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, f := range l.filters {
		if module == f.Match || strings.HasPrefix(module, f.Match+".") {
			return p >= f.Priority
		}
	}
	return p >= l.level
}

func (l *lockedFilters) define(s string) error {
	filters, err := logging.ParseFilters(s)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.filters = filters
	return nil
}

// BenchmarkA2_LogRedefineContention is the ablation for the RCU-style
// settings swap: hot-path filter-check throughput with a concurrent
// redefiner active, for the lock-free (rcu) and mutex designs.
func BenchmarkA2_LogRedefineContention(b *testing.B) {
	for _, impl := range []string{"rcu", "mutex"} {
		for _, contended := range []bool{false, true} {
			name := impl + "/steady"
			if contended {
				name = impl + "/redefining"
			}
			b.Run(name, func(b *testing.B) {
				rcu := logging.NewQuiet(logging.Warn)
				hot, ctx := rcu.For("hot.path"), context.Background()
				locked := &lockedFilters{level: logging.Warn}
				stop := make(chan struct{})
				defer close(stop)
				if contended {
					go func() {
						for i := 0; ; i++ {
							select {
							case <-stop:
								return
							default:
								def := fmt.Sprintf("%d:mod%d", i%4+1, i%8)
								if impl == "rcu" {
									rcu.DefineFilters(def) //nolint:errcheck
								} else {
									locked.define(def) //nolint:errcheck
								}
							}
						}
					}()
				}
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if impl == "rcu" {
							hot.LogAttrs(ctx, slog.LevelDebug, "dropped message")
						} else {
							locked.enabled("hot.path", logging.Debug)
						}
					}
				})
			})
		}
	}
}

// BenchmarkA3_HypercallBatching is the ablation for xsim multicall
// batching: privilege transitions consumed by a shutdown sequence with
// batching on and off.
func BenchmarkA3_HypercallBatching(b *testing.B) {
	for _, batch := range []bool{true, false} {
		name := "batched"
		if !batch {
			name = "unbatched"
		}
		b.Run(name, func(b *testing.B) {
			node, _ := nodeinfo.NewNode("n", nodeinfo.ProfileServer)
			hv := xsim.New(node)
			drv := xen.NewOn(hv, node, batch, quiet)
			if _, err := drv.DefineDomain(benchDomainXML("xsim", "vm")); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := drv.CreateDomain("vm"); err != nil {
					b.Fatal(err)
				}
				if err := drv.ShutdownDomain("vm"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			served, saved := hv.HypercallCount()
			b.ReportMetric(float64(served)/float64(b.N), "hypercalls/op")
			b.ReportMetric(float64(saved)/float64(b.N), "saved/op")
		})
	}
}

// BenchmarkT9_Scrape measures the per-domain metrics export (Table T9):
// what one /metrics scrape costs as a function of domain count, swept
// (staleness 0: every scrape pays one bulk inventory sweep plus a
// render) versus cached (inside the staleness window: one mutex, zero
// allocations). The cached/parallel case is the N-concurrent-scrapers
// story — single-flight means they all ride one sweep.
func BenchmarkT9_Scrape(b *testing.B) {
	setup := func(b *testing.B, domains int, staleness time.Duration) *telemetry.DomainCollector {
		b.Helper()
		drv := driverConn(b, "test")
		for i := 0; i < domains; i++ {
			if _, err := drv.DefineDomain(benchDomainXML("test", fmt.Sprintf("vm%05d", i))); err != nil {
				b.Fatal(err)
			}
		}
		dc, err := telemetry.NewDriverDomainCollector(drv, telemetry.DomainCollectorConfig{
			Staleness: staleness,
			Labels:    []string{"domain", "state"},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dc.WriteExposition(io.Discard); err != nil { // warm buffers and caches
			b.Fatal(err)
		}
		return dc
	}

	for _, domains := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("sweep/domains-%d", domains), func(b *testing.B) {
			dc := setup(b, domains, 0)
			warmSweeps := dc.Stats().Sweeps
			b.ReportAllocs()
			b.ResetTimer()
			var bytesOut int
			for i := 0; i < b.N; i++ {
				n, err := dc.WriteExposition(io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				bytesOut = n
			}
			b.StopTimer()
			b.ReportMetric(float64(bytesOut), "bytes/scrape")
			st := dc.Stats()
			b.ReportMetric(float64(st.Sweeps-warmSweeps)/float64(b.N), "sweeps/scrape")
		})
	}

	b.Run("cached/domains-10000", func(b *testing.B) {
		dc := setup(b, 10000, time.Hour)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dc.WriteExposition(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("cached/parallel-10000", func(b *testing.B) {
		dc := setup(b, 10000, time.Hour)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := dc.WriteExposition(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.StopTimer()
		if st := dc.Stats(); st.Sweeps != 1 {
			b.Fatalf("cached parallel scrape swept %d times, want 1", st.Sweeps)
		}
	})
}

// t8Tiers returns the fleet sizes the T8 mega-fleet benchmark runs.
// The 1,000-host / 100k-domain tier takes tens of seconds to bring up,
// so it only runs when GOVIRT_T8_FULL is set; the default tiers keep
// `go test -bench . -benchtime=1x` smoke runs fast.
func t8Tiers() []int {
	tiers := []int{10, 100}
	if os.Getenv("GOVIRT_T8_FULL") != "" {
		tiers = append(tiers, 1000)
	}
	return tiers
}

// BenchmarkT8_MegaFleet measures the management layer at simulated
// mega-fleet scale (Table T8): N real daemon instances in one process,
// each serving the fake hypervisor over a memory transport, driven by
// one sharded registry. Per tier it reports scheduler placement
// latency, rebalance planning time over the full inventory, the O(hosts)
// summary read the scheduler ranks from, and — as metrics — how long the
// fleet took to settle and the registry's retained working set.
func BenchmarkT8_MegaFleet(b *testing.B) {
	for _, hosts := range t8Tiers() {
		b.Run(fmt.Sprintf("hosts-%d", hosts), func(b *testing.B) {
			core.ResetRegistryForTest()
			drvtest.Register(quiet)
			remote.Register()
			f, err := scale.Launch(scale.Options{
				Hosts:          hosts,
				DomainsPerHost: 100,
				PollInterval:   time.Hour, // poll noise off; refreshes are explicit
				Log:            quiet,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() {
				f.Close()
				core.ResetRegistryForTest()
			})
			if err := f.SeedDomains(); err != nil {
				b.Fatal(err)
			}

			b.Run("schedule", func(b *testing.B) {
				lats := make([]time.Duration, 0, b.N)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t0 := time.Now()
					p, err := f.Reg.Schedule(benchDomainXML("test", fmt.Sprintf("t8vm%06d", i)))
					if err != nil {
						b.Fatal(err)
					}
					lats = append(lats, time.Since(t0))
					b.StopTimer()
					// Tear back down outside the timer so the fleet stays at
					// its seeded steady state across iterations.
					if err := p.Domain.Destroy(); err != nil {
						b.Fatal(err)
					}
					if err := p.Domain.Undefine(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				b.StopTimer()
				b.ReportMetric(float64(scale.Percentile(lats, 99))/1e6, "p99-ms")
			})

			b.Run("plan", func(b *testing.B) {
				b.ReportAllocs()
				var moves int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mv, _, _, _ := fleet.PlanRebalance(f.Reg.Inventory(), fleet.RebalanceOptions{
						SkewThreshold: 0.05, MaxMigrations: 64,
					})
					moves = len(mv)
				}
				b.StopTimer()
				b.ReportMetric(float64(moves), "moves")
			})

			b.Run("summaries", func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if got := len(f.Reg.Summaries()); got != hosts {
						b.Fatalf("summaries = %d, want %d", got, hosts)
					}
				}
			})

			b.Run("stats", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = f.Domains()
				}
				b.ReportMetric(float64(f.SettleTime)/1e6, "settle-ms")
				b.ReportMetric(float64(f.SeedTime)/1e6, "seed-ms")
				b.ReportMetric(float64(f.RegistryBytes())/(1<<20), "registry-MiB")
			})
		})
	}
}

// BenchmarkT10_WatchPropagation measures the watch-stream reconcile
// loop (Table T10) on a 64-daemon fleet: how fast a lifecycle change on
// a daemon lands in the registry's cached summaries, and what the fleet
// costs at steady state. Polling is effectively off (hour-long
// interval), so any propagation recorded is carried by event push alone
// — the benchmark fails if a sweep contributed. Its story is the
// sweeps/op and idle sweeps-per-s columns, both zero.
func BenchmarkT10_WatchPropagation(b *testing.B) {
	core.ResetRegistryForTest()
	drvtest.Register(quiet)
	remote.Register()
	f, err := scale.Launch(scale.Options{
		Hosts:          64,
		DomainsPerHost: 10,
		PollInterval:   time.Hour,
		Log:            quiet,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		f.Close()
		core.ResetRegistryForTest()
	})
	if err := f.SeedDomains(); err != nil {
		b.Fatal(err)
	}
	host := f.Names[0]
	conn, err := f.Reg.Host(host)
	if err != nil {
		b.Fatal(err)
	}
	dom, err := conn.LookupDomain("d0000-0000")
	if err != nil {
		b.Fatal(err)
	}
	active := func() int {
		for _, s := range f.Reg.Summaries() {
			if s.Host == host {
				return s.ActiveDomains
			}
		}
		return -1
	}
	waitActive := func(b *testing.B, want int) time.Duration {
		t0 := time.Now()
		for active() != want {
			if time.Since(t0) > 30*time.Second {
				b.Fatalf("summary stuck: active=%d, want %d", active(), want)
			}
			time.Sleep(100 * time.Microsecond)
		}
		return time.Since(t0)
	}
	time.Sleep(300 * time.Millisecond) // drain seeding events and owed turns
	base := active()
	if base != 10 {
		b.Fatalf("host 0 settled at %d active domains, want 10", base)
	}

	b.Run("propagate", func(b *testing.B) {
		st0 := f.Reg.WatchStats()
		lats := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := dom.Destroy(); err != nil {
				b.Fatal(err)
			}
			lats = append(lats, waitActive(b, base-1))
			b.StopTimer()
			if err := dom.Create(); err != nil {
				b.Fatal(err)
			}
			waitActive(b, base)
			b.StartTimer()
		}
		b.StopTimer()
		st1 := f.Reg.WatchStats()
		b.ReportMetric(float64(scale.Percentile(lats, 50))/1e6, "p50-ms")
		b.ReportMetric(float64(scale.Percentile(lats, 99))/1e6, "p99-ms")
		b.ReportMetric(float64(st1.Sweeps-st0.Sweeps)/float64(b.N), "sweeps/op")
		if st1.Sweeps != st0.Sweeps {
			b.Fatalf("propagated via %d sweeps, want pure event push",
				st1.Sweeps-st0.Sweeps)
		}
	})

	b.Run("idle", func(b *testing.B) {
		// The timed body is a trivial cached read; the payload of
		// this sub-benchmark is the sweep-rate metric over a fixed
		// quiesced window after it.
		for i := 0; i < b.N; i++ {
			_ = f.Domains()
		}
		b.StopTimer()
		const window = 500 * time.Millisecond
		st0 := f.Reg.WatchStats()
		time.Sleep(window)
		st1 := f.Reg.WatchStats()
		b.ReportMetric(float64(st1.Sweeps-st0.Sweeps)/window.Seconds(), "sweeps-per-s")
		if st1.Sweeps != st0.Sweeps {
			b.Fatalf("idle watch fleet performed %d sweeps over %v",
				st1.Sweeps-st0.Sweeps, window)
		}
	})
}

// startQoSBenchDaemon brings up a daemon whose unix listener requires
// SASL, with the given class specs installed (none = admission control
// off), and returns a URI builder for per-user connections.
func startQoSBenchDaemon(b *testing.B, creds map[string]string, specs []string, watermark int) func(user, pass, extra string) string {
	b.Helper()
	core.ResetRegistryForTest()
	drvtest.Register(quiet)
	remote.Register()
	d := daemon.New(quiet)
	srv, err := d.AddServer("govirtd", 2, 8, 2, daemon.ClientLimits{MaxClients: 64})
	if err != nil {
		b.Fatal(err)
	}
	srv.AddProgram(daemon.NewRemoteProgram(srv))
	srv.SetCredentials(creds)
	if len(specs) > 0 {
		classes, err := qos.ParseClasses(specs)
		if err != nil {
			b.Fatal(err)
		}
		srv.SetQoS(qos.NewEngine(qos.Config{Classes: classes, ShedWatermark: watermark}))
	}
	sock := filepath.Join(b.TempDir(), "q.sock")
	if err := srv.ListenUnix(sock, daemon.ServiceConfig{AuthSASL: true}); err != nil {
		b.Fatal(err)
	}
	esc := strings.ReplaceAll(sock, "/", "%2F")
	b.Cleanup(func() {
		d.Shutdown()
		core.ResetRegistryForTest()
	})
	return func(user, pass, extra string) string {
		return fmt.Sprintf("test+unix://%s@/default?socket=%s&password=%s%s", user, esc, pass, extra)
	}
}

// BenchmarkT11_QoSOverhead prices admission control on the
// authenticated unix fast path: the T6 op mix with no engine installed
// versus QoS enabled but unthrottled (huge rate, no ACL, no inflight
// cap). Budget: under 2% added latency and zero extra allocs/op
// (Table T11).
func BenchmarkT11_QoSOverhead(b *testing.B) {
	creds := map[string]string{"bench": "pw"}
	for _, mode := range []string{"qos-off", "qos-on"} {
		b.Run(mode, func(b *testing.B) {
			var specs []string
			if mode == "qos-on" {
				specs = []string{"gold rate_limit_calls_per_s=100000000 burst=100000000 priority=7 users=bench"}
			}
			mkURI := startQoSBenchDaemon(b, creds, specs, 0)
			conn, err := core.Open(mkURI("bench", "pw", ""))
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			dom, err := conn.LookupDomain("test")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := conn.Hostname(); err != nil {
					b.Fatal(err)
				}
				if _, err := dom.Info(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkT11_NoisyNeighbor measures a well-behaved tenant's latency
// alone versus with a flooding tenant being rejected at 20x its class
// rate limit on the same daemon, reporting the p99 alongside the mean
// (Table T11). Admission control should keep the two curves close.
func BenchmarkT11_NoisyNeighbor(b *testing.B) {
	creds := map[string]string{"good": "gx", "noisy": "nx"}
	specs := []string{
		"silver rate_limit_calls_per_s=100000000 burst=100000000 priority=7 users=good",
		"bronze rate_limit_calls_per_s=50 burst=10 priority=2 users=noisy",
	}
	for _, mode := range []string{"alone", "flooded"} {
		b.Run(mode, func(b *testing.B) {
			mkURI := startQoSBenchDaemon(b, creds, specs, 64)
			conn, err := core.Open(mkURI("good", "gx", ""))
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			var stop chan struct{}
			var flooderDone sync.WaitGroup
			if mode == "flooded" {
				noisy, err := core.Open(mkURI("noisy", "nx", "&overload_retry_ms=0"))
				if err != nil {
					b.Fatal(err)
				}
				defer noisy.Close()
				stop = make(chan struct{})
				flooderDone.Add(1)
				go func() {
					defer flooderDone.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						noisy.Hostname() //nolint:errcheck // rejections are the point
						time.Sleep(time.Millisecond)
					}
				}()
			}
			lats := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, err := conn.Hostname(); err != nil {
					b.Fatal(err)
				}
				lats = append(lats, time.Since(t0))
			}
			b.StopTimer()
			if stop != nil {
				close(stop)
				flooderDone.Wait()
			}
			b.ReportMetric(float64(scale.Percentile(lats, 99))/1e6, "p99-ms")
		})
	}
}

// BenchmarkT12_Migration sweeps the live-migration pipeline across
// dirty rate × stream count × mode (Table T12): pre-copy shows total
// time improving monotonically with streams, auto-convergence rescues
// dirty rates that never converge on the raw link, and post-copy keeps
// downtime at the switch-over constant regardless of dirty rate. The
// wire cases push a real migration at an in-process daemon over memnet,
// with and without injected packet loss on the migrate.stream site.
func BenchmarkT12_Migration(b *testing.B) {
	const memKiB = 1024 * 1024 // 1 GiB
	for _, dirty := range []uint64{10_000, 100_000, 300_000} {
		for _, streams := range []int{1, 2, 4, 8} {
			for _, mode := range []string{"precopy", "autoconverge", "postcopy"} {
				name := fmt.Sprintf("dirty-%dpps/streams-%d/%s", dirty, streams, mode)
				b.Run(name, func(b *testing.B) {
					opts := core.MigrateOptions{
						BandwidthMBps: 1000, MaxDowntimeMs: 300, ParallelStreams: streams,
					}
					switch mode {
					case "autoconverge":
						opts.AutoConverge = true
					case "postcopy":
						opts.PostCopy = true
					}
					var last migrate.Result
					for i := 0; i < b.N; i++ {
						res, err := migrate.Estimate(
							migrate.Workload{MemKiB: memKiB, DirtyPagesSec: dirty}, opts)
						if err != nil {
							b.Fatal(err)
						}
						last = res
					}
					b.ReportMetric(last.TotalTimeMs(), "sim-total-ms")
					b.ReportMetric(last.DowntimeMs(), "sim-downtime-ms")
					b.ReportMetric(float64(last.Iterations), "iterations")
					b.ReportMetric(boolMetric(last.Converged), "converged")
					b.ReportMetric(float64(last.ThrottleSteps), "throttle-steps")
					b.ReportMetric(float64(last.PostCopyFaults), "postcopy-faults")
				})
			}
		}
	}

	// Wire leg: the chunks cross the pooled RPC frame path into a real
	// daemon; packet loss on the stream site forces retransmits.
	for _, prob := range []float64{0, 0.05} {
		b.Run(fmt.Sprintf("wire/streams-4/drop-%d", int(prob*100+0.5)), func(b *testing.B) {
			qemu.Register(quiet)
			remote.Register()
			d := daemon.New(quiet)
			srv, err := d.AddServer("govirtd", 2, 8, 2, daemon.ClientLimits{})
			if err != nil {
				b.Fatal(err)
			}
			srv.AddProgram(daemon.NewRemoteProgram(srv))
			ep := fmt.Sprintf("t12-%d", t12Seq.Add(1))
			if err := srv.ListenMem(ep, daemon.ServiceConfig{}); err != nil {
				b.Fatal(err)
			}
			defer d.Shutdown()
			dst, err := core.Open(fmt.Sprintf("qsim+mem://%s/system", ep))
			if err != nil {
				b.Fatal(err)
			}
			defer dst.Close()
			src := core.OpenWith(&uri.URI{Driver: "qsim", Path: "/system"}, driverConn(b, "qsim"))

			if prob > 0 {
				faultpoint.Default.Set(migrate.FaultSiteStream, faultpoint.Spec{
					Mode: faultpoint.ModeDrop, Prob: prob,
				})
				faultpoint.Default.Arm(42)
				b.Cleanup(faultpoint.Default.Disarm)
			}

			var last migrate.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name := fmt.Sprintf("t12mig%d", i)
				xml := fmt.Sprintf(`<domain type='qsim'><name>%s</name><description>cpu_util=0.5 dirty_pages_sec=50000</description><memory unit='MiB'>512</memory><vcpu>2</vcpu><os><type arch='x86_64'>hvm</type></os></domain>`, name)
				b.StopTimer()
				dom, err := src.CreateDomainXML(xml)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := migrate.Migrate(dom, dst, core.MigrateOptions{
					ParallelStreams: 4, AutoConverge: true, UndefineSource: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
				b.StopTimer()
				if rd, err := dst.LookupDomain(name); err == nil {
					rd.Destroy()  //nolint:errcheck
					rd.Undefine() //nolint:errcheck
				}
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(last.TotalTimeMs(), "sim-total-ms")
			b.ReportMetric(float64(last.RetransmitKiB), "retransmit-KiB")
		})
	}
}

var t12Seq atomic.Int64

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
