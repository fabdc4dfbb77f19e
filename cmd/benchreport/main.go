// Command benchreport regenerates every table and figure of the
// reconstructed evaluation (DESIGN.md, Experiment index) and prints them
// in paper style. Timing rows are medians over repeated runs on the
// local machine; simulated rows come from the deterministic models and
// are machine-independent.
//
// Usage:
//
//	benchreport [table|figure id ...]   # default: all
//	benchreport --json                  # machine-readable fast-path metrics
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
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

func main() {
	all := map[string]func(){
		"T1": tableT1, "T2": tableT2, "T2B": tableT2b, "T3": tableT3, "T4": tableT4,
		"T5": tableT5, "T6": tableT6, "T7": tableT7, "T8": tableT8, "T9": tableT9,
		"T10": tableT10, "T11": tableT11, "T12": tableT12,
		"F1": figureF1, "F2": figureF2, "F3": figureF3, "F4": figureF4, "F5": figureF5,
		"R1": tableR1, "R2": tableR2,
		"A3": ablationA3,
	}
	order := []string{"T1", "T2", "T2B", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10", "T11", "T12", "F1", "F2", "F3", "F4", "F5", "R1", "R2", "A3"}
	want := os.Args[1:]
	if len(want) == 1 && want[0] == "--json" {
		emitJSON()
		return
	}
	if len(want) == 1 && want[0] == "--trajectory" {
		trajectory()
		return
	}
	if len(want) == 0 {
		want = order
	}
	for _, id := range want {
		fn, ok := all[strings.ToUpper(id)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have %s)\n", id, strings.Join(order, " "))
			os.Exit(1)
		}
		fn()
		fmt.Println()
	}
}

// median measures fn over runs iterations and returns the median.
func median(runs int, fn func()) time.Duration {
	times := make([]time.Duration, runs)
	for i := range times {
		start := time.Now()
		fn()
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[runs/2]
}

// perOp measures fn over iters iterations, repeated, returning median
// per-operation time.
func perOp(iters int, fn func()) time.Duration {
	return median(7, func() {
		for i := 0; i < iters; i++ {
			fn()
		}
	}) / time.Duration(iters)
}

func openDriver(name string) core.DriverConn {
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
	}
	if err != nil {
		panic(err)
	}
	return drv
}

func domainXML(driver, name string) string {
	return fmt.Sprintf(`<domain type='%s'><name>%s</name><description>cpu_util=0.4 dirty_pages_sec=1000</description><memory unit='MiB'>512</memory><vcpu>2</vcpu><os><type arch='x86_64'>hvm</type></os></domain>`, driver, name)
}

func header(id, title string, cols ...string) {
	fmt.Printf("== %s: %s ==\n", id, title)
	for _, c := range cols {
		fmt.Print(c)
	}
	fmt.Println()
	fmt.Println(strings.Repeat("-", 72))
}

func tableT1() {
	header("Table T1", "management-operation latency: uniform API vs native interface",
		fmt.Sprintf("%-10s %-14s %-14s %-10s", "driver", "uniform", "native", "overhead"))

	row := func(driver string, uniform, native time.Duration) {
		over := "n/a"
		if native > 0 {
			over = fmt.Sprintf("%.2fx", float64(uniform)/float64(native))
		}
		nat := "n/a"
		if native > 0 {
			nat = native.String()
		}
		fmt.Printf("%-10s %-14s %-14s %-10s\n", driver, uniform, nat, over)
	}

	// qsim
	{
		drv := openDriver("qsim")
		must(defStart(drv, "qsim", "vm"))
		uniform := perOp(2000, func() { drv.DomainInfo("vm") }) //nolint:errcheck

		node, _ := nodeinfo.NewNode("n", nodeinfo.ProfileServer)
		hv := qsim.New(node)
		e, err := hv.Launch(hyper.Config{Name: "vm", VCPUs: 2, MemKiB: 512 * 1024})
		must(err)
		must(e.Monitor().ExecuteCommand("system_boot", nil, nil))
		var st struct {
			Status string `json:"status"`
		}
		native := perOp(2000, func() { e.Monitor().ExecuteCommand("query-status", nil, &st) }) //nolint:errcheck
		row("qsim", uniform, native)
	}
	// xsim
	{
		drv := openDriver("xsim")
		must(defStart(drv, "xsim", "vm"))
		uniform := perOp(2000, func() { drv.DomainInfo("vm") }) //nolint:errcheck

		node, _ := nodeinfo.NewNode("n", nodeinfo.ProfileServer)
		hv := xsim.New(node)
		res := hv.Call(xsim.Domain0, xsim.Hypercall{Op: xsim.OpDomainCreate, Args: xsim.CreateArgs{
			Name: "vm", VCPUs: 2, MemKiB: 512 * 1024,
		}})
		must(res.Err)
		id := res.Value.(xsim.DomID)
		native := perOp(2000, func() {
			hv.Call(xsim.Domain0, xsim.Hypercall{Op: xsim.OpDomainGetInfo, Dom: id})
		})
		row("xsim", uniform, native)
	}
	// csim
	{
		drv := openDriver("csim")
		must(defStart(drv, "csim", "vm"))
		uniform := perOp(2000, func() { drv.DomainInfo("vm") }) //nolint:errcheck
		row("csim", uniform, 0)
	}
}

func tableT2() {
	header("Table T2", "round-trip latency by transport (Hostname / DomainInfo)",
		fmt.Sprintf("%-10s %-14s %-14s", "transport", "hostname", "dominfo"))

	measure := func(conn *core.Connect) (time.Duration, time.Duration) {
		dom, err := conn.LookupDomain("test")
		must(err)
		h := perOp(500, func() { conn.Hostname() }) //nolint:errcheck
		d := perOp(500, func() { dom.Info() })      //nolint:errcheck
		return h, d
	}

	// Local in-process.
	{
		u, _ := uri.Parse("test:///default")
		drv, err := drvtest.New(u, quiet)
		must(err)
		conn := core.OpenWith(u, drv)
		h, d := measure(conn)
		fmt.Printf("%-10s %-14s %-14s\n", "local", h, d)
	}
	// unix / tcp via daemon.
	for _, tr := range []string{"unix", "tcp"} {
		conn, shutdown := benchDaemon(tr)
		h, d := measure(conn)
		fmt.Printf("%-10s %-14s %-14s\n", tr, h, d)
		shutdown()
	}
}

func benchDaemon(transport string) (*core.Connect, func()) {
	return benchDaemonOn(transport, daemon.New(quiet))
}

// sweepPayload builds a 64-row monitoring reply, the steady-state unit
// of the codec comparison.
func sweepPayload() *struct{ Domains []core.NamedDomainInfo } {
	rows := make([]core.NamedDomainInfo, 64)
	for i := range rows {
		rows[i] = core.NamedDomainInfo{
			Name: fmt.Sprintf("vm%04d", i),
			Info: core.DomainInfo{
				State: core.DomainRunning, MaxMemKiB: 1 << 21,
				MemKiB: 1 << 20, VCPUs: 2, CPUTimeNs: uint64(i) * 1e9,
			},
		}
	}
	return &struct{ Domains []core.NamedDomainInfo }{rows}
}

// t2bCodec benchmarks the reflective and compiled codecs over the same
// 64-row payload, returning ns/op and allocs/op for each stage.
type codecStats struct {
	ReflectNs, CompiledNs         int64
	ReflectAllocs, CompiledAllocs int64
}

func benchCodec() (marshal, unmarshal codecStats) {
	v := sweepPayload()
	data, err := rpc.Marshal(v)
	must(err)
	bench := func(fn func()) (int64, int64) {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
		return res.NsPerOp(), res.AllocsPerOp()
	}
	marshal.ReflectNs, marshal.ReflectAllocs = bench(func() { rpc.MarshalReflect(v) }) //nolint:errcheck
	marshal.CompiledNs, marshal.CompiledAllocs = bench(func() { rpc.Marshal(v) })      //nolint:errcheck
	unmarshal.ReflectNs, unmarshal.ReflectAllocs = bench(func() {
		var out struct{ Domains []core.NamedDomainInfo }
		rpc.UnmarshalReflect(data, &out) //nolint:errcheck
	})
	unmarshal.CompiledNs, unmarshal.CompiledAllocs = bench(func() {
		var out struct{ Domains []core.NamedDomainInfo }
		rpc.Unmarshal(data, &out) //nolint:errcheck
	})
	return marshal, unmarshal
}

// benchSweep measures the live 64-domain monitoring sweep over a unix
// socket: one DomainInfo round trip, the per-domain loop, and the bulk
// procedure in its steady-state (retained inventory) form.
func benchSweep() (single, singles, bulk time.Duration) {
	conn, shutdown := benchDaemon("unix")
	defer shutdown()
	const domains = 64
	for i := 0; i < domains; i++ {
		name := fmt.Sprintf("vm%04d", i)
		_, err := conn.DefineDomain(fmt.Sprintf(
			`<domain type='test'><name>%s</name><memory unit='MiB'>128</memory><vcpu>2</vcpu><os><type>hvm</type></os></domain>`, name))
		must(err)
		dom, err := conn.LookupDomain(name)
		must(err)
		must(dom.Create())
	}
	dom, err := conn.LookupDomain("vm0000")
	must(err)
	single = perOp(2000, func() { dom.Info() }) //nolint:errcheck
	doms, err := conn.ListAllDomains(0)
	must(err)
	singles = perOp(20, func() {
		for _, d := range doms {
			d.Info() //nolint:errcheck
		}
	})
	var inv core.NodeInventory
	bulk = perOp(500, func() {
		must(conn.NodeInventoryInto(&inv))
		if len(inv.Domains) < domains {
			must(fmt.Errorf("sweep lost rows: %d", len(inv.Domains)))
		}
	})
	return single, singles, bulk
}

// tableT2b is the fast-path table: compiled codec vs reflection on a
// 64-row monitoring payload, and the live bulk sweep against the
// per-domain loop it replaces.
func tableT2b() {
	header("Table T2b", "RPC fast path: compiled codec vs reflection; bulk sweep vs per-domain loop",
		fmt.Sprintf("%-26s %-16s %-16s %-12s", "case", "reflect/singles", "compiled/bulk", "gain"))
	mar, unm := benchCodec()
	row := func(name string, s codecStats) {
		fmt.Printf("%-26s %-16s %-16s %-12s\n", name,
			fmt.Sprintf("%dns/%da", s.ReflectNs, s.ReflectAllocs),
			fmt.Sprintf("%dns/%da", s.CompiledNs, s.CompiledAllocs),
			fmt.Sprintf("%.1fx", float64(s.ReflectNs)/float64(s.CompiledNs)))
	}
	row("codec/marshal-64rows", mar)
	row("codec/unmarshal-64rows", unm)
	single, singles, bulk := benchSweep()
	fmt.Printf("%-26s %-16s %-16s %-12s\n", "live/single-dominfo", "-", single, "-")
	fmt.Printf("%-26s %-16s %-16s %-12s\n", "live/sweep-64", singles, bulk,
		fmt.Sprintf("%.1fx", float64(singles)/float64(bulk)))
	fmt.Printf("bulk sweep vs one round trip: %.2fx\n", float64(bulk)/float64(single))
}

// scrapeStats is one measured scrape configuration for T9.
type scrapeStats struct {
	Domains      int
	SweepNs      int64 // scrape outside the staleness window
	SweepAllocs  int64
	CachedNs     int64 // scrape inside the window
	CachedAllocs int64
	Bytes        int
}

// benchScrape measures one domain-count point of the T9 table: the cost
// of a swept scrape (staleness 0) and a cached one (large staleness)
// against a test driver carrying n defined domains.
func benchScrape(n int) scrapeStats {
	drv := openDriver("test")
	for i := 0; i < n; i++ {
		_, err := drv.DefineDomain(domainXML("test", fmt.Sprintf("vm%05d", i)))
		must(err)
	}
	mk := func(staleness time.Duration) *telemetry.DomainCollector {
		dc, err := telemetry.NewDriverDomainCollector(drv, telemetry.DomainCollectorConfig{
			Staleness: staleness,
			Labels:    []string{"domain", "state"},
		})
		must(err)
		_, err = dc.WriteExposition(io.Discard) // warm buffers and caches
		must(err)
		return dc
	}
	bench := func(dc *telemetry.DomainCollector) (int64, int64, int) {
		var size int
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n, err := dc.WriteExposition(io.Discard)
				must(err)
				size = n
			}
		})
		return res.NsPerOp(), res.AllocsPerOp(), size
	}
	st := scrapeStats{Domains: n}
	st.SweepNs, st.SweepAllocs, st.Bytes = bench(mk(0))
	st.CachedNs, st.CachedAllocs, _ = bench(mk(time.Hour))
	return st
}

// tableT9 is the per-domain metrics export table: one /metrics scrape
// as a function of domain count, sweeping versus cached.
func tableT9() {
	header("Table T9", "per-domain /metrics scrape: bulk sweep vs staleness cache",
		fmt.Sprintf("%-10s %-14s %-12s %-14s %-12s %-12s",
			"domains", "sweep", "allocs", "cached", "allocs", "bytes"))
	for _, n := range []int{100, 1000, 10000} {
		st := benchScrape(n)
		fmt.Printf("%-10d %-14s %-12d %-14s %-12d %-12d\n",
			n, time.Duration(st.SweepNs), st.SweepAllocs,
			time.Duration(st.CachedNs), st.CachedAllocs, st.Bytes)
	}
}

// scaleStats is one tier of the T8 mega-fleet measurement: a real
// in-process fleet (scale harness) brought up, seeded, and probed.
type scaleStats struct {
	Hosts         int
	Domains       int
	SettleNs      int64
	SeedNs        int64
	SchedP50Ns    int64
	SchedP99Ns    int64
	PlanNs        int64
	PlanMoves     int
	SummariesNs   int64
	RegistryBytes uint64
}

func benchScale(hosts, domainsPerHost, probes int) scaleStats {
	core.ResetRegistryForTest()
	drvtest.Register(quiet)
	remote.Register()
	f, err := scale.Launch(scale.Options{
		Hosts:          hosts,
		DomainsPerHost: domainsPerHost,
		PollInterval:   time.Hour, // poll noise off; refreshes are explicit
		Log:            quiet,
	})
	must(err)
	defer func() {
		f.Close()
		core.ResetRegistryForTest()
	}()
	must(f.SeedDomains())
	_, err = f.ScheduleProbes(5) // warm the define/start path before timing
	must(err)
	// Flush the garbage the bring-up left behind (seeding churns XML and
	// RPC buffers for every domain in the fleet) so collection pauses
	// triggered by earlier work don't land inside the probe window.
	runtime.GC()
	lats, err := f.ScheduleProbes(probes)
	must(err)
	var planMoves int
	plan := median(5, func() {
		mv, _, _, _ := fleet.PlanRebalance(f.Reg.Inventory(), fleet.RebalanceOptions{
			SkewThreshold: 0.05, MaxMigrations: 64,
		})
		planMoves = len(mv)
	})
	sums := perOp(200, func() {
		if len(f.Reg.Summaries()) != hosts {
			must(fmt.Errorf("bad summary count"))
		}
	})
	return scaleStats{
		Hosts: hosts, Domains: f.Domains(),
		SettleNs: int64(f.SettleTime), SeedNs: int64(f.SeedTime),
		SchedP50Ns: int64(scale.Percentile(lats, 50)), SchedP99Ns: int64(scale.Percentile(lats, 99)),
		PlanNs: int64(plan), PlanMoves: planMoves,
		SummariesNs: int64(sums), RegistryBytes: f.RegistryBytes(),
	}
}

// t8Tiers picks the fleet sizes for the T8 curve. The 1,000-host tier
// (100k domains) takes tens of seconds; it is always in bench.sh runs
// (GOVIRT_T8_FULL is exported there) and skippable for a quick look.
func t8Tiers() []int {
	if os.Getenv("GOVIRT_T8_SKIP_FULL") != "" {
		return []int{10, 100}
	}
	return []int{10, 100, 1000}
}

func tableT8() {
	header("Table T8", "mega-fleet scale: N in-process daemons over memory transports",
		fmt.Sprintf("%-7s %-9s %-10s %-10s %-12s %-12s %-12s %-7s %-9s",
			"hosts", "domains", "settle", "seed", "sched p50", "sched p99", "plan", "moves", "reg MiB"))
	for _, hosts := range t8Tiers() {
		st := benchScale(hosts, 100, 200)
		fmt.Printf("%-7d %-9d %-10s %-10s %-12s %-12s %-12s %-7d %-9.1f\n",
			st.Hosts, st.Domains,
			time.Duration(st.SettleNs).Round(time.Millisecond),
			time.Duration(st.SeedNs).Round(time.Millisecond),
			time.Duration(st.SchedP50Ns).Round(time.Microsecond),
			time.Duration(st.SchedP99Ns).Round(time.Microsecond),
			time.Duration(st.PlanNs).Round(time.Microsecond),
			st.PlanMoves, float64(st.RegistryBytes)/(1<<20))
	}
}

// watchStats is one mode of the T10 watch-propagation measurement: a
// 64-host fleet whose domains are toggled through a lifecycle change,
// timing daemon-side change → registry summary update, plus the sweep
// rate of the same fleet fully quiesced.
type watchStats struct {
	Mode             string
	Hosts            int
	PropP50Ns        int64
	PropP99Ns        int64
	SweepsPerOp      float64
	IdleSweepsPerSec float64
	WatchEvents      uint64
	Resyncs          uint64
}

func benchWatch(mode string, disableWatch bool, poll time.Duration, samples int) watchStats {
	core.ResetRegistryForTest()
	drvtest.Register(quiet)
	remote.Register()
	const hosts = 64
	f, err := scale.Launch(scale.Options{
		Hosts:          hosts,
		DomainsPerHost: 10,
		PollInterval:   poll,
		DisableWatch:   disableWatch,
		Log:            quiet,
	})
	must(err)
	defer func() {
		f.Close()
		core.ResetRegistryForTest()
	}()
	must(f.SeedDomains())
	host := f.Names[0]
	conn, err := f.Reg.Host(host)
	must(err)
	dom, err := conn.LookupDomain("d0000-0000")
	must(err)
	active := func() int {
		for _, s := range f.Reg.Summaries() {
			if s.Host == host {
				return s.ActiveDomains
			}
		}
		return -1
	}
	waitActive := func(want int) time.Duration {
		t0 := time.Now()
		for active() != want {
			if time.Since(t0) > 30*time.Second {
				must(fmt.Errorf("summary stuck at %d active, want %d", active(), want))
			}
			time.Sleep(100 * time.Microsecond)
		}
		return time.Since(t0)
	}
	time.Sleep(300 * time.Millisecond) // drain seeding events and owed turns
	base := active()

	st0 := f.Reg.WatchStats()
	lats := make([]time.Duration, 0, samples)
	for i := 0; i < samples; i++ {
		must(dom.Destroy())
		lats = append(lats, waitActive(base-1))
		must(dom.Create())
		waitActive(base)
	}
	st1 := f.Reg.WatchStats()

	const window = 500 * time.Millisecond
	idle0 := f.Reg.WatchStats()
	time.Sleep(window)
	idle1 := f.Reg.WatchStats()

	return watchStats{
		Mode: mode, Hosts: hosts,
		PropP50Ns:        int64(scale.Percentile(lats, 50)),
		PropP99Ns:        int64(scale.Percentile(lats, 99)),
		SweepsPerOp:      float64(st1.Sweeps-st0.Sweeps) / float64(samples),
		IdleSweepsPerSec: float64(idle1.Sweeps-idle0.Sweeps) / window.Seconds(),
		WatchEvents:      st1.WatchEvents - st0.WatchEvents,
		Resyncs:          st1.Resyncs,
	}
}

// t10Rows runs both T10 modes: the watch-stream reconcile loop with
// polling effectively off, and the legacy poke-and-sweep baseline.
func t10Rows() []watchStats {
	return []watchStats{
		benchWatch("watch", false, time.Hour, 30),
		benchWatch("poll-100ms", true, 100*time.Millisecond, 30),
	}
}

func tableT10() {
	header("Table T10", "watch-stream propagation: event push vs legacy poke-and-sweep (64 hosts)",
		fmt.Sprintf("%-12s %-12s %-12s %-11s %-14s %-8s %-8s",
			"mode", "prop p50", "prop p99", "sweeps/op", "idle sweeps/s", "events", "resyncs"))
	for _, st := range t10Rows() {
		fmt.Printf("%-12s %-12s %-12s %-11.2f %-14.1f %-8d %-8d\n",
			st.Mode,
			time.Duration(st.PropP50Ns).Round(10*time.Microsecond),
			time.Duration(st.PropP99Ns).Round(10*time.Microsecond),
			st.SweepsPerOp, st.IdleSweepsPerSec, st.WatchEvents, st.Resyncs)
	}
}

// qosStats is the T11 measurement: the admission-control tax on the
// authenticated unix fast path, and tenant isolation under a flooding
// neighbor.
type qosStats struct {
	OffNs, OnNs           int64
	OffAllocs, OnAllocs   int64
	AloneP50Ns, AloneP99Ns int64
	FloodP50Ns, FloodP99Ns int64
	FloodSent, FloodRejected uint64
}

// qosDaemon brings up a daemon whose unix listener requires SASL, with
// the given class specs installed (none = admission control off).
func qosDaemon(specs []string, watermark int) (mk func(user, pass, extra string) string, cleanup func()) {
	core.ResetRegistryForTest()
	drvtest.Register(quiet)
	remote.Register()
	d := daemon.New(quiet)
	srv, err := d.AddServer("govirtd", 2, 8, 2, daemon.ClientLimits{MaxClients: 64})
	must(err)
	srv.AddProgram(daemon.NewRemoteProgram(srv))
	srv.SetCredentials(map[string]string{"bench": "pw", "good": "gx", "noisy": "nx"})
	if len(specs) > 0 {
		classes, err := qos.ParseClasses(specs)
		must(err)
		srv.SetQoS(qos.NewEngine(qos.Config{Classes: classes, ShedWatermark: watermark}))
	}
	dir, err := os.MkdirTemp("", "benchreport-qos")
	must(err)
	sock := filepath.Join(dir, "q.sock")
	must(srv.ListenUnix(sock, daemon.ServiceConfig{AuthSASL: true}))
	esc := strings.ReplaceAll(sock, "/", "%2F")
	return func(user, pass, extra string) string {
			return fmt.Sprintf("test+unix://%s@/default?socket=%s&password=%s%s", user, esc, pass, extra)
		}, func() {
			d.Shutdown()
			os.RemoveAll(dir)
			core.ResetRegistryForTest()
		}
}

func benchQoS() qosStats {
	var st qosStats
	// Fast-path tax: the T6 op mix with no engine vs QoS enabled but
	// unthrottled.
	fastpath := func(specs []string) (int64, int64) {
		mk, cleanup := qosDaemon(specs, 0)
		defer cleanup()
		conn, err := core.Open(mk("bench", "pw", ""))
		must(err)
		defer conn.Close()
		dom, err := conn.LookupDomain("test")
		must(err)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := conn.Hostname(); err != nil {
					b.Fatal(err)
				}
				if _, err := dom.Info(); err != nil {
					b.Fatal(err)
				}
			}
		})
		return res.NsPerOp(), res.AllocsPerOp()
	}
	st.OffNs, st.OffAllocs = fastpath(nil)
	st.OnNs, st.OnAllocs = fastpath([]string{
		"gold rate_limit_calls_per_s=100000000 burst=100000000 priority=7 users=bench",
	})

	// Noisy neighbor: a well-behaved tenant's latency distribution alone
	// vs with a flooding tenant being rejected on the same daemon.
	specs := []string{
		"silver rate_limit_calls_per_s=100000000 burst=100000000 priority=7 users=good",
		"bronze rate_limit_calls_per_s=50 burst=10 priority=2 users=noisy",
	}
	probe := func(flooded bool) (int64, int64) {
		mk, cleanup := qosDaemon(specs, 64)
		defer cleanup()
		conn, err := core.Open(mk("good", "gx", ""))
		must(err)
		defer conn.Close()
		var stop chan struct{}
		var done sync.WaitGroup
		if flooded {
			noisy, err := core.Open(mk("noisy", "nx", "&overload_retry_ms=0"))
			must(err)
			defer noisy.Close()
			stop = make(chan struct{})
			done.Add(1)
			go func() {
				defer done.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					st.FloodSent++
					if _, err := noisy.Hostname(); err != nil {
						st.FloodRejected++
					}
					time.Sleep(time.Millisecond)
				}
			}()
		}
		const samples = 2000
		lats := make([]time.Duration, 0, samples)
		for i := 0; i < samples; i++ {
			t0 := time.Now()
			_, err := conn.Hostname()
			must(err)
			lats = append(lats, time.Since(t0))
		}
		if stop != nil {
			close(stop)
			done.Wait()
		}
		return int64(scale.Percentile(lats, 50)), int64(scale.Percentile(lats, 99))
	}
	st.AloneP50Ns, st.AloneP99Ns = probe(false)
	st.FloodP50Ns, st.FloodP99Ns = probe(true)
	return st
}

func tableT11() {
	header("Table T11", "multi-tenant QoS: admission tax on the fast path, noisy-neighbor isolation",
		fmt.Sprintf("%-26s %-16s %-16s %-12s", "case", "baseline", "with QoS", "delta"))
	st := benchQoS()
	fmt.Printf("%-26s %-16s %-16s %-12s\n", "fastpath/op-mix",
		time.Duration(st.OffNs), time.Duration(st.OnNs),
		fmt.Sprintf("%+.1f%%", 100*float64(st.OnNs-st.OffNs)/float64(st.OffNs)))
	fmt.Printf("%-26s %-16d %-16d %-12d\n", "fastpath/allocs-op",
		st.OffAllocs, st.OnAllocs, st.OnAllocs-st.OffAllocs)
	fmt.Printf("%-26s %-16s %-16s %-12s\n", "good-tenant/p50 (flood)",
		time.Duration(st.AloneP50Ns), time.Duration(st.FloodP50Ns),
		fmt.Sprintf("%+.1f%%", 100*float64(st.FloodP50Ns-st.AloneP50Ns)/float64(st.AloneP50Ns)))
	fmt.Printf("%-26s %-16s %-16s %-12s\n", "good-tenant/p99 (flood)",
		time.Duration(st.AloneP99Ns), time.Duration(st.FloodP99Ns),
		fmt.Sprintf("%+.1f%%", 100*float64(st.FloodP99Ns-st.AloneP99Ns)/float64(st.AloneP99Ns)))
	fmt.Printf("flooder: %d calls sent, %d rejected with typed overload errors\n",
		st.FloodSent, st.FloodRejected)
}

// t12Row is one cell of the migration-pipeline sweep (Table T12).
type t12Row struct {
	Dirty   uint64
	Streams int
	Mode    string
	Res     migrate.Result
}

// t12Rows sweeps the migration pipeline model: a calm and a hot dirty
// rate, across stream counts, in all three modes. The hot rate is
// chosen so single-stream pre-copy cannot converge on the link.
func t12Rows() []t12Row {
	const memKiB = 1024 * 1024 // 1 GiB guest
	rows := make([]t12Row, 0, 24)
	for _, dirty := range []uint64{10_000, 300_000} {
		for _, streams := range []int{1, 2, 4, 8} {
			for _, mode := range []string{"precopy", "autoconverge", "postcopy"} {
				opts := core.MigrateOptions{
					BandwidthMBps: 1000, MaxDowntimeMs: 300, ParallelStreams: streams,
				}
				switch mode {
				case "autoconverge":
					opts.AutoConverge = true
				case "postcopy":
					opts.PostCopy = true
				}
				res, err := migrate.Estimate(
					migrate.Workload{MemKiB: memKiB, DirtyPagesSec: dirty}, opts)
				must(err)
				rows = append(rows, t12Row{Dirty: dirty, Streams: streams, Mode: mode, Res: res})
			}
		}
	}
	return rows
}

func tableT12() {
	header("Table T12", "live-migration pipeline: dirty rate × streams × mode (1 GiB guest, 1000 MB/s link)",
		fmt.Sprintf("%-14s %-8s %-13s %-7s %-12s %-12s %-10s %-9s %s",
			"dirty pg/s", "streams", "mode", "iters", "total", "downtime", "converged", "throttle", "faults"))
	for _, r := range t12Rows() {
		fmt.Printf("%-14d %-8d %-13s %-7d %-12s %-12s %-10v %-9d %d\n",
			r.Dirty, r.Streams, r.Mode, r.Res.Iterations,
			fmt.Sprintf("%.0f ms", r.Res.TotalTimeMs()),
			fmt.Sprintf("%.1f ms", r.Res.DowntimeMs()),
			r.Res.Converged, r.Res.ThrottleSteps, r.Res.PostCopyFaults)
	}
}

// emitJSON prints the fast-path metrics as JSON for scripts/bench.sh.
func emitJSON() {
	mar, unm := benchCodec()
	single, singles, bulk := benchSweep()
	scrapes := []scrapeStats{benchScrape(100), benchScrape(1000), benchScrape(10000)}
	scrapeOut := make([]map[string]interface{}, 0, len(scrapes))
	for _, s := range scrapes {
		scrapeOut = append(scrapeOut, map[string]interface{}{
			"domains":         s.Domains,
			"sweep_ns":        s.SweepNs,
			"sweep_allocs":    s.SweepAllocs,
			"cached_ns":       s.CachedNs,
			"cached_allocs":   s.CachedAllocs,
			"exposition_size": s.Bytes,
		})
	}
	scaleOut := make([]map[string]interface{}, 0, 3)
	for _, hosts := range t8Tiers() {
		st := benchScale(hosts, 100, 200)
		scaleOut = append(scaleOut, map[string]interface{}{
			"hosts":           st.Hosts,
			"domains":         st.Domains,
			"settle_ns":       st.SettleNs,
			"seed_ns":         st.SeedNs,
			"schedule_p50_ns": st.SchedP50Ns,
			"schedule_p99_ns": st.SchedP99Ns,
			"plan_ns":         st.PlanNs,
			"plan_moves":      st.PlanMoves,
			"summaries_ns":    st.SummariesNs,
			"registry_bytes":  st.RegistryBytes,
		})
	}
	watchOut := make([]map[string]interface{}, 0, 2)
	for _, st := range t10Rows() {
		watchOut = append(watchOut, map[string]interface{}{
			"mode":                st.Mode,
			"hosts":               st.Hosts,
			"prop_p50_ns":         st.PropP50Ns,
			"prop_p99_ns":         st.PropP99Ns,
			"sweeps_per_op":       st.SweepsPerOp,
			"idle_sweeps_per_sec": st.IdleSweepsPerSec,
			"watch_events":        st.WatchEvents,
			"resyncs":             st.Resyncs,
		})
	}
	migOut := make([]map[string]interface{}, 0, 24)
	for _, r := range t12Rows() {
		migOut = append(migOut, map[string]interface{}{
			"dirty_pages_sec": r.Dirty,
			"streams":         r.Streams,
			"mode":            r.Mode,
			"iterations":      r.Res.Iterations,
			"total_ns":        r.Res.TotalTimeNs,
			"downtime_ns":     r.Res.DowntimeNs,
			"converged":       r.Res.Converged,
			"throttle_steps":  r.Res.ThrottleSteps,
			"postcopy_faults": r.Res.PostCopyFaults,
		})
	}
	qst := benchQoS()
	out := map[string]interface{}{
		"schema": "benchreport/v6",
		"codec": map[string]interface{}{
			"marshal_64rows":   mar,
			"unmarshal_64rows": unm,
		},
		"sweep_unix_64domains": map[string]interface{}{
			"single_dominfo_ns":    single.Nanoseconds(),
			"singles_loop_ns":      singles.Nanoseconds(),
			"bulk_ns":              bulk.Nanoseconds(),
			"bulk_vs_single":       float64(bulk) / float64(single),
			"bulk_vs_singles_gain": float64(singles) / float64(bulk),
		},
		"domain_scrape":     scrapeOut,
		"fleet_scale":       scaleOut,
		"watch_propagation": watchOut,
		"migration":         migOut,
		"qos_overhead": map[string]interface{}{
			"fastpath_off_ns":     qst.OffNs,
			"fastpath_on_ns":      qst.OnNs,
			"fastpath_off_allocs": qst.OffAllocs,
			"fastpath_on_allocs":  qst.OnAllocs,
			"overhead_frac":       float64(qst.OnNs-qst.OffNs) / float64(qst.OffNs),
			"good_p50_alone_ns":   qst.AloneP50Ns,
			"good_p99_alone_ns":   qst.AloneP99Ns,
			"good_p50_flooded_ns": qst.FloodP50Ns,
			"good_p99_flooded_ns": qst.FloodP99Ns,
			"flood_sent":          qst.FloodSent,
			"flood_rejected":      qst.FloodRejected,
		},
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	must(enc.Encode(out))
}

// trajectory merges every BENCH_*.json in the repo root into one table,
// one row per recorded run, so the performance history reads as a
// curve across PRs rather than a single latest snapshot. Older schema
// versions simply leave their missing columns blank.
func trajectory() {
	files, err := filepath.Glob("BENCH_*.json")
	must(err)
	sort.Strings(files)
	if len(files) == 0 {
		fmt.Println("no BENCH_*.json files found")
		return
	}
	header("Trajectory", "headline fast-path metrics across recorded benchmark runs",
		fmt.Sprintf("%-14s %-14s %-12s %-12s %-14s %-14s %-12s %-12s",
			"run", "schema", "marshal", "bulk sweep", "scrape 10k", "sched p99*", "plan*", "watch p99"))
	fmt.Println("(* largest fleet_scale tier in the file)")
	for _, file := range files {
		raw, err := os.ReadFile(file)
		must(err)
		var doc map[string]interface{}
		if err := json.Unmarshal(raw, &doc); err != nil {
			fmt.Printf("%-14s unreadable: %v\n", file, err)
			continue
		}
		schema, _ := doc["schema"].(string)
		schema = strings.TrimPrefix(schema, "benchreport/")
		marshal := jsonDur(jsonDig(doc, "codec", "marshal_64rows", "CompiledNs"))
		bulk := jsonDur(jsonDig(doc, "sweep_unix_64domains", "bulk_ns"))
		scrape := jsonDur(jsonRowField(doc["domain_scrape"], "domains", 10000, "sweep_ns"))
		tier := jsonMaxRow(doc["fleet_scale"], "hosts")
		sched, plan := "-", "-"
		if tier != nil {
			sched = jsonDur(tier["schedule_p99_ns"])
			plan = jsonDur(tier["plan_ns"])
		}
		watchP99 := jsonDur(jsonRowStrField(doc["watch_propagation"], "mode", "watch", "prop_p99_ns"))
		fmt.Printf("%-14s %-14s %-12s %-12s %-14s %-14s %-12s %-12s\n",
			strings.TrimSuffix(file, ".json"), schema, marshal, bulk, scrape, sched, plan, watchP99)
	}
}

// jsonDig walks nested JSON objects by key, returning nil when any
// level is missing.
func jsonDig(doc map[string]interface{}, keys ...string) interface{} {
	var cur interface{} = doc
	for _, k := range keys {
		m, ok := cur.(map[string]interface{})
		if !ok {
			return nil
		}
		cur = m[k]
	}
	return cur
}

// jsonRowStrField finds the array element whose string key equals want
// and returns its field, or nil.
func jsonRowStrField(arr interface{}, key, want, field string) interface{} {
	rows, ok := arr.([]interface{})
	if !ok {
		return nil
	}
	for _, r := range rows {
		if m, ok := r.(map[string]interface{}); ok {
			if v, _ := m[key].(string); v == want {
				return m[field]
			}
		}
	}
	return nil
}

// jsonRowField finds the array element whose key equals want and
// returns its field, or nil.
func jsonRowField(arr interface{}, key string, want float64, field string) interface{} {
	rows, ok := arr.([]interface{})
	if !ok {
		return nil
	}
	for _, r := range rows {
		if m, ok := r.(map[string]interface{}); ok {
			if v, _ := m[key].(float64); v == want {
				return m[field]
			}
		}
	}
	return nil
}

// jsonMaxRow returns the array element with the largest numeric key, or
// nil for missing/empty arrays.
func jsonMaxRow(arr interface{}, key string) map[string]interface{} {
	rows, ok := arr.([]interface{})
	if !ok {
		return nil
	}
	var best map[string]interface{}
	bestV := -1.0
	for _, r := range rows {
		if m, ok := r.(map[string]interface{}); ok {
			if v, _ := m[key].(float64); v > bestV {
				best, bestV = m, v
			}
		}
	}
	return best
}

// jsonDur renders a JSON ns number as a rounded duration, "-" if absent.
func jsonDur(v interface{}) string {
	f, ok := v.(float64)
	if !ok {
		return "-"
	}
	return time.Duration(int64(f)).Round(100 * time.Nanosecond).String()
}

func benchDaemonOn(transport string, d *daemon.Daemon) (*core.Connect, func()) {
	core.ResetRegistryForTest()
	drvtest.Register(quiet)
	remote.Register()
	srv, err := d.AddServer("govirtd", 2, 8, 2, daemon.ClientLimits{MaxClients: 64})
	must(err)
	srv.AddProgram(daemon.NewRemoteProgram(srv))
	var uriStr string
	switch transport {
	case "unix":
		dir, err := os.MkdirTemp("", "benchreport")
		must(err)
		sock := filepath.Join(dir, "b.sock")
		must(srv.ListenUnix(sock, daemon.ServiceConfig{}))
		uriStr = "test+unix:///default?socket=" + strings.ReplaceAll(sock, "/", "%2F")
	case "tcp":
		addr, err := srv.ListenTCP("127.0.0.1:0", daemon.ServiceConfig{Transport: daemon.TransportTCP})
		must(err)
		host, port, _ := strings.Cut(addr, ":")
		uriStr = fmt.Sprintf("test+tcp://%s:%s/default", host, port)
	}
	conn, err := core.Open(uriStr)
	must(err)
	return conn, func() {
		conn.Close()
		d.Shutdown()
		core.ResetRegistryForTest()
	}
}

func tableT3() {
	header("Table T3", "lifecycle timings per driver (modelled guest latency, mgmt overhead)",
		fmt.Sprintf("%-8s %-16s %-16s %-16s", "driver", "boot(sim)", "shutdown(sim)", "mgmt ns/cycle"))
	for _, driver := range []string{"qsim", "xsim", "csim"} {
		drv := openDriver(driver)
		_, err := drv.DefineDomain(domainXML(driver, "vm"))
		must(err)
		ma := drv.(core.MachineAccess)

		must(drv.CreateDomain("vm"))
		m, err := ma.Machine("vm")
		must(err)
		boot := m.Stats().SimTimeNs
		before := m.Stats().SimTimeNs
		_ = before
		must(drv.ShutdownDomain("vm"))

		mgmt := perOp(200, func() {
			drv.CreateDomain("vm")  //nolint:errcheck
			drv.DestroyDomain("vm") //nolint:errcheck
		})
		// Shutdown sim time: measure one graceful cycle.
		must(drv.CreateDomain("vm"))
		m2, err := ma.Machine("vm")
		must(err)
		preShut := m2.Stats().SimTimeNs
		must(drv.ShutdownDomain("vm"))
		shutdownSim := m2.Stats().SimTimeNs - preShut

		fmt.Printf("%-8s %-16s %-16s %-16s\n", driver,
			fmt.Sprintf("%.0f ms", float64(boot)/1e6),
			fmt.Sprintf("%.0f ms", float64(shutdownSim)/1e6),
			mgmt)
	}
}

func tableT4() {
	header("Table T4", "non-intrusive monitoring cost per fleet poll",
		fmt.Sprintf("%-10s %-16s %-16s", "domains", "per-poll", "per-domain"))
	for _, fleet := range []int{10, 100, 1000} {
		drv := openDriver("test")
		for i := 0; i < fleet; i++ {
			must(defStart(drv, "test", fmt.Sprintf("vm%04d", i)))
		}
		names, err := drv.ListDomains(core.ListActive)
		must(err)
		poll := perOp(20, func() {
			for _, n := range names {
				drv.DomainStats(n) //nolint:errcheck
			}
		})
		fmt.Printf("%-10d %-16s %-16s\n", fleet, poll, poll/time.Duration(fleet))
	}
}

func tableT5() {
	header("Table T5", "admin-plane operation latency (unix socket)",
		fmt.Sprintf("%-24s %-14s", "operation", "latency"))
	d := daemon.New(quiet)
	srv, err := d.AddServer("govirtd", 2, 8, 2, daemon.ClientLimits{MaxClients: 64})
	must(err)
	srv.AddProgram(daemon.NewRemoteProgram(srv))
	adm, err := d.AddServer("admin", 1, 2, 1, daemon.ClientLimits{MaxClients: 8})
	must(err)
	adm.AddProgram(admin.NewProgram(d))
	dir, err := os.MkdirTemp("", "benchreport")
	must(err)
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "a.sock")
	must(adm.ListenUnix(sock, daemon.ServiceConfig{}))
	conn, err := admin.Open(sock)
	must(err)
	defer d.Shutdown()
	defer conn.Close()

	set := typedparams.NewList()
	set.AddUInt(admin.FieldMaxWorkers, 8) //nolint:errcheck
	rows := []struct {
		name string
		fn   func()
	}{
		{"srv-list", func() { conn.ListServers() }},                                 //nolint:errcheck
		{"srv-threadpool-info", func() { conn.ThreadpoolParams("govirtd") }},        //nolint:errcheck
		{"srv-threadpool-set", func() { conn.SetThreadpoolParams("govirtd", set) }}, //nolint:errcheck
		{"srv-clients-info", func() { conn.ClientLimits("govirtd") }},               //nolint:errcheck
		{"client-list", func() { conn.ListClients("admin") }},                       //nolint:errcheck
		{"dmn-log-define", func() { conn.SetLoggingFilters("3:rpc 1:driver") }},     //nolint:errcheck
	}
	for _, r := range rows {
		fmt.Printf("%-24s %-14s\n", r.name, perOp(500, r.fn))
	}
}

// tableT6 uses telemetry.Snapshot to split the unix round trip into its
// internal stages: workerpool queue wait, server-side dispatch, and the
// client-observed total (which adds wire encode/decode and scheduling).
func tableT6() {
	header("Table T6", "telemetry breakdown of the unix round trip (queue wait / dispatch / total)",
		fmt.Sprintf("%-16s %-12s %-14s %-14s %-14s", "operation", "calls", "queue p50", "dispatch p50", "client total"))

	reg := telemetry.NewRegistry()
	conn, shutdown := benchDaemonOn("unix", daemon.NewWithTelemetry(quiet, reg))
	defer shutdown()
	dom, err := conn.LookupDomain("test")
	must(err)

	hostname := perOp(500, func() { conn.Hostname() }) //nolint:errcheck
	dominfo := perOp(500, func() { dom.Info() })       //nolint:errcheck

	snap := reg.Snapshot()
	histo := func(name string) telemetry.HistogramSnapshot {
		for _, h := range snap.Histograms {
			if h.Name == name {
				return h
			}
		}
		return telemetry.HistogramSnapshot{}
	}
	queue := histo(`daemon_queue_wait_seconds{server="govirtd"}`)
	rows := []struct {
		op     string
		proc   string
		client time.Duration
	}{
		{"hostname", "GetHostname", hostname},
		{"dominfo", "DomainGetInfo", dominfo},
	}
	for _, r := range rows {
		disp := histo(fmt.Sprintf("daemon_dispatch_seconds{program=%q,proc=%q}", "remote", r.proc))
		fmt.Printf("%-16s %-12d %-14s %-14s %-14s\n", r.op, disp.Count,
			time.Duration(queue.P50Ns), time.Duration(disp.P50Ns), r.client)
	}
}

func figureF1() {
	header("Figure F1", "list/lookup latency vs number of defined domains",
		fmt.Sprintf("%-10s %-16s %-16s", "domains", "list", "lookup"))
	for _, count := range []int{10, 100, 1000, 10000} {
		drv := openDriver("test")
		for i := 0; i < count; i++ {
			_, err := drv.DefineDomain(domainXML("test", fmt.Sprintf("vm%05d", i)))
			must(err)
		}
		iters := 2000 / count
		if iters < 3 {
			iters = 3
		}
		list := perOp(iters, func() { drv.ListDomains(0) }) //nolint:errcheck
		target := fmt.Sprintf("vm%05d", count/2)
		lookup := perOp(2000, func() { drv.LookupDomain(target) }) //nolint:errcheck
		fmt.Printf("%-10d %-16s %-16s\n", count, list, lookup)
	}
}

func figureF2() {
	header("Figure F2", "request throughput vs workerpool size (100µs hypervisor wait per job)",
		fmt.Sprintf("%-10s %-16s %-12s", "workers", "jobs/sec", "speedup"))
	const jobs = 2000
	var base float64
	for _, workers := range []int{1, 2, 4, 8, 16} {
		pool, err := daemon.NewWorkerpool(workers, workers, 0)
		must(err)
		elapsed := median(3, func() {
			var wg sync.WaitGroup
			wg.Add(jobs)
			for i := 0; i < jobs; i++ {
				pool.Submit(func() { //nolint:errcheck
					workUnit()
					wg.Done()
				}, false)
			}
			wg.Wait()
		})
		pool.Shutdown()
		rate := float64(jobs) / elapsed.Seconds()
		if base == 0 {
			base = rate
		}
		fmt.Printf("%-10d %-16.0f %.2fx\n", workers, rate, rate/base)
	}
}

// workUnit models one request's service time: daemon workers spend most
// of a request waiting on the hypervisor, so the cost is a wait, not
// CPU — which is exactly why additional workers raise throughput.
func workUnit() {
	time.Sleep(100 * time.Microsecond)
}

func figureF3() {
	header("Figure F3", "live migration: total time & downtime vs memory × dirty rate (1000 MB/s link)",
		fmt.Sprintf("%-10s %-14s %-7s %-14s %-14s %s", "mem", "dirty pg/s", "iters", "total", "downtime", "converged"))
	for _, memGiB := range []uint64{1, 4, 16} {
		for _, dirty := range []uint64{1_000, 100_000, 1_000_000} {
			res, err := migrate.Estimate(migrate.Workload{MemKiB: memGiB * 1024 * 1024, DirtyPagesSec: dirty},
				core.MigrateOptions{BandwidthMBps: 1000, MaxDowntimeMs: 300, MaxIterations: 30})
			must(err)
			fmt.Printf("%-10s %-14d %-7d %-14s %-14s %v\n",
				fmt.Sprintf("%d GiB", memGiB), dirty, res.Iterations,
				fmt.Sprintf("%.0f ms", res.TotalTimeMs()),
				fmt.Sprintf("%.1f ms", res.DowntimeMs()),
				res.Converged)
		}
	}
}

func figureF4() {
	header("Figure F4", "XDR serialization throughput by payload",
		fmt.Sprintf("%-12s %-14s %-14s", "payload", "marshal", "unmarshal"))
	run := func(name string, v interface{}, mk func() interface{}) {
		data, err := rpc.Marshal(v)
		must(err)
		m := perOp(5000, func() { rpc.Marshal(v) })            //nolint:errcheck
		u := perOp(5000, func() { rpc.Unmarshal(data, mk()) }) //nolint:errcheck
		fmt.Printf("%-12s %-14s %-14s\n", name, m, u)
	}
	type small struct {
		A uint32
		B uint64
		S string
	}
	run("small", &small{1, 2, "domain"}, func() interface{} { return &small{} })
	run("xml-4KiB", &struct{ X string }{strings.Repeat("<x/>", 1024)},
		func() interface{} { return &struct{ X string }{} })
	run("xml-64KiB", &struct{ X string }{strings.Repeat("<x/>", 16384)},
		func() interface{} { return &struct{ X string }{} })
}

func ablationA3() {
	header("Ablation A3", "xsim hypercall batching: privilege transitions per shutdown cycle",
		fmt.Sprintf("%-12s %-18s %-12s", "mode", "hypercalls/cycle", "saved/cycle"))
	for _, batch := range []bool{true, false} {
		node, _ := nodeinfo.NewNode("n", nodeinfo.ProfileServer)
		hv := xsim.New(node)
		drv := xen.NewOn(hv, node, batch, quiet)
		_, err := drv.DefineDomain(domainXML("xsim", "vm"))
		must(err)
		const cycles = 200
		for i := 0; i < cycles; i++ {
			must(drv.CreateDomain("vm"))
			must(drv.ShutdownDomain("vm"))
		}
		served, saved := hv.HypercallCount()
		mode := "batched"
		if !batch {
			mode = "unbatched"
		}
		fmt.Printf("%-12s %-18.2f %-12.2f\n", mode,
			float64(served)/cycles, float64(saved)/cycles)
	}
}

// synthFleetInv builds a synthetic fleet snapshot (server-profile hosts
// with a sawtooth of existing load) for the pure scheduler and planner
// measurements.
func synthFleetInv(hosts int) []fleet.HostInventory {
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

// benchFleet brings up n in-process daemons and a registry over them.
func benchFleet(n int) (*fleet.Registry, func()) {
	core.ResetRegistryForTest()
	drvtest.Register(quiet)
	remote.Register()
	dir, err := os.MkdirTemp("", "benchreport")
	must(err)
	var uris []string
	var daemons []*daemon.Daemon
	for i := 0; i < n; i++ {
		d := daemon.New(quiet)
		srv, err := d.AddServer("govirtd", 2, 8, 2, daemon.ClientLimits{MaxClients: 64})
		must(err)
		srv.AddProgram(daemon.NewRemoteProgram(srv))
		sock := filepath.Join(dir, fmt.Sprintf("node%d.sock", i))
		must(srv.ListenUnix(sock, daemon.ServiceConfig{}))
		daemons = append(daemons, d)
		uris = append(uris, "test+unix:///empty?socket="+strings.ReplaceAll(sock, "/", "%2F"))
	}
	reg, err := fleet.New(fleet.Config{Hosts: uris, PollInterval: time.Second, Log: quiet})
	must(err)
	reg.Start()
	if up := reg.WaitSettled(5 * time.Second); up != n {
		must(fmt.Errorf("%d/%d fleet hosts up", up, n))
	}
	return reg, func() {
		reg.Close()
		for _, d := range daemons {
			d.Shutdown()
		}
		os.RemoveAll(dir)
		core.ResetRegistryForTest()
	}
}

func tableT7() {
	header("Table T7", "fleet rebalancing: planning cost and live drain migration",
		fmt.Sprintf("%-22s %-14s %-10s %-14s %-14s", "case", "wall/op", "moves", "sim total", "sim downtime"))
	for _, hosts := range []int{4, 16, 64} {
		invs := synthFleetInv(hosts)
		var moves int
		plan := perOp(200, func() {
			mv, _, _, _ := fleet.PlanRebalance(invs, fleet.RebalanceOptions{
				SkewThreshold: 0.05, MaxMigrations: 64,
			})
			moves = len(mv)
		})
		fmt.Printf("%-22s %-14s %-10d %-14s %-14s\n",
			fmt.Sprintf("plan/hosts-%d", hosts), plan, moves, "-", "-")
	}

	// Live drain: one domain ping-pongs between two daemons, a full
	// iterative pre-copy over RPC each time.
	reg, shutdown := benchFleet(2)
	defer shutdown()
	p, err := reg.Schedule(domainXML("test", "wanderer"))
	must(err)
	from := p.Host
	var simTotalNs, simDownNs, n uint64
	wall := perOp(20, func() {
		res, err := reg.Rebalance(context.Background(), fleet.RebalanceOptions{Drain: from})
		must(err)
		if len(res.Migrations) != 1 {
			must(fmt.Errorf("drain pass moved %d domains", len(res.Migrations)))
		}
		must(res.Migrations[0].Err)
		from = res.Migrations[0].To
		simTotalNs += res.Migrations[0].Result.TotalTimeNs
		simDownNs += res.Migrations[0].Result.DowntimeNs
		n++
	})
	fmt.Printf("%-22s %-14s %-10d %-14s %-14s\n", "live/drain-2hosts", wall, 1,
		fmt.Sprintf("%.0f ms", float64(simTotalNs)/float64(n)/1e6),
		fmt.Sprintf("%.1f ms", float64(simDownNs)/float64(n)/1e6))
}

func figureF5() {
	header("Figure F5", "placement scheduling latency vs fleet size and policy",
		fmt.Sprintf("%-26s %-14s", "case", "per placement"))
	req := fleet.Request{Name: "new", TypeName: "test", MemKiB: 8 * 1024 * 1024, VCPUs: 4}
	for _, hosts := range []int{10, 100, 1000} {
		invs := synthFleetInv(hosts)
		for _, pol := range []fleet.Policy{fleet.Spread(), fleet.Pack()} {
			lat := perOp(500, func() {
				if got := fleet.Rank(pol, req, invs); len(got) == 0 {
					must(fmt.Errorf("empty ranking"))
				}
			})
			fmt.Printf("%-26s %-14s\n", fmt.Sprintf("rank/%s/hosts-%d", pol.Name(), hosts), lat)
		}
	}

	// Live: the full Schedule path (rank + define/start over RPC) against
	// three daemons, with teardown to keep the fleet at steady state.
	reg, shutdown := benchFleet(3)
	defer shutdown()
	seq := 0
	lat := perOp(50, func() {
		p, err := reg.Schedule(domainXML("test", fmt.Sprintf("vm%06d", seq)))
		must(err)
		seq++
		must(p.Domain.Destroy())
		must(p.Domain.Undefine())
	})
	fmt.Printf("%-26s %-14s\n", "live/schedule-3hosts", lat)
}

// tableR1 measures crash recovery: a daemon killed and restarted over
// its state journal replays every persisted definition on driver open;
// the row is the median replay wall time per defined-domain count.
func tableR1() {
	header("Table R1", "crash recovery: journal replay time vs defined domains",
		fmt.Sprintf("%-10s %-16s %-16s", "domains", "recovery", "per-domain"))
	for _, count := range []int{10, 100, 1000} {
		root, err := os.MkdirTemp("", "benchreport-r1")
		must(err)
		common.SetStateRoot(root)
		u := &uri.URI{Driver: "test", Path: "/r1"}
		seed, err := drvtest.New(u, quiet)
		must(err)
		for i := 0; i < count; i++ {
			_, err := seed.DefineDomain(domainXML("test", fmt.Sprintf("vm%05d", i)))
			must(err)
		}
		rec := median(5, func() {
			// One recovery: a fresh driver base over the same journal.
			drv, err := drvtest.New(u, quiet)
			must(err)
			names, err := drv.ListDomains(0)
			must(err)
			if len(names) != count {
				must(fmt.Errorf("recovered %d/%d domains", len(names), count))
			}
		})
		common.SetStateRoot("")
		os.RemoveAll(root)
		fmt.Printf("%-10d %-16s %-16s\n", count, rec, rec/time.Duration(count))
	}
}

// chaosFleet is benchFleet hardened the way the chaos suite runs it:
// journal-backed daemons (distinct state scopes, so a faulted connection
// replays instead of forgetting), fast reconnect, a per-call deadline,
// and a fixed registry seed.
func chaosFleet(n int) (*fleet.Registry, func()) {
	core.ResetRegistryForTest()
	drvtest.Register(quiet)
	remote.Register()
	root, err := os.MkdirTemp("", "benchreport-r2-state")
	must(err)
	common.SetStateRoot(root)
	dir, err := os.MkdirTemp("", "benchreport-r2")
	must(err)
	var uris []string
	var daemons []*daemon.Daemon
	for i := 0; i < n; i++ {
		d := daemon.New(quiet)
		srv, err := d.AddServer("govirtd", 2, 8, 2, daemon.ClientLimits{MaxClients: 64})
		must(err)
		srv.AddProgram(daemon.NewRemoteProgram(srv))
		sock := filepath.Join(dir, fmt.Sprintf("node%d.sock", i))
		must(srv.ListenUnix(sock, daemon.ServiceConfig{}))
		daemons = append(daemons, d)
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
	must(err)
	reg.Start()
	if up := reg.WaitSettled(5 * time.Second); up != n {
		must(fmt.Errorf("%d/%d chaos-fleet hosts up", up, n))
	}
	return reg, func() {
		reg.Close()
		for _, d := range daemons {
			d.Shutdown()
		}
		common.SetStateRoot("")
		os.RemoveAll(root)
		os.RemoveAll(dir)
		core.ResetRegistryForTest()
	}
}

// tableR2 reruns the T7 drain cycle with a fraction of received RPC
// frames deterministically dropped (seed 42). Faulted passes re-settle
// the fleet and count separately; wall/pass shows the deadline-bounded
// cost of transport loss, never an unbounded hang.
func tableR2() {
	header("Table R2", "rebalance drain cycle under injected transport faults (2 daemons, seed 42)",
		fmt.Sprintf("%-12s %-10s %-14s %-12s %-12s", "recv drop", "passes", "wall/pass", "migrated", "faulted"))
	for _, prob := range []float64{0, 0.05, 0.10} {
		reg, shutdown := chaosFleet(2)
		p, err := reg.Schedule(domainXML("test", "wanderer"))
		must(err)
		from := p.Host
		if prob > 0 {
			faultpoint.Default.Set("rpc.recv", faultpoint.Spec{
				Mode: faultpoint.ModeDrop, Prob: prob,
			})
			faultpoint.Default.Arm(42)
		}
		const passes = 10
		moved, faulted := 0, 0
		start := time.Now()
		for i := 0; i < passes; i++ {
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
		wall := time.Since(start) / passes
		faultpoint.Default.Disarm()
		shutdown()
		fmt.Printf("%-12s %-10d %-14s %-12d %-12d\n",
			fmt.Sprintf("%.0f%%", prob*100), passes, wall, moved, faulted)
	}
}

func defStart(drv core.DriverConn, driver, name string) error {
	if _, err := drv.DefineDomain(domainXML(driver, name)); err != nil {
		return err
	}
	return drv.CreateDomain(name)
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}
