package main

import (
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/drivers/common"
	"repro/internal/events"
	"repro/internal/fleet"
	"repro/internal/hyper"
	"repro/internal/hyper/csim"
	"repro/internal/hyper/qsim"
	"repro/internal/hyper/xsim"
	"repro/internal/memnet"
	"repro/internal/nodeinfo"
	"repro/internal/qos"
	"repro/internal/rpc"
	"repro/internal/scale"
	"repro/internal/statestore"
	"repro/internal/telemetry"
	"repro/internal/watch"
	"repro/internal/wire"
	"repro/internal/xmlspec"
)

// codecSample is one argument/reply pair the workload really sends,
// weighted by its share of the calls.
type codecSample struct {
	Args, Reply interface{}
	Weight      int
}

// pathTerm names a probe on the operation's blocking path and how many
// times one operation crosses it.
type pathTerm struct {
	Metric string
	Calls  float64
}

// probeInputs is what a workload hands the layer probes: the inputs it
// really sent, and the live objects a probe may measure while the
// clients are idle. Probes of layers the workload does not touch fall
// back to a fixed input, so every metric is measured on every workload.
type probeInputs struct {
	Transport   string                     // where the echo probes run: unix, tcp or mem
	URI         string                     // opens further connections to the workload's daemon
	Conn        *core.Connect              // idle connection holding the workload's domains
	Domain      string                     // a running domain on Conn
	XML         string                     // a definition the workload sends
	Backends    []string                   // drivers behind the workload's daemon
	Rows        int                        // rows of one inventory reply when Conn is nil
	Pool        *daemon.Workerpool         // the daemon's workerpool, when reachable
	Engine      *qos.Engine                // the daemon's admission engine, when installed
	Collector   *telemetry.DomainCollector // the workload's own scrape collector
	Fleet       *scale.Fleet
	JournalRoot string // state root in force, "" when the journal is off
	Gaps        uint64 // watch gaps the workload's own streams saw
	MissedStart uint64 // lifecycles whose started event was folded into a later one
	Sweeps      uint64 // registry sweeps since the workload settled
	Overcount   int    // active domains the cached summaries show beyond what the daemons hold
	PlanNs      []uint32
	Codec       []codecSample
	Path        []pathTerm
}

// probeBudget is the wall time one timed probe may take; the smoke test
// runs with less.
const probeBudget = 60 * time.Millisecond

// timeIt runs fn in batches of about a millisecond until the budget is
// spent and returns the median of the batch means in ns: the median
// drops the batches a scheduler hiccup or a GC cycle landed in.
func timeIt(budget time.Duration, fn func()) float64 {
	start := time.Now()
	fn()
	once := time.Since(start)
	batch := 1
	if once < time.Millisecond {
		batch = int(time.Millisecond/(once+1)) + 1
	}
	var means []float64
	for len(means) < 5 || time.Since(start) < budget {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		means = append(means, float64(time.Since(t0))/float64(batch))
		if len(means) >= 5 && time.Since(start) > 4*budget {
			break
		}
	}
	return medianOf(means)
}

// allocsPer reports heap allocations per call of fn.
func allocsPer(n int, fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// prober accumulates the per-layer metrics of one traced run.
type prober struct {
	cfg    *runConfig
	budget time.Duration // wall time one timed probe may take
	in     probeInputs
	out    metricSet
	errs   []error
}

func (p *prober) set(name string, v float64, samples int) {
	p.out[name] = metric{Value: v, Samples: samples}
}

func (p *prober) fail(probe string, err error) {
	p.errs = append(p.errs, fmt.Errorf("probe %s: %w", probe, err))
}

// telemetrySnap is the part of telemetry.Default the traced window is
// bracketed with.
type telemetrySnap struct {
	hists    map[string][]telemetry.BucketCount
	counters map[string]uint64
}

func snapTelemetry() telemetrySnap {
	s := telemetry.Default.Snapshot()
	out := telemetrySnap{hists: map[string][]telemetry.BucketCount{}, counters: map[string]uint64{}}
	for _, h := range s.Histograms {
		out.hists[h.Name] = h.Buckets
	}
	for _, c := range s.Counters {
		out.counters[c.Name] = c.Value
	}
	return out
}

// histDeltaP50 merges every histogram whose name starts with prefix,
// subtracts the earlier snapshot and interpolates the median of what the
// window added.
func histDeltaP50(before, after telemetrySnap, prefix string) (float64, int) {
	var bounds []uint64
	var counts []float64 // per-bucket, not cumulative
	for name, cum := range after.hists {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		if counts == nil {
			counts = make([]float64, len(cum))
			for _, b := range cum {
				bounds = append(bounds, b.UpperNs)
			}
		}
		prev := before.hists[name]
		var lastA, lastB uint64
		for i, b := range cum {
			var pb uint64
			if i < len(prev) {
				pb = prev[i].Cumulative
			}
			counts[i] += float64((b.Cumulative - lastA) - (pb - lastB))
			lastA, lastB = b.Cumulative, pb
		}
	}
	total := 0.0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0, 0
	}
	seen, lower := 0.0, 0.0
	for i, c := range counts {
		upper := float64(bounds[i])
		if bounds[i] == 0 { // +Inf bucket
			upper = lower
		}
		if seen+c >= total/2 && c > 0 {
			return lower + (total/2-seen)/c*(upper-lower), int(total)
		}
		seen += c
		lower = upper
	}
	return lower, int(total)
}

func counterDelta(before, after telemetrySnap, name string) float64 {
	return float64(after.counters[name] - before.counters[name])
}

// depthSampler watches the workerpool queue during the traced window.
type depthSampler struct {
	pool *daemon.Workerpool
	stop chan struct{}
	done sync.WaitGroup
	max  int
}

func startDepthSampler(pool *daemon.Workerpool) *depthSampler {
	s := &depthSampler{pool: pool, stop: make(chan struct{})}
	if pool == nil {
		return s
	}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				st := s.pool.Stats()
				if d := st.QueueLen + st.PrioQueueLen; d > s.max {
					s.max = d
				}
			}
		}
	}()
	return s
}

func (s *depthSampler) finish() int {
	close(s.stop)
	s.done.Wait()
	return s.max
}

// echoServer answers every frame with the same payload as a reply: the
// least a peer can do, so what is left is framing, the transport and —
// behind rpc.Client — the pending table and the reader hand-off.
type echoServer struct {
	ln   net.Listener
	done sync.WaitGroup
}

func startEcho(transport string) (*echoServer, func() (net.Conn, error), error) {
	name := fmt.Sprintf("govirt-bench-echo-%d-%d", os.Getpid(), endpointSeq.Add(1))
	var ln net.Listener
	var dial func() (net.Conn, error)
	var err error
	switch transport {
	case "unix":
		ln, err = net.Listen("unix", "@"+name)
		dial = func() (net.Conn, error) { return net.Dial("unix", "@"+name) }
	case "tcp":
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		dial = func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) }
	default:
		ln, err = memnet.Listen(name)
		dial = func() (net.Conn, error) { return memnet.Dial(name) }
	}
	if err != nil {
		return nil, nil, err
	}
	e := &echoServer{ln: ln}
	e.done.Add(1)
	go func() {
		defer e.done.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			e.done.Add(1)
			go func() {
				defer e.done.Done()
				defer nc.Close()
				conn := rpc.NewConn(nc)
				for {
					f, err := conn.ReadFrame()
					if err != nil {
						return
					}
					h := f.Header
					h.Type = uint32(rpc.TypeReply)
					err = conn.WriteMessage(h, f.Payload)
					f.Release()
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return e, dial, nil
}

func (e *echoServer) stop(clients ...interface{ Close() error }) {
	e.ln.Close() //nolint:errcheck // unblocks Accept
	for _, c := range clients {
		c.Close() //nolint:errcheck // unblocks the per-connection echo loop
	}
	e.done.Wait()
}

// frameEcho times one WriteMessage + ReadFrame round trip.
func frameEcho(budget time.Duration, transport string, payload []byte) (float64, error) {
	srv, dial, err := startEcho(transport)
	if err != nil {
		return 0, err
	}
	nc, err := dial()
	if err != nil {
		srv.stop()
		return 0, err
	}
	conn := rpc.NewConn(nc)
	defer srv.stop(conn)
	h := rpc.Header{Program: rpc.ProgramRemote, Version: rpc.ProtocolVersion, Procedure: wire.ProcGetHostname}
	var ioErr error
	ns := timeIt(budget, func() {
		if err := conn.WriteMessage(h, payload); err != nil {
			ioErr = err
			return
		}
		f, err := conn.ReadFrame()
		if err != nil {
			ioErr = err
			return
		}
		f.Release()
	})
	return ns, ioErr
}

func (p *prober) probeRPC() {
	in := p.in
	// Codec on the workload's own arguments and replies.
	var marshal, unmarshal, bytes, weight float64
	var small []byte
	for _, s := range in.Codec {
		w := float64(s.Weight)
		weight += w
		for _, v := range []interface{}{s.Args, s.Reply} {
			data, err := rpc.Marshal(v)
			if err != nil {
				p.fail("rpc.marshal", err)
				return
			}
			if small == nil || len(data) < len(small) {
				small = data
			}
			buf := make([]byte, 0, len(data)+64)
			marshal += w * timeIt(p.budget/4, func() { buf, _ = rpc.AppendMarshal(buf[:0], v) })
			dst := reflect.New(reflect.TypeOf(v).Elem()).Interface()
			unmarshal += w * timeIt(p.budget/4, func() { _ = rpc.Unmarshal(data, dst) })
			bytes += w * float64(len(data))
		}
	}
	p.set("rpc.marshal_ns", marshal/weight, len(in.Codec))
	p.set("rpc.unmarshal_ns", unmarshal/weight, len(in.Codec))
	p.set("rpc.payload_bytes", bytes/weight, len(in.Codec))

	ns, err := frameEcho(p.budget, in.Transport, small)
	if err != nil {
		p.fail("rpc.frame_echo", err)
	}
	p.set("rpc.frame_echo_ns", ns, 1)
	ns, err = frameEcho(p.budget, "mem", small)
	if err != nil {
		p.fail("memnet.echo", err)
	}
	p.set("memnet.echo_ns", ns, 1)

	srv, dial, err := startEcho(in.Transport)
	if err != nil {
		p.fail("rpc.client_call", err)
		return
	}
	nc, err := dial()
	if err != nil {
		srv.stop()
		p.fail("rpc.client_call", err)
		return
	}
	client := rpc.NewClient(nc, rpc.ProgramRemote, nil)
	defer srv.stop(client)
	args, ret := &wire.NameArgs{Name: "s0000-vm00000"}, &wire.NameArgs{}
	call := func() {
		if err := client.Call(wire.ProcDomainGetInfo, args, ret); err != nil {
			p.fail("rpc.client_call", err)
		}
	}
	p.set("rpc.client_call_ns", timeIt(p.budget, call), 1)
	p.set("rpc.client_call_allocs", allocsPer(2000, call), 2000)
}

// probeWire times the compiled-plan codec on the bulk inventory reply,
// decoding into retained storage exactly as the remote driver does.
func (p *prober) probeWire() {
	var inv core.NodeInventory
	if p.in.Conn != nil {
		if err := p.in.Conn.NodeInventoryInto(&inv); err != nil {
			p.fail("wire.inventory", err)
			return
		}
	}
	if len(inv.Domains) == 0 {
		rows := p.in.Rows
		if rows == 0 {
			rows = 64
		}
		for i := 0; i < rows; i++ {
			inv.Domains = append(inv.Domains, core.NamedDomainInfo{
				Name: fmt.Sprintf("s0000-vm%05d", i),
				Info: core.DomainInfo{State: core.DomainRunning, MaxMemKiB: 262144, MemKiB: 262144, VCPUs: 1, CPUTimeNs: uint64(i) * 1000},
			})
		}
	}
	reply := inventoryReply(&inv)
	data, err := rpc.Marshal(reply)
	if err != nil {
		p.fail("wire.inventory", err)
		return
	}
	buf := make([]byte, 0, len(data)+64)
	p.set("wire.inventory_marshal_ns", timeIt(p.budget, func() { buf, _ = rpc.AppendMarshal(buf[:0], reply) }), len(inv.Domains))
	var into struct {
		Node    wire.NodeInfoReply
		Domains []core.NamedDomainInfo
	}
	p.set("wire.inventory_unmarshal_ns", timeIt(p.budget, func() { _ = rpc.Unmarshal(data, &into) }), len(inv.Domains))
	p.set("wire.inventory_bytes", float64(len(data)), len(inv.Domains))
}

func (p *prober) probeDaemon() {
	pool, err := daemon.NewWorkerpool(2, 8, 2)
	if err != nil {
		p.fail("daemon.submit_to_run", err)
		return
	}
	defer pool.Shutdown()
	ran := make(chan struct{}, 1)
	job := func() { ran <- struct{}{} }
	p.set("daemon.submit_to_run_ns", timeIt(p.budget, func() {
		if err := pool.Submit(job, false); err != nil {
			p.fail("daemon.submit_to_run", err)
			return
		}
		<-ran
	}), 1)
}

// probeQoS times the admission sequence the server runs per call on a
// resolved client: token, inflight slot, queue marks, release.
func (p *prober) probeQoS() {
	eng := p.in.Engine
	if eng == nil {
		classes, err := qos.ParseClasses([]string{"gold rate_limit_calls_per_s=100000000 burst=100000000 priority=7 users=" + benchUser})
		if err != nil {
			p.fail("qos.admit", err)
			return
		}
		eng = qos.NewEngine(qos.Config{Classes: classes})
	}
	before := rejected(eng)
	qs := eng.Resolve(benchUser)
	object := []byte("s0000-vm00000")
	p.set("qos.admit_ns", timeIt(p.budget, func() {
		if qs.HasACL() && !qs.Allow("DomainGetInfo", object) {
			return
		}
		if _, ok := qs.TakeToken(time.Now()); !ok {
			return
		}
		if !qs.TryInflight() {
			return
		}
		qs.MarkQueued()
		qs.MarkDequeued()
		qs.EndCall()
	}), 1)
	p.set("qos.rejected_total", float64(before), 1)
}

func rejected(eng *qos.Engine) uint64 {
	var n uint64
	for _, c := range eng.Snapshot() {
		for _, r := range c.Rejected {
			n += r
		}
	}
	return n
}

// probeRemote prices drivers/remote: the same procedure on the same
// daemon through core and the remote driver, and through a bare
// rpc.Client.
func (p *prober) probeRemote() {
	conn, err := core.Open(p.in.URI)
	if err != nil {
		p.fail("drivers.remote.overhead", err)
		return
	}
	defer conn.Close() //nolint:errcheck // probe connection
	raw, err := rawClient(p.in.URI)
	if err != nil {
		p.fail("drivers.remote.overhead", err)
		return
	}
	defer raw.Close() //nolint:errcheck
	var reply wire.StringReply
	// Interleave the two so a drift in the box hits both alike.
	var via, bare []float64
	for i := 0; i < 4; i++ {
		via = append(via, timeIt(p.budget/4, func() {
			if _, err := conn.Hostname(); err != nil {
				p.fail("drivers.remote.overhead", err)
			}
		}))
		bare = append(bare, timeIt(p.budget/4, func() {
			if err := raw.Call(wire.ProcGetHostname, &struct{}{}, &reply); err != nil {
				p.fail("drivers.remote.overhead", err)
			}
		}))
	}
	p.set("drivers.remote.overhead_ns", medianOf(via)-medianOf(bare), len(via))
}

// lifecycleSteps are the per-call medians of the uniform lifecycle on a
// local connection: drivers/common and the hooks below it, no daemon.
type lifecycleSteps struct {
	define, create, suspendResume, destroy, undefine, info, listInfo float64
}

func (s lifecycleSteps) total() float64 {
	return s.define + s.create + s.suspendResume + s.destroy + s.undefine
}

const lifecycleReps = 24

func uniformLifecycle(budget time.Duration, driver string, rows int) (lifecycleSteps, error) {
	var s lifecycleSteps
	path := "/system"
	if driver == "test" {
		path = "/bench-probe"
	}
	conn, err := core.Open(driver + "://" + path)
	if err != nil {
		return s, err
	}
	defer conn.Close() //nolint:errcheck // local driver
	xml := domainXML(driver, "probe-cycle", 256, 1)
	var steps [5][]float64
	for i := 0; i < lifecycleReps; i++ {
		t0 := time.Now()
		dom, err := conn.DefineDomain(xml)
		if err != nil {
			return s, err
		}
		t1 := time.Now()
		if err := dom.Create(); err != nil {
			return s, err
		}
		t2 := time.Now()
		if err := dom.Suspend(); err != nil {
			return s, err
		}
		if err := dom.Resume(); err != nil {
			return s, err
		}
		t3 := time.Now()
		if err := dom.Destroy(); err != nil {
			return s, err
		}
		t4 := time.Now()
		if err := dom.Undefine(); err != nil {
			return s, err
		}
		t5 := time.Now()
		for j, d := range []time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), t5.Sub(t4)} {
			steps[j] = append(steps[j], float64(d))
		}
	}
	s.define, s.create, s.suspendResume = medianOf(steps[0]), medianOf(steps[1]), medianOf(steps[2])
	s.destroy, s.undefine = medianOf(steps[3]), medianOf(steps[4])

	var doms []*core.Domain
	for i := 0; i < rows; i++ {
		dom, err := conn.CreateDomainXML(domainXML(driver, fmt.Sprintf("probe-row%05d", i), 256, 1))
		if err != nil {
			return s, err
		}
		doms = append(doms, dom)
	}
	s.info = timeIt(budget/2, func() { _, err = doms[0].Info() })
	var inv core.NodeInventory
	s.listInfo = timeIt(budget/2, func() { err = conn.NodeInventoryInto(&inv) })
	for _, dom := range doms {
		// Leave no journal entry behind when a state root is set.
		if e := dom.Destroy(); e != nil && err == nil {
			err = e
		}
		if e := dom.Undefine(); e != nil && err == nil {
			err = e
		}
	}
	return s, err
}

// nativeLifecycle runs the same six steps through the simulator's own
// interface — monitor commands, hypercalls, container engine calls —
// with no uniform layer above it.
func nativeLifecycle(budget time.Duration, driver string) (float64, error) {
	node, err := nodeinfo.NewNode("probehost", nodeinfo.ProfileServer)
	if err != nil {
		return 0, err
	}
	cfg := hyper.Config{Name: "probe-native", VCPUs: 1, MemKiB: 256 * 1024, MaxMemKiB: 256 * 1024, CPUUtil: 0.2, DirtyPagesSec: 500}
	var cycle func() error
	switch driver {
	case "qsim":
		hv := qsim.New(node)
		cycle = func() error {
			e, err := hv.Launch(cfg)
			if err != nil {
				return err
			}
			for _, cmd := range []string{"system_boot", "stop", "cont", "quit"} {
				if err := e.Monitor().ExecuteCommand(cmd, nil, nil); err != nil {
					return err
				}
			}
			return hv.Quit(cfg.Name, false)
		}
	case "xsim":
		hv := xsim.New(node)
		cycle = func() error {
			res := hv.Call(xsim.Domain0, xsim.Hypercall{Op: xsim.OpDomainCreate, Args: xsim.CreateArgs{
				Name: cfg.Name, VCPUs: cfg.VCPUs, MemKiB: cfg.MemKiB, MaxMemKiB: cfg.MaxMemKiB,
				CPUUtil: cfg.CPUUtil, DirtyPagesSec: cfg.DirtyPagesSec,
			}})
			if res.Err != nil {
				return res.Err
			}
			id := res.Value.(xsim.DomID)
			for _, op := range []xsim.Op{xsim.OpDomainPause, xsim.OpDomainUnpause, xsim.OpDomainDestroy} {
				if r := hv.Call(xsim.Domain0, xsim.Hypercall{Op: op, Dom: id}); r.Err != nil {
					return r.Err
				}
			}
			return nil
		}
	case "csim":
		eng := csim.New(node)
		cycle = func() error {
			c, err := eng.Create(csim.Spec{Name: cfg.Name, VCPUs: cfg.VCPUs, MemKiB: cfg.MemKiB, CPUUtil: cfg.CPUUtil})
			if err != nil {
				return err
			}
			for _, step := range []func() error{c.Start, c.Freeze, c.Thaw, c.Kill} {
				if err := step(); err != nil {
					return err
				}
			}
			return eng.Remove(cfg.Name)
		}
	default:
		return 0, fmt.Errorf("no native interface for %q", driver)
	}
	var cycleErr error
	ns := timeIt(budget/2, func() {
		if err := cycle(); err != nil {
			cycleErr = err
		}
	})
	return ns, cycleErr
}

// probeDrivers measures drivers/common on the workload's back ends and
// the abstraction cost of the uniform API over each simulator's native
// interface (the paper's T1).
func (p *prober) probeDrivers() {
	rows := p.in.Rows
	if p.in.Conn != nil {
		if doms, err := p.in.Conn.DomainListInfo(0); err == nil {
			rows = len(doms)
		}
	}
	if rows == 0 {
		rows = 1
	}
	measured := map[string]lifecycleSteps{}
	lifecycleOf := func(driver string, rows int) (lifecycleSteps, bool) {
		if s, ok := measured[driver]; ok {
			return s, true
		}
		s, err := uniformLifecycle(p.budget, driver, rows)
		if err != nil {
			p.fail("drivers.common "+driver, err)
			return s, false
		}
		measured[driver] = s
		return s, true
	}
	var sum lifecycleSteps
	n := 0.0
	for _, be := range p.in.Backends {
		s, ok := lifecycleOf(be, rows)
		if !ok {
			return
		}
		n++
		sum.define += s.define
		sum.create += s.create
		sum.suspendResume += s.suspendResume
		sum.destroy += s.destroy
		sum.undefine += s.undefine
		sum.info += s.info
		sum.listInfo += s.listInfo
	}
	k := len(p.in.Backends)
	p.set("drivers.common.define_ns", sum.define/n, k)
	p.set("drivers.common.create_ns", sum.create/n, k)
	p.set("drivers.common.suspend_resume_ns", sum.suspendResume/n, k)
	p.set("drivers.common.destroy_ns", sum.destroy/n, k)
	p.set("drivers.common.undefine_ns", sum.undefine/n, k)
	p.set("drivers.common.dominfo_ns", sum.info/n, k)
	p.set("drivers.common.list_info_ns", sum.listInfo/n, rows)

	var uniform, native float64
	for _, sim := range churnDrivers {
		s, ok := lifecycleOf(sim, 1)
		if !ok {
			return
		}
		ns, err := nativeLifecycle(p.budget, sim)
		if err != nil {
			p.fail("hyper.native_lifecycle "+sim, err)
			return
		}
		p.set("hyper.native_lifecycle_ns."+sim, ns, 1)
		uniform += s.total()
		native += ns
	}
	p.set("core.abstraction_ratio", uniform/native, len(churnDrivers))
}

func (p *prober) probeXML() {
	data := []byte(p.in.XML)
	def, err := xmlspec.ParseDomain(data)
	if err != nil {
		p.fail("xmlspec.parse_domain", err)
		return
	}
	p.set("xmlspec.parse_domain_ns", timeIt(p.budget, func() { _, _ = xmlspec.ParseDomain(data) }), 1)
	p.set("xmlspec.format_domain_ns", timeIt(p.budget, func() { _, _ = def.Marshal() }), 1)
}

// fileVersions lists every regular file under root with the identity of
// its current contents, so two listings show which files were written
// in between even when a name was replaced in place.
func fileVersions(root string) (map[string]bool, error) {
	out := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return nil // removed while walking
		}
		ino := uint64(0)
		if st, ok := info.Sys().(*syscall.Stat_t); ok {
			ino = st.Ino
		}
		out[fmt.Sprintf("%s#%d#%d", path, ino, info.ModTime().UnixNano())] = true
		return nil
	})
	return out, err
}

// probeStatestore times the journal's atomic save and delete on a real
// definition and, when the workload journals, counts the files one
// lifecycle writes.
func (p *prober) probeStatestore() {
	dir := filepath.Join(p.cfg.OutDir, fmt.Sprintf("probe-store-%d-%d", os.Getpid(), endpointSeq.Add(1)))
	defer os.RemoveAll(dir) //nolint:errcheck // scratch
	store, err := statestore.Open(filepath.Join(dir, "store"))
	if err != nil {
		p.fail("statestore", err)
		return
	}
	data := []byte(p.in.XML)
	var saves, deletes []float64
	for i := 0; i < lifecycleReps; i++ {
		t0 := time.Now()
		if err := store.Save(statestore.KindDomains, "probe", data); err != nil {
			p.fail("statestore.save", err)
			return
		}
		t1 := time.Now()
		if err := store.Delete(statestore.KindDomains, "probe"); err != nil {
			p.fail("statestore.delete", err)
			return
		}
		saves, deletes = append(saves, float64(t1.Sub(t0))), append(deletes, float64(time.Since(t1)))
	}
	p.set("statestore.save_ns", medianOf(saves), len(saves))
	p.set("statestore.delete_ns", medianOf(deletes), len(deletes))

	writes := 0
	if p.in.JournalRoot != "" {
		// A local driver journalling into a scratch root: list the files
		// after every step and count the versions that were not there.
		root := filepath.Join(dir, "journal")
		common.SetStateRoot(root)
		defer common.SetStateRoot(p.in.JournalRoot)
		conn, err := core.Open(p.in.Backends[0] + ":///system")
		if err != nil {
			p.fail("statestore.writes_per_op", err)
			return
		}
		defer conn.Close() //nolint:errcheck // local driver
		seen, _ := fileVersions(root)
		var dom *core.Domain
		steps := []func() error{
			func() (err error) { dom, err = conn.DefineDomain(p.in.XML); return },
			func() error { return dom.Create() }, func() error { return dom.Suspend() },
			func() error { return dom.Resume() }, func() error { return dom.Destroy() },
			func() error { return dom.Undefine() },
		}
		for _, step := range steps {
			if err := step(); err != nil {
				p.fail("statestore.writes_per_op", err)
				return
			}
			now, err := fileVersions(root)
			if err != nil {
				p.fail("statestore.writes_per_op", err)
				return
			}
			for v := range now {
				if !seen[v] {
					writes++
				}
			}
			seen = now
		}
	}
	p.set("statestore.writes_per_op", float64(writes), 1)
}

// probeWatch times one event through a subscriber: enqueue, drainer
// wake-up, sink.
func (p *prober) probeWatch() {
	delivered := make(chan struct{}, 1)
	sub := watch.New(watch.Config{ID: 1, Coalesce: -1, HeartbeatCount: 0, Sink: watch.SinkFunc(func(*wire.WatchEvent) error {
		delivered <- struct{}{}
		return nil
	})})
	defer sub.Close()
	ev := events.Event{Type: events.EventStarted, Domain: "probe"}
	p.set("watch.publish_to_deliver_ns", timeIt(p.budget, func() {
		sub.Enqueue(ev)
		<-delivered
	}), 1)
}

// syntheticFleet stands in for a registry on workloads that run none.
func syntheticFleet(hosts, domains int) []fleet.HostInventory {
	invs := make([]fleet.HostInventory, hosts)
	for h := range invs {
		invs[h] = fleet.HostInventory{
			Host: fmt.Sprintf("node%04d", h), State: fleet.HostUp, DriverType: "test",
			Node: core.NodeInfo{MemoryKiB: 64 << 20, CPUs: 32},
		}
		for d := 0; d < domains+h%3; d++ {
			invs[h].Domains = append(invs[h].Domains, fleet.DomainRecord{
				Name: fmt.Sprintf("d%04d-%04d", h, d), State: core.DomainRunning, MemKiB: 262144, MaxMemKiB: 262144, VCPUs: 1,
			})
		}
	}
	return invs
}

func (p *prober) probeFleet() {
	req, err := fleet.ParseRequest(p.in.XML)
	if err != nil {
		p.fail("fleet.rank", err)
		return
	}
	planOpts := fleet.RebalanceOptions{SkewThreshold: 0.05, MaxMigrations: 64}
	var sums []fleet.HostSummary
	var invs []fleet.HostInventory
	if f := p.in.Fleet; f != nil {
		sums = f.Reg.Summaries()
		p.set("fleet.summaries_ns", timeIt(p.budget, func() { _ = f.Reg.Summaries() }), len(sums))
		invs = f.Reg.Inventory()
		p.set("fleet.registry_bytes", float64(f.RegistryBytes()), len(sums))
	} else {
		invs = syntheticFleet(16, 8)
		sums = make([]fleet.HostSummary, len(invs))
		p.set("fleet.summaries_ns", timeIt(p.budget, func() {
			for i := range invs {
				sums[i] = invs[i].Summary()
			}
		}), len(sums))
		p.set("fleet.registry_bytes", 0, 0)
	}
	p.set("fleet.rank_ns", timeIt(p.budget, func() { _ = fleet.RankSummaries(fleet.Spread(), req, sums) }), len(sums))
	if len(p.in.PlanNs) > 0 {
		p.set("fleet.plan_ns", p50(p.in.PlanNs), len(p.in.PlanNs))
	} else {
		p.set("fleet.plan_ns", timeIt(p.budget, func() { fleet.PlanRebalance(invs, planOpts) }), 1)
	}
	p.set("fleet.sweeps_total", float64(p.in.Sweeps), 1)
	p.set("fleet.summary_overcount", float64(p.in.Overcount), 1)
}

// probeScrape renders /metrics through the handler with the domain
// collector cold (staleness 0: one bulk sweep per scrape) and cached.
func (p *prober) probeScrape() {
	conn := p.in.Conn
	if conn == nil {
		c, err := core.Open(p.in.URI)
		if err != nil {
			p.fail("telemetry.scrape", err)
			return
		}
		defer c.Close() //nolint:errcheck // probe connection
		conn = c
	}
	req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		p.fail("telemetry.scrape", err)
		return
	}
	rec := recorderHTTP{header: http.Header{}}
	render := func(staleness time.Duration, reuse *telemetry.DomainCollector) float64 {
		dc := reuse
		if dc == nil {
			if dc, err = telemetry.NewDriverDomainCollector(conn.Driver(), telemetry.DomainCollectorConfig{Staleness: staleness}); err != nil {
				p.fail("telemetry.scrape", err)
				return 0
			}
		}
		h := telemetry.HandlerWith(telemetry.Default, dc)
		return timeIt(p.budget, func() {
			rec.reset()
			h.ServeHTTP(&rec, req)
		})
	}
	p.set("telemetry.scrape_cold_ns", render(0, p.in.Collector), 1)
	p.set("telemetry.exposition_bytes", float64(rec.body.Len()), 1)
	p.set("telemetry.scrape_cached_ns", render(time.Hour, nil), 1)
}

// runProbes measures every layer probe. The clients are idle: a probe
// has the box to itself, as the operation's blocking step would.
func (p *prober) runProbes() {
	p.probeRPC()
	p.probeWire()
	p.probeDaemon()
	p.probeQoS()
	p.probeRemote()
	p.probeDrivers()
	p.probeXML()
	p.probeStatestore()
	p.probeWatch()
	p.probeFleet()
	p.probeScrape()
}

// unattributed is what is left of the operation's median once the
// probes on its blocking path are taken out: goroutine wake-ups,
// scheduler latency, contention — everything no probe isolates.
func (p *prober) unattributed(opP50us float64) {
	var attributed float64
	for _, t := range p.in.Path {
		attributed += p.out[t.Metric].Value * t.Calls
	}
	op := opP50us * 1e3
	p.set("client.unattributed_ns", op-attributed, len(p.in.Path))
	share := 0.0
	if op > 0 {
		share = (op - attributed) / op
	}
	p.set("client.unattributed_share", share, len(p.in.Path))
}
