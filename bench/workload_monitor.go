package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// monitorSweep is the largest-message workload: one client on tcp
// loopback runs a monitoring cycle against a daemon holding thousands
// of running domains — a bulk inventory sweep into a retained
// inventory, then one cold /metrics render through the domain
// collector. The wire codec on a multi-thousand-row reply, the driver's
// bulk listing and the exposition renderer dominate; per-call framing
// is one call per sweep.
type monitorSweep struct {
	fx      *fixture
	conn    *core.Connect
	doms    int
	want    int // rows and series groups every cycle must show
	inv     core.NodeInventory
	dc      *telemetry.DomainCollector
	handler http.Handler
	rec     recorderHTTP
	req     *http.Request
}

// recorderHTTP is a reusable http.ResponseWriter: the scrape body lands
// in one retained buffer, so the harness adds no allocation per cycle.
type recorderHTTP struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorderHTTP) Header() http.Header         { return r.header }
func (r *recorderHTTP) WriteHeader(code int)        { r.status = code }
func (r *recorderHTTP) Write(p []byte) (int, error) { return r.body.Write(p) }
func (r *recorderHTTP) reset() {
	r.status = http.StatusOK
	r.body.Reset()
	for k := range r.header {
		delete(r.header, k)
	}
}

func (w *monitorSweep) Clients() int { return 1 }

func (w *monitorSweep) Setup(cfg *runConfig) (split setupSplit, err error) {
	t0 := time.Now()
	if w.fx, err = startDaemon(daemonOpts{Transport: "tcp"}); err != nil {
		return split, err
	}
	split.Launch = time.Since(t0)
	t1 := time.Now()
	if w.conn, err = core.Open(w.fx.uri("test", "/empty")); err != nil {
		return split, err
	}
	split.Settle = time.Since(t1)
	t2 := time.Now()
	w.doms = cfg.Sizes.MonitorDomains
	if _, err = seedDomains(w.conn, "test", cfg.Seed, w.doms); err != nil {
		return split, err
	}
	if w.dc, err = telemetry.NewDriverDomainCollector(w.conn.Driver(), telemetry.DomainCollectorConfig{}); err != nil {
		return split, err
	}
	w.handler = telemetry.HandlerWith(telemetry.Default, w.dc)
	w.rec.header = http.Header{}
	if w.req, err = http.NewRequest(http.MethodGet, "/metrics", nil); err != nil {
		return split, err
	}
	w.want = w.doms
	// The first cycle resolves every domain's uuid label and sizes the
	// retained buffers; it belongs to set-up, not to the window.
	if r := w.Op(0, nil, nil); !r.OK {
		return split, fmt.Errorf("monitor-sweep: first cycle did not show %d running domains", w.doms)
	}
	split.Seed = time.Since(t2)
	if cfg.BreakCheck {
		w.want++
	}
	return split, nil
}

var (
	infoSeries  = []byte("\ngovirt_domain_info{")
	stateSeries = []byte("\ngovirt_domain_state{")
)

func (w *monitorSweep) Op(_ int, _ *rand.Rand, tr *tracer) opResult {
	start := time.Now()
	t := tr.begin()
	err := w.conn.NodeInventoryInto(&w.inv)
	tr.end(spanInventory, t)
	ok := err == nil && len(w.inv.Domains) == w.want
	for i := range w.inv.Domains {
		ok = ok && w.inv.Domains[i].Info.State == core.DomainRunning
	}
	w.rec.reset()
	t = tr.begin()
	w.handler.ServeHTTP(&w.rec, w.req)
	tr.end(spanScrape, t)
	body := w.rec.body.Bytes()
	ok = ok && w.rec.status == http.StatusOK &&
		bytes.Count(body, infoSeries) == w.want && bytes.Count(body, stateSeries) == w.want
	return opResult{Lat: time.Since(start), OK: ok}
}

func (w *monitorSweep) Check() error {
	if st := w.dc.Stats(); st.SweepErrors != 0 || st.Truncated != 0 {
		return fmt.Errorf("monitor-sweep: collector saw %d sweep errors, %d truncated rows", st.SweepErrors, st.Truncated)
	}
	rows, err := w.conn.DomainListInfo(core.ListActive)
	if err != nil {
		return err
	}
	if len(rows) != w.doms {
		return fmt.Errorf("monitor-sweep: %d running domains at the end, want %d", len(rows), w.doms)
	}
	return nil
}

func (w *monitorSweep) Teardown() error {
	if w.conn != nil {
		w.conn.Close() //nolint:errcheck // the daemon is going away with it
	}
	if w.fx != nil {
		w.fx.stop()
	}
	return nil
}

func (w *monitorSweep) Inputs() probeInputs {
	name := w.inv.Domains[0].Name
	return probeInputs{
		Transport: "tcp",
		URI:       w.fx.uri("test", "/empty"),
		Conn:      w.conn,
		Domain:    name,
		XML:       domainXML("test", name, 256, 1),
		Backends:  []string{"test"},
		Pool:      w.fx.srv.Pool(),
		Collector: w.dc,
		Codec:     []codecSample{{Args: &struct{}{}, Reply: inventoryReply(&w.inv), Weight: 1}},
		// Two bulk calls per cycle (the explicit sweep and the
		// collector's own), one bulk listing each, one render.
		Path: []pathTerm{
			{"rpc.client_call_ns", 2}, {"wire.inventory_marshal_ns", 2}, {"wire.inventory_unmarshal_ns", 2},
			{"drivers.common.list_info_ns", 2}, {"daemon.submit_to_run_ns", 2}, {"telemetry.scrape_cold_ns", 1},
		},
	}
}

// inventoryReply rebuilds the wire form of an inventory the client
// decoded, which is what the daemon marshalled to produce it.
func inventoryReply(inv *core.NodeInventory) *wire.NodeInventoryReply {
	r := &wire.NodeInventoryReply{Node: wire.NodeInfoReply{
		Model: inv.Node.Model, MemoryKiB: inv.Node.MemoryKiB, CPUs: uint32(inv.Node.CPUs),
		MHz: uint32(inv.Node.MHz), NUMANodes: uint32(inv.Node.NUMANodes),
		Sockets: uint32(inv.Node.Sockets), Cores: uint32(inv.Node.Cores), Threads: uint32(inv.Node.Threads),
	}}
	for _, d := range inv.Domains {
		r.Domains = append(r.Domains, wire.DomainInfoRow{
			Name: d.Name, State: int64(d.Info.State), MaxMemKiB: d.Info.MaxMemKiB,
			MemKiB: d.Info.MemKiB, VCPUs: int64(d.Info.VCPUs), CPUTimeNs: d.Info.CPUTimeNs,
		})
	}
	return r
}
