package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// rpcSmall is the smallest-message workload: two clients, each on its
// own SASL unix connection behind one unthrottled QoS class, issue
// 50% Hostname, 40% Domain.Info and 10% LookupDomain. Driver work is
// close to nothing, so the per-call cost of rpc framing and codec,
// daemon dispatch and workerpool hand-off, qos admission and the remote
// driver's marshalling is the operation.
type rpcSmall struct {
	fx      *fixture
	clients []*rpcClient
	host    string
	expect  core.DomainInfo
}

// rpcClient is one connection with the domains it defined. Test-driver
// state is per daemon-side connection, so each client seeds its own.
type rpcClient struct {
	conn *core.Connect
	doms []*core.Domain
}

const rpcSmallClients = 2

func (w *rpcSmall) Clients() int { return len(w.clients) }

func (w *rpcSmall) Setup(cfg *runConfig) (split setupSplit, err error) {
	t0 := time.Now()
	if w.fx, err = startDaemon(daemonOpts{Transport: "unix", SASL: true}); err != nil {
		return split, err
	}
	split.Launch = time.Since(t0)
	t1 := time.Now()
	for c := 0; c < rpcSmallClients; c++ {
		conn, err := core.Open(w.fx.uri("test", "/empty"))
		if err != nil {
			return split, err
		}
		w.clients = append(w.clients, &rpcClient{conn: conn})
	}
	split.Settle = time.Since(t1)
	t2 := time.Now()
	for c, cl := range w.clients {
		if cl.doms, err = seedDomains(cl.conn, "test", cfg.Seed+int64(c), cfg.Sizes.RPCDomains); err != nil {
			return split, err
		}
	}
	split.Seed = time.Since(t2)
	if w.host, err = w.clients[0].conn.Hostname(); err != nil {
		return split, err
	}
	if w.expect, err = w.clients[0].doms[0].Info(); err != nil {
		return split, err
	}
	if w.host == "" || w.expect.State != core.DomainRunning {
		return split, fmt.Errorf("rpc-small: seeded state is wrong: host %q, state %v", w.host, w.expect.State)
	}
	if cfg.BreakCheck {
		w.expect.VCPUs++
	}
	return split, nil
}

func (w *rpcSmall) Op(c int, rng *rand.Rand, tr *tracer) opResult {
	cl := w.clients[c]
	draw := rng.Intn(10)
	dom := cl.doms[rng.Intn(len(cl.doms))]
	var ok bool
	start := time.Now()
	switch {
	case draw < 5:
		t := tr.begin()
		host, err := cl.conn.Hostname()
		tr.end(spanHostname, t)
		ok = err == nil && host == w.host
	case draw < 9:
		t := tr.begin()
		info, err := dom.Info()
		tr.end(spanDomainInfo, t)
		ok = err == nil && info.State == core.DomainRunning &&
			info.VCPUs == w.expect.VCPUs && info.MaxMemKiB == w.expect.MaxMemKiB
	default:
		t := tr.begin()
		got, err := cl.conn.LookupDomain(dom.Name())
		tr.end(spanLookup, t)
		ok = err == nil && got.Name() == dom.Name() && got.UUID() == dom.UUID()
	}
	return opResult{Lat: time.Since(start), OK: ok}
}

func (w *rpcSmall) Check() error {
	for c, cl := range w.clients {
		rows, err := cl.conn.DomainListInfo(core.ListActive)
		if err != nil {
			return err
		}
		if len(rows) != len(cl.doms) {
			return fmt.Errorf("rpc-small: client %d sees %d running domains, want %d", c, len(rows), len(cl.doms))
		}
	}
	return nil
}

func (w *rpcSmall) Teardown() error {
	for _, cl := range w.clients {
		cl.conn.Close() //nolint:errcheck // the daemon is going away with it
	}
	if w.fx != nil {
		w.fx.stop()
	}
	return nil
}

func (w *rpcSmall) Inputs() probeInputs {
	dom := w.clients[0].doms[0]
	return probeInputs{
		Transport: "unix",
		URI:       w.fx.uri("test", "/empty"),
		Conn:      w.clients[0].conn,
		Domain:    dom.Name(),
		XML:       domainXML("test", dom.Name(), 256, 1),
		Backends:  []string{"test"},
		Pool:      w.fx.srv.Pool(),
		Engine:    w.fx.engine,
		Codec: []codecSample{
			{Args: &struct{}{}, Reply: &wire.StringReply{Value: w.host}, Weight: 5},
			{Args: &wire.NameArgs{Name: dom.Name()}, Reply: &wire.DomainInfoReply{
				State: uint32(w.expect.State), MaxMemKiB: w.expect.MaxMemKiB, MemKiB: w.expect.MemKiB,
				VCPUs: uint32(w.expect.VCPUs), CPUTimeNs: w.expect.CPUTimeNs,
			}, Weight: 4},
			{Args: &wire.NameArgs{Name: dom.Name()}, Reply: &wire.DomainMetaReply{
				Meta: wire.DomainMeta{Name: dom.Name(), UUID: dom.UUID(), ID: int32(dom.ID())},
			}, Weight: 1},
		},
		// One call per op through the whole remote stack; the driver's
		// own work rides along in the dispatch histogram.
		Path: []pathTerm{
			{"rpc.client_call_ns", 1}, {"drivers.remote.overhead_ns", 1}, {"qos.admit_ns", 1},
			{"daemon.submit_to_run_ns", 1}, {"daemon.dispatch_p50_ns", 1},
		},
	}
}
