package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/url"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/drivers/lxc"
	"repro/internal/drivers/qemu"
	"repro/internal/drivers/remote"
	drvtest "repro/internal/drivers/test"
	"repro/internal/drivers/xen"
	"repro/internal/logging"
	"repro/internal/memnet"
	"repro/internal/qos"
	"repro/internal/rpc"
	"repro/internal/uri"
	"repro/internal/wire"
)

var quiet = logging.NewQuiet(logging.Error)

var registerOnce sync.Once

// registerDrivers fills the process-wide driver registry the way govirtd
// does at start-up.
func registerDrivers() {
	registerOnce.Do(func() {
		drvtest.Register(quiet)
		qemu.Register(quiet)
		xen.Register(quiet)
		lxc.Register(quiet)
		remote.Register()
	})
}

// endpointSeq keeps listener names unique across set-ups in one process.
var endpointSeq atomic.Int64

// daemonOpts selects the listener and admission control of a fixture
// daemon.
type daemonOpts struct {
	Transport string // "unix", "tcp" or "mem"
	SASL      bool   // SASL listener with user "bench"; implies one unthrottled QoS class
}

const (
	benchUser = "bench"
	benchPass = "pw"
)

// fixture is one running daemon plus what clients need to reach it.
type fixture struct {
	d      *daemon.Daemon
	srv    *daemon.Server
	engine *qos.Engine
	opts   daemonOpts
	addr   string // socket name, host:port or memnet endpoint
}

// startDaemon brings up a daemon with default instrumented telemetry on
// a fresh endpoint. Unix listeners use the abstract namespace, so no
// socket file is written outside the checkout.
func startDaemon(opts daemonOpts) (*fixture, error) {
	registerDrivers()
	f := &fixture{d: daemon.New(quiet), opts: opts}
	srv, err := f.d.AddServer("govirtd", 2, 8, 2, daemon.ClientLimits{MaxClients: 64})
	if err != nil {
		return nil, err
	}
	f.srv = srv
	srv.AddProgram(daemon.NewRemoteProgram(srv))
	cfg := daemon.ServiceConfig{AuthSASL: opts.SASL}
	if opts.SASL {
		srv.SetCredentials(map[string]string{benchUser: benchPass})
		classes, err := qos.ParseClasses([]string{
			"gold rate_limit_calls_per_s=100000000 burst=100000000 priority=7 users=" + benchUser,
		})
		if err != nil {
			return nil, err
		}
		f.engine = qos.NewEngine(qos.Config{Classes: classes})
		srv.SetQoS(f.engine)
	}
	name := fmt.Sprintf("govirt-bench-%d-%d", os.Getpid(), endpointSeq.Add(1))
	switch opts.Transport {
	case "unix":
		f.addr = "@" + name
		err = srv.ListenUnix(f.addr, cfg)
	case "tcp":
		cfg.Transport = daemon.TransportTCP
		f.addr, err = srv.ListenTCP("127.0.0.1:0", cfg)
	case "mem":
		f.addr = name
		err = srv.ListenMem(name, cfg)
	default:
		err = fmt.Errorf("unknown transport %q", opts.Transport)
	}
	if err != nil {
		f.d.Shutdown()
		return nil, err
	}
	return f, nil
}

// uri builds a connection URI for the given driver scheme and path.
func (f *fixture) uri(driver, path string) string {
	user, query := "", url.Values{}
	if f.opts.SASL {
		user = benchUser + "@"
		query.Set("password", benchPass)
	}
	switch f.opts.Transport {
	case "unix":
		query.Set("socket", f.addr)
		return fmt.Sprintf("%s+unix://%s%s?%s", driver, user, path, query.Encode())
	case "tcp":
		return fmt.Sprintf("%s+tcp://%s%s%s?%s", driver, user, f.addr, path, query.Encode())
	default:
		return fmt.Sprintf("%s+mem://%s%s%s?%s", driver, user, f.addr, path, query.Encode())
	}
}

func (f *fixture) stop() { f.d.Shutdown() }

// dialTransport opens a bare transport connection pair's client side the
// way the remote driver would for the URI.
func dialTransport(u *uri.URI) (net.Conn, error) {
	switch u.EffectiveTransport() {
	case uri.TransportUnix:
		sock, _ := u.Param("socket")
		return net.DialTimeout("unix", sock, 5*time.Second)
	case uri.TransportTCP:
		return net.DialTimeout("tcp", fmt.Sprintf("%s:%d", u.Host, u.Port), 5*time.Second)
	case uri.TransportMem:
		return memnet.Dial(u.Host)
	}
	return nil, fmt.Errorf("transport %q not supported", u.EffectiveTransport())
}

// rawClient opens an rpc.Client against a daemon and performs the
// remote driver's handshake by hand (auth list, SASL, ConnectOpen), so a
// probe can issue the same procedure with and without drivers/remote
// around it.
func rawClient(uriStr string) (*rpc.Client, error) {
	u, err := uri.Parse(uriStr)
	if err != nil {
		return nil, err
	}
	nc, err := dialTransport(u)
	if err != nil {
		return nil, err
	}
	c := rpc.NewClient(nc, rpc.ProgramRemote, nil)
	fail := func(err error) (*rpc.Client, error) {
		c.Close() //nolint:errcheck // already failing
		return nil, err
	}
	var mechs wire.AuthListReply
	if err := c.Call(wire.ProcAuthList, &struct{}{}, &mechs); err != nil {
		return fail(err)
	}
	if len(mechs.Mechanisms) > 0 {
		pass, _ := u.Param("password")
		data := append(append([]byte(u.Username), 0), pass...)
		var rep wire.SASLStartReply
		if err := c.Call(wire.ProcAuthSASLStart, &wire.SASLStartArgs{Mechanism: "SIM-PLAIN", Data: data}, &rep); err != nil {
			return fail(err)
		}
	}
	if err := c.Call(wire.ProcConnectOpen, &wire.ConnectOpenArgs{URI: u.String()}, nil); err != nil {
		return fail(err)
	}
	return c, nil
}

// domainXML is the definition every workload uses: small, valid for
// every driver type, with the workload hints the simulators read.
func domainXML(driver, name string, memMiB, vcpus int) string {
	return fmt.Sprintf(`<domain type='%s'><name>%s</name><description>cpu_util=0.2 dirty_pages_sec=500</description><memory unit='MiB'>%d</memory><vcpu>%d</vcpu><os><type arch='x86_64'>hvm</type></os></domain>`,
		driver, name, memMiB, vcpus)
}

func seededPerm(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// seedDomains defines and starts n domains on conn, named from the seed
// in a seeded order, and returns their handles in definition order.
func seedDomains(conn *core.Connect, driver string, seed int64, n int) ([]*core.Domain, error) {
	doms := make([]*core.Domain, 0, n)
	for _, i := range seededPerm(seed, n) {
		dom, err := conn.CreateDomainXML(domainXML(driver, fmt.Sprintf("s%04x-vm%05d", seed&0xffff, i), 256, 1))
		if err != nil {
			return nil, fmt.Errorf("seed domain %d: %w", i, err)
		}
		doms = append(doms, dom)
	}
	return doms, nil
}
