package daemon_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/drivers/remote"
	drvtest "repro/internal/drivers/test"
	"repro/internal/events"
	"repro/internal/logging"
	"repro/internal/telemetry"
	"repro/internal/uri"
)

// startDaemon brings up a daemon with one management server listening on
// a unix socket and a TCP port, with the test driver registered
// server-side.
func startDaemon(t *testing.T, limits daemon.ClientLimits, creds map[string]string) (sock, tcpAddr string, d *daemon.Daemon) {
	t.Helper()
	core.ResetRegistryForTest()
	log := logging.NewQuiet(logging.Error)
	drvtest.Register(log)
	remote.Register()

	d = daemon.New(log)
	srv, err := d.AddServer("govirtd", 2, 8, 2, limits)
	if err != nil {
		t.Fatal(err)
	}
	srv.AddProgram(daemon.NewRemoteProgram(srv))
	if len(creds) > 0 {
		srv.SetCredentials(creds)
	}
	sock = filepath.Join(t.TempDir(), "govirtd.sock")
	if err := srv.ListenUnix(sock, daemon.ServiceConfig{}); err != nil {
		t.Fatal(err)
	}
	tcpCfg := daemon.ServiceConfig{Transport: daemon.TransportTCP}
	if len(creds) > 0 {
		tcpCfg.AuthSASL = true
	}
	tcpAddr, err = srv.ListenTCP("127.0.0.1:0", tcpCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		d.Shutdown()
		core.ResetRegistryForTest()
	})
	return sock, tcpAddr, d
}

func unixURI(sock string) string {
	return "test+unix:///default?socket=" + strings.ReplaceAll(sock, "/", "%2F")
}

func tcpURI(addr, extra string) string {
	host, port, _ := strings.Cut(addr, ":")
	return fmt.Sprintf("test+tcp://%s:%s/default%s", host, port, extra)
}

func TestRemoteOverUnixSocket(t *testing.T) {
	sock, _, _ := startDaemon(t, daemon.ClientLimits{}, nil)
	conn, err := core.Open(unixURI(sock))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Type is reported transparently from the server-side driver.
	typ, err := conn.Type()
	if err != nil || typ != "test" {
		t.Fatalf("type %q %v", typ, err)
	}
	hn, err := conn.Hostname()
	if err != nil || hn != "testhost" {
		t.Fatalf("hostname %q %v", hn, err)
	}
	doms, err := conn.ListAllDomains(0)
	if err != nil || len(doms) != 1 || doms[0].Name() != "test" {
		t.Fatalf("domains %v %v", doms, err)
	}
	// Full lifecycle through the daemon.
	dom := doms[0]
	st, err := dom.State()
	if err != nil || st != core.DomainRunning {
		t.Fatalf("state %v %v", st, err)
	}
	if err := dom.Suspend(); err != nil {
		t.Fatal(err)
	}
	if err := dom.Resume(); err != nil {
		t.Fatal(err)
	}
	stats, err := dom.Stats()
	if err != nil || stats.State != core.DomainRunning {
		t.Fatalf("stats %+v %v", stats, err)
	}
	xml, err := dom.XML()
	if err != nil || !strings.Contains(xml, "<name>test</name>") {
		t.Fatalf("xml %v", err)
	}
	if err := dom.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := dom.Undefine(); err != nil {
		t.Fatal(err)
	}
	// Error classes survive the wire.
	if _, err := conn.LookupDomain("test"); !core.IsCode(err, core.ErrNoDomain) {
		t.Fatalf("error code lost on wire: %v", err)
	}
}

func TestRemoteDefineAndNetworksOverWire(t *testing.T) {
	sock, _, _ := startDaemon(t, daemon.ClientLimits{}, nil)
	conn, err := core.Open(unixURI(sock))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	xml := `
<domain type='test'>
  <name>wired</name>
  <memory unit='MiB'>256</memory>
  <vcpu>1</vcpu>
  <os><type>hvm</type></os>
  <devices>
    <interface type='network'>
      <mac address='52:54:00:77:66:55'/>
      <source network='default'/>
    </interface>
  </devices>
</domain>`
	dom, err := conn.DefineDomain(xml)
	if err != nil {
		t.Fatal(err)
	}
	if err := dom.Create(); err != nil {
		t.Fatal(err)
	}
	leases, err := conn.NetworkDHCPLeases("default")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range leases {
		if l.MAC == "52:54:00:77:66:55" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no lease for wired domain: %v", leases)
	}
	nets, err := conn.ListNetworks()
	if err != nil || len(nets) != 1 {
		t.Fatalf("networks %v %v", nets, err)
	}
	// Storage through the wire.
	pools, err := conn.ListStoragePools()
	if err != nil || len(pools) != 1 {
		t.Fatalf("pools %v %v", pools, err)
	}
	volXML := `<volume><name>v1</name><capacity unit='GiB'>1</capacity></volume>`
	if err := conn.CreateVolume(pools[0], volXML); err != nil {
		t.Fatal(err)
	}
	vols, err := conn.ListVolumes(pools[0])
	if err != nil || len(vols) != 1 || vols[0] != "v1" {
		t.Fatalf("volumes %v %v", vols, err)
	}
	vxml, err := conn.VolumeXML(pools[0], "v1")
	if err != nil || !strings.Contains(vxml, "<name>v1</name>") {
		t.Fatalf("volume xml %v", err)
	}
}

func TestRemoteOverTCPWithAuth(t *testing.T) {
	_, tcpAddr, _ := startDaemon(t, daemon.ClientLimits{}, map[string]string{"admin": "secret"})

	// Wrong password fails.
	if _, err := core.Open(tcpURI(tcpAddr, "?password=wrong&x=1")); err == nil {
		t.Fatal("connection without username accepted")
	}
	bad := strings.Replace(tcpURI(tcpAddr, "?password=wrong"), "test+tcp://", "test+tcp://admin@", 1)
	if _, err := core.Open(bad); err == nil {
		t.Fatal("wrong password accepted")
	}
	good := strings.Replace(tcpURI(tcpAddr, "?password=secret"), "test+tcp://", "test+tcp://admin@", 1)
	conn, err := core.Open(good)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if typ, err := conn.Type(); err != nil || typ != "test" {
		t.Fatalf("type %q %v", typ, err)
	}
}

func TestUnauthenticatedCallsRejected(t *testing.T) {
	_, tcpAddr, d := startDaemon(t, daemon.ClientLimits{}, map[string]string{"admin": "secret"})
	// The daemon must enforce auth gating server-side: a client that
	// skips SASL gets ErrAuthFailed on every other procedure. Reach in
	// with a raw remote.Conn via a URI with no username to check the
	// failure class.
	u, _ := uri.Parse(tcpURI(tcpAddr, ""))
	if _, err := remote.Open(u); !core.IsCode(err, core.ErrAuthFailed) {
		t.Fatalf("want auth failure, got %v", err)
	}
	srv, _ := d.Server("govirtd")
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.Clients()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("failed client still registered")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestClientLimitRejectsConnections(t *testing.T) {
	sock, _, d := startDaemon(t, daemon.ClientLimits{MaxClients: 2}, nil)
	c1, err := core.Open(unixURI(sock))
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := core.Open(unixURI(sock))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Third connection is rejected at accept time; the client observes a
	// failed open.
	if _, err := core.Open(unixURI(sock)); err == nil {
		t.Fatal("connection over limit accepted")
	}
	srv, _ := d.Server("govirtd")
	if srv.RejectedCount() == 0 {
		t.Fatal("rejection not counted")
	}
	// Raising the limit at runtime admits new clients.
	if err := srv.Set([]daemon.Setting{{Key: "max_clients", Value: "10"}}); err != nil {
		t.Fatal(err)
	}
	c3, err := core.Open(unixURI(sock))
	if err != nil {
		t.Fatalf("connection after limit raise: %v", err)
	}
	c3.Close()
}

// TestEventsDeliveredOverWire runs one lifecycle under the one event
// API, WatchEvents, on the test driver opened locally and through the
// daemon: the same events in the same order, never a gap. Each step
// waits for its event, so the watch stream has nothing queued to
// coalesce.
func TestEventsDeliveredOverWire(t *testing.T) {
	sock, _, _ := startDaemon(t, daemon.ClientLimits{}, nil)
	type seen struct {
		Type           events.Type
		Domain, Detail string
	}
	run := func(t *testing.T, uri string) []seen {
		conn, err := core.Open(uri)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		arrived := make(chan seen, 8) // the handler must never block the reader
		w, err := conn.WatchEvents("", nil, func(ev events.Event, gap bool) {
			if gap {
				t.Errorf("gap before %v", ev)
			}
			arrived <- seen{ev.Type, ev.Domain, ev.Detail}
		})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		dom, err := conn.LookupDomain("test")
		if err != nil {
			t.Fatal(err)
		}
		var got []seen
		for _, step := range []func() error{dom.Suspend, dom.Resume, dom.Destroy} {
			if err := step(); err != nil {
				t.Fatal(err)
			}
			select {
			case ev := <-arrived:
				got = append(got, ev)
			case <-time.After(5 * time.Second):
				t.Fatalf("no event after step %d", len(got)+1)
			}
		}
		return got
	}
	local := run(t, "test:///default")
	want := []events.Type{events.EventSuspended, events.EventResumed, events.EventStopped}
	for i, ev := range local {
		if ev.Type != want[i] || ev.Domain != "test" {
			t.Fatalf("local event %d: %+v", i, ev)
		}
	}
	if remote := run(t, unixURI(sock)); !reflect.DeepEqual(remote, local) {
		t.Fatalf("over unix %+v, locally %+v", remote, local)
	}
}

// TestNoEventFramesUnasked: a connection that never subscribed receives
// replies and nothing else while it churns lifecycles — every frame the
// process receives is a call arriving at the daemon or its reply
// arriving at the client.
func TestNoEventFramesUnasked(t *testing.T) {
	sock, _, _ := startDaemon(t, daemon.ClientLimits{}, nil)
	conn, err := core.Open(unixURI(sock))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	dom, err := conn.LookupDomain("test")
	if err != nil {
		t.Fatal(err)
	}
	before := counters(telemetry.Default)
	for i := 0; i < 20; i++ {
		if err := dom.Suspend(); err != nil {
			t.Fatal(err)
		}
		if err := dom.Resume(); err != nil {
			t.Fatal(err)
		}
	}
	// One more round trip: the reply queues behind any frame the 40
	// lifecycle steps would have pushed.
	if _, err := conn.Hostname(); err != nil {
		t.Fatal(err)
	}
	after := counters(telemetry.Default)
	calls := after["remote_calls_total"] - before["remote_calls_total"]
	rx := after["rpc_rx_frames_total"] - before["rpc_rx_frames_total"]
	if calls != 41 || rx != 2*calls {
		t.Fatalf("%d calls moved %d frames, want 41 calls and a call plus a reply each", calls, rx)
	}
}

func TestConcurrentRemoteClients(t *testing.T) {
	sock, _, _ := startDaemon(t, daemon.ClientLimits{MaxClients: 64}, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := core.Open(unixURI(sock))
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			name := fmt.Sprintf("conc%d", id)
			xml := fmt.Sprintf(`<domain type='test'><name>%s</name><memory unit='MiB'>64</memory><vcpu>1</vcpu><os><type>hvm</type></os></domain>`, name)
			dom, err := conn.DefineDomain(xml)
			if err != nil {
				errs <- err
				return
			}
			for j := 0; j < 10; j++ {
				if err := dom.Create(); err != nil {
					errs <- err
					return
				}
				if _, err := dom.Stats(); err != nil {
					errs <- err
					return
				}
				if err := dom.Destroy(); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServerSideStatePersistsAcrossClientConnections(t *testing.T) {
	// Definitions live daemon-side: a domain defined by one client is
	// visible to the next connection. Each test-driver connection is
	// private state, so connect to the same server-side conn... the
	// daemon opens one driver connection per client, so this documents
	// the per-connection environment semantics of the test driver.
	sock, _, _ := startDaemon(t, daemon.ClientLimits{}, nil)
	c1, err := core.Open(unixURI(sock))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.DefineDomain(`<domain type='test'><name>p</name><memory unit='MiB'>64</memory><vcpu>1</vcpu><os><type>hvm</type></os></domain>`); err != nil {
		t.Fatal(err)
	}
	names, err := c1.Driver().ListDomains(0)
	if err != nil || len(names) != 2 {
		t.Fatalf("first connection sees %v %v", names, err)
	}
	c1.Close()
	// A second connection gets a fresh default environment (test driver
	// private state), demonstrating connections carry their own driver.
	c2, err := core.Open(unixURI(sock))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	names, err = c2.Driver().ListDomains(0)
	if err != nil || len(names) != 1 {
		t.Fatalf("second connection sees %v %v", names, err)
	}
}

func TestDaemonServers(t *testing.T) {
	_, _, d := startDaemon(t, daemon.ClientLimits{}, nil)
	if _, err := d.AddServer("govirtd", 1, 2, 0, daemon.ClientLimits{}); !core.IsCode(err, core.ErrDuplicate) {
		t.Fatalf("duplicate server: %v", err)
	}
	if _, err := d.AddServer("", 1, 2, 0, daemon.ClientLimits{}); !core.IsCode(err, core.ErrInvalidArg) {
		t.Fatalf("unnamed server: %v", err)
	}
	if _, err := d.AddServer("bad", 5, 2, 0, daemon.ClientLimits{}); !core.IsCode(err, core.ErrInvalidArg) {
		t.Fatalf("bad pool: %v", err)
	}
	names := d.Servers()
	if len(names) != 1 || names[0] != "govirtd" {
		t.Fatalf("servers %v", names)
	}
}
