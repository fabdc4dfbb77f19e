package admin_test

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/drivers/remote"
	drvtest "repro/internal/drivers/test"
	"repro/internal/logging"
	"repro/internal/telemetry"
	"repro/internal/typedparams"
)

// testDaemon brings up a daemon with a management server and an admin
// server, both on unix sockets, and returns an open admin connection.
type testDaemon struct {
	d         *daemon.Daemon
	mgmtSock  string
	adminSock string
	adm       *admin.Connect
}

func startDaemon(t *testing.T) *testDaemon {
	t.Helper()
	core.ResetRegistryForTest()
	log := logging.NewQuiet(logging.Error)
	drvtest.Register(log)
	remote.Register()

	// Fresh registry per test so metric assertions are hermetic.
	d := daemon.NewWithTelemetry(log, telemetry.NewRegistry())
	dir := t.TempDir()

	mgmt, err := d.AddServer("govirtd", 2, 8, 2, daemon.ClientLimits{MaxClients: 50})
	if err != nil {
		t.Fatal(err)
	}
	mgmt.AddProgram(daemon.NewRemoteProgram(mgmt))
	mgmtSock := filepath.Join(dir, "govirtd.sock")
	if err := mgmt.ListenUnix(mgmtSock, daemon.ServiceConfig{}); err != nil {
		t.Fatal(err)
	}

	adm, err := d.AddServer("admin", 1, 2, 1, daemon.ClientLimits{MaxClients: 5})
	if err != nil {
		t.Fatal(err)
	}
	adm.AddProgram(admin.NewProgram(d))
	adminSock := filepath.Join(dir, "admin.sock")
	if err := adm.ListenUnix(adminSock, daemon.ServiceConfig{}); err != nil {
		t.Fatal(err)
	}

	conn, err := admin.Open(adminSock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		conn.Close()
		d.Shutdown()
		core.ResetRegistryForTest()
	})
	return &testDaemon{d: d, mgmtSock: mgmtSock, adminSock: adminSock, adm: conn}
}

func (td *testDaemon) openMgmt(t *testing.T) *core.Connect {
	t.Helper()
	uri := "test+unix:///default?socket=" + strings.ReplaceAll(td.mgmtSock, "/", "%2F")
	conn, err := core.Open(uri)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestServerList(t *testing.T) {
	td := startDaemon(t)
	servers, err := td.adm.ListServers()
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) != 2 || servers[0] != "govirtd" || servers[1] != "admin" {
		t.Fatalf("servers %v", servers)
	}
	if err := td.adm.LookupServer("govirtd"); err != nil {
		t.Fatal(err)
	}
	if err := td.adm.LookupServer("ghost"); !core.IsCode(err, core.ErrAdmin) {
		t.Fatalf("lookup missing server: %v", err)
	}
}

func TestThreadpoolGetAndSet(t *testing.T) {
	td := startDaemon(t)
	params, err := td.adm.ThreadpoolParams("govirtd")
	if err != nil {
		t.Fatal(err)
	}
	min, _ := params.GetUInt(admin.FieldMinWorkers)
	max, _ := params.GetUInt(admin.FieldMaxWorkers)
	prio, _ := params.GetUInt(admin.FieldPrioWorkers)
	if min != 2 || max != 8 || prio != 2 {
		t.Fatalf("initial params %v", params)
	}
	if !params.Has(admin.FieldCurrentWorkers) || !params.Has(admin.FieldFreeWorkers) ||
		!params.Has(admin.FieldJobQueueDepth) {
		t.Fatalf("missing read-only attributes: %v", params)
	}

	set := typedparams.NewList()
	set.AddUInt(admin.FieldMaxWorkers, 16) //nolint:errcheck
	set.AddUInt(admin.FieldPrioWorkers, 4) //nolint:errcheck
	if err := td.adm.SetThreadpoolParams("govirtd", set); err != nil {
		t.Fatal(err)
	}
	params, _ = td.adm.ThreadpoolParams("govirtd")
	max, _ = params.GetUInt(admin.FieldMaxWorkers)
	prio, _ = params.GetUInt(admin.FieldPrioWorkers)
	if max != 16 || prio != 4 {
		t.Fatalf("params after set: %v", params)
	}

	// Read-only attributes are rejected.
	ro := typedparams.NewList()
	ro.AddUInt(admin.FieldCurrentWorkers, 3) //nolint:errcheck
	if err := td.adm.SetThreadpoolParams("govirtd", ro); !core.IsCode(err, core.ErrInvalidArg) {
		t.Fatalf("read-only set: %v", err)
	}
	// Unknown fields are rejected.
	unknown := typedparams.NewList()
	unknown.AddUInt("turboWorkers", 3) //nolint:errcheck
	if err := td.adm.SetThreadpoolParams("govirtd", unknown); !core.IsCode(err, core.ErrInvalidArg) {
		t.Fatalf("unknown field: %v", err)
	}
	// Wrong kind is rejected.
	wrong := typedparams.NewList()
	wrong.AddString(admin.FieldMaxWorkers, "many") //nolint:errcheck
	if err := td.adm.SetThreadpoolParams("govirtd", wrong); !core.IsCode(err, core.ErrInvalidArg) {
		t.Fatalf("wrong kind: %v", err)
	}
	// min > max is rejected.
	badRange := typedparams.NewList()
	badRange.AddUInt(admin.FieldMinWorkers, 32) //nolint:errcheck
	badRange.AddUInt(admin.FieldMaxWorkers, 4)  //nolint:errcheck
	if err := td.adm.SetThreadpoolParams("govirtd", badRange); !core.IsCode(err, core.ErrInvalidArg) {
		t.Fatalf("min>max: %v", err)
	}
	// Unknown server.
	if _, err := td.adm.ThreadpoolParams("ghost"); !core.IsCode(err, core.ErrAdmin) {
		t.Fatalf("ghost server: %v", err)
	}
}

func TestClientLimitsGetAndSet(t *testing.T) {
	td := startDaemon(t)
	limits, err := td.adm.ClientLimits("govirtd")
	if err != nil {
		t.Fatal(err)
	}
	max, _ := limits.GetUInt(admin.FieldMaxClients)
	cur, _ := limits.GetUInt(admin.FieldCurrentClients)
	if max != 50 || cur != 0 {
		t.Fatalf("initial limits %v", limits)
	}
	mgmt := td.openMgmt(t)
	defer mgmt.Close()
	limits, _ = td.adm.ClientLimits("govirtd")
	cur, _ = limits.GetUInt(admin.FieldCurrentClients)
	if cur != 1 {
		t.Fatalf("current clients %d", cur)
	}

	set := typedparams.NewList()
	set.AddUInt(admin.FieldMaxClients, 150) //nolint:errcheck
	if err := td.adm.SetClientLimits("govirtd", set); err != nil {
		t.Fatal(err)
	}
	limits, _ = td.adm.ClientLimits("govirtd")
	max, _ = limits.GetUInt(admin.FieldMaxClients)
	if max != 150 {
		t.Fatalf("limits after set %v", limits)
	}
	// Read-only rejected.
	ro := typedparams.NewList()
	ro.AddUInt(admin.FieldCurrentClients, 0) //nolint:errcheck
	if err := td.adm.SetClientLimits("govirtd", ro); !core.IsCode(err, core.ErrInvalidArg) {
		t.Fatalf("read-only: %v", err)
	}
	// Unauth > max rejected.
	bad := typedparams.NewList()
	bad.AddUInt(admin.FieldMaxUnauthClients, 9999) //nolint:errcheck
	if err := td.adm.SetClientLimits("govirtd", bad); !core.IsCode(err, core.ErrInvalidArg) {
		t.Fatalf("unauth>max: %v", err)
	}
}

func TestClientListInfoAndDisconnect(t *testing.T) {
	td := startDaemon(t)
	mgmt := td.openMgmt(t)
	defer mgmt.Close()

	clients, err := td.adm.ListClients("govirtd")
	if err != nil {
		t.Fatal(err)
	}
	if len(clients) != 1 || clients[0].Transport != "unix" || !clients[0].AuthDone {
		t.Fatalf("clients %+v", clients)
	}
	info, err := td.adm.GetClientInfo("govirtd", clients[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Identity.Has(admin.FieldUnixProcessID) || !info.Identity.Has(admin.FieldUnixUserID) {
		t.Fatalf("identity %v", info.Identity)
	}
	if ro, err := info.Identity.GetBoolean(admin.FieldReadOnly); err != nil || ro {
		t.Fatalf("readonly %v %v", ro, err)
	}
	if _, err := td.adm.GetClientInfo("govirtd", 9999); !core.IsCode(err, core.ErrAdmin) {
		t.Fatalf("missing client: %v", err)
	}

	// Forced disconnect: the management connection dies.
	if err := td.adm.DisconnectClient("govirtd", clients[0].ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cs, err := td.adm.ListClients("govirtd")
		if err != nil {
			t.Fatal(err)
		}
		if len(cs) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client survived forced disconnect: %+v", cs)
		}
		time.Sleep(time.Millisecond)
	}
	// The disconnected client's next call fails.
	if _, err := mgmt.Hostname(); err == nil {
		t.Fatal("disconnected client still working")
	}
	if err := td.adm.DisconnectClient("govirtd", clients[0].ID); !core.IsCode(err, core.ErrAdmin) {
		t.Fatalf("double disconnect: %v", err)
	}
}

func TestAdminRefusesSelfDisconnect(t *testing.T) {
	td := startDaemon(t)
	clients, err := td.adm.ListClients("admin")
	if err != nil || len(clients) != 1 {
		t.Fatalf("admin clients %v %v", clients, err)
	}
	if err := td.adm.DisconnectClient("admin", clients[0].ID); !core.IsCode(err, core.ErrOperationInvalid) {
		t.Fatalf("self-disconnect: %v", err)
	}
}

func TestLoggingLevelOverAdmin(t *testing.T) {
	td := startDaemon(t)
	lvl, err := td.adm.LoggingLevel()
	if err != nil || lvl != logging.Error {
		t.Fatalf("level %v %v", lvl, err)
	}
	if err := td.adm.SetLoggingLevel(logging.Debug); err != nil {
		t.Fatal(err)
	}
	if lvl, _ = td.adm.LoggingLevel(); lvl != logging.Debug {
		t.Fatalf("level after set %v", lvl)
	}
	if td.d.Log().Level() != logging.Debug {
		t.Fatal("daemon logger unchanged")
	}
	if err := td.adm.SetLoggingLevel(logging.Priority(9)); !core.IsCode(err, core.ErrInvalidArg) {
		t.Fatalf("bad level: %v", err)
	}
}

func TestLoggingFiltersOverAdmin(t *testing.T) {
	td := startDaemon(t)
	if err := td.adm.SetLoggingFilters("1:daemon.server 4:rpc"); err != nil {
		t.Fatal(err)
	}
	filters, err := td.adm.LoggingFilters()
	if err != nil || filters != "1:daemon.server 4:rpc" {
		t.Fatalf("filters %q %v", filters, err)
	}
	if err := td.adm.SetLoggingFilters("9:bad"); !core.IsCode(err, core.ErrInvalidArg) {
		t.Fatalf("bad filter: %v", err)
	}
	// Failed set leaves the previous filters intact.
	filters, _ = td.adm.LoggingFilters()
	if filters != "1:daemon.server 4:rpc" {
		t.Fatalf("filters mutated by failed set: %q", filters)
	}
	if err := td.adm.SetLoggingFilters(""); err != nil {
		t.Fatal(err)
	}
	if filters, _ = td.adm.LoggingFilters(); filters != "" {
		t.Fatalf("filters not cleared: %q", filters)
	}
}

func TestLoggingOutputsOverAdmin(t *testing.T) {
	td := startDaemon(t)
	logPath := filepath.Join(t.TempDir(), "d.log")
	if err := td.adm.SetLoggingOutputs("1:file:" + logPath + " 3:buffer"); err != nil {
		t.Fatal(err)
	}
	outputs, err := td.adm.LoggingOutputs()
	if err != nil || !strings.Contains(outputs, logPath) || !strings.Contains(outputs, "3:buffer") {
		t.Fatalf("outputs %q %v", outputs, err)
	}
	if err := td.adm.SetLoggingOutputs("1:file:relative"); !core.IsCode(err, core.ErrInvalidArg) {
		t.Fatalf("bad output: %v", err)
	}
}

func TestServerMetricsOverAdmin(t *testing.T) {
	td := startDaemon(t)
	mgmt := td.openMgmt(t)
	defer mgmt.Close()
	if _, err := mgmt.Hostname(); err != nil {
		t.Fatal(err)
	}

	m, err := td.adm.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	counters := map[string]uint64{}
	for _, c := range m.Counters {
		counters[c.Name] = c.Value
	}
	// The Hostname call dispatched through the management server.
	key := `daemon_dispatch_total{program="remote",proc="GetHostname"}`
	if counters[key] < 1 {
		t.Fatalf("dispatch counter missing: %v", counters)
	}
	// The Metrics call itself went through the admin program; its own
	// ServerMetrics dispatch may not be counted yet (the snapshot is taken
	// inside the call), but ConnectOpen certainly finished.
	if counters[`daemon_dispatch_total{program="admin",proc="ConnectOpen"}`] < 1 {
		t.Fatalf("admin dispatch counter missing: %v", counters)
	}
	gauges := map[string]int64{}
	for _, g := range m.Gauges {
		gauges[g.Name] = g.Value
	}
	if gauges[`daemon_clients{server="govirtd"}`] != 1 {
		t.Fatalf("client gauge %v", gauges)
	}
	// Dispatch latency histogram carries the call with quantiles.
	var found bool
	for _, h := range m.Histograms {
		if h.Name == `daemon_dispatch_seconds{program="remote",proc="GetHostname"}` {
			found = true
			if h.Count < 1 || len(h.Buckets) == 0 {
				t.Fatalf("histogram %+v", h)
			}
			if h.P50Ns > h.P99Ns {
				t.Fatalf("quantiles unordered %+v", h)
			}
		}
	}
	if !found {
		t.Fatal("dispatch latency histogram missing")
	}
}

func TestSlowCallsOverAdmin(t *testing.T) {
	td := startDaemon(t)
	// Every call is "slow" at a 1 ns threshold.
	td.d.Tracer().SetThreshold(time.Nanosecond)
	// The global level stays at Error; the per-module filter routes the
	// slow-call warnings through.
	if err := td.adm.SetLoggingFilters("3:daemon.slowcall"); err != nil {
		t.Fatal(err)
	}
	emittedBefore, _ := td.d.Log().Stats()

	mgmt := td.openMgmt(t)
	defer mgmt.Close()
	if _, err := mgmt.Hostname(); err != nil {
		t.Fatal(err)
	}

	sc, err := td.adm.SlowCalls()
	if err != nil {
		t.Fatal(err)
	}
	if sc.ThresholdNs != 1 {
		t.Fatalf("threshold %d", sc.ThresholdNs)
	}
	if sc.Started == 0 || sc.Slow == 0 || len(sc.Calls) == 0 {
		t.Fatalf("tracer state %+v", sc)
	}
	var sawHostname bool
	for _, call := range sc.Calls {
		if call.TotalNs <= 0 || call.Proc == "" || call.Program == "" {
			t.Fatalf("bad record %+v", call)
		}
		if call.Program == "remote" && call.Proc == "GetHostname" {
			sawHostname = true
		}
	}
	if !sawHostname {
		t.Fatalf("GetHostname missing from slow ring: %+v", sc.Calls)
	}
	// The slow calls were also reported through the logging subsystem.
	emittedAfter, _ := td.d.Log().Stats()
	if emittedAfter <= emittedBefore {
		t.Fatalf("no slow-call warnings emitted (%d -> %d)", emittedBefore, emittedAfter)
	}
	// Removing the filter silences the warnings again (global level Error).
	if err := td.adm.SetLoggingFilters(""); err != nil {
		t.Fatal(err)
	}
	stable, _ := td.d.Log().Stats()
	if _, err := mgmt.Hostname(); err != nil {
		t.Fatal(err)
	}
	if after, _ := td.d.Log().Stats(); after != stable {
		t.Fatalf("slow-call warning bypassed filters (%d -> %d)", stable, after)
	}
}

func TestAdminWorksWhileWorkersBusy(t *testing.T) {
	// The admin server has its own workerpool, so it stays responsive
	// even when the management server's workers are wedged.
	td := startDaemon(t)
	mgmtSrv, _ := td.d.Server("govirtd")
	block := make(chan struct{})
	defer close(block)
	for i := 0; i < 8; i++ {
		mgmtSrv.Pool().Submit(func() { <-block }, false) //nolint:errcheck
	}
	done := make(chan error, 1)
	go func() {
		_, err := td.adm.ThreadpoolParams("govirtd")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("admin call starved by busy management workers")
	}
	// The eight workers pick their jobs up on their own schedule.
	for dl := time.Now().Add(5 * time.Second); mgmtSrv.Pool().Stats().Busy < 8 && time.Now().Before(dl); {
		time.Sleep(time.Millisecond)
	}
	params, _ := td.adm.ThreadpoolParams("govirtd")
	free, _ := params.GetUInt(admin.FieldFreeWorkers)
	if free != 0 {
		t.Fatalf("free workers %d while all wedged", free)
	}
}

// TestProcTableComplete holds the admin handler slice against Procs:
// every row has a unique name and a handler, and no handler sits on a
// number without a row.
func TestProcTableComplete(t *testing.T) {
	names := make(map[string]int)
	for num := 0; num < len(admin.Procs) || num < admin.NumHandlers(); num++ {
		var name string
		if num < len(admin.Procs) {
			name = admin.Procs[num].Name
		}
		if has := admin.HasHandler(uint32(num)); has != (name != "") {
			t.Errorf("procedure %d: row %q, handler present = %v", num, name, has)
		}
		if prev, dup := names[name]; dup && name != "" {
			t.Errorf("procedures %d and %d share the name %s", prev, num, name)
		}
		names[name] = num
	}
	if len(names) != 21 { // 20 procedures and the blank row 0
		t.Errorf("%d distinct rows, the admin protocol has 20 procedures", len(names)-1)
	}
}
