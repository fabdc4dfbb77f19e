package admin_test

import (
	"errors"
	"os"
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
		log.Close()
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

// settings reads live settings of a server over the admin connection.
func (td *testDaemon) settings(t *testing.T, server string, keys ...string) map[string]string {
	t.Helper()
	l, err := td.adm.Settings(server, keys...)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, l.Len())
	for _, p := range l.Params() {
		out[p.Field] = p.S
	}
	return out
}

// set changes live settings over the admin connection; kv alternates
// key and value, the value written as in govirtd.conf.
func (td *testDaemon) set(server string, kv ...string) error {
	l := typedparams.NewList()
	for i := 0; i+1 < len(kv); i += 2 {
		l.AddString(kv[i], kv[i+1]) //nolint:errcheck
	}
	return td.adm.SetSettings(server, l)
}

// gauges reads the daemon's gauges over the admin connection.
func (td *testDaemon) gauges(t *testing.T) map[string]int64 {
	t.Helper()
	m, err := td.adm.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64, len(m.Gauges))
	for _, g := range m.Gauges {
		out[g.Name] = g.Value
	}
	return out
}

func TestThreadpoolGetAndSet(t *testing.T) {
	td := startDaemon(t)
	got := td.settings(t, "govirtd", "min_workers", "max_workers", "prio_workers")
	if len(got) != 3 || got["min_workers"] != "2" || got["max_workers"] != "8" || got["prio_workers"] != "2" {
		t.Fatalf("initial settings %v", got)
	}
	if err := td.set("govirtd", "max_workers", "16", "prio_workers", "4"); err != nil {
		t.Fatal(err)
	}
	if got = td.settings(t, "govirtd"); got["max_workers"] != "16" || got["prio_workers"] != "4" {
		t.Fatalf("settings after set: %v", got)
	}
	srv, _ := td.d.Server("govirtd")
	if p := srv.Pool().Params(); p.MaxWorkers != 16 || p.PrioWorkers != 4 {
		t.Fatalf("pool after set: %+v", p)
	}

	for _, kv := range [][]string{
		{"min_workers", "3", "max_clients", "0"},  // all or nothing: min_workers stays 2
		{"min_workers", "32", "max_workers", "4"}, // min > max
		{"max_workers", "many"},                   // not an integer
		{"unix_sock_path", `"/tmp/x"`},            // read at start-up only
		{"turbo_workers", "3"},                    // no such key
	} {
		if err := td.set("govirtd", kv...); !core.IsCode(err, core.ErrInvalidArg) {
			t.Errorf("set %v: %v", kv, err)
		}
	}
	if got = td.settings(t, "govirtd"); got["min_workers"] != "2" || got["max_workers"] != "16" {
		t.Fatalf("a refused set changed settings: %v", got)
	}
	// A value travels as its govirtd.conf text, never as a typed number.
	typed := typedparams.NewList()
	typed.AddUInt("max_workers", 3) //nolint:errcheck
	if err := td.adm.SetSettings("govirtd", typed); !core.IsCode(err, core.ErrInvalidArg) {
		t.Fatalf("typed number: %v", err)
	}
	if _, err := td.adm.Settings("govirtd", "unix_sock_path"); !core.IsCode(err, core.ErrInvalidArg) {
		t.Fatalf("read of a start-up key: %v", err)
	}
	if _, err := td.adm.Settings("ghost"); !core.IsCode(err, core.ErrAdmin) {
		t.Fatalf("ghost server: %v", err)
	}
}

func TestClientLimitsGetAndSet(t *testing.T) {
	td := startDaemon(t)
	const clients = `daemon_clients{server="govirtd"}`
	if got := td.settings(t, "govirtd", "max_clients"); got["max_clients"] != "50" || td.gauges(t)[clients] != 0 {
		t.Fatalf("initial limits %v, %d clients", got, td.gauges(t)[clients])
	}
	mgmt := td.openMgmt(t)
	defer mgmt.Close()
	if n := td.gauges(t)[clients]; n != 1 {
		t.Fatalf("current clients %d", n)
	}

	if err := td.set("govirtd", "max_clients", "150"); err != nil {
		t.Fatal(err)
	}
	if got := td.settings(t, "govirtd", "max_clients"); got["max_clients"] != "150" {
		t.Fatalf("limits after set %v", got)
	}
	// Unauth > max rejected.
	if err := td.set("govirtd", "max_anonymous_clients", "9999"); !core.IsCode(err, core.ErrInvalidArg) {
		t.Fatalf("unauth>max: %v", err)
	}
}

// TestSettingsFileAndAdminAgree holds the two ways into a live setting
// to each other, row by row: a value written in govirtd.conf and the
// same value set over the admin connection yield the same Config, and a
// bad value fails with the file's message minus the line.
func TestSettingsFileAndAdminAgree(t *testing.T) {
	td := startDaemon(t)
	srv, _ := td.d.Server("govirtd")
	const base = "log_outputs = \"\"\n" // the test daemon's logger writes nowhere
	defaults, err := daemon.ParseConfig(base)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ key, good, bad string }{
		{"min_workers", "3", "-1"},
		{"max_workers", "12", "0"},
		{"prio_workers", "4", "x"},
		{"max_clients", "90", "0"},
		{"max_anonymous_clients", "7", "121"},
		{"log_level", "2", "5"},
		{"log_filters", `"1:daemon.server 4:rpc"`, `"9:bad"`},
		{"log_outputs", `"3:file:/dev/null"`, `"2:buffer"`},
		{"qos_classes", `["gold rate_limit_calls_per_s=5 users=alice"]`, `["gold bogus=1"]`},
		{"qos_shed_watermark", "32", "-1"},
	}
	var rows []string
	for _, st := range defaults.Live() {
		rows = append(rows, st.Key)
	}
	for i, tc := range cases {
		if i >= len(rows) || rows[i] != tc.key {
			t.Fatalf("case %d is %s, the live rows are %v", i, tc.key, rows)
		}
		file, err := daemon.ParseConfig(base + tc.key + " = " + tc.good)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Apply(defaults); err != nil {
			t.Fatal(err)
		}
		if err := td.set("govirtd", tc.key, tc.good); err != nil {
			t.Fatalf("%s = %s: %v", tc.key, tc.good, err)
		}
		got := td.settings(t, "govirtd")
		for _, st := range file.Live() {
			if got[st.Key] != st.Value {
				t.Errorf("after %s = %s: %s is %s over admin, %s from the file", tc.key, tc.good, st.Key, got[st.Key], st.Value)
			}
		}

		_, fileErr := daemon.ParseConfig(base + tc.key + " = " + tc.bad)
		err = td.set("govirtd", tc.key, tc.bad)
		var ce *core.Error
		if fileErr == nil || !errors.As(err, &ce) || ce.Code != core.ErrInvalidArg ||
			ce.Message != strings.Replace(fileErr.Error(), "config line 2: ", "", 1) {
			t.Errorf("%s = %s: admin says %v, the file %v", tc.key, tc.bad, err, fileErr)
		}
	}
	if len(rows) != len(cases) {
		t.Errorf("live rows %v, cases for %d", rows, len(cases))
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
	if got := td.settings(t, "govirtd", "log_level"); got["log_level"] != "4" {
		t.Fatalf("level %v", got)
	}
	if err := td.set("govirtd", "log_level", "1"); err != nil {
		t.Fatal(err)
	}
	if got := td.settings(t, "govirtd", "log_level"); got["log_level"] != "1" {
		t.Fatalf("level after set %v", got)
	}
	if td.d.Log().Level() != logging.Debug {
		t.Fatal("daemon logger unchanged")
	}
	if err := td.set("govirtd", "log_level", "9"); !core.IsCode(err, core.ErrInvalidArg) {
		t.Fatalf("bad level: %v", err)
	}
}

func TestLoggingFiltersOverAdmin(t *testing.T) {
	td := startDaemon(t)
	filters := func() string { return td.settings(t, "govirtd", "log_filters")["log_filters"] }
	if err := td.set("govirtd", "log_filters", `"1:daemon.server 4:rpc"`); err != nil {
		t.Fatal(err)
	}
	if got := filters(); got != `"1:daemon.server 4:rpc"` {
		t.Fatalf("filters %s", got)
	}
	if err := td.set("govirtd", "log_filters", `"9:bad"`); !core.IsCode(err, core.ErrInvalidArg) {
		t.Fatalf("bad filter: %v", err)
	}
	// Failed set leaves the previous filters intact.
	if got := filters(); got != `"1:daemon.server 4:rpc"` {
		t.Fatalf("filters mutated by failed set: %s", got)
	}
	if err := td.set("govirtd", "log_filters", `""`); err != nil {
		t.Fatal(err)
	}
	if got := filters(); got != `""` {
		t.Fatalf("filters not cleared: %s", got)
	}
}

func TestLoggingOutputsOverAdmin(t *testing.T) {
	td := startDaemon(t)
	logPath := filepath.Join(t.TempDir(), "d.log")
	if err := td.set("govirtd", "log_outputs", `"1:file:`+logPath+` 4:stderr"`); err != nil {
		t.Fatal(err)
	}
	outputs := td.settings(t, "govirtd", "log_outputs")["log_outputs"]
	if outputs != `"1:file:`+logPath+` 4:stderr"` {
		t.Fatalf("outputs %s", outputs)
	}
	// A relative path and the removed in-memory kinds are refused by key.
	for _, bad := range []string{`"1:file:relative"`, `"3:journald"`, `"2:buffer"`, `"3:syslog:ident"`} {
		err := td.set("govirtd", "log_outputs", bad)
		if got := td.settings(t, "govirtd", "log_outputs")["log_outputs"]; !core.IsCode(err, core.ErrInvalidArg) ||
			!strings.Contains(err.Error(), "log_outputs") || got != outputs {
			t.Fatalf("bad output %s: %v, outputs now %s", bad, err, got)
		}
	}
	// An output that parses but cannot be opened changes nothing either.
	err := td.set("govirtd", "max_workers", "12", "log_outputs", `"1:file:/nonexistent-dir-xyz/d.log"`)
	if got := td.settings(t, "govirtd"); !core.IsCode(err, core.ErrInvalidArg) || got["max_workers"] != "8" || got["log_outputs"] != outputs {
		t.Fatalf("unopenable output: %v, settings %v", err, got)
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
	logPath := filepath.Join(t.TempDir(), "d.log")
	if err := td.set("govirtd", "log_filters", `"3:daemon.slowcall"`, "log_outputs", `"1:file:`+logPath+`"`); err != nil {
		t.Fatal(err)
	}
	slowWarnings := func() int {
		data, _ := os.ReadFile(logPath)
		return strings.Count(string(data), `level=WARN msg="slow call" module=daemon.slowcall`)
	}

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
	if slowWarnings() == 0 {
		t.Fatal("no slow-call warnings emitted")
	}
	// Removing the filter silences the warnings again (global level Error).
	if err := td.set("govirtd", "log_filters", `""`); err != nil {
		t.Fatal(err)
	}
	stable := slowWarnings()
	if _, err := mgmt.Hostname(); err != nil {
		t.Fatal(err)
	}
	if after := slowWarnings(); after != stable {
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
		_, err := td.adm.Settings("govirtd")
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
	g := td.gauges(t)
	if free := g[`daemon_pool_workers{server="govirtd"}`] - g[`daemon_pool_busy_workers{server="govirtd"}`]; free != 0 {
		t.Fatalf("free workers %d while all wedged", free)
	}
}

// protocol is the admin program's golden list, indexed by procedure
// number. Numbers are protocol constants: a row here never changes, and
// a retired number stays blank so it is never handed out again (4–7,
// 11–16 and 19–20 went with the per-area get/set pairs that
// SettingsGet and SettingsSet replaced).
var protocol = []string{
	1: "ConnectOpen", 2: "ServerList", 3: "ServerLookup",
	8: "ClientList", 9: "ClientInfo", 10: "ClientDisconnect",
	17: "ServerMetrics", 18: "ServerSlowCalls",
	21: "SettingsGet", 22: "SettingsSet",
}

// TestProcTableComplete holds Procs to the golden list and the handler
// slice to Procs: every number has the row the protocol says, every row
// a handler, and no handler sits on a number without a row.
func TestProcTableComplete(t *testing.T) {
	for num := 0; num < len(admin.Procs) || num < admin.NumHandlers() || num < len(protocol); num++ {
		var name, want string
		if num < len(admin.Procs) {
			name = admin.Procs[num].Name
		}
		if num < len(protocol) {
			want = protocol[num]
		}
		if name != want {
			t.Errorf("procedure %d is %q, the protocol says %q", num, name, want)
		}
		if has := admin.HasHandler(uint32(num)); has != (name != "") {
			t.Errorf("procedure %d: row %q, handler present = %v", num, name, has)
		}
	}
}
