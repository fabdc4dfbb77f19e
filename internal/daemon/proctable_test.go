package daemon_test

import (
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/drivers/remote"
	drvtest "repro/internal/drivers/test"
	"repro/internal/events"
	"repro/internal/logging"
	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/uri"
	"repro/internal/wire"
)

// startInstrumented brings up a daemon reporting into its own registry,
// with one management server that has the test driver behind it and no
// listener yet.
func startInstrumented(t *testing.T) (*daemon.Daemon, *daemon.Server, *telemetry.Registry) {
	t.Helper()
	core.ResetRegistryForTest()
	drvtest.Register(logging.NewQuiet(logging.Error))
	reg := telemetry.NewRegistry()
	d := daemon.NewWithTelemetry(nil, reg)
	srv, err := d.AddServer("govirtd", 2, 8, 2, daemon.ClientLimits{})
	if err != nil {
		t.Fatal(err)
	}
	srv.AddProgram(daemon.NewRemoteProgram(srv))
	t.Cleanup(func() {
		d.Shutdown()
		core.ResetRegistryForTest()
	})
	return d, srv, reg
}

// counters reads every counter of a registry by series name.
func counters(reg *telemetry.Registry) map[string]uint64 {
	out := make(map[string]uint64)
	for _, cs := range reg.Snapshot().Counters {
		out[cs.Name] = cs.Value
	}
	return out
}

// TestProcTablesComplete is what keeps "a procedure is declared once":
// every row of wire.Procs has a unique name and a handler, no handler
// sits on a number without a row, and calling every remote.Conn method
// once against the test driver reaches every row — so a row added
// without its handler or without its client method fails here, as does
// a handler added without the row.
func TestProcTablesComplete(t *testing.T) {
	names := make(map[string]int)
	for num := 0; num < len(wire.Procs) || num < daemon.NumHandlers(); num++ {
		var name string
		if num < len(wire.Procs) {
			name = wire.Procs[num].Name
		}
		if has := daemon.HasHandler(uint32(num)); has != (name != "") {
			t.Errorf("procedure %d: row %q, handler present = %v", num, name, has)
		}
		if prev, dup := names[name]; dup && name != "" {
			t.Errorf("procedures %d and %d share the name %s", prev, num, name)
		}
		names[name] = num
	}

	_, srv, reg := startInstrumented(t)
	srv.SetCredentials(map[string]string{"walker": "pw"})
	if err := srv.ListenMem("proctable-node", daemon.ServiceConfig{AuthSASL: true}); err != nil {
		t.Fatal(err)
	}
	u, err := uri.Parse("test+mem://walker@proctable-node/default?password=pw")
	if err != nil {
		t.Fatal(err)
	}
	c, err := remote.Open(u)
	if err != nil {
		t.Fatal(err)
	}

	// Every method of remote.Conn runs once, its arguments made up from
	// their types ("test" is the domain the default environment defines).
	// What the driver answers does not matter here, only that each call
	// is carried to its row and that nothing on the way breaks — so a
	// procedure added with its client method is covered without a line
	// changing in this test.
	reached := func(err error) {
		t.Helper()
		switch core.CodeOf(err) {
		case core.ErrInternal, core.ErrRPC, core.ErrHostUnreachable, core.ErrNoSupport:
			t.Error(err)
		}
	}
	cv := reflect.ValueOf(c)
	for i := 0; i < cv.NumMethod(); i++ {
		m := cv.Method(i)
		if cv.Type().Method(i).Name == "Close" {
			continue // ConnectClose goes last
		}
		args := make([]reflect.Value, m.Type().NumIn())
		for j := range args {
			switch in := m.Type().In(j); in {
			case reflect.TypeOf(""):
				args[j] = reflect.ValueOf("test")
			case reflect.TypeOf(core.WatchHandler(nil)):
				args[j] = reflect.ValueOf(core.WatchHandler(func(events.Event, bool) {}))
			case reflect.TypeOf(&core.MigrateChunk{}), reflect.TypeOf(&core.NodeInventory{}):
				args[j] = reflect.New(in.Elem())
			default:
				args[j] = reflect.Zero(in)
			}
		}
		for _, out := range m.Call(args) {
			switch v := out.Interface().(type) {
			case error:
				reached(v)
			case core.WatchHandle:
				reached(v.Close())
			}
		}
	}
	reached(c.MigratePages(&core.MigrateChunk{Priority: true})) // the pull procedure shares the method
	reached(c.Close())

	dispatched := counters(reg)
	for num, row := range wire.Procs {
		if row.Name == "" {
			continue
		}
		series := fmt.Sprintf(`daemon_dispatch_total{program="remote",proc=%q}`, row.Name)
		if dispatched[series] == 0 {
			t.Errorf("no remote.Conn method reaches procedure %d (%s)", num, row.Name)
		}
	}
}

// rawClient dials the daemon's unix socket with a bare RPC client for
// one program: no remote driver, so any procedure number can be sent.
func rawClient(t *testing.T, sock string, program uint32) *rpc.Client {
	t.Helper()
	nc, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	cl := rpc.NewClient(nc, program, nil)
	t.Cleanup(func() { cl.Close() })
	return cl
}

// remoteCode extracts the core error code a daemon answered with.
func remoteCode(t *testing.T, err error) core.ErrorCode {
	t.Helper()
	re, ok := err.(*rpc.RemoteError)
	if !ok {
		t.Fatalf("expected an error reply, got %v", err)
	}
	return core.ErrorCode(re.Code)
}

// TestUnknownProceduresMintNothing sends 1,000 distinct procedure
// numbers that have no table row, the two retired with the
// per-connection event registration among them. Each must cost the
// daemon one ErrNoSupport reply and nothing that lasts: no metric
// series per number, no workerpool job, all counted on one series.
func TestUnknownProceduresMintNothing(t *testing.T) {
	_, srv, reg := startInstrumented(t)
	sock := filepath.Join(t.TempDir(), "govirtd.sock")
	if err := srv.ListenUnix(sock, daemon.ServiceConfig{}); err != nil {
		t.Fatal(err)
	}
	cl := rawClient(t, sock, rpc.ProgramRemote)
	if err := cl.Call(wire.ProcAuthList, &struct{}{}, &wire.AuthListReply{}); err != nil {
		t.Fatal(err)
	}

	series := func() int {
		s := reg.Snapshot()
		return len(s.Counters) + len(s.Gauges) + len(s.Histograms)
	}
	jobs := func() uint64 {
		st := srv.Pool().Stats()
		return st.OrdinaryDone + st.PriorityDone + uint64(st.QueueLen+st.PrioQueueLen+st.Busy+st.PrioBusy)
	}
	seriesBefore, jobsBefore := series(), jobs()
	for i := uint32(0); i < 1000; i++ {
		proc := uint32(len(wire.Procs)) + i*4099 // spread over the number space
		if i < 2 {
			proc = 43 + i
		}
		if code := remoteCode(t, cl.Call(proc, &struct{}{}, nil)); code != core.ErrNoSupport {
			t.Fatalf("procedure %d: code %v, want ErrNoSupport", proc, code)
		}
	}
	if grown := series() - seriesBefore; grown > 1 {
		t.Errorf("1,000 unknown procedure numbers minted %d metric series, want at most one", grown)
	}
	if ran := jobs() - jobsBefore; ran != 0 {
		t.Errorf("1,000 unknown procedure numbers queued %d workerpool jobs", ran)
	}
	if n := counters(reg)["daemon_dispatch_unknown_total"]; n != 1000 {
		t.Errorf("daemon_dispatch_unknown_total = %d, want 1000", n)
	}
}

// TestPreAuthIsPerProgram: the two procedures an unauthenticated client
// may call are rows of the remote program. The same numbers on another
// program sharing the listener are not exempt from the auth gate.
func TestPreAuthIsPerProgram(t *testing.T) {
	d, srv, _ := startInstrumented(t)
	srv.AddProgram(admin.NewProgram(d))
	srv.SetCredentials(map[string]string{"alice": "pw"})
	sock := filepath.Join(t.TempDir(), "govirtd.sock")
	if err := srv.ListenUnix(sock, daemon.ServiceConfig{AuthSASL: true}); err != nil {
		t.Fatal(err)
	}

	mgmt := rawClient(t, sock, rpc.ProgramRemote)
	var mechs wire.AuthListReply
	if err := mgmt.Call(wire.ProcAuthList, &struct{}{}, &mechs); err != nil || len(mechs.Mechanisms) == 0 {
		t.Fatalf("remote AuthList before authentication: %v %v", mechs.Mechanisms, err)
	}
	adm := rawClient(t, sock, rpc.ProgramAdmin)
	for _, proc := range []uint32{wire.ProcAuthList, wire.ProcAuthSASLStart, admin.ProcServerList, 9999} {
		if code := remoteCode(t, adm.Call(proc, &struct{}{}, nil)); code != core.ErrAuthFailed {
			t.Errorf("unauthenticated admin procedure %d: code %v, want ErrAuthFailed", proc, code)
		}
	}
}
