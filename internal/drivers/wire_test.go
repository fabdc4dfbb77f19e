package drivers_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/drivers/lxc"
	"repro/internal/drivers/qemu"
	"repro/internal/drivers/remote"
	"repro/internal/drivers/xen"
	"repro/internal/logging"
)

var (
	registerOnce sync.Once
	endpoints    atomic.Int64
)

// openOver opens a fresh connection to the named driver: in process
// ("local"), or through a daemon of its own reached over memnet
// ("memnet"), so one check can compare the two answers.
func openOver(t *testing.T, transport, name string) core.DriverConn {
	t.Helper()
	if transport == "local" {
		return openers[name](t)
	}
	registerOnce.Do(func() {
		log := logging.NewQuiet(logging.Error)
		qemu.Register(log)
		xen.Register(log)
		lxc.Register(log)
		remote.Register()
	})
	d := daemon.New(logging.NewQuiet(logging.Error))
	t.Cleanup(d.Shutdown)
	srv, err := d.AddServer("govirtd", 1, 4, 1, daemon.ClientLimits{})
	if err != nil {
		t.Fatal(err)
	}
	srv.AddProgram(daemon.NewRemoteProgram(srv))
	endpoint := fmt.Sprintf("drivers-%d", endpoints.Add(1))
	if err := srv.ListenMem(endpoint, daemon.ServiceConfig{}); err != nil {
		t.Fatal(err)
	}
	conn, err := core.Open(fmt.Sprintf("%s+mem://%s/system", name, endpoint))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn.Driver()
}

// TestMigratePrepareBoundsStreams: the stream count a peer sends sizes
// the destination's per-stream accounting, so a count outside
// [1, MaxMigrateStreams] is refused — with the same code in process and
// through a daemon — while the engine's largest count is accepted.
func TestMigratePrepareBoundsStreams(t *testing.T) {
	for _, transport := range []string{"local", "memnet"} {
		t.Run(transport, func(t *testing.T) {
			drv := openOver(t, transport, "qsim")
			if _, err := drv.DefineDomain(domainXML("qsim", "vm")); err != nil {
				t.Fatal(err)
			}
			for _, streams := range []uint32{0, core.MaxMigrateStreams + 1, 0xFFFFFFFF} {
				if _, err := drv.MigratePrepare("vm", 1024, int(streams)); !core.IsCode(err, core.ErrInvalidArg) {
					t.Fatalf("%d streams: %v, want %v", streams, err, core.ErrInvalidArg)
				}
			}
			cookie, err := drv.MigratePrepare("vm", 1024, core.MaxMigrateStreams)
			if err != nil {
				t.Fatal(err)
			}
			if err := drv.MigrateFinish(cookie, false); err != nil {
				t.Fatal(err)
			}
		})
	}
}
