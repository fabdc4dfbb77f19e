package fleet

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	drvtest "repro/internal/drivers/test"
	"repro/internal/logging"
	"repro/internal/uri"
)

// pollOnlyConn passes through the DriverConn methods of the test driver
// and hides its EventSource (it has no WatchSource either), so
// WatchEvents answers ErrNoSupport and the registry has nothing but its
// interval sweep to learn from.
type pollOnlyConn struct{ core.DriverConn }

// TestFleetPollsDriverWithoutWatch pins the one remaining polling path:
// a host whose driver cannot push events stays up and is swept exactly
// once per PollInterval. The schedule runs on the registry's fake clock,
// so the test steps time instead of sleeping through it.
func TestFleetPollsDriverWithoutWatch(t *testing.T) {
	core.ResetRegistryForTest()
	t.Cleanup(core.ResetRegistryForTest)
	log := logging.NewQuiet(logging.Error)
	core.Register("poll", func(u *uri.URI) (core.DriverConn, error) {
		d, err := drvtest.New(u, log)
		return pollOnlyConn{d}, err
	})

	const interval = time.Minute
	reg, err := New(Config{Hosts: []string{"poll:///empty"}, PollInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	var clock atomic.Int64 // nanoseconds since start
	start := time.Now()
	reg.now = func() time.Time { return start.Add(time.Duration(clock.Load())) }
	step := func(d time.Duration) {
		clock.Add(int64(d))
		reg.kickDispatch() // the dispatcher sleeps on a real timer; make it look at the clock
	}
	sweeps := func() uint64 { return reg.WatchStats().Sweeps }
	reg.Start()
	defer reg.Close()

	waitFor(t, 5*time.Second, "connect sweep", func() bool { return sweeps() == 1 })
	conn, err := reg.Host("host0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.CreateDomainXML(testXML("polled", 128, 1)); err != nil {
		t.Fatal(err)
	}

	step(interval / 2) // not due yet: must cause no sweep
	want := uint64(1)
	for _, d := range []time.Duration{interval / 2, interval, interval} {
		step(d)
		want++
		waitFor(t, 5*time.Second, "interval sweep", func() bool { return sweeps() >= want })
		if st := reg.Status()[0]; st.State != HostUp {
			t.Fatalf("host went %v after sweep %d: %v", st.State, want, st.Err)
		}
	}
	if n := fleetActive(reg); n != 1 {
		t.Fatalf("summaries show %d active domains, want the 1 only a sweep could have found", n)
	}
	reg.Close() // waits for the workers: no sweep is still in flight
	if st := reg.WatchStats(); st.Sweeps != want || st.WatchEvents != 0 {
		t.Fatalf("%d sweeps over 3 intervals (want %d), %d watch events (want 0)",
			st.Sweeps, want, st.WatchEvents)
	}
}
