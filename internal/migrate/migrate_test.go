package migrate

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/drivers/qemu"
	"repro/internal/drivers/remote"
	"repro/internal/events"
	"repro/internal/faultpoint"
	"repro/internal/hyper"
	"repro/internal/logging"
	"repro/internal/uri"
)

// pair opens two independent qemu-driver connections (two "hosts").
func pair(t *testing.T) (*core.Connect, *core.Connect) {
	t.Helper()
	log := logging.NewQuiet(logging.Error)
	open := func() *core.Connect {
		drv, err := qemu.New(&uri.URI{Driver: "qsim", Path: "/system"}, log)
		if err != nil {
			t.Fatal(err)
		}
		return core.OpenWith(&uri.URI{Driver: "qsim", Path: "/system"}, drv)
	}
	return open(), open()
}

func defineRunning(t *testing.T, c *core.Connect, name string, memMiB int, dirtyRate uint64) *core.Domain {
	t.Helper()
	xml := fmt.Sprintf(`
<domain type='qsim'>
  <name>%s</name>
  <description>cpu_util=0.5 dirty_pages_sec=%d</description>
  <memory unit='MiB'>%d</memory>
  <vcpu>2</vcpu>
  <os><type arch='x86_64'>hvm</type></os>
</domain>`, name, dirtyRate, memMiB)
	dom, err := c.CreateDomainXML(xml)
	if err != nil {
		t.Fatal(err)
	}
	return dom
}

func TestMigrateHappyPath(t *testing.T) {
	src, dst := pair(t)
	dom := defineRunning(t, src, "mig1", 1024, 2000)

	res, err := Migrate(dom, dst, core.MigrateOptions{BandwidthMBps: 1000, MaxDowntimeMs: 300})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("expected convergence: %+v", res)
	}
	if res.Iterations < 1 || res.TotalTimeNs == 0 || res.TransferredKiB < 1024*1024 {
		t.Fatalf("%+v", res)
	}
	if res.DowntimeNs > 300*1_000_000 {
		t.Fatalf("downtime %v ns exceeds target", res.DowntimeNs)
	}
	// Source is off but still defined; destination runs.
	st, err := dom.State()
	if err != nil || st != core.DomainShutoff {
		t.Fatalf("source state %v %v", st, err)
	}
	dstDom, err := dst.LookupDomain("mig1")
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := dstDom.State(); st != core.DomainRunning {
		t.Fatalf("destination state %v", st)
	}
}

func TestMigrateUndefineSource(t *testing.T) {
	src, dst := pair(t)
	dom := defineRunning(t, src, "mig2", 512, 500)
	if _, err := Migrate(dom, dst, core.MigrateOptions{UndefineSource: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.LookupDomain("mig2"); !core.IsCode(err, core.ErrNoDomain) {
		t.Fatalf("source still defined: %v", err)
	}
}

func TestMigrateRequiresRunningDomain(t *testing.T) {
	src, dst := pair(t)
	dom, err := src.DefineDomain(`<domain type='qsim'><name>off</name><memory unit='MiB'>128</memory><vcpu>1</vcpu><os><type>hvm</type></os></domain>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Migrate(dom, dst, core.MigrateOptions{}); !core.IsCode(err, core.ErrOperationInvalid) {
		t.Fatalf("migrating inactive domain: %v", err)
	}
}

func TestMigrateNameClashAborts(t *testing.T) {
	src, dst := pair(t)
	dom := defineRunning(t, src, "clash", 256, 500)
	defineRunning(t, dst, "clash", 256, 500)
	if _, err := Migrate(dom, dst, core.MigrateOptions{}); !core.IsCode(err, core.ErrMigrate) {
		t.Fatalf("name clash: %v", err)
	}
	// Source is untouched by the failed prepare.
	if st, _ := dom.State(); st != core.DomainRunning {
		t.Fatalf("source state %v after aborted migration", st)
	}
}

func TestMigrateHighDirtyRateForcesStopAndCopy(t *testing.T) {
	src, dst := pair(t)
	// Dirty rate far above what a slow link can drain.
	dom := defineRunning(t, src, "stubborn", 2048, 2_000_000)
	res, err := Migrate(dom, dst, core.MigrateOptions{
		BandwidthMBps: 50, MaxDowntimeMs: 50, MaxIterations: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatalf("unconvergeable migration reported converged: %+v", res)
	}
	if res.Iterations != 5 {
		t.Fatalf("iterations %d, want cap 5", res.Iterations)
	}
	if res.DowntimeNs <= 50*1_000_000 {
		t.Fatalf("forced stop-and-copy downtime %d suspiciously low", res.DowntimeNs)
	}
}

func TestMigrateEventsEmitted(t *testing.T) {
	src, dst := pair(t)
	dom := defineRunning(t, src, "ev", 256, 500)
	srcCol, dstCol := events.NewCollector(), events.NewCollector()
	src.Driver().(core.EventSource).EventBus().Subscribe("", []events.Type{events.EventMigrated}, srcCol.Callback())
	dst.Driver().(core.EventSource).EventBus().Subscribe("", []events.Type{events.EventMigrated}, dstCol.Callback())
	if _, err := Migrate(dom, dst, core.MigrateOptions{}); err != nil {
		t.Fatal(err)
	}
	if srcCol.Len() != 1 || dstCol.Len() != 1 {
		t.Fatalf("migration events: src=%d dst=%d", srcCol.Len(), dstCol.Len())
	}
	if srcCol.Events()[0].Detail != "source" || dstCol.Events()[0].Detail != "destination" {
		t.Fatalf("event details wrong")
	}
}

func TestEstimateMonotonicInMemory(t *testing.T) {
	opts := core.MigrateOptions{BandwidthMBps: 1000, MaxDowntimeMs: 300}
	small, err := Estimate(Workload{MemKiB: 512 * 1024, DirtyPagesSec: 1000}, opts)
	if err != nil {
		t.Fatal(err)
	}
	large, err := Estimate(Workload{MemKiB: 8 * 1024 * 1024, DirtyPagesSec: 1000}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if large.TotalTimeNs <= small.TotalTimeNs {
		t.Fatalf("total time not monotonic in memory: %v vs %v", small.TotalTimeNs, large.TotalTimeNs)
	}
}

func TestEstimateDirtyRateDrivesIterations(t *testing.T) {
	opts := core.MigrateOptions{BandwidthMBps: 500, MaxDowntimeMs: 100}
	calm, err := Estimate(Workload{MemKiB: 2 * 1024 * 1024, DirtyPagesSec: 100}, opts)
	if err != nil {
		t.Fatal(err)
	}
	busy, err := Estimate(Workload{MemKiB: 2 * 1024 * 1024, DirtyPagesSec: 500_000}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if busy.Iterations <= calm.Iterations {
		t.Fatalf("iterations: calm=%d busy=%d", calm.Iterations, busy.Iterations)
	}
	if !calm.Converged {
		t.Fatal("calm workload should converge")
	}
}

func TestEstimateValidation(t *testing.T) {
	if _, err := Estimate(Workload{}, core.MigrateOptions{}); !core.IsCode(err, core.ErrInvalidArg) {
		t.Fatalf("zero memory: %v", err)
	}
}

func TestMigrateDefaults(t *testing.T) {
	opts := core.MigrateOptions{}
	applyDefaults(&opts)
	if opts.BandwidthMBps != 1000 || opts.MaxDowntimeMs != 300 || opts.MaxIterations != 30 {
		t.Fatalf("defaults %+v", opts)
	}
	if opts.ParallelStreams != 1 {
		t.Fatalf("stream default %d, want 1", opts.ParallelStreams)
	}
	opts.ParallelStreams = 10_000
	applyDefaults(&opts)
	if opts.ParallelStreams != core.MaxMigrateStreams {
		t.Fatalf("stream cap %d, want %d", opts.ParallelStreams, core.MaxMigrateStreams)
	}
}

// TestPreCopyEdgeCases pins the boundary behaviour of the iterative
// copy: instant convergence, forced stop-and-copy at the round cap, and
// the post-copy downtime bound that holds regardless of dirty rate.
func TestPreCopyEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		w     Workload
		opts  core.MigrateOptions
		check func(t *testing.T, r Result)
	}{
		{
			name: "zero dirty rate converges in one round",
			w:    Workload{MemKiB: 1024 * 1024, DirtyPagesSec: 0},
			opts: core.MigrateOptions{BandwidthMBps: 1000, MaxDowntimeMs: 300},
			check: func(t *testing.T, r Result) {
				if !r.Converged || r.Iterations != 1 {
					t.Fatalf("want 1-round convergence: %+v", r)
				}
				// Nothing left to copy: downtime is the bare switch-over.
				if r.DowntimeNs != switchoverOverheadNs {
					t.Fatalf("downtime %d, want %d", r.DowntimeNs, switchoverOverheadNs)
				}
			},
		},
		{
			name: "non-convergence stops at MaxIterations",
			w:    Workload{MemKiB: 2 * 1024 * 1024, DirtyPagesSec: 2_000_000},
			opts: core.MigrateOptions{BandwidthMBps: 50, MaxDowntimeMs: 50, MaxIterations: 7},
			check: func(t *testing.T, r Result) {
				if r.Converged || r.Iterations != 7 {
					t.Fatalf("want forced stop at 7 rounds: %+v", r)
				}
				if r.DowntimeNs <= 50*1_000_000 {
					t.Fatalf("forced stop-and-copy downtime %d suspiciously low", r.DowntimeNs)
				}
			},
		},
		{
			name: "post-copy bounds downtime at any dirty rate",
			w:    Workload{MemKiB: 2 * 1024 * 1024, DirtyPagesSec: 2_000_000},
			opts: core.MigrateOptions{BandwidthMBps: 50, MaxDowntimeMs: 300, PostCopy: true},
			check: func(t *testing.T, r Result) {
				if !r.Converged || r.Mode != ModePostCopy {
					t.Fatalf("post-copy should always converge: %+v", r)
				}
				if r.DowntimeNs > 300*1_000_000 {
					t.Fatalf("post-copy downtime %d exceeds target", r.DowntimeNs)
				}
				if r.PostCopyFaults == 0 {
					t.Fatalf("hot post-copy guest faulted no pages: %+v", r)
				}
			},
		},
		{
			name: "generous downtime budget converges immediately",
			w:    Workload{MemKiB: 512 * 1024, DirtyPagesSec: 10_000},
			opts: core.MigrateOptions{BandwidthMBps: 1000, MaxDowntimeMs: 10_000},
			check: func(t *testing.T, r Result) {
				if !r.Converged || r.Iterations != 1 {
					t.Fatalf("10s budget should converge in one round: %+v", r)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Estimate(tc.w, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, res)
		})
	}
}

// TestThrottleLadderMonotonic pins the auto-convergence escalation
// sequence: strictly increasing, bounded below the machine clamp.
func TestThrottleLadderMonotonic(t *testing.T) {
	prev := 0.0
	for i, v := range throttleLadder {
		if v <= prev {
			t.Fatalf("ladder step %d: %v not above %v", i, v, prev)
		}
		if v > 0.95 {
			t.Fatalf("ladder step %d: %v throttles too hard", i, v)
		}
		prev = v
	}
}

// TestMigrateParallelStreamsMonotonic is acceptance criterion (a):
// at a fixed dirty rate, total migration time improves monotonically
// with the stream count, and the per-stream accounting shows the rounds
// actually split.
func TestMigrateParallelStreamsMonotonic(t *testing.T) {
	w := Workload{MemKiB: 4 * 1024 * 1024, DirtyPagesSec: 20_000}
	prev := uint64(0)
	for _, streams := range []int{1, 2, 4, 8} {
		res, err := Estimate(w, core.MigrateOptions{
			BandwidthMBps: 1000, MaxDowntimeMs: 300, ParallelStreams: streams,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("streams=%d did not converge: %+v", streams, res)
		}
		if res.Streams != streams || len(res.PerStreamKiB) != streams {
			t.Fatalf("streams=%d accounting: %+v", streams, res)
		}
		for i, kib := range res.PerStreamKiB {
			if kib == 0 {
				t.Fatalf("streams=%d: stream %d moved nothing", streams, i)
			}
		}
		if prev != 0 && res.TotalTimeNs >= prev {
			t.Fatalf("streams=%d total %d not below previous %d", streams, res.TotalTimeNs, prev)
		}
		prev = res.TotalTimeNs
	}
}

// TestMigrateAutoConvergeConverges is acceptance criterion (b): a dirty
// rate that can never converge on the raw link converges once
// auto-convergence throttles the source vCPUs.
func TestMigrateAutoConvergeConverges(t *testing.T) {
	w := Workload{MemKiB: 512 * 1024, DirtyPagesSec: 30_000}
	opts := core.MigrateOptions{BandwidthMBps: 100, MaxDowntimeMs: 300}

	plain, err := Estimate(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Converged {
		t.Fatalf("workload converged without throttling; pick a hotter one: %+v", plain)
	}

	opts.AutoConverge = true
	ac, err := Estimate(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !ac.Converged {
		t.Fatalf("auto-convergence failed to converge: %+v", ac)
	}
	if ac.ThrottleSteps == 0 || ac.MaxThrottle == 0 {
		t.Fatalf("converged without throttling?: %+v", ac)
	}
	// Throttling costs guest CPU — the trade must be visible.
	if ac.GuestCPUNs >= plain.GuestCPUNs {
		t.Fatalf("throttled guest CPU %d not below unthrottled %d", ac.GuestCPUNs, plain.GuestCPUNs)
	}
}

// machineOf digs the substrate machine out of a local connection.
func machineOf(t *testing.T, c *core.Connect, name string) *hyper.Machine {
	t.Helper()
	ma, ok := c.Driver().(core.MachineAccess)
	if !ok {
		t.Fatalf("driver has no machine access")
	}
	m, err := ma.Machine(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMigratePostCopyLocal runs the post-copy flow end to end between
// two local connections and checks the destination machine's
// page-presence model drains to zero.
func TestMigratePostCopyLocal(t *testing.T) {
	src, dst := pair(t)
	dom := defineRunning(t, src, "pc1", 512, 200_000)

	res, err := Migrate(dom, dst, core.MigrateOptions{
		BandwidthMBps: 1000, MaxDowntimeMs: 300, ParallelStreams: 4, PostCopy: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModePostCopy || !res.Converged {
		t.Fatalf("%+v", res)
	}
	if res.DowntimeNs > 300*1_000_000 {
		t.Fatalf("post-copy downtime %d above target", res.DowntimeNs)
	}
	if res.PostCopyFaults == 0 {
		t.Fatalf("hot guest faulted no pages: %+v", res)
	}
	dstDom, err := dst.LookupDomain("pc1")
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := dstDom.State(); st != core.DomainRunning {
		t.Fatalf("destination state %v", st)
	}
	m := machineOf(t, dst, "pc1")
	if m.InPostCopy() || m.MissingPages() != 0 {
		t.Fatalf("destination still post-copy: missing=%d", m.MissingPages())
	}
	if st, _ := dom.State(); st != core.DomainShutoff {
		t.Fatalf("source not torn down")
	}
}

// TestMigrateContextAbort: cancelling the context aborts between copy
// rounds; the source keeps running, the destination definition is
// removed, and no throttle is left behind.
func TestMigrateContextAbort(t *testing.T) {
	src, dst := pair(t)
	dom := defineRunning(t, src, "abort1", 1024, 50_000)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // aborted before the first round
	_, err := MigrateContext(ctx, dom, dst, core.MigrateOptions{AutoConverge: true})
	if !core.IsCode(err, core.ErrMigrate) {
		t.Fatalf("cancelled migration: %v", err)
	}
	if st, _ := dom.State(); st != core.DomainRunning {
		t.Fatalf("source state %v after abort", st)
	}
	if _, err := dst.LookupDomain("abort1"); !core.IsCode(err, core.ErrNoDomain) {
		t.Fatalf("destination kept the definition: %v", err)
	}
	if th := machineOf(t, src, "abort1").MigrationThrottle(); th != 0 {
		t.Fatalf("throttle %v left on aborted source", th)
	}
}

// TestChaosMigrateAbort is the chaos acceptance test: a seeded fault on
// the migrate.stream site kills a transfer stream mid-flight, in both
// pre-copy and post-copy mode, and in neither case is a domain lost on
// either end.
func TestChaosMigrateAbort(t *testing.T) {
	faultpoint.Default.Arm(42)
	defer faultpoint.Default.Disarm()

	t.Run("precopy", func(t *testing.T) {
		src, dst := pair(t)
		dom := defineRunning(t, src, "chaos1", 512, 30_000)
		// The 6th chunk send dies, deterministically: Prob 1 fires on
		// the first eval after the After skip regardless of stream
		// interleaving.
		faultpoint.Default.Set(FaultSiteStream, faultpoint.Spec{
			Mode: faultpoint.ModeError, Prob: 1, After: 5,
		})
		defer faultpoint.Default.Clear(FaultSiteStream)

		_, err := Migrate(dom, dst, core.MigrateOptions{
			BandwidthMBps: 100, ParallelStreams: 2, AutoConverge: true,
		})
		if !core.IsCode(err, core.ErrMigrate) {
			t.Fatalf("stream death: %v", err)
		}
		if st, _ := dom.State(); st != core.DomainRunning {
			t.Fatalf("source state %v after stream death", st)
		}
		if _, err := dst.LookupDomain("chaos1"); !core.IsCode(err, core.ErrNoDomain) {
			t.Fatalf("destination kept the definition: %v", err)
		}
		if th := machineOf(t, src, "chaos1").MigrationThrottle(); th != 0 {
			t.Fatalf("throttle %v left after abort", th)
		}
	})

	t.Run("postcopy", func(t *testing.T) {
		src, dst := pair(t)
		dom := defineRunning(t, src, "chaos2", 512, 100_000)
		// Survive round zero (8 chunks with 2 streams), die during the
		// pull phase — the typed post-copy failure mode.
		faultpoint.Default.Set(FaultSiteStream, faultpoint.Spec{
			Mode: faultpoint.ModeError, Prob: 1, After: 10,
		})
		defer faultpoint.Default.Clear(FaultSiteStream)

		_, err := Migrate(dom, dst, core.MigrateOptions{
			BandwidthMBps: 1000, ParallelStreams: 2, PostCopy: true,
		})
		if !core.IsCode(err, core.ErrPostCopy) {
			t.Fatalf("pull stream death: %v", err)
		}
		// Source resumed, destination undone: no guest lost.
		if st, _ := dom.State(); st != core.DomainRunning {
			t.Fatalf("source state %v after pull death", st)
		}
		if _, err := dst.LookupDomain("chaos2"); !core.IsCode(err, core.ErrNoDomain) {
			t.Fatalf("destination kept the definition: %v", err)
		}
	})
}

// TestMigrateDropRetransmits: injected packet loss on migrate.stream
// retransmits chunks instead of failing, and the retransmitted pages
// show up in the accounting.
func TestMigrateDropRetransmits(t *testing.T) {
	faultpoint.Default.Arm(7)
	defer faultpoint.Default.Disarm()
	faultpoint.Default.Set(FaultSiteStream, faultpoint.Spec{
		Mode: faultpoint.ModeDrop, Prob: 0.5,
	})
	defer faultpoint.Default.Clear(FaultSiteStream)

	src, dst := pair(t)
	dom := defineRunning(t, src, "lossy", 512, 5_000)
	res, err := Migrate(dom, dst, core.MigrateOptions{ParallelStreams: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("lossy link did not converge: %+v", res)
	}
	if res.RetransmitKiB == 0 {
		t.Fatalf("50%% loss produced no retransmits: %+v", res)
	}
}

// TestMigrateSinkReceives drives the destination's migration sink
// directly through a migration and checks the inbound accounting.
func TestMigrateSinkReceives(t *testing.T) {
	src, dst := pair(t)
	dom := defineRunning(t, src, "sink1", 512, 100_000)
	res, err := Migrate(dom, dst, core.MigrateOptions{ParallelStreams: 2, PostCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	sink, ok := dst.Driver().(interface {
		InboundMigrationPages(string) (uint64, uint64, bool)
	})
	if !ok {
		t.Fatalf("destination driver exposes no inbound accounting")
	}
	// finish(true) retired the transfer state.
	if _, _, live := sink.InboundMigrationPages("sink1"); live {
		t.Fatalf("inbound migration state leaked past finish")
	}
	if res.PostCopyFaults == 0 {
		t.Fatalf("no priority pulls recorded: %+v", res)
	}
}

// TestMigrateURIDefaults: unset options inherit the destination URI's
// migrate_* parameters; explicit options win.
func TestMigrateURIDefaults(t *testing.T) {
	u := &uri.URI{Driver: "qsim", Path: "/system", Params: map[string]string{
		"migrate_streams":       "4",
		"migrate_auto_converge": "on",
		"migrate_postcopy":      "true",
	}}
	log := logging.NewQuiet(logging.Error)
	drv, err := qemu.New(u, log)
	if err != nil {
		t.Fatal(err)
	}
	dst := core.OpenWith(u, drv)

	opts := core.MigrateOptions{}
	applyDefaults(&opts)
	applyURIDefaults(dst, &opts)
	if opts.ParallelStreams != 4 || !opts.AutoConverge || !opts.PostCopy {
		t.Fatalf("URI defaults not applied: %+v", opts)
	}

	// Explicit settings beat the URI.
	opts = core.MigrateOptions{ParallelStreams: 8}
	applyDefaults(&opts)
	applyURIDefaults(dst, &opts)
	if opts.ParallelStreams != 8 {
		t.Fatalf("explicit streams overridden: %+v", opts)
	}

	// And the real call path honours them end to end.
	src, _ := pair(t)
	dom := defineRunning(t, src, "uriopt", 256, 10_000)
	res, err := Migrate(dom, dst, core.MigrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Streams != 4 || res.Mode != ModePostCopy {
		t.Fatalf("URI-tuned migration ran with %+v", res)
	}
}

// TestMigrateWireSink pushes a migration at a daemon over the in-process
// memnet transport: the page chunks cross the real pooled RPC frame
// path, and the destination daemon ends up running the domain.
func TestMigrateWireSink(t *testing.T) {
	registerWireDrivers()
	log := logging.NewQuiet(logging.Error)
	d := daemon.New(log)
	srv, err := d.AddServer("govirtd", 2, 8, 2, daemon.ClientLimits{})
	if err != nil {
		t.Fatal(err)
	}
	srv.AddProgram(daemon.NewRemoteProgram(srv))
	if err := srv.ListenMem("migwire", daemon.ServiceConfig{}); err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()

	dst, err := core.Open("qsim+mem://migwire/system")
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	src, _ := pair(t)
	dom := defineRunning(t, src, "wiremig", 512, 50_000)
	res, err := Migrate(dom, dst, core.MigrateOptions{ParallelStreams: 4, AutoConverge: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("wire migration did not converge: %+v", res)
	}
	dstDom, err := dst.LookupDomain("wiremig")
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := dstDom.State(); st != core.DomainRunning {
		t.Fatalf("destination state %v", st)
	}
}

var wireDriversOnce sync.Once

func registerWireDrivers() {
	wireDriversOnce.Do(func() {
		qemu.Register(logging.NewQuiet(logging.Error))
		remote.Register()
	})
}
