// Package migrate implements live migration between two management
// connections as a three-mechanism pipeline:
//
//   - Iterative pre-copy: the domain's memory is copied while it keeps
//     running, dirty pages are re-sent round by round, and when the
//     remaining set fits the downtime target the guest is paused,
//     switched over and resumed on the destination. Every round is
//     split across ParallelStreams concurrent transfer streams; each
//     stream pays a fixed protocol overhead, so aggregate throughput
//     rises monotonically with the stream count but never exceeds the
//     link (see effBandwidthKiBps).
//
//   - Auto-convergence: when the dirty rate outruns effective bandwidth
//     for consecutive rounds, the source machine's vCPUs are throttled
//     up a ladder (20% → 95%), shrinking dirty production until the
//     rounds converge. The throttle is restored on switch-over or abort.
//
//   - Post-copy: after one pre-copy round execution switches to the
//     destination, bounding downtime by the switch-over handshake
//     regardless of dirty rate; missing pages are prefetched in the
//     background and demand faults ride a priority stream. A pull-stream
//     death surfaces as the typed core.ErrPostCopy; because the source
//     image stays authoritative until the final commit, the engine
//     recovers it by resuming the source and undoing the destination,
//     so no guest is ever lost on either end.
//
// The transfer itself is simulated: round times derive from the
// configured bandwidth and the source machine's dirty-page model (see
// DESIGN.md, Substitutions), so total time, downtime and convergence
// behaviour — the properties the evaluation reports — are faithfully
// reproduced without moving real memory. Page chunks additionally cross
// the destination's migration sink — the real RPC frame path when it is
// remote (pipelined per stream, faultpoint site "migrate.stream") — so
// the wire layer carries genuine migration load in tests and benchmarks.
//
// Both ends may be local or remote connections. A local source exposes
// its substrate machine directly; for a daemon-managed source, whose
// machine lives on the far side of the wire, the engine reconstructs an
// equivalent workload model from the domain's XML definition (memory
// size plus the same description hints the daemon-side machine was
// built from), so fleet controllers can drive migrations between two
// daemons through the uniform API alone.
package migrate

import (
	"context"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/drivers/common"
	"repro/internal/events"
	"repro/internal/hyper"
	"repro/internal/xmlspec"
)

// switchoverOverheadNs models the fixed cost of the stop-and-copy
// handshake (pause, final state push, resume on the destination).
const switchoverOverheadNs = 20_000_000 // 20 ms

// streamOverhead is the fixed per-transfer protocol overhead in stream
// units: framing, acknowledgement round trips and serialization stalls
// that a single stream cannot hide. Effective aggregate bandwidth is
// link · N/(N + streamOverhead) — strictly increasing in N, asymptotic
// to the link rate, so adding streams always helps but contention is
// modeled honestly.
const streamOverhead = 0.5

// pullRTTNs is the modelled round-trip latency a post-copy demand-fault
// batch pays on the priority stream.
const pullRTTNs = 500_000 // 0.5 ms

// autoConvergeRounds is K: consecutive hot rounds before the throttle
// escalates one ladder step.
const autoConvergeRounds = 2

// autoConvergeHotRatio marks a round as hot when the remaining set
// shrank to no less than this fraction of the previous round's — at
// that ratio, convergence needs geometrically many more rounds than the
// iteration budget allows, so dirty production must come down. Judging
// shrinkage rather than the raw dirty rate keeps the detector stable
// when the dirty-page model saturates near the whole address space.
const autoConvergeHotRatio = 0.7

// throttleLadder is the auto-convergence escalation sequence applied to
// the source vCPUs. Strictly increasing; TestThrottleLadderMonotonic
// pins the property.
var throttleLadder = []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}

// Migration modes reported in Result.Mode.
const (
	ModePreCopy  = "precopy"
	ModePostCopy = "postcopy"
)

// Result reports the outcome of a migration.
type Result struct {
	Iterations     int
	Converged      bool   // remaining set fit the downtime target
	Mode           string // ModePreCopy or ModePostCopy
	Streams        int    // parallel streams used
	TotalTimeNs    uint64
	DowntimeNs     uint64
	TransferredKiB uint64

	// PerStreamKiB is the bandwidth accounting per background stream
	// (retransmitted pages included), demonstrating how the rounds were
	// split. RetransmitKiB counts pages resent after an injected drop
	// on the migrate.stream faultpoint site.
	PerStreamKiB  []uint64
	RetransmitKiB uint64

	// Auto-convergence accounting: ladder escalations applied and the
	// peak vCPU throttle reached.
	ThrottleSteps int
	MaxThrottle   float64

	// Post-copy accounting: demand-fault pulls served after switch-over.
	PostCopyFaults uint64

	// GuestCPUNs is the modelled guest CPU time consumed during the
	// migration window — the cost auto-convergence trades for
	// convergence, visible in parameter sweeps over CPUUtil and VCPUs.
	GuestCPUNs uint64
}

// TotalTimeMs returns the total migration time in milliseconds.
func (r Result) TotalTimeMs() float64 { return float64(r.TotalTimeNs) / 1e6 }

// DowntimeMs returns the guest-visible downtime in milliseconds.
func (r Result) DowntimeMs() float64 { return float64(r.DowntimeNs) / 1e6 }

// effBandwidthKiBps is the aggregate effective bandwidth of streams
// parallel streams over a link of linkMBps.
func effBandwidthKiBps(linkMBps uint64, streams int) float64 {
	n := float64(streams)
	return float64(linkMBps) * 1024 * n / (n + streamOverhead)
}

// Migrate moves the named running domain from src to dst. Both ends may
// be local or remote: a local source is migrated against its substrate
// machine; a daemon-managed source is migrated against a model machine
// reconstructed from its XML definition (see the package comment).
func Migrate(src *core.Domain, dst *core.Connect, opts core.MigrateOptions) (Result, error) {
	return MigrateContext(context.Background(), src, dst, opts)
}

// MigrateContext is Migrate with cancellation: when ctx is cancelled
// between copy rounds the migration aborts cleanly — the source resumes
// (it is never left paused), the destination definition is removed, and
// any auto-convergence throttle is restored.
func MigrateContext(ctx context.Context, src *core.Domain, dst *core.Connect, opts core.MigrateOptions) (Result, error) {
	applyDefaults(&opts)
	applyURIDefaults(dst, &opts)
	migStarted.Inc()
	res, err := migrateDomain(ctx, src, dst, opts)
	if err != nil {
		migFailed.Inc()
		return res, err
	}
	if res.Converged {
		migConverged.Inc()
	}
	if res.Mode == ModePostCopy {
		migPostCopy.Inc()
	}
	migDowntime.Observe(time.Duration(res.DowntimeNs))
	migTotalTime.Observe(time.Duration(res.TotalTimeNs))
	return res, nil
}

func migrateDomain(ctx context.Context, src *core.Domain, dst *core.Connect, opts core.MigrateOptions) (Result, error) {
	info, err := src.Info()
	if err != nil {
		return Result{}, err
	}
	if info.State != core.DomainRunning {
		return Result{}, core.Errorf(core.ErrOperationInvalid,
			"domain %q is %s; live migration needs a running domain", src.Name(), info.State)
	}
	xmlDesc, err := src.XML()
	if err != nil {
		return Result{}, err
	}
	var machine *hyper.Machine
	if ma, ok := src.Connect().Driver().(core.MachineAccess); ok {
		machine, err = ma.Machine(src.Name())
	} else {
		machine, err = modelMachine(xmlDesc)
	}
	if err != nil {
		return Result{}, err
	}

	// Prepare phase: the definition lands on the destination first, so a
	// name clash or invalid config aborts before the guest is touched.
	dstDom, err := dst.DefineDomain(xmlDesc)
	if err != nil {
		return Result{}, core.Errorf(core.ErrMigrate,
			"prepare on destination: %v", err)
	}
	tr, err := newTransport(dst, dstDom.Name(), machine.TotalPages(), opts.ParallelStreams)
	if err != nil {
		_ = dstDom.Undefine()
		return Result{}, core.Errorf(core.ErrMigrate,
			"prepare transfer on destination: %v", err)
	}

	e := newEngine(machine, tr, opts)
	// Whatever happens, the source never stays throttled.
	defer machine.SetMigrationThrottle(0)

	cpu0 := machine.Stats().CPUTimeNs
	var migErr error
	if opts.PostCopy {
		migErr = e.runPostCopy(ctx, src, dst, dstDom)
	} else {
		migErr = e.runPreCopy(ctx, src, dstDom)
	}
	e.res.GuestCPUNs = machine.Stats().CPUTimeNs - cpu0
	if migErr != nil {
		return e.res, migErr
	}

	if opts.UndefineSource {
		if err := src.Undefine(); err != nil {
			return e.res, core.Errorf(core.ErrMigrate, "undefine source: %v", err)
		}
	}
	emitMigrated(src.Connect(), src.Name(), src.UUID(), "source")
	emitMigrated(dst, dstDom.Name(), dstDom.UUID(), "destination")
	return e.res, nil
}

// runPreCopy is the classic flow: iterate until convergence (or the
// round cap), then pause–switch–resume.
func (e *engine) runPreCopy(ctx context.Context, src *core.Domain, dstDom *core.Domain) error {
	if _, err := e.precopyRounds(ctx); err != nil {
		_ = e.tr.finish(false)
		_ = dstDom.Undefine()
		return err
	}
	if err := ctx.Err(); err != nil {
		_ = e.tr.finish(false)
		_ = dstDom.Undefine()
		return core.Errorf(core.ErrMigrate, "aborted before switch-over: %v", err)
	}

	// Switch-over: pause the source, start the destination, tear the
	// source down. Failure after the pause resumes the source so the
	// guest never ends up lost on both ends.
	e.m.SetMigrationThrottle(0)
	if err := src.Suspend(); err != nil {
		_ = e.tr.finish(false)
		_ = dstDom.Undefine()
		return core.Errorf(core.ErrMigrate, "pause source: %v", err)
	}
	if err := dstDom.Create(); err != nil {
		_ = src.Resume()
		_ = e.tr.finish(false)
		_ = dstDom.Undefine()
		return core.Errorf(core.ErrMigrate, "start on destination: %v", err)
	}
	if err := src.Destroy(); err != nil {
		return core.Errorf(core.ErrMigrate,
			"destination is running but source teardown failed: %v", err)
	}
	_ = e.tr.finish(true)
	return nil
}

// runPostCopy runs one pre-copy round, switches execution to the
// destination within the bounded switch-over window, then pulls the
// missing pages while the guest already runs over there.
func (e *engine) runPostCopy(ctx context.Context, src *core.Domain, dst *core.Connect, dstDom *core.Domain) error {
	e.res.Mode = ModePostCopy
	remainingKiB, err := e.precopyRounds(ctx)
	if err != nil {
		_ = e.tr.finish(false)
		_ = dstDom.Undefine()
		return err
	}
	if err := ctx.Err(); err != nil {
		_ = e.tr.finish(false)
		_ = dstDom.Undefine()
		return core.Errorf(core.ErrMigrate, "aborted before switch-over: %v", err)
	}

	// Switch-over: only vCPU and device state moves inside the blackout
	// window, so downtime is the handshake cost — bounded regardless of
	// how fast the guest dirties memory.
	e.m.SetMigrationThrottle(0)
	if err := src.Suspend(); err != nil {
		_ = e.tr.finish(false)
		_ = dstDom.Undefine()
		return core.Errorf(core.ErrMigrate, "pause source: %v", err)
	}
	if err := dstDom.Create(); err != nil {
		_ = src.Resume()
		_ = e.tr.finish(false)
		_ = dstDom.Undefine()
		return core.Errorf(core.ErrMigrate, "start on destination: %v", err)
	}
	e.res.DowntimeNs = switchoverOverheadNs
	e.res.TotalTimeNs += switchoverOverheadNs
	e.res.Converged = true

	missingPages := remainingKiB / hyper.PageSizeKiB
	var dstM *hyper.Machine
	if ma, ok := dst.Driver().(core.MachineAccess); ok {
		if m, err := ma.Machine(dstDom.Name()); err == nil {
			dstM = m
			_ = m.BeginPostCopy(m.TotalPages() - missingPages)
		}
	}

	if err := e.postcopyPull(ctx, missingPages, dstM); err != nil {
		// The pull stream died mid-copy. The source image stays
		// authoritative until the final commit, so recovery is to
		// resume the source and undo the destination — the typed
		// failure costs the migration, never the guest.
		_ = dstDom.Destroy()
		_ = dstDom.Undefine()
		_ = src.Resume()
		_ = e.tr.finish(false)
		return err
	}
	if err := src.Destroy(); err != nil {
		return core.Errorf(core.ErrMigrate,
			"destination is running but source teardown failed: %v", err)
	}
	_ = e.tr.finish(true)
	return nil
}

// engine holds one migration's moving parts.
type engine struct {
	m       *hyper.Machine
	tr      transport
	opts    core.MigrateOptions
	streams int
	res     Result
}

func newEngine(m *hyper.Machine, tr transport, opts core.MigrateOptions) *engine {
	return &engine{
		m:       m,
		tr:      tr,
		opts:    opts,
		streams: opts.ParallelStreams,
		res: Result{
			Mode:         ModePreCopy,
			Streams:      opts.ParallelStreams,
			PerStreamKiB: make([]uint64, opts.ParallelStreams),
		},
	}
}

// precopyRounds runs the iterative copy against the machine's dirty
// model. In post-copy mode it returns after the first round; otherwise
// it loops to convergence or the round cap and accounts the final
// stop-and-copy. Returns the remaining (not yet copied) KiB.
func (e *engine) precopyRounds(ctx context.Context) (uint64, error) {
	effBW := effBandwidthKiBps(e.opts.BandwidthMBps, e.streams)
	perStreamBW := effBW / float64(e.streams)

	// Round zero transfers the full memory image.
	e.m.ResetDirty()
	remainingKiB := e.m.MemKiB()
	hotRounds := 0
	for {
		if err := ctx.Err(); err != nil {
			return remainingKiB, core.Errorf(core.ErrMigrate, "aborted: %v", err)
		}
		e.res.Iterations++
		roundPages := (remainingKiB + hyper.PageSizeKiB - 1) / hyper.PageSizeKiB
		perStream, err := sendRound(e.tr, e.res.Iterations, e.streams, roundPages)
		if err != nil {
			return remainingKiB, core.Errorf(core.ErrMigrate,
				"round %d: %v", e.res.Iterations, err)
		}
		var slowest, sent uint64
		for i, p := range perStream {
			e.res.PerStreamKiB[i] += p * hyper.PageSizeKiB
			sent += p
			if p > slowest {
				slowest = p
			}
		}
		if extra := sent - roundPages; extra > 0 {
			e.res.RetransmitKiB += extra * hyper.PageSizeKiB
		}
		// The round lasts as long as its slowest stream needs.
		roundNs := uint64(float64(slowest*hyper.PageSizeKiB) / perStreamBW * 1e9)
		e.res.TotalTimeNs += roundNs
		e.res.TransferredKiB += sent * hyper.PageSizeKiB

		// While the round was on the wire, the guest kept dirtying.
		e.m.RunFor(roundNs)
		dirtyPages := e.m.ResetDirty()
		newRemainingKiB := dirtyPages * hyper.PageSizeKiB

		if e.opts.PostCopy {
			// One round, then the switch-over bounds the downtime.
			return newRemainingKiB, nil
		}

		finalNs := uint64(float64(newRemainingKiB)/effBW*1e9) + switchoverOverheadNs
		if finalNs <= uint64(e.opts.MaxDowntimeMs)*1_000_000 {
			e.res.Converged = true
			e.res.DowntimeNs = finalNs
			remainingKiB = newRemainingKiB
			break
		}
		if e.res.Iterations >= e.opts.MaxIterations {
			// Forced stop-and-copy: the guest pays the full remaining
			// transfer as downtime.
			e.res.DowntimeNs = finalNs
			remainingKiB = newRemainingKiB
			break
		}
		if e.opts.AutoConverge && remainingKiB > 0 {
			if float64(newRemainingKiB) >= autoConvergeHotRatio*float64(remainingKiB) {
				hotRounds++
			} else {
				hotRounds = 0
			}
			if hotRounds >= autoConvergeRounds {
				hotRounds = 0
				e.escalateThrottle()
			}
		}
		remainingKiB = newRemainingKiB
	}
	e.res.TotalTimeNs += e.res.DowntimeNs
	e.res.TransferredKiB += remainingKiB
	return remainingKiB, nil
}

// escalateThrottle advances the source vCPU throttle one ladder step.
func (e *engine) escalateThrottle() {
	if e.res.ThrottleSteps >= len(throttleLadder) {
		return
	}
	t := throttleLadder[e.res.ThrottleSteps]
	e.m.SetMigrationThrottle(t)
	e.res.ThrottleSteps++
	e.res.MaxThrottle = t
	migThrottles.Inc()
}

// postcopyTicks bounds how many prefetch rounds drain the missing set.
const postcopyTicks = 12

// postcopyPull drains the missing page set while the guest runs on the
// destination: background prefetch across the parallel streams, demand
// faults served on the priority stream. dstM, when the destination is a
// local driver, is the machine whose page-presence model the arriving
// chunks advance (over a remote connection the daemon-side sink does
// the same on its end).
func (e *engine) postcopyPull(ctx context.Context, missingPages uint64, dstM *hyper.Machine) error {
	effBW := effBandwidthKiBps(e.opts.BandwidthMBps, e.streams)
	perStreamBW := effBW / float64(e.streams)
	dirtyRate := float64(e.m.Config().DirtyPagesSec)
	totalPages := e.m.TotalPages()
	remaining := missingPages
	for tick := 0; remaining > 0; tick++ {
		if err := ctx.Err(); err != nil {
			return core.Errorf(core.ErrPostCopy,
				"aborted with %d pages missing: %v", remaining, err)
		}
		left := postcopyTicks - tick
		if left < 1 {
			left = 1
		}
		prefetch := (remaining + uint64(left) - 1) / uint64(left)

		perStream, err := sendRound(e.tr, e.res.Iterations+tick+1, e.streams, prefetch)
		if err != nil {
			return core.Errorf(core.ErrPostCopy,
				"pull stream died with %d of %d pages missing: %v",
				remaining, missingPages, err)
		}
		var slowest, sent uint64
		for i, p := range perStream {
			e.res.PerStreamKiB[i] += p * hyper.PageSizeKiB
			sent += p
			if p > slowest {
				slowest = p
			}
		}
		if extra := sent - prefetch; extra > 0 {
			e.res.RetransmitKiB += extra * hyper.PageSizeKiB
		}
		tickNs := uint64(float64(slowest*hyper.PageSizeKiB) / perStreamBW * 1e9)

		// Guest accesses landing in the still-missing set fault and are
		// served immediately over the priority stream.
		afterPrefetch := remaining - prefetch
		faults := uint64(dirtyRate * (float64(tickNs) / 1e9) * float64(afterPrefetch) / float64(totalPages))
		if faults > afterPrefetch {
			faults = afterPrefetch
		}
		if faults > 0 {
			if _, err := sendChunk(e.tr, &core.MigrateChunk{
				Stream: 0, Round: e.res.Iterations + tick + 1,
				Pages: faults, Priority: true,
			}); err != nil {
				return core.Errorf(core.ErrPostCopy,
					"fault-pull stream died with %d of %d pages missing: %v",
					remaining, missingPages, err)
			}
			tickNs += pullRTTNs
			e.res.PostCopyFaults += faults
		}

		e.res.TotalTimeNs += tickNs
		e.res.TransferredKiB += sent * hyper.PageSizeKiB
		remaining = afterPrefetch - faults
		if dstM != nil {
			dstM.RunFor(tickNs)
		}
	}
	if dstM != nil && dstM.InPostCopy() {
		// Belt and braces: whatever rounding left unmarked is resident
		// now that the transfer accounting reached zero.
		dstM.MarkPresent(dstM.MissingPages())
	}
	return nil
}

// modelMachine reconstructs the source's workload model from its XML
// definition. A remote source cannot expose its substrate machine
// across the wire, but the definition carries the memory size and the
// same description hints (cpu_util, dirty_pages_sec) the daemon-side
// machine was built from, so the precopy rounds computed here match the
// ones the source host itself would compute.
func modelMachine(xmlDesc string) (*hyper.Machine, error) {
	def, err := xmlspec.ParseDomain([]byte(xmlDesc))
	if err != nil {
		return nil, core.Errorf(core.ErrXML, "migrate: source definition: %v", err)
	}
	cfg, err := common.DefToConfig(def)
	if err != nil {
		return nil, core.Errorf(core.ErrXML, "migrate: source definition: %v", err)
	}
	m, err := hyper.NewMachine(cfg)
	if err != nil {
		return nil, core.Errorf(core.ErrInternal, "migrate: model machine: %v", err)
	}
	if err := m.Start(); err != nil {
		return nil, core.Errorf(core.ErrInternal, "migrate: model machine: %v", err)
	}
	return m, nil
}

func applyDefaults(opts *core.MigrateOptions) {
	if opts.BandwidthMBps == 0 {
		opts.BandwidthMBps = 1000
	}
	if opts.MaxDowntimeMs == 0 {
		opts.MaxDowntimeMs = 300
	}
	if opts.MaxIterations == 0 {
		opts.MaxIterations = 30
	}
	if opts.ParallelStreams < 1 {
		opts.ParallelStreams = 1
	}
	if opts.ParallelStreams > core.MaxMigrateStreams {
		opts.ParallelStreams = core.MaxMigrateStreams
	}
}

// applyURIDefaults fills unset migration options from the destination
// connection's URI parameters (migrate_streams, migrate_auto_converge,
// migrate_postcopy), so a fleet can tune the pipeline per host URI
// without touching call sites. Explicit options win over URI defaults.
func applyURIDefaults(dst *core.Connect, opts *core.MigrateOptions) {
	u := dst.URI()
	if u == nil {
		return
	}
	if opts.ParallelStreams <= 1 {
		if v, ok := u.Param("migrate_streams"); ok {
			if n, err := strconv.Atoi(v); err == nil && n >= 1 && n <= core.MaxMigrateStreams {
				opts.ParallelStreams = n
			}
		}
	}
	if !opts.AutoConverge {
		if v, ok := u.Param("migrate_auto_converge"); ok {
			if b, ok := parseBoolParam(v); ok {
				opts.AutoConverge = b
			}
		}
	}
	if !opts.PostCopy {
		if v, ok := u.Param("migrate_postcopy"); ok {
			if b, ok := parseBoolParam(v); ok {
				opts.PostCopy = b
			}
		}
	}
}

// parseBoolParam accepts the strconv spellings plus the on/off and
// yes/no forms common in connection URIs and config files.
func parseBoolParam(v string) (value, ok bool) {
	switch strings.ToLower(v) {
	case "on", "yes", "y":
		return true, true
	case "off", "no", "n":
		return false, true
	}
	b, err := strconv.ParseBool(v)
	return b, err == nil
}

// emitMigrated publishes the migration event on a local driver's bus.
// On a remote connection it is a no-op: the event bus lives in the
// daemon, and the remote driver is not an EventSource.
func emitMigrated(c *core.Connect, name, uuid, detail string) {
	if src, ok := c.Driver().(core.EventSource); ok {
		src.EventBus().Emit(events.Event{
			Type: events.EventMigrated, Domain: name, UUID: uuid, Detail: detail,
		})
	}
}

// Workload describes the guest whose migration Estimate models.
// CPUUtil and VCPUs default to 0.5 and 1 when zero, preserving the old
// fixed-workload behaviour while letting sweeps model real guests —
// auto-convergence throttling makes both visible in GuestCPUNs.
type Workload struct {
	MemKiB        uint64
	DirtyPagesSec uint64
	CPUUtil       float64
	VCPUs         int
}

// Estimate runs the full migration pipeline model without touching
// domain state: given a workload and options it predicts iterations,
// total time, downtime, throttle escalations and post-copy faults. The
// benchmark harness uses it for parameter sweeps; no telemetry counters
// move and nothing crosses a connection.
func Estimate(w Workload, opts core.MigrateOptions) (Result, error) {
	applyDefaults(&opts)
	if w.CPUUtil == 0 {
		w.CPUUtil = 0.5
	}
	if w.VCPUs == 0 {
		w.VCPUs = 1
	}
	m, err := hyper.NewMachine(hyper.Config{
		Name:          "estimate",
		VCPUs:         w.VCPUs,
		MemKiB:        w.MemKiB,
		DirtyPagesSec: w.DirtyPagesSec,
		CPUUtil:       w.CPUUtil,
	})
	if err != nil {
		return Result{}, core.Errorf(core.ErrInvalidArg, "%v", err)
	}
	if err := m.Start(); err != nil {
		return Result{}, core.Errorf(core.ErrInternal, "%v", err)
	}
	e := newEngine(m, modelTransport{}, opts)
	cpu0 := m.Stats().CPUTimeNs
	remainingKiB, err := e.precopyRounds(context.Background())
	if err != nil {
		return e.res, err
	}
	if opts.PostCopy {
		e.res.Mode = ModePostCopy
		e.res.DowntimeNs = switchoverOverheadNs
		e.res.TotalTimeNs += switchoverOverheadNs
		e.res.Converged = true
		// The estimate machine stands in for the destination guest:
		// same workload, now running with partial memory.
		_ = m.BeginPostCopy(m.TotalPages() - remainingKiB/hyper.PageSizeKiB)
		if err := e.postcopyPull(context.Background(), remainingKiB/hyper.PageSizeKiB, m); err != nil {
			return e.res, err
		}
	}
	e.res.GuestCPUNs = m.Stats().CPUTimeNs - cpu0
	return e.res, nil
}
