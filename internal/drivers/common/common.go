// Package common implements the shared skeleton of every local
// hypervisor driver: the persistent domain-definition registry, XML
// handling, lifecycle event emission, virtual network attachment, and the
// storage/network facade. Each concrete driver supplies only the Hooks
// that translate lifecycle operations into its hypervisor's native API
// (qsim's JSON monitor, xsim's hypercalls, csim's engine calls) — the
// same division of labour as the driver architecture this reproduces.
package common

import (
	"context"
	"log/slog"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/hyper"
	"repro/internal/logging"
	"repro/internal/nodeinfo"
	"repro/internal/statestore"
	"repro/internal/storage"
	"repro/internal/uuid"
	"repro/internal/vnet"
	"repro/internal/xmlspec"
)

// Hooks is what a concrete driver implements against its native API.
type Hooks interface {
	// Type returns the driver name, which must match the domain type
	// attribute of definitions it accepts.
	Type() string
	// Version returns the hypervisor version banner.
	Version() (string, error)
	// GuestOSType returns the os type advertised in capabilities
	// ("hvm" for machine virtualization, "exe" for containers).
	GuestOSType() string
	// Start boots the validated definition on the native hypervisor.
	Start(def *xmlspec.Domain) error
	// Stop stops the named guest (gracefully if graceful) and reaps the
	// native object; after a successful Stop the guest is gone natively.
	Stop(name string, graceful bool) error
	// Reboot restarts the running guest.
	Reboot(name string) error
	// Suspend pauses the running guest.
	Suspend(name string) error
	// Resume unpauses the suspended guest.
	Resume(name string) error
	// Info returns live info for an active guest.
	Info(name string) (core.DomainInfo, error)
	// Stats returns the extended snapshot for an active guest.
	Stats(name string) (core.DomainStats, error)
	// SetMemory balloons the active guest.
	SetMemory(name string, kib uint64) error
	// SetVCPUs adjusts the active guest's vCPUs.
	SetVCPUs(name string, n int) error
	// ID returns the native runtime id of an active guest, -1 if unknown.
	ID(name string) int
	// Machine exposes the substrate machine of an active guest.
	Machine(name string) (*hyper.Machine, error)
}

// Options selects which subsystems the driver exposes.
type Options struct {
	Node     *nodeinfo.Node
	Networks bool
	Storage  bool
	Log      *logging.Logger

	// Scope namespaces this connection's persistent state under the
	// process state root. Drivers whose URI path selects a distinct
	// environment (like the test driver) pass the path here, so
	// connections to different environments journal — and replay —
	// independent object sets. Empty means the driver has a single
	// system-wide environment.
	Scope string
}

// record is the per-domain registry entry; name and uuidStr never
// change. Every operation that changes the domain holds its job (see
// begin) from its state check to its commit, and writes a field that
// reads also see under b.mu as well. def is immutable once published:
// changes swap in a new definition.
type record struct {
	name        string
	def         *xmlspec.Domain
	uuidStr     string
	leases      []attachedNIC // job holders only
	snapshots   []*snapshotRec
	managedSave *snapshotRec
	job         sync.Mutex
	starts      uint32 // runs begun, so the current run's number
	active      bool
	sawCrash    bool // crash event already emitted for this run; b.mu
}

// want is the state an operation needs its domain in.
type want uint8

const (
	wantAny want = iota
	wantActive
	wantInactive
)

type attachedNIC struct {
	network string
	mac     string
}

// Base implements core.DriverConn on top of Hooks.
type Base struct {
	mu    sync.Mutex
	hooks Hooks
	node  *nodeinfo.Node
	log   *slog.Logger // module "driver." + hooks.Type()
	bus   *events.Bus
	defs  map[string]*record
	order []*record // records in definition order: a stable sweep order
	nets  *vnet.Manager
	pools *storage.Manager
	ops   sync.Map // op string → *telemetry.Counter

	store     *statestore.Store // nil unless a state root is configured
	scope     string            // persistence namespace under the state root
	replaying bool              // journal replay in progress; suppress re-saves

	// Inbound live-migration transfers (migratesink.go).
	migMu      sync.Mutex
	migrations map[uint64]*inboundMigration
	migCookie  uint64
}

var (
	_ core.DriverConn    = (*Base)(nil)
	_ core.EventSource   = (*Base)(nil)
	_ core.MachineAccess = (*Base)(nil)
)

// New builds a driver base around the given hooks.
func New(hooks Hooks, opts Options) *Base {
	if opts.Log == nil {
		opts.Log = logging.NewQuiet(logging.Error)
	}
	b := &Base{
		hooks: hooks,
		node:  opts.Node,
		log:   opts.Log.For("driver." + hooks.Type()),
		bus:   events.NewBus(),
		defs:  make(map[string]*record),
	}
	if opts.Networks {
		b.nets = vnet.NewManager()
	}
	if opts.Storage {
		b.pools = storage.NewManager()
	}
	b.scope = sanitizeScope(opts.Scope)
	b.openStore()
	return b
}

// EventBus implements core.EventSource.
func (b *Base) EventBus() *events.Bus { return b.bus }

// Close implements core.DriverConn. Definitions and running guests are
// daemon-side state and survive connection close.
func (b *Base) Close() error { return nil }

// Type implements core.DriverConn.
func (b *Base) Type() string { return b.hooks.Type() }

// Version implements core.DriverConn.
func (b *Base) Version() (string, error) { return b.hooks.Version() }

// Hostname implements core.DriverConn.
func (b *Base) Hostname() (string, error) { return b.node.Hostname, nil }

// CapabilitiesXML implements core.DriverConn.
func (b *Base) CapabilitiesXML() (string, error) {
	caps := b.node.Capabilities(map[string]string{b.hooks.Type(): b.hooks.GuestOSType()})
	out, err := caps.Marshal()
	if err != nil {
		return "", core.Errorf(core.ErrInternal, "capabilities: %v", err)
	}
	return string(out), nil
}

// NodeInfo implements core.DriverConn.
func (b *Base) NodeInfo() (core.NodeInfo, error) {
	i := b.node.Info()
	return core.NodeInfo{
		Model: i.Model, MemoryKiB: i.MemoryKiB, CPUs: i.CPUs, MHz: i.MHz,
		NUMANodes: i.NUMANodes, Sockets: i.Sockets, Cores: i.Cores, Threads: i.Threads,
	}, nil
}

// ListDomains implements core.DriverConn.
func (b *Base) ListDomains(flags core.ListFlags) ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if flags == 0 {
		flags = core.ListActive | core.ListInactive
	}
	out := make([]string, 0, len(b.defs))
	for name, r := range b.defs {
		if r.active && flags&core.ListActive == 0 {
			continue
		}
		if !r.active && flags&core.ListInactive == 0 {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// LookupDomain implements core.DriverConn.
func (b *Base) LookupDomain(name string) (core.DomainMeta, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.defs[name]
	if !ok {
		return core.DomainMeta{}, core.Errorf(core.ErrNoDomain, "no domain %q", name)
	}
	return b.meta(r), nil
}

// meta describes r; the caller holds b.mu or r's job.
func (b *Base) meta(r *record) core.DomainMeta {
	id := -1
	if r.active {
		id = b.hooks.ID(r.name)
	}
	return core.DomainMeta{Name: r.name, UUID: r.uuidStr, ID: id}
}

// begin starts an operation that changes the domain called name: it
// runs beginOp for site unless site is empty, then takes the domain's
// job, which the operation holds from its state check to its commit,
// across the hypervisor call, the journal write and the event. It
// returns the record once defs still maps name to it and its state is
// what w asks for; the caller releases r.job. Locks are taken job
// first, then b.mu, and b.mu is never held while waiting for a job.
func (b *Base) begin(site, name string, w want) (*record, error) {
	if site != "" {
		if err := b.beginOp(site); err != nil {
			return nil, err
		}
	}
	for {
		b.mu.Lock()
		r, ok := b.defs[name]
		b.mu.Unlock()
		if !ok {
			return nil, core.Errorf(core.ErrNoDomain, "no domain %q", name)
		}
		r.job.Lock()
		b.mu.Lock()
		current := b.defs[name] == r
		b.mu.Unlock()
		switch {
		case !current: // undefined while we waited: look the name up again
		case w == wantActive && !r.active:
			r.job.Unlock()
			return nil, core.Errorf(core.ErrOperationInvalid, "domain %q is not active", name)
		case w == wantInactive && r.active:
			r.job.Unlock()
			return nil, core.Errorf(core.ErrOperationInvalid, "domain %q is active", name)
		default:
			return r, nil
		}
		r.job.Unlock()
	}
}

// LookupDomainByUUID implements core.DriverConn.
func (b *Base) LookupDomainByUUID(uuidStr string) (core.DomainMeta, error) {
	target, err := uuid.Parse(uuidStr)
	if err != nil {
		return core.DomainMeta{}, core.Errorf(core.ErrInvalidArg, "bad UUID %q: %v", uuidStr, err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, r := range b.defs {
		got, err := uuid.Parse(r.uuidStr)
		if err == nil && got == target {
			return b.meta(r), nil
		}
	}
	return core.DomainMeta{}, core.Errorf(core.ErrNoDomain, "no domain with UUID %s", uuidStr)
}

// DefineDomain implements core.DriverConn.
func (b *Base) DefineDomain(xmlDesc string) (core.DomainMeta, error) {
	if err := b.beginOp("driver.op.define"); err != nil {
		return core.DomainMeta{}, err
	}
	def, err := xmlspec.ParseDomain([]byte(xmlDesc))
	if err != nil {
		return core.DomainMeta{}, core.Errorf(core.ErrXML, "%v", err)
	}
	if def.Type != b.hooks.Type() {
		return core.DomainMeta{}, core.Errorf(core.ErrInvalidArg,
			"definition type %q does not match driver %q", def.Type, b.hooks.Type())
	}
	if def.UUID == "" {
		def.UUID = uuid.New().String()
	} else if _, err := uuid.Parse(def.UUID); err != nil {
		return core.DomainMeta{}, core.Errorf(core.ErrXML, "bad UUID: %v", err)
	}
	b.mu.Lock()
	for b.defs[def.Name] != nil {
		b.mu.Unlock()
		r, err := b.begin("", def.Name, wantInactive)
		if err == nil {
			return b.redefine(r, def)
		}
		if !core.IsCode(err, core.ErrNoDomain) {
			return core.DomainMeta{}, err
		}
		b.mu.Lock() // undefined while we waited: define it afresh
	}
	// A new name journals and publishes under b.mu, and holds its job
	// until its event is out, so no event of the domain precedes it.
	if err := b.persistDomain(def); err != nil {
		b.mu.Unlock()
		return core.DomainMeta{}, err
	}
	r := &record{name: def.Name, def: def, uuidStr: def.UUID}
	r.job.Lock()
	defer r.job.Unlock()
	b.defs[def.Name] = r
	b.order = append(b.order, r)
	b.mu.Unlock()
	b.log.LogAttrs(context.TODO(), slog.LevelInfo, "domain defined", slog.String("domain", def.Name))
	b.bus.Emit(events.Event{Type: events.EventDefined, Domain: def.Name, UUID: def.UUID})
	return b.meta(r), nil
}

// redefine replaces the definition of the inactive domain r, whose job
// the caller holds, and releases the job. A redefinition keeps the
// domain's identity.
func (b *Base) redefine(r *record, def *xmlspec.Domain) (core.DomainMeta, error) {
	defer r.job.Unlock()
	if r.uuidStr != def.UUID {
		return core.DomainMeta{}, core.Errorf(core.ErrDuplicate,
			"domain %q already exists with a different UUID", def.Name)
	}
	if err := b.persistDomain(def); err != nil {
		return core.DomainMeta{}, err
	}
	b.mu.Lock()
	r.def = def
	b.mu.Unlock()
	b.log.LogAttrs(context.TODO(), slog.LevelInfo, "domain redefined", slog.String("domain", def.Name))
	b.bus.Emit(events.Event{Type: events.EventDefined, Domain: def.Name, UUID: def.UUID, Detail: "redefined"})
	return b.meta(r), nil
}

// persistDomain journals the canonical (marshalled) definition so the
// generated UUID survives a restart even when the caller's XML omitted
// one.
func (b *Base) persistDomain(def *xmlspec.Domain) error {
	if b.store == nil || b.replaying {
		return nil
	}
	out, err := def.Marshal()
	if err != nil {
		return core.Errorf(core.ErrXML, "%v", err)
	}
	return b.persistSave(statestore.KindDomains, def.Name, out)
}

// UndefineDomain implements core.DriverConn.
func (b *Base) UndefineDomain(name string) error {
	r, err := b.begin("driver.op.undefine", name, wantInactive)
	if err != nil {
		return err
	}
	defer r.job.Unlock()
	// The journal goes before the registry entry: a Define of the same
	// name waits on this job, so these deletes never take its file.
	b.persistDelete(statestore.KindDomains, name)
	b.persistDelete(statestore.KindDomsActive, name)
	// Inbound transfers end with their domain, so a source that never
	// finished cannot keep the name from being prepared again.
	b.migMu.Lock()
	for cookie, in := range b.migrations {
		if in.domain == name {
			delete(b.migrations, cookie)
		}
	}
	b.migMu.Unlock()
	b.mu.Lock()
	delete(b.defs, name)
	i := slices.Index(b.order, r)
	b.order = slices.Delete(b.order, i, i+1)
	b.mu.Unlock()
	b.log.LogAttrs(context.TODO(), slog.LevelInfo, "domain undefined", slog.String("domain", name))
	b.bus.Emit(events.Event{Type: events.EventUndefined, Domain: name, UUID: r.uuidStr})
	return nil
}

// CreateDomain implements core.DriverConn: start a defined domain.
func (b *Base) CreateDomain(name string) error {
	r, err := b.begin("driver.op.create", name, wantInactive)
	if err != nil {
		return err
	}
	defer r.job.Unlock()
	return b.start(r)
}

// start boots the inactive domain r, whose job the caller holds, and
// restores a pending managed-save image on the fresh guest.
func (b *Base) start(r *record) error {
	// Network admission first: every network NIC needs an active network.
	leases, err := b.attachNICs(r.def)
	if err != nil {
		return err
	}
	if err := b.hooks.Start(r.def); err != nil {
		b.detachNICs(leases)
		return core.Errorf(core.ErrOperationInvalid, "start %q: %v", r.name, err)
	}
	img := r.managedSave
	b.mu.Lock()
	r.active, r.leases, r.managedSave = true, leases, nil
	r.starts++
	b.mu.Unlock()
	// Active markers are best-effort snapshots of desired run state; the
	// domain is already up, so a journal hiccup only warns.
	if err := b.persistSave(statestore.KindDomsActive, r.name, nil); err != nil {
		b.log.LogAttrs(context.TODO(), slog.LevelWarn, "persist active marker",
			slog.String("domain", r.name), slog.Any("err", err))
	}
	b.log.LogAttrs(context.TODO(), slog.LevelInfo, "domain started", slog.String("domain", r.name))
	b.bus.Emit(events.Event{Type: events.EventStarted, Domain: r.name, UUID: r.uuidStr})
	if img == nil {
		return nil
	}
	b.log.LogAttrs(context.TODO(), slog.LevelInfo, "domain restored from managed save", slog.String("domain", r.name))
	return b.restore(r, img)
}

func (b *Base) attachNICs(def *xmlspec.Domain) ([]attachedNIC, error) {
	if b.nets == nil {
		for _, nic := range def.Devices.Interfaces {
			if nic.Type == "network" {
				return nil, core.Errorf(core.ErrNoSupport,
					"domain %q uses a virtual network but driver %q has no network subsystem",
					def.Name, b.hooks.Type())
			}
		}
		return nil, nil
	}
	var out []attachedNIC
	for _, nic := range def.Devices.Interfaces {
		if nic.Type != "network" || nic.MAC == nil {
			continue
		}
		if _, err := b.nets.Attach(nic.Source.Network, nic.MAC.Address, def.Name); err != nil {
			b.detachNICs(out)
			return nil, core.Errorf(core.ErrOperationInvalid, "%v", err)
		}
		out = append(out, attachedNIC{network: nic.Source.Network, mac: nic.MAC.Address})
	}
	return out, nil
}

func (b *Base) detachNICs(nics []attachedNIC) {
	if b.nets == nil {
		return
	}
	for _, n := range nics {
		if err := b.nets.Detach(n.network, n.mac); err != nil {
			b.log.LogAttrs(context.TODO(), slog.LevelWarn, "detach interface",
				slog.String("mac", n.mac), slog.String("network", n.network), slog.Any("err", err))
		}
	}
}

// stop is the shared shutdown/destroy path: it stops the active domain
// r, whose job the caller holds, and leaves img (nil but for a managed
// save) as its managed-save image.
func (b *Base) stop(r *record, graceful bool, img *snapshotRec) error {
	if err := b.hooks.Stop(r.name, graceful); err != nil {
		return core.Errorf(core.ErrOperationInvalid, "stop %q: %v", r.name, err)
	}
	leases := r.leases
	b.mu.Lock()
	r.active, r.leases, r.managedSave = false, nil, img
	b.mu.Unlock()
	b.persistDelete(statestore.KindDomsActive, r.name)
	b.detachNICs(leases)
	evType := events.EventStopped
	detail := "destroyed"
	if graceful {
		evType = events.EventShutdown
		detail = "guest shutdown"
	}
	b.log.LogAttrs(context.TODO(), slog.LevelInfo, "domain stopped",
		slog.String("domain", r.name), slog.String("detail", detail))
	b.bus.Emit(events.Event{Type: evType, Domain: r.name, UUID: r.uuidStr, Detail: detail})
	return nil
}

// DestroyDomain implements core.DriverConn.
func (b *Base) DestroyDomain(name string) error {
	return b.stopNamed("driver.op.destroy", name, false)
}

// ShutdownDomain implements core.DriverConn.
func (b *Base) ShutdownDomain(name string) error {
	return b.stopNamed("driver.op.shutdown", name, true)
}

// stopNamed stops the active domain called name under its job.
func (b *Base) stopNamed(site, name string, graceful bool) error {
	r, err := b.begin(site, name, wantActive)
	if err != nil {
		return err
	}
	defer r.job.Unlock()
	return b.stop(r, graceful, nil)
}

// RebootDomain implements core.DriverConn.
func (b *Base) RebootDomain(name string) error {
	r, err := b.begin("driver.op.reboot", name, wantActive)
	if err != nil {
		return err
	}
	defer r.job.Unlock()
	if err := b.hooks.Reboot(name); err != nil {
		return core.Errorf(core.ErrOperationInvalid, "reboot %q: %v", name, err)
	}
	b.bus.Emit(events.Event{Type: events.EventStarted, Domain: name, UUID: r.uuidStr, Detail: "rebooted"})
	return nil
}

// SuspendDomain implements core.DriverConn.
func (b *Base) SuspendDomain(name string) error {
	r, err := b.begin("driver.op.suspend", name, wantActive)
	if err != nil {
		return err
	}
	defer r.job.Unlock()
	if err := b.hooks.Suspend(name); err != nil {
		return core.Errorf(core.ErrOperationInvalid, "suspend %q: %v", name, err)
	}
	b.bus.Emit(events.Event{Type: events.EventSuspended, Domain: name, UUID: r.uuidStr})
	return nil
}

// ResumeDomain implements core.DriverConn.
func (b *Base) ResumeDomain(name string) error {
	r, err := b.begin("driver.op.resume", name, wantActive)
	if err != nil {
		return err
	}
	defer r.job.Unlock()
	if err := b.hooks.Resume(name); err != nil {
		return core.Errorf(core.ErrOperationInvalid, "resume %q: %v", name, err)
	}
	b.bus.Emit(events.Event{Type: events.EventResumed, Domain: name, UUID: r.uuidStr})
	return nil
}

// peek looks name up for a read, which takes no job. An active domain
// returns its record and the number of its run; an inactive one its
// shut-off info.
func (b *Base) peek(name string) (*record, uint32, core.DomainInfo, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.defs[name]
	switch {
	case !ok:
		return nil, 0, core.DomainInfo{}, core.Errorf(core.ErrNoDomain, "no domain %q", name)
	case r.active:
		return r, r.starts, core.DomainInfo{}, nil
	}
	return nil, 0, b.inactiveInfo(r), nil
}

// settle answers a read whose hook failed with herr on run of r. A stop
// takes the guest away natively before it commits, so settle waits for
// the job in flight on r and looks name up again: the read answers
// from the record, or retries on a run started since. Still in the run
// the hook failed on, the failure is the hypervisor's, and settle
// returns herr.
func (b *Base) settle(r *record, run uint32, name string, herr error) (*record, uint32, core.DomainInfo, error) {
	r.job.Lock()
	r.job.Unlock()
	now, nowRun, off, err := b.peek(name)
	if now == r && nowRun == run {
		return nil, 0, off, herr
	}
	return now, nowRun, off, err
}

// DomainInfo implements core.DriverConn.
func (b *Base) DomainInfo(name string) (core.DomainInfo, error) {
	if err := b.beginOp("driver.op.info"); err != nil {
		return core.DomainInfo{}, err
	}
	r, run, off, err := b.peek(name)
	for r != nil {
		info, herr := b.hooks.Info(name)
		if herr == nil {
			b.noteState(r, info.State)
			return info, nil
		}
		r, run, off, err = b.settle(r, run, name, core.Errorf(core.ErrInternal, "info %q: %v", name, herr))
	}
	return off, err
}

// noteState watches observed states for asynchronous guest crashes: the
// first observation of a crashed state emits the crash event, so
// monitors subscribing for EventCrashed learn of failures without
// polling every field themselves.
func (b *Base) noteState(r *record, st core.DomainState) {
	b.mu.Lock()
	crashed := r.crashed(st)
	b.mu.Unlock()
	if crashed {
		b.announceCrash(r)
	}
}

// crashed records st as r's observed state and reports a crash not yet
// announced; the caller holds b.mu.
func (r *record) crashed(st core.DomainState) bool {
	first := st == core.DomainCrashed && !r.sawCrash
	r.sawCrash = st == core.DomainCrashed
	return first
}

func (b *Base) announceCrash(r *record) {
	b.log.LogAttrs(context.TODO(), slog.LevelWarn, "domain crashed", slog.String("domain", r.name))
	b.bus.Emit(events.Event{Type: events.EventCrashed, Domain: r.name, UUID: r.uuidStr})
}

func (b *Base) inactiveInfo(r *record) core.DomainInfo {
	return core.DomainInfo{State: core.DomainShutoff, MaxMemKiB: r.def.MemoryKiBOrZero(), VCPUs: int(r.def.VCPU.Count)}
}

// DomainStats implements core.DriverConn.
func (b *Base) DomainStats(name string) (core.DomainStats, error) {
	if err := b.beginOp("driver.op.stats"); err != nil {
		return core.DomainStats{}, err
	}
	r, run, off, err := b.peek(name)
	for r != nil {
		stats, herr := b.hooks.Stats(name)
		if herr == nil {
			b.noteState(r, stats.State)
			return stats, nil
		}
		r, run, off, err = b.settle(r, run, name, core.Errorf(core.ErrInternal, "stats %q: %v", name, herr))
	}
	return core.DomainStats{State: off.State, MaxMemKiB: off.MaxMemKiB, VCPUs: off.VCPUs}, err
}

// DomainXML implements core.DriverConn.
func (b *Base) DomainXML(name string) (string, error) {
	if err := b.beginOp("driver.op.getxml"); err != nil {
		return "", err
	}
	b.mu.Lock()
	r, ok := b.defs[name]
	if !ok {
		b.mu.Unlock()
		return "", core.Errorf(core.ErrNoDomain, "no domain %q", name)
	}
	def := r.def
	b.mu.Unlock()
	out, err := def.Marshal()
	if err != nil {
		return "", core.Errorf(core.ErrXML, "%v", err)
	}
	return string(out), nil
}

// SetDomainMemory implements core.DriverConn.
func (b *Base) SetDomainMemory(name string, kib uint64) error {
	r, err := b.begin("driver.op.setmemory", name, wantActive)
	if err != nil {
		return err
	}
	defer r.job.Unlock()
	if err := b.hooks.SetMemory(name, kib); err != nil {
		return core.Errorf(core.ErrInvalidArg, "set memory %q: %v", name, err)
	}
	return nil
}

// SetDomainVCPUs implements core.DriverConn.
func (b *Base) SetDomainVCPUs(name string, n int) error {
	r, err := b.begin("driver.op.setvcpus", name, wantActive)
	if err != nil {
		return err
	}
	defer r.job.Unlock()
	if err := b.hooks.SetVCPUs(name, n); err != nil {
		return core.Errorf(core.ErrInvalidArg, "set vcpus %q: %v", name, err)
	}
	return nil
}

// Machine implements core.MachineAccess.
func (b *Base) Machine(name string) (*hyper.Machine, error) {
	if r, _, _, err := b.peek(name); r == nil {
		if err == nil {
			err = core.Errorf(core.ErrOperationInvalid, "domain %q is not active", name)
		}
		return nil, err
	}
	m, err := b.hooks.Machine(name)
	if err != nil {
		return nil, core.Errorf(core.ErrInternal, "machine %q: %v", name, err)
	}
	return m, nil
}

// MarkCrashed records an asynchronous guest crash noticed by the driver
// and emits the crash event (hypervisor simulators call back into this).
func (b *Base) MarkCrashed(name string) {
	b.mu.Lock()
	r, ok := b.defs[name]
	b.mu.Unlock()
	if ok {
		b.bus.Emit(events.Event{Type: events.EventCrashed, Domain: name, UUID: r.uuidStr})
	}
}

// DefToConfig translates a validated definition into a substrate machine
// configuration; concrete drivers share it. Workload-model knobs come
// from description metadata of the form "key=value" pairs, letting test
// workloads be declared in the XML without extending the schema.
func DefToConfig(def *xmlspec.Domain) (hyper.Config, error) {
	u, err := uuid.Parse(def.UUID)
	if err != nil {
		u = uuid.FromName("machine:" + def.Name)
	}
	kib, err := def.Memory.KiB()
	if err != nil {
		return hyper.Config{}, err
	}
	cfg := hyper.Config{
		Name:      def.Name,
		UUID:      u,
		VCPUs:     int(def.VCPU.Count),
		MemKiB:    kib,
		MaxMemKiB: kib,
	}
	if def.CurrentMemory != nil {
		if cur, err := def.CurrentMemory.KiB(); err == nil {
			cfg.MemKiB = cur
		}
	}
	for _, d := range def.Devices.Disks {
		cfg.Disks = append(cfg.Disks, hyper.DiskConfig{Target: d.Target.Dev, ReadOnly: d.ReadOnly != nil})
	}
	for _, n := range def.Devices.Interfaces {
		nc := hyper.NICConfig{Network: n.Source.Network}
		if n.MAC != nil {
			nc.MAC = n.MAC.Address
		}
		cfg.NICs = append(cfg.NICs, nc)
	}
	applyWorkloadHints(&cfg, def.Description)
	return cfg, nil
}

// applyWorkloadHints parses "cpu_util=0.5 dirty_pages_sec=2000 ..." from
// the free-form description element; a value counts only if it parses whole.
func applyWorkloadHints(cfg *hyper.Config, desc string) {
	for desc != "" {
		end := strings.IndexFunc(desc, unicode.IsSpace)
		if end < 0 {
			end = len(desc)
		}
		k, v, _ := strings.Cut(desc[:end], "=")
		desc = strings.TrimLeftFunc(desc[end:], unicode.IsSpace)
		switch k {
		case "cpu_util":
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				cfg.CPUUtil = f
			}
		case "dirty_pages_sec":
			setUint(&cfg.DirtyPagesSec, v)
		case "block_iops":
			setUint(&cfg.BlockIOPS, v)
		case "net_pps":
			setUint(&cfg.NetPPS, v)
		}
	}
}

func setUint(dst *uint64, v string) {
	if n, err := strconv.ParseUint(v, 10, 64); err == nil {
		*dst = n
	}
}

// StateFromHyper maps substrate states to public states.
func StateFromHyper(s hyper.State) core.DomainState {
	switch s {
	case hyper.StateRunning:
		return core.DomainRunning
	case hyper.StatePaused:
		return core.DomainPaused
	case hyper.StateShutdown:
		return core.DomainShutdown
	case hyper.StateShutoff:
		return core.DomainShutoff
	case hyper.StateCrashed:
		return core.DomainCrashed
	case hyper.StatePMSuspended:
		return core.DomainPMSuspended
	default:
		return core.DomainNoState
	}
}

// StatsFromMachine converts a substrate stats snapshot.
func StatsFromMachine(st hyper.Stats) core.DomainStats {
	return core.DomainStats{
		State:      StateFromHyper(st.State),
		CPUTimeNs:  st.CPUTimeNs,
		MemKiB:     st.MemKiB,
		MaxMemKiB:  st.MaxMemKiB,
		VCPUs:      st.VCPUs,
		RdBytes:    st.RdBytes,
		WrBytes:    st.WrBytes,
		RdReqs:     st.RdReqs,
		WrReqs:     st.WrReqs,
		RxBytes:    st.RxBytes,
		TxBytes:    st.TxBytes,
		RxPkts:     st.RxPkts,
		TxPkts:     st.TxPkts,
		DirtyPages: st.DirtyPages,
	}
}

// InfoFromMachine converts a substrate stats snapshot to the compact form.
func InfoFromMachine(st hyper.Stats) core.DomainInfo {
	return core.DomainInfo{
		State:     StateFromHyper(st.State),
		MaxMemKiB: st.MaxMemKiB,
		MemKiB:    st.MemKiB,
		VCPUs:     st.VCPUs,
		CPUTimeNs: st.CPUTimeNs,
	}
}
