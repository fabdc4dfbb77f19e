package common

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/xmlspec"
)

// snapshotRec is one stored snapshot of a domain.
type snapshotRec struct {
	name        string
	description string
	created     int64
	state       core.DomainState
	memKiB      uint64
	vcpus       int
}

// savedImage is a managed-save image of a stopped domain.
type savedImage struct {
	memKiB uint64
	vcpus  int
	paused bool
}

// CreateSnapshot implements core.DriverConn. Snapshotting an active
// domain is a live snapshot: the guest keeps running. Reverting spawns a
// fresh native instance (host-side accounting restarts, as with a real
// process-per-guest hypervisor).
func (b *Base) CreateSnapshot(domain, xmlDesc string) (string, error) {
	snap := &xmlspec.DomainSnapshot{}
	if xmlDesc != "" {
		parsed, err := xmlspec.ParseDomainSnapshot([]byte(xmlDesc))
		if err != nil {
			return "", core.Errorf(core.ErrXML, "%v", err)
		}
		snap = parsed
	}
	b.mu.Lock()
	r, ok := b.defs[domain]
	b.mu.Unlock()
	if !ok {
		return "", core.Errorf(core.ErrNoDomain, "no domain %q", domain)
	}

	rec := &snapshotRec{
		description: snap.Description,
		created:     time.Now().Unix(),
		state:       core.DomainShutoff,
		memKiB:      r.def.MemoryKiBOrZero(),
		vcpus:       int(r.def.VCPU.Count),
	}
	if r.active {
		info, err := b.hooks.Info(domain)
		if err != nil {
			return "", core.Errorf(core.ErrInternal, "snapshot %q: %v", domain, err)
		}
		rec.state = info.State
		rec.memKiB = info.MemKiB
		rec.vcpus = info.VCPUs
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	rec.name = snap.Name
	if rec.name == "" {
		rec.name = fmt.Sprintf("snap-%d", len(r.snapshots)+1)
		for b.findSnapshotLocked(r, rec.name) != -1 {
			rec.name += "x"
		}
	} else if b.findSnapshotLocked(r, rec.name) != -1 {
		return "", core.Errorf(core.ErrDuplicate, "domain %q already has snapshot %q", domain, rec.name)
	}
	r.snapshots = append(r.snapshots, rec)
	b.log.LogAttrs(context.TODO(), slog.LevelInfo, "snapshot created",
		slog.String("domain", domain), slog.String("snapshot", rec.name),
		slog.String("state", rec.state.String()))
	return rec.name, nil
}

func (b *Base) findSnapshotLocked(r *record, name string) int {
	for i, s := range r.snapshots {
		if s.name == name {
			return i
		}
	}
	return -1
}

// ListSnapshots implements core.DriverConn.
func (b *Base) ListSnapshots(domain string) ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.defs[domain]
	if !ok {
		return nil, core.Errorf(core.ErrNoDomain, "no domain %q", domain)
	}
	out := make([]string, len(r.snapshots))
	for i, s := range r.snapshots {
		out[i] = s.name
	}
	return out, nil
}

// SnapshotXML implements core.DriverConn.
func (b *Base) SnapshotXML(domain, snapshot string) (string, error) {
	b.mu.Lock()
	r, ok := b.defs[domain]
	if !ok {
		b.mu.Unlock()
		return "", core.Errorf(core.ErrNoDomain, "no domain %q", domain)
	}
	i := b.findSnapshotLocked(r, snapshot)
	if i == -1 {
		b.mu.Unlock()
		return "", core.Errorf(core.ErrInvalidArg, "domain %q has no snapshot %q", domain, snapshot)
	}
	rec := r.snapshots[i]
	b.mu.Unlock()
	doc := &xmlspec.DomainSnapshot{
		Name:         rec.name,
		Description:  rec.description,
		State:        rec.state.String(),
		CreationTime: rec.created,
		DomainName:   domain,
	}
	out, err := doc.Marshal()
	if err != nil {
		return "", core.Errorf(core.ErrXML, "%v", err)
	}
	return string(out), nil
}

// RevertSnapshot implements core.DriverConn: the current execution
// is destroyed, then the domain is brought back to the snapshot's
// lifecycle state and tunables.
func (b *Base) RevertSnapshot(domain, snapshot string) error {
	b.mu.Lock()
	r, ok := b.defs[domain]
	if !ok {
		b.mu.Unlock()
		return core.Errorf(core.ErrNoDomain, "no domain %q", domain)
	}
	i := b.findSnapshotLocked(r, snapshot)
	if i == -1 {
		b.mu.Unlock()
		return core.Errorf(core.ErrInvalidArg, "domain %q has no snapshot %q", domain, snapshot)
	}
	rec := *r.snapshots[i]
	active := r.active
	b.mu.Unlock()

	if active {
		if err := b.DestroyDomain(domain); err != nil {
			return err
		}
	}
	switch rec.state {
	case core.DomainRunning, core.DomainPaused:
		if err := b.CreateDomain(domain); err != nil {
			return err
		}
		// Restore the snapshot's tunables on the fresh instance.
		if err := b.hooks.SetMemory(domain, rec.memKiB); err != nil {
			b.log.LogAttrs(context.TODO(), slog.LevelWarn, "revert: restore memory",
				slog.String("domain", domain), slog.String("snapshot", snapshot), slog.Any("err", err))
		}
		if err := b.hooks.SetVCPUs(domain, rec.vcpus); err != nil {
			b.log.LogAttrs(context.TODO(), slog.LevelWarn, "revert: restore vcpus",
				slog.String("domain", domain), slog.String("snapshot", snapshot), slog.Any("err", err))
		}
		if rec.state == core.DomainPaused {
			if err := b.SuspendDomain(domain); err != nil {
				return err
			}
		}
	default:
		// Snapshot of a powered-off domain: nothing more to do.
	}
	b.mu.Lock()
	uuidStr := r.uuidStr
	b.mu.Unlock()
	b.log.LogAttrs(context.TODO(), slog.LevelInfo, "domain reverted to snapshot",
		slog.String("domain", domain), slog.String("snapshot", snapshot))
	b.bus.Emit(events.Event{Type: events.EventStarted, Domain: domain, UUID: uuidStr,
		Detail: "reverted to snapshot " + snapshot})
	return nil
}

// DeleteSnapshot implements core.DriverConn.
func (b *Base) DeleteSnapshot(domain, snapshot string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.defs[domain]
	if !ok {
		return core.Errorf(core.ErrNoDomain, "no domain %q", domain)
	}
	i := b.findSnapshotLocked(r, snapshot)
	if i == -1 {
		return core.Errorf(core.ErrInvalidArg, "domain %q has no snapshot %q", domain, snapshot)
	}
	r.snapshots = append(r.snapshots[:i], r.snapshots[i+1:]...)
	return nil
}

// ManagedSave implements core.DriverConn.
func (b *Base) ManagedSave(domain string) error {
	b.mu.Lock()
	r, ok := b.defs[domain]
	if !ok {
		b.mu.Unlock()
		return core.Errorf(core.ErrNoDomain, "no domain %q", domain)
	}
	if !r.active {
		b.mu.Unlock()
		return core.Errorf(core.ErrOperationInvalid, "domain %q is not active", domain)
	}
	b.mu.Unlock()

	info, err := b.hooks.Info(domain)
	if err != nil {
		return core.Errorf(core.ErrInternal, "managed save %q: %v", domain, err)
	}
	if info.State != core.DomainRunning && info.State != core.DomainPaused {
		return core.Errorf(core.ErrOperationInvalid,
			"domain %q is %s; managed save needs a running or paused domain", domain, info.State)
	}
	img := &savedImage{memKiB: info.MemKiB, vcpus: info.VCPUs, paused: info.State == core.DomainPaused}
	if err := b.stop(domain, false); err != nil {
		return err
	}
	b.mu.Lock()
	r.managedSave = img
	b.mu.Unlock()
	b.log.LogAttrs(context.TODO(), slog.LevelInfo, "domain state saved", slog.String("domain", domain))
	return nil
}

// HasManagedSave implements core.DriverConn.
func (b *Base) HasManagedSave(domain string) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.defs[domain]
	if !ok {
		return false, core.Errorf(core.ErrNoDomain, "no domain %q", domain)
	}
	return r.managedSave != nil, nil
}

// ManagedSaveRemove implements core.DriverConn.
func (b *Base) ManagedSaveRemove(domain string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.defs[domain]
	if !ok {
		return core.Errorf(core.ErrNoDomain, "no domain %q", domain)
	}
	if r.managedSave == nil {
		return core.Errorf(core.ErrOperationInvalid, "domain %q has no managed save image", domain)
	}
	r.managedSave = nil
	return nil
}

// restoreFromManagedSave applies a pending managed-save image right
// after a successful start; CreateDomain calls it.
func (b *Base) restoreFromManagedSave(domain string, r *record) error {
	b.mu.Lock()
	img := r.managedSave
	r.managedSave = nil
	b.mu.Unlock()
	if img == nil {
		return nil
	}
	if err := b.hooks.SetMemory(domain, img.memKiB); err != nil {
		b.log.LogAttrs(context.TODO(), slog.LevelWarn, "restore: memory",
			slog.String("domain", domain), slog.Any("err", err))
	}
	if err := b.hooks.SetVCPUs(domain, img.vcpus); err != nil {
		b.log.LogAttrs(context.TODO(), slog.LevelWarn, "restore: vcpus",
			slog.String("domain", domain), slog.Any("err", err))
	}
	if img.paused {
		if err := b.hooks.Suspend(domain); err != nil {
			return core.Errorf(core.ErrInternal, "restore %s: pause: %v", domain, err)
		}
	}
	b.log.LogAttrs(context.TODO(), slog.LevelInfo, "domain restored from managed save",
		slog.String("domain", domain))
	return nil
}
