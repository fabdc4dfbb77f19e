package common

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/xmlspec"
)

// snapshotRec is one stored snapshot of a domain, or, without name and
// description, its managed-save image.
type snapshotRec struct {
	name        string
	description string
	created     int64
	state       core.DomainState
	memKiB      uint64
	vcpus       int
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
	r, err := b.begin("", domain, wantAny)
	if err != nil {
		return "", err
	}
	defer r.job.Unlock()
	rec := &snapshotRec{
		name:        snap.Name,
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

	if rec.name == "" {
		rec.name = fmt.Sprintf("snap-%d", len(r.snapshots)+1)
		for r.snapshot(rec.name) != -1 {
			rec.name += "x"
		}
	} else if r.snapshot(rec.name) != -1 {
		return "", core.Errorf(core.ErrDuplicate, "domain %q already has snapshot %q", domain, rec.name)
	}
	b.mu.Lock()
	r.snapshots = append(r.snapshots, rec)
	b.mu.Unlock()
	b.log.LogAttrs(context.TODO(), slog.LevelInfo, "snapshot created",
		slog.String("domain", domain), slog.String("snapshot", rec.name),
		slog.String("state", rec.state.String()))
	return rec.name, nil
}

// snapshot returns the index of r's snapshot called name, or -1; the
// caller holds b.mu or r's job.
func (r *record) snapshot(name string) int {
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
	defer b.mu.Unlock()
	r, ok := b.defs[domain]
	if !ok {
		return "", core.Errorf(core.ErrNoDomain, "no domain %q", domain)
	}
	i := r.snapshot(snapshot)
	if i == -1 {
		return "", core.Errorf(core.ErrInvalidArg, "domain %q has no snapshot %q", domain, snapshot)
	}
	rec := r.snapshots[i]
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
	r, err := b.begin("", domain, wantAny)
	if err != nil {
		return err
	}
	defer r.job.Unlock()
	i := r.snapshot(snapshot)
	if i == -1 {
		return core.Errorf(core.ErrInvalidArg, "domain %q has no snapshot %q", domain, snapshot)
	}
	rec := r.snapshots[i]
	if r.active {
		if err := b.stop(r, false, nil); err != nil {
			return err
		}
	}
	// A snapshot of a powered-off domain needs nothing more.
	if rec.state == core.DomainRunning || rec.state == core.DomainPaused {
		if err := b.start(r); err != nil {
			return err
		}
		if err := b.restore(r, rec); err != nil {
			return err
		}
	}
	b.log.LogAttrs(context.TODO(), slog.LevelInfo, "domain reverted to snapshot",
		slog.String("domain", domain), slog.String("snapshot", snapshot))
	b.bus.Emit(events.Event{Type: events.EventStarted, Domain: domain, UUID: r.uuidStr,
		Detail: "reverted to snapshot " + snapshot})
	return nil
}

// DeleteSnapshot implements core.DriverConn.
func (b *Base) DeleteSnapshot(domain, snapshot string) error {
	r, err := b.begin("", domain, wantAny)
	if err != nil {
		return err
	}
	defer r.job.Unlock()
	i := r.snapshot(snapshot)
	if i == -1 {
		return core.Errorf(core.ErrInvalidArg, "domain %q has no snapshot %q", domain, snapshot)
	}
	b.mu.Lock()
	r.snapshots = slices.Delete(r.snapshots, i, i+1)
	b.mu.Unlock()
	return nil
}

// ManagedSave implements core.DriverConn.
func (b *Base) ManagedSave(domain string) error {
	r, err := b.begin("", domain, wantActive)
	if err != nil {
		return err
	}
	defer r.job.Unlock()
	info, err := b.hooks.Info(domain)
	if err != nil {
		return core.Errorf(core.ErrInternal, "managed save %q: %v", domain, err)
	}
	if info.State != core.DomainRunning && info.State != core.DomainPaused {
		return core.Errorf(core.ErrOperationInvalid,
			"domain %q is %s; managed save needs a running or paused domain", domain, info.State)
	}
	img := &snapshotRec{state: info.State, memKiB: info.MemKiB, vcpus: info.VCPUs}
	if err := b.stop(r, false, img); err != nil {
		return err
	}
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
	r, err := b.begin("", domain, wantAny)
	if err != nil {
		return err
	}
	defer r.job.Unlock()
	if r.managedSave == nil {
		return core.Errorf(core.ErrOperationInvalid, "domain %q has no managed save image", domain)
	}
	b.mu.Lock()
	r.managedSave = nil
	b.mu.Unlock()
	return nil
}

// restore brings the guest just started for r to the tunables and the
// state saved in img; the caller holds r's job.
func (b *Base) restore(r *record, img *snapshotRec) error {
	if err := b.hooks.SetMemory(r.name, img.memKiB); err != nil {
		b.log.LogAttrs(context.TODO(), slog.LevelWarn, "restore memory",
			slog.String("domain", r.name), slog.Any("err", err))
	}
	if err := b.hooks.SetVCPUs(r.name, img.vcpus); err != nil {
		b.log.LogAttrs(context.TODO(), slog.LevelWarn, "restore vcpus",
			slog.String("domain", r.name), slog.Any("err", err))
	}
	if img.state != core.DomainPaused {
		return nil
	}
	if err := b.hooks.Suspend(r.name); err != nil {
		return core.Errorf(core.ErrInternal, "restore %s: pause: %v", r.name, err)
	}
	b.bus.Emit(events.Event{Type: events.EventSuspended, Domain: r.name, UUID: r.uuidStr})
	return nil
}
