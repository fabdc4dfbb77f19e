package remote

import (
	"repro/internal/core"
	"repro/internal/wire"
)

var (
	_ core.SnapshotSupport    = (*Conn)(nil)
	_ core.ManagedSaveSupport = (*Conn)(nil)
)

// CreateSnapshot implements core.SnapshotSupport.
func (c *Conn) CreateSnapshot(domain, xmlDesc string) (string, error) {
	return c.callString(wire.ProcSnapshotCreate, &wire.SnapshotCreateArgs{Domain: domain, XML: xmlDesc})
}

// ListSnapshots implements core.SnapshotSupport.
func (c *Conn) ListSnapshots(domain string) ([]string, error) {
	return c.callNames(wire.ProcSnapshotList, &wire.NameArgs{Name: domain})
}

// SnapshotXML implements core.SnapshotSupport.
func (c *Conn) SnapshotXML(domain, snapshot string) (string, error) {
	return c.callString(wire.ProcSnapshotGetXML, &wire.SnapshotArgs{Domain: domain, Name: snapshot})
}

// RevertSnapshot implements core.SnapshotSupport.
func (c *Conn) RevertSnapshot(domain, snapshot string) error {
	return c.call(wire.ProcSnapshotRevert, &wire.SnapshotArgs{
		Domain: domain, Name: snapshot,
	}, nil)
}

// DeleteSnapshot implements core.SnapshotSupport.
func (c *Conn) DeleteSnapshot(domain, snapshot string) error {
	return c.call(wire.ProcSnapshotDelete, &wire.SnapshotArgs{
		Domain: domain, Name: snapshot,
	}, nil)
}

// ManagedSave implements core.ManagedSaveSupport.
func (c *Conn) ManagedSave(domain string) error {
	return c.nameOp(wire.ProcManagedSave, domain)
}

// HasManagedSave implements core.ManagedSaveSupport.
func (c *Conn) HasManagedSave(domain string) (bool, error) {
	return c.callBool(wire.ProcHasManagedSave, &wire.NameArgs{Name: domain})
}

// ManagedSaveRemove implements core.ManagedSaveSupport.
func (c *Conn) ManagedSaveRemove(domain string) error {
	return c.nameOp(wire.ProcManagedSaveRemove, domain)
}

var _ core.DeviceSupport = (*Conn)(nil)

// AttachDevice implements core.DeviceSupport.
func (c *Conn) AttachDevice(domain, deviceXML string) error {
	return c.call(wire.ProcDeviceAttach, &wire.DeviceArgs{Domain: domain, XML: deviceXML}, nil)
}

// DetachDevice implements core.DeviceSupport.
func (c *Conn) DetachDevice(domain, deviceXML string) error {
	return c.call(wire.ProcDeviceDetach, &wire.DeviceArgs{Domain: domain, XML: deviceXML}, nil)
}
