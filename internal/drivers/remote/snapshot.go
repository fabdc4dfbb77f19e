package remote

import (
	"repro/internal/wire"
)

// CreateSnapshot implements core.DriverConn.
func (c *Conn) CreateSnapshot(domain, xmlDesc string) (string, error) {
	return c.callString(wire.ProcSnapshotCreate, &wire.SnapshotCreateArgs{Domain: domain, XML: xmlDesc})
}

// ListSnapshots implements core.DriverConn.
func (c *Conn) ListSnapshots(domain string) ([]string, error) {
	return c.callNames(wire.ProcSnapshotList, &wire.NameArgs{Name: domain})
}

// SnapshotXML implements core.DriverConn.
func (c *Conn) SnapshotXML(domain, snapshot string) (string, error) {
	return c.callString(wire.ProcSnapshotGetXML, &wire.SnapshotArgs{Domain: domain, Name: snapshot})
}

// RevertSnapshot implements core.DriverConn.
func (c *Conn) RevertSnapshot(domain, snapshot string) error {
	return c.call(wire.ProcSnapshotRevert, &wire.SnapshotArgs{
		Domain: domain, Name: snapshot,
	}, nil)
}

// DeleteSnapshot implements core.DriverConn.
func (c *Conn) DeleteSnapshot(domain, snapshot string) error {
	return c.call(wire.ProcSnapshotDelete, &wire.SnapshotArgs{
		Domain: domain, Name: snapshot,
	}, nil)
}

// ManagedSave implements core.DriverConn.
func (c *Conn) ManagedSave(domain string) error {
	return c.nameOp(wire.ProcManagedSave, domain)
}

// HasManagedSave implements core.DriverConn.
func (c *Conn) HasManagedSave(domain string) (bool, error) {
	return c.callBool(wire.ProcHasManagedSave, &wire.NameArgs{Name: domain})
}

// ManagedSaveRemove implements core.DriverConn.
func (c *Conn) ManagedSaveRemove(domain string) error {
	return c.nameOp(wire.ProcManagedSaveRemove, domain)
}

// AttachDevice implements core.DriverConn.
func (c *Conn) AttachDevice(domain, deviceXML string) error {
	return c.call(wire.ProcDeviceAttach, &wire.DeviceArgs{Domain: domain, XML: deviceXML}, nil)
}

// DetachDevice implements core.DriverConn.
func (c *Conn) DetachDevice(domain, deviceXML string) error {
	return c.call(wire.ProcDeviceDetach, &wire.DeviceArgs{Domain: domain, XML: deviceXML}, nil)
}
