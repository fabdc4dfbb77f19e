package core

// CreateSnapshot captures the domain's state, described by an optional
// snapshot XML document ("" for defaults), and returns the snapshot name.
func (d *Domain) CreateSnapshot(xmlDesc string) (string, error) {
	drv, err := d.drv()
	if err != nil {
		return "", err
	}
	return drv.CreateSnapshot(d.meta.Name, xmlDesc)
}

// ListSnapshots returns the domain's snapshot names, oldest first.
func (d *Domain) ListSnapshots() ([]string, error) {
	drv, err := d.drv()
	if err != nil {
		return nil, err
	}
	return drv.ListSnapshots(d.meta.Name)
}

// SnapshotXML returns a snapshot's description document.
func (d *Domain) SnapshotXML(snapshot string) (string, error) {
	drv, err := d.drv()
	if err != nil {
		return "", err
	}
	return drv.SnapshotXML(d.meta.Name, snapshot)
}

// RevertSnapshot restores the domain to a snapshot.
func (d *Domain) RevertSnapshot(snapshot string) error {
	drv, err := d.drv()
	if err != nil {
		return err
	}
	return drv.RevertSnapshot(d.meta.Name, snapshot)
}

// DeleteSnapshot removes a snapshot's record.
func (d *Domain) DeleteSnapshot(snapshot string) error {
	drv, err := d.drv()
	if err != nil {
		return err
	}
	return drv.DeleteSnapshot(d.meta.Name, snapshot)
}

// ManagedSave stops the running domain, persisting its state.
func (d *Domain) ManagedSave() error { return d.c.do(DriverConn.ManagedSave, d.meta.Name) }

// HasManagedSave reports whether a managed save image exists.
func (d *Domain) HasManagedSave() (bool, error) {
	drv, err := d.drv()
	if err != nil {
		return false, err
	}
	return drv.HasManagedSave(d.meta.Name)
}

// ManagedSaveRemove discards the managed save image.
func (d *Domain) ManagedSaveRemove() error { return d.c.do(DriverConn.ManagedSaveRemove, d.meta.Name) }

// AttachDevice hot-plugs a device described by a standalone XML element.
func (d *Domain) AttachDevice(deviceXML string) error {
	drv, err := d.drv()
	if err != nil {
		return err
	}
	return drv.AttachDevice(d.meta.Name, deviceXML)
}

// DetachDevice removes a device matched by identity.
func (d *Domain) DetachDevice(deviceXML string) error {
	drv, err := d.drv()
	if err != nil {
		return err
	}
	return drv.DetachDevice(d.meta.Name, deviceXML)
}
