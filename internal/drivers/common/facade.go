package common

import (
	"context"
	"log/slog"

	"repro/internal/core"
	"repro/internal/statestore"
	"repro/internal/xmlspec"
)

// Network facade: core.DriverConn's network methods, delegating to the
// vnet manager, translating substrate errors into API errors.

// ListNetworks implements core.DriverConn.
func (b *Base) ListNetworks() ([]string, error) {
	if b.nets == nil {
		return nil, b.noNetworks()
	}
	return b.nets.List(), nil
}

func (b *Base) noNetworks() error {
	return core.Errorf(core.ErrNoSupport, "driver %q has no network subsystem", b.hooks.Type())
}

// DefineNetwork implements core.DriverConn.
func (b *Base) DefineNetwork(xmlDesc string) error {
	if b.nets == nil {
		return b.noNetworks()
	}
	def, err := xmlspec.ParseNetwork([]byte(xmlDesc))
	if err != nil {
		return core.Errorf(core.ErrXML, "%v", err)
	}
	if err := b.nets.Define(def); err != nil {
		return core.Errorf(core.ErrDuplicate, "%v", err)
	}
	if err := b.persistSave(statestore.KindNetworks, def.Name, []byte(xmlDesc)); err != nil {
		b.nets.Undefine(def.Name) //nolint:errcheck
		return err
	}
	return nil
}

// UndefineNetwork implements core.DriverConn.
func (b *Base) UndefineNetwork(name string) error {
	if b.nets == nil {
		return b.noNetworks()
	}
	if err := b.nets.Undefine(name); err != nil {
		return core.Errorf(core.ErrNoNetwork, "%v", err)
	}
	b.persistDelete(statestore.KindNetworks, name)
	b.persistDelete(statestore.KindNetsActive, name)
	return nil
}

// StartNetwork implements core.DriverConn.
func (b *Base) StartNetwork(name string) error {
	if b.nets == nil {
		return b.noNetworks()
	}
	if err := b.nets.Start(name); err != nil {
		return core.Errorf(core.ErrOperationInvalid, "%v", err)
	}
	// Active markers are best-effort snapshots of desired run state; the
	// network itself is already up, so a journal hiccup only warns.
	if err := b.persistSave(statestore.KindNetsActive, name, nil); err != nil {
		b.log.LogAttrs(context.TODO(), slog.LevelWarn, "persist active marker",
			slog.String("network", name), slog.Any("err", err))
	}
	return nil
}

// StopNetwork implements core.DriverConn.
func (b *Base) StopNetwork(name string) error {
	if b.nets == nil {
		return b.noNetworks()
	}
	if err := b.nets.Stop(name); err != nil {
		return core.Errorf(core.ErrOperationInvalid, "%v", err)
	}
	b.persistDelete(statestore.KindNetsActive, name)
	return nil
}

// NetworkXML implements core.DriverConn.
func (b *Base) NetworkXML(name string) (string, error) {
	if b.nets == nil {
		return "", b.noNetworks()
	}
	xml, err := b.nets.XML(name)
	if err != nil {
		return "", core.Errorf(core.ErrNoNetwork, "%v", err)
	}
	return xml, nil
}

// NetworkIsActive implements core.DriverConn.
func (b *Base) NetworkIsActive(name string) (bool, error) {
	if b.nets == nil {
		return false, b.noNetworks()
	}
	active, err := b.nets.IsActive(name)
	if err != nil {
		return false, core.Errorf(core.ErrNoNetwork, "%v", err)
	}
	return active, nil
}

// NetworkDHCPLeases implements core.DriverConn.
func (b *Base) NetworkDHCPLeases(name string) ([]core.DHCPLease, error) {
	if b.nets == nil {
		return nil, b.noNetworks()
	}
	leases, err := b.nets.Leases(name)
	if err != nil {
		return nil, core.Errorf(core.ErrNoNetwork, "%v", err)
	}
	out := make([]core.DHCPLease, len(leases))
	for i, l := range leases {
		out[i] = core.DHCPLease{MAC: l.MAC, IP: l.IP, Hostname: l.Hostname}
	}
	return out, nil
}

// Storage facade: core.DriverConn's storage methods, via the storage
// manager.

func (b *Base) noStorage() error {
	return core.Errorf(core.ErrNoSupport, "driver %q has no storage subsystem", b.hooks.Type())
}

// ListStoragePools implements core.DriverConn.
func (b *Base) ListStoragePools() ([]string, error) {
	if b.pools == nil {
		return nil, b.noStorage()
	}
	return b.pools.List(), nil
}

// DefineStoragePool implements core.DriverConn.
func (b *Base) DefineStoragePool(xmlDesc string) error {
	if b.pools == nil {
		return b.noStorage()
	}
	def, err := xmlspec.ParseStoragePool([]byte(xmlDesc))
	if err != nil {
		return core.Errorf(core.ErrXML, "%v", err)
	}
	if err := b.pools.Define(def); err != nil {
		return core.Errorf(core.ErrDuplicate, "%v", err)
	}
	if err := b.persistSave(statestore.KindPools, def.Name, []byte(xmlDesc)); err != nil {
		b.pools.Undefine(def.Name) //nolint:errcheck
		return err
	}
	return nil
}

// UndefineStoragePool implements core.DriverConn.
func (b *Base) UndefineStoragePool(name string) error {
	if b.pools == nil {
		return b.noStorage()
	}
	if err := b.pools.Undefine(name); err != nil {
		return core.Errorf(core.ErrNoStoragePool, "%v", err)
	}
	b.persistDelete(statestore.KindPools, name)
	b.persistDelete(statestore.KindPoolsActive, name)
	return nil
}

// StartStoragePool implements core.DriverConn.
func (b *Base) StartStoragePool(name string) error {
	if b.pools == nil {
		return b.noStorage()
	}
	if err := b.pools.Start(name); err != nil {
		return core.Errorf(core.ErrOperationInvalid, "%v", err)
	}
	if err := b.persistSave(statestore.KindPoolsActive, name, nil); err != nil {
		b.log.LogAttrs(context.TODO(), slog.LevelWarn, "persist active marker",
			slog.String("pool", name), slog.Any("err", err))
	}
	return nil
}

// StopStoragePool implements core.DriverConn.
func (b *Base) StopStoragePool(name string) error {
	if b.pools == nil {
		return b.noStorage()
	}
	if err := b.pools.Stop(name); err != nil {
		return core.Errorf(core.ErrOperationInvalid, "%v", err)
	}
	b.persistDelete(statestore.KindPoolsActive, name)
	return nil
}

// StoragePoolXML implements core.DriverConn.
func (b *Base) StoragePoolXML(name string) (string, error) {
	if b.pools == nil {
		return "", b.noStorage()
	}
	xml, err := b.pools.XML(name)
	if err != nil {
		return "", core.Errorf(core.ErrNoStoragePool, "%v", err)
	}
	return xml, nil
}

// StoragePoolInfo implements core.DriverConn.
func (b *Base) StoragePoolInfo(name string) (core.StoragePoolInfo, error) {
	if b.pools == nil {
		return core.StoragePoolInfo{}, b.noStorage()
	}
	info, err := b.pools.Info(name)
	if err != nil {
		return core.StoragePoolInfo{}, core.Errorf(core.ErrNoStoragePool, "%v", err)
	}
	return core.StoragePoolInfo{
		Active:        info.Active,
		CapacityKiB:   info.CapacityKiB,
		AllocationKiB: info.AllocationKiB,
		AvailableKiB:  info.AvailableKiB,
	}, nil
}

// ListVolumes implements core.DriverConn.
func (b *Base) ListVolumes(pool string) ([]string, error) {
	if b.pools == nil {
		return nil, b.noStorage()
	}
	vols, err := b.pools.Volumes(pool)
	if err != nil {
		return nil, core.Errorf(core.ErrNoStoragePool, "%v", err)
	}
	return vols, nil
}

// CreateVolume implements core.DriverConn.
func (b *Base) CreateVolume(pool, xmlDesc string) error {
	if b.pools == nil {
		return b.noStorage()
	}
	def, err := xmlspec.ParseStorageVolume([]byte(xmlDesc))
	if err != nil {
		return core.Errorf(core.ErrXML, "%v", err)
	}
	if err := b.pools.CreateVolume(pool, def); err != nil {
		return core.Errorf(core.ErrOperationInvalid, "%v", err)
	}
	return nil
}

// DeleteVolume implements core.DriverConn.
func (b *Base) DeleteVolume(pool, name string) error {
	if b.pools == nil {
		return b.noStorage()
	}
	if err := b.pools.DeleteVolume(pool, name); err != nil {
		return core.Errorf(core.ErrNoStorageVol, "%v", err)
	}
	return nil
}

// VolumeXML implements core.DriverConn.
func (b *Base) VolumeXML(pool, name string) (string, error) {
	if b.pools == nil {
		return "", b.noStorage()
	}
	xml, err := b.pools.VolumeXML(pool, name)
	if err != nil {
		return "", core.Errorf(core.ErrNoStorageVol, "%v", err)
	}
	return xml, nil
}
