package common

import (
	"context"
	"log/slog"
	"slices"

	"repro/internal/core"
	"repro/internal/xmlspec"
)

// AttachDevice implements core.DriverConn: the device joins the
// persistent definition, and when the domain is active a network NIC is
// hot-plugged by leasing an address immediately.
func (b *Base) AttachDevice(domain, deviceXML string) error {
	dev, err := xmlspec.ParseDevice([]byte(deviceXML))
	if err != nil {
		return core.Errorf(core.ErrXML, "%v", err)
	}
	r, err := b.begin("", domain, wantAny)
	if err != nil {
		return err
	}
	defer r.job.Unlock()
	def := *r.def // a published definition is immutable: edit a copy
	switch {
	case dev.Disk != nil:
		target := dev.Disk.Target.Dev
		if slices.ContainsFunc(def.Devices.Disks, func(d xmlspec.Disk) bool { return d.Target.Dev == target }) {
			return core.Errorf(core.ErrDuplicate,
				"domain %q already has a disk at target %q", domain, target)
		}
		def.Devices.Disks = append(slices.Clip(def.Devices.Disks), *dev.Disk)
	case dev.Interface != nil:
		nic := dev.Interface
		if nic.MAC != nil && slices.ContainsFunc(def.Devices.Interfaces, func(n xmlspec.Interface) bool {
			return n.MAC != nil && n.MAC.Address == nic.MAC.Address
		}) {
			return core.Errorf(core.ErrDuplicate,
				"domain %q already has an interface with MAC %s", domain, nic.MAC.Address)
		}
		if r.active && nic.Type == "network" && nic.MAC != nil {
			if b.nets == nil {
				return core.Errorf(core.ErrNoSupport,
					"driver %q has no network subsystem", b.hooks.Type())
			}
			if _, err := b.nets.Attach(nic.Source.Network, nic.MAC.Address, domain); err != nil {
				return core.Errorf(core.ErrOperationInvalid, "%v", err)
			}
			r.leases = append(r.leases, attachedNIC{network: nic.Source.Network, mac: nic.MAC.Address})
		}
		def.Devices.Interfaces = append(slices.Clip(def.Devices.Interfaces), *nic)
	default:
		return core.Errorf(core.ErrInvalidArg, "unsupported device kind %q", dev.Kind())
	}
	b.mu.Lock()
	r.def = &def
	b.mu.Unlock()
	b.log.LogAttrs(context.TODO(), slog.LevelInfo, "device attached",
		slog.String("domain", domain), slog.String("kind", dev.Kind()))
	return nil
}

// DetachDevice implements core.DriverConn: the device is matched by
// its identity (disk target dev, interface MAC) and removed; a live
// network NIC releases its lease.
func (b *Base) DetachDevice(domain, deviceXML string) error {
	dev, err := xmlspec.ParseDevice([]byte(deviceXML))
	if err != nil {
		return core.Errorf(core.ErrXML, "%v", err)
	}
	r, err := b.begin("", domain, wantAny)
	if err != nil {
		return err
	}
	defer r.job.Unlock()
	def := *r.def // a published definition is immutable: edit a copy
	switch {
	case dev.Disk != nil:
		target := dev.Disk.Target.Dev
		i := slices.IndexFunc(def.Devices.Disks, func(d xmlspec.Disk) bool { return d.Target.Dev == target })
		if i == -1 {
			return core.Errorf(core.ErrInvalidArg, "domain %q has no disk at target %q", domain, target)
		}
		def.Devices.Disks = slices.Delete(slices.Clone(def.Devices.Disks), i, i+1)
	case dev.Interface != nil:
		if dev.Interface.MAC == nil {
			return core.Errorf(core.ErrInvalidArg, "interface detach requires a MAC address")
		}
		mac := dev.Interface.MAC.Address
		i := slices.IndexFunc(def.Devices.Interfaces, func(n xmlspec.Interface) bool {
			return n.MAC != nil && n.MAC.Address == mac
		})
		if i == -1 {
			return core.Errorf(core.ErrInvalidArg, "domain %q has no interface with MAC %s", domain, mac)
		}
		def.Devices.Interfaces = slices.Delete(slices.Clone(def.Devices.Interfaces), i, i+1)
		if j := slices.IndexFunc(r.leases, func(l attachedNIC) bool { return l.mac == mac }); j != -1 {
			b.detachNICs(r.leases[j : j+1])
			r.leases = slices.Delete(r.leases, j, j+1)
		}
	default:
		return core.Errorf(core.ErrInvalidArg, "unsupported device kind %q", dev.Kind())
	}
	b.mu.Lock()
	r.def = &def
	b.mu.Unlock()
	b.log.LogAttrs(context.TODO(), slog.LevelInfo, "device detached",
		slog.String("domain", domain), slog.String("kind", dev.Kind()))
	return nil
}
