package common

import (
	"context"
	"log/slog"

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
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.defs[domain]
	if !ok {
		return core.Errorf(core.ErrNoDomain, "no domain %q", domain)
	}
	switch {
	case dev.Disk != nil:
		for _, d := range r.def.Devices.Disks {
			if d.Target.Dev == dev.Disk.Target.Dev {
				return core.Errorf(core.ErrDuplicate,
					"domain %q already has a disk at target %q", domain, dev.Disk.Target.Dev)
			}
		}
		r.def.Devices.Disks = append(r.def.Devices.Disks, *dev.Disk)
	case dev.Interface != nil:
		nic := dev.Interface
		if nic.MAC != nil {
			for _, existing := range r.def.Devices.Interfaces {
				if existing.MAC != nil && existing.MAC.Address == nic.MAC.Address {
					return core.Errorf(core.ErrDuplicate,
						"domain %q already has an interface with MAC %s", domain, nic.MAC.Address)
				}
			}
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
		r.def.Devices.Interfaces = append(r.def.Devices.Interfaces, *nic)
	default:
		return core.Errorf(core.ErrInvalidArg, "unsupported device kind %q", dev.Kind())
	}
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
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.defs[domain]
	if !ok {
		return core.Errorf(core.ErrNoDomain, "no domain %q", domain)
	}
	switch {
	case dev.Disk != nil:
		for i, d := range r.def.Devices.Disks {
			if d.Target.Dev == dev.Disk.Target.Dev {
				r.def.Devices.Disks = append(r.def.Devices.Disks[:i], r.def.Devices.Disks[i+1:]...)
				b.log.LogAttrs(context.TODO(), slog.LevelInfo, "disk detached",
					slog.String("domain", domain), slog.String("dev", d.Target.Dev))
				return nil
			}
		}
		return core.Errorf(core.ErrInvalidArg,
			"domain %q has no disk at target %q", domain, dev.Disk.Target.Dev)
	case dev.Interface != nil:
		if dev.Interface.MAC == nil {
			return core.Errorf(core.ErrInvalidArg, "interface detach requires a MAC address")
		}
		mac := dev.Interface.MAC.Address
		for i, nic := range r.def.Devices.Interfaces {
			if nic.MAC == nil || nic.MAC.Address != mac {
				continue
			}
			r.def.Devices.Interfaces = append(r.def.Devices.Interfaces[:i], r.def.Devices.Interfaces[i+1:]...)
			for j, lease := range r.leases {
				if lease.mac == mac {
					if b.nets != nil {
						if err := b.nets.Detach(lease.network, mac); err != nil {
							b.log.LogAttrs(context.TODO(), slog.LevelWarn, "detach interface",
								slog.String("mac", mac), slog.Any("err", err))
						}
					}
					r.leases = append(r.leases[:j], r.leases[j+1:]...)
					break
				}
			}
			b.log.LogAttrs(context.TODO(), slog.LevelInfo, "interface detached",
				slog.String("domain", domain), slog.String("mac", mac))
			return nil
		}
		return core.Errorf(core.ErrInvalidArg,
			"domain %q has no interface with MAC %s", domain, mac)
	default:
		return core.Errorf(core.ErrInvalidArg, "unsupported device kind %q", dev.Kind())
	}
}
