package xmlspec

import (
	"fmt"
	"io"
)

// Device is a single hot-pluggable device description: exactly one of
// the fields is set, matching the root element of the parsed document.
type Device struct {
	Disk      *Disk
	Interface *Interface
}

// Kind names the device type ("disk" or "interface").
func (d *Device) Kind() string {
	switch {
	case d.Disk != nil:
		return "disk"
	case d.Interface != nil:
		return "interface"
	}
	return "unknown"
}

// ParseDevice parses a standalone device document — a single <disk> or
// <interface> element, the payload of attach/detach operations.
func ParseDevice(data []byte) (*Device, error) {
	d := decoder{data: data}
	var root []byte
	if err := try(func() { root = d.root() }); err == io.EOF {
		return nil, fmt.Errorf("xmlspec: device document is empty")
	} else if err != nil {
		return nil, fmt.Errorf("xmlspec: parse device: %w", err)
	}
	switch string(localName(root)) {
	case "disk":
		var disk Disk
		if err := try(func() { decodeRoot(&d, &disk, root) }); err != nil {
			return nil, fmt.Errorf("xmlspec: parse disk: %w", err)
		}
		if err := validateDisk(&disk, 0); err != nil {
			return nil, err
		}
		return &Device{Disk: &disk}, nil
	case "interface":
		var nic Interface
		if err := try(func() { decodeRoot(&d, &nic, root) }); err != nil {
			return nil, fmt.Errorf("xmlspec: parse interface: %w", err)
		}
		if err := validateInterface(&nic, 0); err != nil {
			return nil, err
		}
		return &Device{Interface: &nic}, nil
	default:
		return nil, fmt.Errorf("xmlspec: unsupported device element <%s>", localName(root))
	}
}

// validateDisk checks one disk entry; index is used in error messages.
func validateDisk(disk *Disk, i int) error {
	if disk.Target.Dev == "" {
		return fmt.Errorf("xmlspec: disk %d: missing target dev", i)
	}
	switch disk.Type {
	case "file":
		if disk.Source.File == "" {
			return fmt.Errorf("xmlspec: disk %q: file type requires source file", disk.Target.Dev)
		}
	case "block":
		if disk.Source.Dev == "" {
			return fmt.Errorf("xmlspec: disk %q: block type requires source dev", disk.Target.Dev)
		}
	case "volume":
		if disk.Source.Pool == "" || disk.Source.Vol == "" {
			return fmt.Errorf("xmlspec: disk %q: volume type requires pool and volume", disk.Target.Dev)
		}
	default:
		return fmt.Errorf("xmlspec: disk %q: unknown type %q", disk.Target.Dev, disk.Type)
	}
	return nil
}

// validateInterface checks one interface entry.
func validateInterface(nic *Interface, i int) error {
	switch nic.Type {
	case "network":
		if nic.Source.Network == "" {
			return fmt.Errorf("xmlspec: interface %d: network type requires source network", i)
		}
	case "bridge":
		if nic.Source.Bridge == "" {
			return fmt.Errorf("xmlspec: interface %d: bridge type requires source bridge", i)
		}
	case "user":
		// no source required
	default:
		return fmt.Errorf("xmlspec: interface %d: unknown type %q", i, nic.Type)
	}
	if nic.MAC != nil && !validMAC(nic.MAC.Address) {
		return fmt.Errorf("xmlspec: interface %d: invalid MAC %q", i, nic.MAC.Address)
	}
	return nil
}
