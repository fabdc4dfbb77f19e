// Package xmlspec implements the XML configuration model: the
// hypervisor-independent definitions of domains, virtual networks, storage
// pools and volumes, plus host capabilities. Definitions are exchanged as
// XML documents; drivers translate them into native hypervisor
// configuration. Parsing is strict enough to reject structurally invalid
// documents while tolerating unknown elements, preserving the stable-API
// property of the management layer.
//
// Documents are decoded by a plan compiled once per type from the
// struct tags Marshal reads (decode.go), run by a strict pull scanner
// (scan.go) that accepts exactly what encoding/xml accepts and decodes
// the same values. encoding/xml renders definitions in Marshal and is
// the reference the tests compare the decoder against.
package xmlspec

import (
	"encoding/xml"
	"fmt"
	"strings"
)

// Memory is an amount of memory with an explicit unit attribute.
type Memory struct {
	Unit  string `xml:"unit,attr,omitempty"`
	Value uint64 `xml:",chardata"`
}

// KiB returns the amount normalised to KiB. Unknown units are an error.
func (m Memory) KiB() (uint64, error) {
	switch strings.ToUpper(m.Unit) {
	case "", "KIB", "K":
		return m.Value, nil
	case "B", "BYTES":
		return m.Value / 1024, nil
	case "MIB", "M":
		return m.Value * 1024, nil
	case "GIB", "G":
		return m.Value * 1024 * 1024, nil
	case "TIB", "T":
		return m.Value * 1024 * 1024 * 1024, nil
	}
	return 0, fmt.Errorf("xmlspec: unknown memory unit %q", m.Unit)
}

// MemoryKiB constructs a Memory in KiB.
func MemoryKiB(v uint64) Memory { return Memory{Unit: "KiB", Value: v} }

// OSType describes the guest OS loader configuration.
type OSType struct {
	Arch    string `xml:"arch,attr,omitempty"`
	Machine string `xml:"machine,attr,omitempty"`
	Value   string `xml:",chardata"`
}

// Boot names one boot device in order of preference.
type Boot struct {
	Dev string `xml:"dev,attr"`
}

// DomainOS groups the OS section of a domain definition.
type DomainOS struct {
	Type OSType `xml:"type"`
	Boot []Boot `xml:"boot"`
}

// DiskSource locates the backing of a disk.
type DiskSource struct {
	File string `xml:"file,attr,omitempty"`
	Dev  string `xml:"dev,attr,omitempty"`
	Pool string `xml:"pool,attr,omitempty"`
	Vol  string `xml:"volume,attr,omitempty"`
}

// DiskTarget names the guest-visible device.
type DiskTarget struct {
	Dev string `xml:"dev,attr"`
	Bus string `xml:"bus,attr,omitempty"`
}

// DiskDriver selects the host-side driver and image format.
type DiskDriver struct {
	Name string `xml:"name,attr,omitempty"`
	Type string `xml:"type,attr,omitempty"`
}

// Disk is one block device of a domain.
type Disk struct {
	Type     string      `xml:"type,attr"`
	Device   string      `xml:"device,attr,omitempty"`
	Driver   *DiskDriver `xml:"driver,omitempty"`
	Source   DiskSource  `xml:"source"`
	Target   DiskTarget  `xml:"target"`
	ReadOnly *struct{}   `xml:"readonly,omitempty"`
}

// MAC is a NIC hardware address.
type MAC struct {
	Address string `xml:"address,attr"`
}

// InterfaceSource locates the host side of a NIC.
type InterfaceSource struct {
	Network string `xml:"network,attr,omitempty"`
	Bridge  string `xml:"bridge,attr,omitempty"`
}

// InterfaceModel selects the virtual NIC model.
type InterfaceModel struct {
	Type string `xml:"type,attr"`
}

// Interface is one network device of a domain.
type Interface struct {
	Type   string          `xml:"type,attr"`
	MAC    *MAC            `xml:"mac,omitempty"`
	Source InterfaceSource `xml:"source"`
	Model  *InterfaceModel `xml:"model,omitempty"`
}

// Console is a character console device.
type Console struct {
	Type string `xml:"type,attr"`
}

// Graphics is a remote display device.
type Graphics struct {
	Type     string `xml:"type,attr"`
	Port     int    `xml:"port,attr,omitempty"`
	AutoPort string `xml:"autoport,attr,omitempty"`
}

// Devices groups all devices of a domain.
type Devices struct {
	Emulator   string      `xml:"emulator,omitempty"`
	Disks      []Disk      `xml:"disk"`
	Interfaces []Interface `xml:"interface"`
	Consoles   []Console   `xml:"console"`
	Graphics   []Graphics  `xml:"graphics"`
}

// VCPU holds the virtual CPU count with optional placement.
type VCPU struct {
	Placement string `xml:"placement,attr,omitempty"`
	Count     uint   `xml:",chardata"`
}

// Features lists guest feature toggles by presence.
type Features struct {
	ACPI *struct{} `xml:"acpi,omitempty"`
	APIC *struct{} `xml:"apic,omitempty"`
	PAE  *struct{} `xml:"pae,omitempty"`
}

// Domain is the hypervisor-independent definition of a virtual machine.
type Domain struct {
	XMLName       xml.Name  `xml:"domain"`
	Type          string    `xml:"type,attr"`
	Name          string    `xml:"name"`
	UUID          string    `xml:"uuid,omitempty"`
	Title         string    `xml:"title,omitempty"`
	Description   string    `xml:"description,omitempty"`
	Memory        Memory    `xml:"memory"`
	CurrentMemory *Memory   `xml:"currentMemory,omitempty"`
	VCPU          VCPU      `xml:"vcpu"`
	OS            DomainOS  `xml:"os"`
	Features      *Features `xml:"features,omitempty"`
	OnPoweroff    string    `xml:"on_poweroff,omitempty"`
	OnReboot      string    `xml:"on_reboot,omitempty"`
	OnCrash       string    `xml:"on_crash,omitempty"`
	Devices       Devices   `xml:"devices"`
}

// ParseDomain parses and validates a domain definition document.
func ParseDomain(data []byte) (*Domain, error) {
	var d Domain
	if err := decode(data, &d); err != nil {
		return nil, fmt.Errorf("xmlspec: parse domain: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Marshal renders the definition back to indented XML.
func (d *Domain) Marshal() ([]byte, error) {
	out, err := xml.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("xmlspec: marshal domain: %w", err)
	}
	return append(out, '\n'), nil
}

// validName reports whether s is usable as an object name: non-empty,
// no whitespace or path separators.
func validName(s string) bool {
	return s != "" && !strings.ContainsAny(s, " \t\n/\\")
}

var validBootDevs = map[string]bool{"hd": true, "cdrom": true, "network": true, "fd": true}

// Validate checks structural invariants a driver may rely on.
func (d *Domain) Validate() error {
	if d.Type == "" {
		return fmt.Errorf("xmlspec: domain: missing type attribute")
	}
	if !validName(d.Name) {
		return fmt.Errorf("xmlspec: domain: invalid name %q", d.Name)
	}
	kib, err := d.Memory.KiB()
	if err != nil {
		return fmt.Errorf("xmlspec: domain %s: %v", d.Name, err)
	}
	if kib == 0 {
		return fmt.Errorf("xmlspec: domain %s: memory must be > 0", d.Name)
	}
	if d.CurrentMemory != nil {
		cur, err := d.CurrentMemory.KiB()
		if err != nil {
			return fmt.Errorf("xmlspec: domain %s: %v", d.Name, err)
		}
		if cur > kib {
			return fmt.Errorf("xmlspec: domain %s: currentMemory %d exceeds memory %d KiB", d.Name, cur, kib)
		}
	}
	if d.VCPU.Count == 0 {
		return fmt.Errorf("xmlspec: domain %s: vcpu count must be > 0", d.Name)
	}
	for _, b := range d.OS.Boot {
		if !validBootDevs[b.Dev] {
			return fmt.Errorf("xmlspec: domain %s: invalid boot device %q", d.Name, b.Dev)
		}
	}
	targets := map[string]bool{}
	for i := range d.Devices.Disks {
		disk := &d.Devices.Disks[i]
		if err := validateDisk(disk, i); err != nil {
			return fmt.Errorf("xmlspec: domain %s: %w", d.Name, err)
		}
		if targets[disk.Target.Dev] {
			return fmt.Errorf("xmlspec: domain %s: duplicate disk target %q", d.Name, disk.Target.Dev)
		}
		targets[disk.Target.Dev] = true
	}
	macs := map[string]bool{}
	for i := range d.Devices.Interfaces {
		nic := &d.Devices.Interfaces[i]
		if err := validateInterface(nic, i); err != nil {
			return fmt.Errorf("xmlspec: domain %s: %w", d.Name, err)
		}
		if nic.MAC != nil {
			if macs[nic.MAC.Address] {
				return fmt.Errorf("xmlspec: domain %s: duplicate MAC %q", d.Name, nic.MAC.Address)
			}
			macs[nic.MAC.Address] = true
		}
	}
	return nil
}

// validMAC reports whether s looks like a colon-separated 48-bit MAC.
func validMAC(s string) bool {
	parts := strings.Split(s, ":")
	if len(parts) != 6 {
		return false
	}
	for _, p := range parts {
		if len(p) != 2 {
			return false
		}
		for _, c := range p {
			if !strings.ContainsRune("0123456789abcdefABCDEF", c) {
				return false
			}
		}
	}
	return true
}

// MemoryKiBOrZero is a convenience accessor used by drivers that already
// validated the definition.
func (d *Domain) MemoryKiBOrZero() uint64 {
	kib, err := d.Memory.KiB()
	if err != nil {
		return 0
	}
	return kib
}
