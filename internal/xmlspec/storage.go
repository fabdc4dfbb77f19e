package xmlspec

import (
	"encoding/xml"
	"fmt"
	"strings"
)

// PoolSource locates the backing resource of a storage pool.
type PoolSource struct {
	Host   *SourceHost   `xml:"host,omitempty"`
	Device *SourceDevice `xml:"device,omitempty"`
	Name   string        `xml:"name,omitempty"`
}

// SourceHost names a remote storage host.
type SourceHost struct {
	Name string `xml:"name,attr"`
	Port int    `xml:"port,attr,omitempty"`
}

// SourceDevice names a local source device.
type SourceDevice struct {
	Path string `xml:"path,attr"`
}

// PoolTarget locates where volumes of a pool are exposed.
type PoolTarget struct {
	Path string `xml:"path"`
}

// StoragePool is the definition of a storage pool.
type StoragePool struct {
	XMLName    xml.Name    `xml:"pool"`
	Type       string      `xml:"type,attr"`
	Name       string      `xml:"name"`
	UUID       string      `xml:"uuid,omitempty"`
	Capacity   *Memory     `xml:"capacity,omitempty"`
	Allocation *Memory     `xml:"allocation,omitempty"`
	Available  *Memory     `xml:"available,omitempty"`
	Source     *PoolSource `xml:"source,omitempty"`
	Target     *PoolTarget `xml:"target,omitempty"`
}

// Supported pool types: dir is path-backed, logical simulates LVM volume
// groups, iscsi simulates a remote target.
var validPoolTypes = map[string]bool{"dir": true, "logical": true, "iscsi": true}

// ParseStoragePool parses and validates a pool definition document.
func ParseStoragePool(data []byte) (*StoragePool, error) {
	var p StoragePool
	if err := decode(data, &p); err != nil {
		return nil, fmt.Errorf("xmlspec: parse pool: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Marshal renders the definition back to indented XML.
func (p *StoragePool) Marshal() ([]byte, error) {
	out, err := xml.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("xmlspec: marshal pool: %w", err)
	}
	return append(out, '\n'), nil
}

// Validate checks structural invariants of a pool definition.
func (p *StoragePool) Validate() error {
	if !validName(p.Name) {
		return fmt.Errorf("xmlspec: pool: invalid name %q", p.Name)
	}
	if !validPoolTypes[p.Type] {
		return fmt.Errorf("xmlspec: pool %s: unknown type %q", p.Name, p.Type)
	}
	switch p.Type {
	case "dir":
		if p.Target == nil || !strings.HasPrefix(p.Target.Path, "/") {
			return fmt.Errorf("xmlspec: pool %s: dir pool requires absolute target path", p.Name)
		}
	case "logical":
		if p.Source == nil || p.Source.Name == "" {
			return fmt.Errorf("xmlspec: pool %s: logical pool requires source name (volume group)", p.Name)
		}
	case "iscsi":
		if p.Source == nil || p.Source.Host == nil || p.Source.Host.Name == "" {
			return fmt.Errorf("xmlspec: pool %s: iscsi pool requires source host", p.Name)
		}
		if p.Source.Device == nil || p.Source.Device.Path == "" {
			return fmt.Errorf("xmlspec: pool %s: iscsi pool requires source device (IQN)", p.Name)
		}
	}
	return nil
}

// VolumeTarget describes how a volume is exposed.
type VolumeTarget struct {
	Path   string     `xml:"path,omitempty"`
	Format *VolFormat `xml:"format,omitempty"`
}

// VolFormat names the volume image format.
type VolFormat struct {
	Type string `xml:"type,attr"`
}

// StorageVolume is the definition of a storage volume inside a pool.
type StorageVolume struct {
	XMLName    xml.Name      `xml:"volume"`
	Name       string        `xml:"name"`
	Key        string        `xml:"key,omitempty"`
	Capacity   Memory        `xml:"capacity"`
	Allocation *Memory       `xml:"allocation,omitempty"`
	Target     *VolumeTarget `xml:"target,omitempty"`
}

var validVolFormats = map[string]bool{"raw": true, "qcow2": true, "vmdk": true}

// ParseStorageVolume parses and validates a volume definition document.
func ParseStorageVolume(data []byte) (*StorageVolume, error) {
	var v StorageVolume
	if err := decode(data, &v); err != nil {
		return nil, fmt.Errorf("xmlspec: parse volume: %w", err)
	}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	return &v, nil
}

// Marshal renders the definition back to indented XML.
func (v *StorageVolume) Marshal() ([]byte, error) {
	out, err := xml.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("xmlspec: marshal volume: %w", err)
	}
	return append(out, '\n'), nil
}

// Validate checks structural invariants of a volume definition.
func (v *StorageVolume) Validate() error {
	if !validName(v.Name) {
		return fmt.Errorf("xmlspec: volume: invalid name %q", v.Name)
	}
	cap, err := v.Capacity.KiB()
	if err != nil {
		return fmt.Errorf("xmlspec: volume %s: %v", v.Name, err)
	}
	if cap == 0 {
		return fmt.Errorf("xmlspec: volume %s: capacity must be > 0", v.Name)
	}
	if v.Allocation != nil {
		alloc, err := v.Allocation.KiB()
		if err != nil {
			return fmt.Errorf("xmlspec: volume %s: %v", v.Name, err)
		}
		if alloc > cap {
			return fmt.Errorf("xmlspec: volume %s: allocation %d exceeds capacity %d KiB", v.Name, alloc, cap)
		}
	}
	if v.Target != nil && v.Target.Format != nil && !validVolFormats[v.Target.Format.Type] {
		return fmt.Errorf("xmlspec: volume %s: unknown format %q", v.Name, v.Target.Format.Type)
	}
	return nil
}
