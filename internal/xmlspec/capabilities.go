package xmlspec

import (
	"encoding/xml"
	"fmt"
)

// HostCPU describes the host processor as advertised in capabilities.
type HostCPU struct {
	Arch     string    `xml:"arch"`
	Model    string    `xml:"model,omitempty"`
	Vendor   string    `xml:"vendor,omitempty"`
	Topology *Topology `xml:"topology,omitempty"`
}

// Topology is the host socket/core/thread layout.
type Topology struct {
	Sockets int `xml:"sockets,attr"`
	Cores   int `xml:"cores,attr"`
	Threads int `xml:"threads,attr"`
}

// CapHost is the host section of capabilities.
type CapHost struct {
	UUID string  `xml:"uuid,omitempty"`
	CPU  HostCPU `xml:"cpu"`
}

// GuestDomain names a domain type supported for a guest arch.
type GuestDomain struct {
	Type string `xml:"type,attr"`
}

// GuestArch describes one supported guest architecture.
type GuestArch struct {
	Name     string        `xml:"name,attr"`
	WordSize int           `xml:"wordsize,omitempty"`
	Emulator string        `xml:"emulator,omitempty"`
	Machines []string      `xml:"machine"`
	Domains  []GuestDomain `xml:"domain"`
}

// Guest is one guest stanza of capabilities.
type Guest struct {
	OSType string    `xml:"os_type"`
	Arch   GuestArch `xml:"arch"`
}

// Capabilities is the document a driver returns to describe what the host
// and hypervisor can run.
type Capabilities struct {
	XMLName xml.Name `xml:"capabilities"`
	Host    CapHost  `xml:"host"`
	Guests  []Guest  `xml:"guest"`
}

// ParseCapabilities parses a capabilities document.
func ParseCapabilities(data []byte) (*Capabilities, error) {
	var c Capabilities
	if err := decode(data, &c); err != nil {
		return nil, fmt.Errorf("xmlspec: parse capabilities: %w", err)
	}
	return &c, nil
}

// Marshal renders the document back to indented XML.
func (c *Capabilities) Marshal() ([]byte, error) {
	out, err := xml.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("xmlspec: marshal capabilities: %w", err)
	}
	return append(out, '\n'), nil
}

// SupportsGuest reports whether the capabilities advertise the given
// os type, architecture and domain type combination.
func (c *Capabilities) SupportsGuest(osType, arch, domType string) bool {
	for _, g := range c.Guests {
		if g.OSType != osType || g.Arch.Name != arch {
			continue
		}
		for _, d := range g.Arch.Domains {
			if d.Type == domType {
				return true
			}
		}
	}
	return false
}
