package xmlspec

import (
	"encoding/xml"
	"fmt"
	"net"
)

// Bridge names the host bridge device of a virtual network.
type Bridge struct {
	Name  string `xml:"name,attr"`
	STP   string `xml:"stp,attr,omitempty"`
	Delay int    `xml:"delay,attr,omitempty"`
}

// Forward selects how guest traffic leaves the virtual network.
type Forward struct {
	Mode string `xml:"mode,attr,omitempty"`
	Dev  string `xml:"dev,attr,omitempty"`
}

// DHCPRange is one address range leased by the network's DHCP service.
type DHCPRange struct {
	Start string `xml:"start,attr"`
	End   string `xml:"end,attr"`
}

// DHCPHost is a static DHCP reservation.
type DHCPHost struct {
	MAC  string `xml:"mac,attr"`
	Name string `xml:"name,attr,omitempty"`
	IP   string `xml:"ip,attr"`
}

// DHCP configures the network's address leasing.
type DHCP struct {
	Ranges []DHCPRange `xml:"range"`
	Hosts  []DHCPHost  `xml:"host"`
}

// IP configures the network's gateway address and DHCP.
type IP struct {
	Address string `xml:"address,attr"`
	Netmask string `xml:"netmask,attr,omitempty"`
	Prefix  int    `xml:"prefix,attr,omitempty"`
	DHCP    *DHCP  `xml:"dhcp,omitempty"`
}

// Network is the definition of a virtual network.
type Network struct {
	XMLName xml.Name `xml:"network"`
	Name    string   `xml:"name"`
	UUID    string   `xml:"uuid,omitempty"`
	Bridge  *Bridge  `xml:"bridge,omitempty"`
	Forward *Forward `xml:"forward,omitempty"`
	IPs     []IP     `xml:"ip"`
}

// ParseNetwork parses and validates a network definition document.
func ParseNetwork(data []byte) (*Network, error) {
	var n Network
	if err := decode(data, &n); err != nil {
		return nil, fmt.Errorf("xmlspec: parse network: %w", err)
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return &n, nil
}

// Marshal renders the definition back to indented XML.
func (n *Network) Marshal() ([]byte, error) {
	out, err := xml.MarshalIndent(n, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("xmlspec: marshal network: %w", err)
	}
	return append(out, '\n'), nil
}

var validForwardModes = map[string]bool{
	"": true, "nat": true, "route": true, "bridge": true, "isolated": true,
}

// Validate checks structural invariants of a network definition.
func (n *Network) Validate() error {
	if !validName(n.Name) {
		return fmt.Errorf("xmlspec: network: invalid name %q", n.Name)
	}
	if n.Forward != nil && !validForwardModes[n.Forward.Mode] {
		return fmt.Errorf("xmlspec: network %s: unknown forward mode %q", n.Name, n.Forward.Mode)
	}
	for i, ip := range n.IPs {
		addr := net.ParseIP(ip.Address)
		if addr == nil {
			return fmt.Errorf("xmlspec: network %s: ip %d: invalid address %q", n.Name, i, ip.Address)
		}
		var mask net.IPMask
		switch {
		case ip.Netmask != "":
			m := net.ParseIP(ip.Netmask)
			if m == nil || m.To4() == nil {
				return fmt.Errorf("xmlspec: network %s: ip %d: invalid netmask %q", n.Name, i, ip.Netmask)
			}
			mask = net.IPMask(m.To4())
		case ip.Prefix > 0:
			bits := 32
			if addr.To4() == nil {
				bits = 128
			}
			if ip.Prefix > bits {
				return fmt.Errorf("xmlspec: network %s: ip %d: prefix %d too large", n.Name, i, ip.Prefix)
			}
			mask = net.CIDRMask(ip.Prefix, bits)
		default:
			return fmt.Errorf("xmlspec: network %s: ip %d: netmask or prefix required", n.Name, i)
		}
		if ip.DHCP != nil {
			subnet := net.IPNet{IP: addr.Mask(mask), Mask: mask}
			for j, r := range ip.DHCP.Ranges {
				start, end := net.ParseIP(r.Start), net.ParseIP(r.End)
				if start == nil || end == nil {
					return fmt.Errorf("xmlspec: network %s: dhcp range %d: invalid addresses", n.Name, j)
				}
				if !subnet.Contains(start) || !subnet.Contains(end) {
					return fmt.Errorf("xmlspec: network %s: dhcp range %d: outside subnet %s", n.Name, j, subnet.String())
				}
				if ipLess(end, start) {
					return fmt.Errorf("xmlspec: network %s: dhcp range %d: end before start", n.Name, j)
				}
			}
			for j, h := range ip.DHCP.Hosts {
				if !validMAC(h.MAC) {
					return fmt.Errorf("xmlspec: network %s: dhcp host %d: invalid MAC %q", n.Name, j, h.MAC)
				}
				if hip := net.ParseIP(h.IP); hip == nil || !subnet.Contains(hip) {
					return fmt.Errorf("xmlspec: network %s: dhcp host %d: ip %q outside subnet", n.Name, j, h.IP)
				}
			}
		}
	}
	return nil
}

// ipLess compares two IPs of the same family numerically.
func ipLess(a, b net.IP) bool {
	a16, b16 := a.To16(), b.To16()
	for i := range a16 {
		if a16[i] != b16[i] {
			return a16[i] < b16[i]
		}
	}
	return false
}
