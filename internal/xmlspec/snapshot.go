package xmlspec

import (
	"encoding/xml"
	"fmt"
)

// DomainSnapshot is the definition/description of a domain snapshot.
// On input only Name (optional) and Description are honoured; the
// remaining fields are filled by the driver when the document is read
// back.
type DomainSnapshot struct {
	XMLName      xml.Name `xml:"domainsnapshot"`
	Name         string   `xml:"name,omitempty"`
	Description  string   `xml:"description,omitempty"`
	State        string   `xml:"state,omitempty"`
	CreationTime int64    `xml:"creationTime,omitempty"`
	DomainName   string   `xml:"domain,omitempty"`
}

// ParseDomainSnapshot parses a snapshot document. An empty document
// ("<domainsnapshot/>") is valid: the driver generates a name.
func ParseDomainSnapshot(data []byte) (*DomainSnapshot, error) {
	var s DomainSnapshot
	if err := decode(data, &s); err != nil {
		return nil, fmt.Errorf("xmlspec: parse snapshot: %w", err)
	}
	if s.Name != "" && !validName(s.Name) {
		return nil, fmt.Errorf("xmlspec: snapshot: invalid name %q", s.Name)
	}
	return &s, nil
}

// Marshal renders the snapshot back to indented XML.
func (s *DomainSnapshot) Marshal() ([]byte, error) {
	out, err := xml.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("xmlspec: marshal snapshot: %w", err)
	}
	return append(out, '\n'), nil
}
