package xmlspec

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// The decode plan is checked against encoding/xml, the decoder it
// replaced: xml.Unmarshal, and for ParseDevice the token loop that used
// to find the root element, followed by the same validation.

const sampleCapabilitiesXML = `<capabilities>
  <host><uuid>11111111-2222-3333-4444-555555555555</uuid>
    <cpu><arch>x86_64</arch><model>sim-epyc</model><topology sockets='2' cores='16' threads='2'/></cpu></host>
  <guest><os_type>hvm</os_type><arch name='x86_64'><wordsize>64</wordsize>
    <machine>pc</machine><machine>q35</machine><domain type='qsim'/><domain type='xsim'/></arch></guest>
</capabilities>`

const sampleSnapshotXML = `<domainsnapshot><name>s1</name><description>d</description>` +
	`<state>running</state><creationTime>1234</creationTime><domain>web01</domain></domainsnapshot>`

// benchDomainXML has the shape of the bench's seeded definitions.
const benchDomainXML = `<domain type='qsim'><name>bench-0001</name><description>cpu_util=0.2 dirty_pages_sec=500</description>` +
	`<memory unit='MiB'>256</memory><vcpu>1</vcpu><os><type arch='x86_64'>hvm</type></os></domain>`

// decodeCases are documents on the edges of what encoding/xml accepts.
var decodeCases = []string{
	"", " ", "<", "<domain", "<domain>", "</domain>", "<!-- c -->", "text only",
	`<domain type='t'><name>x</name><memory>1</memory><vcpu>1</vcpu></domain>`,
	// Prefixes and name spaces.
	`<p:domain xmlns:p="urn:p" p:type="t"><p:name>x</p:name><memory>1</memory><vcpu>1</vcpu></p:domain>`,
	`<domain xmlns="urn:d" type="t"><name>x</name><memory>1</memory><vcpu>1</vcpu></domain>`,
	`<q:domain type="t"/>`, `<xml:domain/>`, `<xmlns:domain/>`, `<domain xmlns:type="t"/>`,
	`<p:domain xmlns:p="urn:1" xmlns:p="urn:2"/>`, `<p:domain xmlns:p=""/>`, `<a:b:domain/>`, `<:domain/>`, `<domain:/>`,
	`<domain><p:name>a</q:name></domain>`, `<domain><name>a</p:name></domain>`, `<domain></p:domain>`,
	// Character data: references, CDATA, \r, runs around children.
	`<domain type="a&amp;b&lt;&gt;&apos;&quot;"><name>&#65;&#x42;c</name></domain>`,
	`<domain><name><![CDATA[a<b]]>c<![CDATA[]]>d</name></domain>`,
	"<domain><description>a\r\nb\rc\r\r\nd</description></domain>",
	"<domain type='a\r\nb'><name>x<!-- c -->y<?pi z?>z<x>skipped</x>w</name></domain>",
	`<domain><name>&foo;</name></domain>`, `<domain><name>&#0;</name></domain>`, `<domain><name>&#xD800;</name></domain>`,
	`<domain><name>&#;</name></domain>`, `<domain><name>&#x110000;</name></domain>`, `<domain><name>&amp</name></domain>`,
	`<domain><name>&;</name></domain>`, `<domain><name>a]]>b</name></domain>`, `<domain><name>` + "\x01" + `</name></domain>`,
	"<domain><name>\xff</name></domain>", "<domain><name>￾</name></domain>", `<domain type="a<b"/>`,
	`<domain type="a]]>b"/>`, `<domain type=t/>`, `<domain type/>`, `<domain type="t"type="u"/>`, `<domain / >`,
	// Comments, processing instructions, directives.
	`<?xml version="1.0" encoding="UTF-8"?><domain/>`, `<?xml version="1.1"?><domain/>`, `<?xml encoding="latin1"?><domain/>`,
	`<?xml version='1.0' encoding='utf-8'?><domain/>`, `<?xml version=1.1 version="1.0"?><domain/>`, `<?xml?><domain/>`,
	`<??><domain/>`, `<?pi <domain/>`, `<domain><?xml encoding="ebcdic"?></domain>`,
	`<!-- a -- b --><domain/>`, `<!---><domain/>-->`, `<!----><domain/>`, `<!-x><domain/>`, `<![CDATX[x]]><domain/>`,
	`<!DOCTYPE domain [<!ENTITY x "y>"><!-- > --><!ELEMENT a (b)>]><domain/>`, `<!DOCTYPE <>><domain/>`,
	`<!><domain/>>`, `<!"><domain/>`, `<!DOCTYPE domain [<!-- unterminated`, `<!DOCTYPE x "<" '<'><domain/>`,
	// Scalars: last wins, slices append, empty numbers are 0.
	`<domain><name>a</name><name>b</name><vcpu>2</vcpu><vcpu/></domain>`,
	`<domain><memory unit="GiB">1</memory><memory>3</memory><vcpu> 4 </vcpu></domain>`,
	`<domain><vcpu> </vcpu></domain>`, `<domain><vcpu>-1</vcpu></domain>`, `<domain><vcpu>+1</vcpu></domain>`,
	`<domain><memory>18446744073709551616</memory></domain>`, `<domain><devices><graphics port="+5"/><graphics port=""/></devices></domain>`,
	`<domain><devices><disk type="file"/><disk type="block"><readonly>x<y/></readonly></disk></devices></domain>`,
	`<domain><currentMemory unit="KiB">1</currentMemory><currentMemory>2</currentMemory><features><acpi/></features></domain>`,
	`<domain><os><boot dev="hd"/><type>hvm<extra a="1">x<deeper><deepest/></deeper></extra></type><boot dev="cdrom"/></os></domain>`,
	`<domain><unknown><a><b></b></a></unknown><name>x</name></domain>`, `<domain><unknown><a></b></unknown></domain>`,
	"<domain><name>" + strings.Repeat("a\rb<!---->&amp;<![CDATA[c]]>", 50) + "</name><os><type>" + strings.Repeat("x<y/>", 50) + "</type></os></domain>",
	// The root element: its name, and what follows it.
	`<network/>`, `<domain/>trailing <junk & stuff`, `<domain/><domain type="second"/>`, `text<domain/>`,
	`&amp;<domain/>`, `&bad;<domain/>`, `</x><domain/>`, `<domain></domain></domain>`,
	`<disk type='file'><source file='/x'/><target dev='vda'/></disk>`, `<p:interface type='user'/>`, `<console/>`,
	"<domain>\n<name>\n", "<domain\n a='1'\n",
	// Names beyond ASCII go through encoding/xml's own name tables.
	`<domain><nämé a·b="1">x</nämé><name>ñ</name></domain>`, `<domain><·x/></domain>`, `<domain><x̀/></domain>`,
	`<domain ·="1"/>`, "<domain><a\xffb/></domain>", `<domain><name>&ä;</name></domain>`, `<?ü x?><domain/>`,
}

// unmarshalMatches decodes data into a fresh T both ways and reports a
// disagreement: one side accepting what the other refuses, or values
// that differ.
func unmarshalMatches[T any](data []byte) error {
	var want, got T
	werr := xml.Unmarshal(data, &want)
	gerr := decode(data, &got)
	return compareResults(fmt.Sprintf("%T", got), &want, werr, &got, gerr)
}

func compareResults(what string, want any, werr error, got any, gerr error) error {
	switch {
	case (werr == nil) != (gerr == nil):
		return fmt.Errorf("%s: encoding/xml error %v, plan error %v", what, werr, gerr)
	case werr == nil && !reflect.DeepEqual(want, got):
		return fmt.Errorf("%s: encoding/xml decoded %+v, plan %+v", what, want, got)
	}
	return nil
}

// reference parses the way the Parse* functions did with encoding/xml.
func reference[T any](data []byte, check func(*T) error) (*T, error) {
	var v T
	if err := xml.Unmarshal(data, &v); err != nil {
		return nil, err
	}
	if err := check(&v); err != nil {
		return nil, err
	}
	return &v, nil
}

func referenceDevice(data []byte) (*Device, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil, fmt.Errorf("xmlspec: device document is empty")
		}
		if err != nil {
			return nil, err
		}
		root, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		switch root.Name.Local {
		case "disk":
			var d Disk
			if err := dec.DecodeElement(&d, &root); err != nil {
				return nil, err
			}
			return &Device{Disk: &d}, validateDisk(&d, 0)
		case "interface":
			var nic Interface
			if err := dec.DecodeElement(&nic, &root); err != nil {
				return nil, err
			}
			return &Device{Interface: &nic}, validateInterface(&nic, 0)
		}
		return nil, fmt.Errorf("xmlspec: unsupported device element <%s>", root.Name.Local)
	}
}

func parseMatches[T any](what string, data []byte, parse func([]byte) (*T, error), check func(*T) error) error {
	want, werr := reference(data, check)
	got, gerr := parse(data)
	return compareResults(what, want, werr, got, gerr)
}

// matchesEncodingXML runs data through every root type's plan and every
// Parse* function, and through encoding/xml.
func matchesEncodingXML(data []byte) error {
	checkSnapshot := func(s *DomainSnapshot) error {
		if s.Name != "" && !validName(s.Name) {
			return fmt.Errorf("invalid name %q", s.Name)
		}
		return nil
	}
	want, werr := referenceDevice(data)
	got, gerr := ParseDevice(data)
	for _, err := range []error{
		unmarshalMatches[Domain](data), unmarshalMatches[Disk](data), unmarshalMatches[Interface](data),
		unmarshalMatches[Network](data), unmarshalMatches[StoragePool](data), unmarshalMatches[StorageVolume](data),
		unmarshalMatches[DomainSnapshot](data), unmarshalMatches[Capabilities](data),
		parseMatches("ParseDomain", data, ParseDomain, (*Domain).Validate),
		parseMatches("ParseNetwork", data, ParseNetwork, (*Network).Validate),
		parseMatches("ParseStoragePool", data, ParseStoragePool, (*StoragePool).Validate),
		parseMatches("ParseStorageVolume", data, ParseStorageVolume, (*StorageVolume).Validate),
		parseMatches("ParseDomainSnapshot", data, ParseDomainSnapshot, checkSnapshot),
		parseMatches("ParseCapabilities", data, ParseCapabilities, func(*Capabilities) error { return nil }),
		compareResults("ParseDevice", want, werr, got, gerr),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

func TestDecodeMatchesEncodingXML(t *testing.T) {
	for _, doc := range decodeSeeds(t) {
		if err := matchesEncodingXML([]byte(doc)); err != nil {
			t.Errorf("%q: %v", doc, err)
		}
	}
}

// decodeSeeds is decodeCases plus the package's sample documents and
// their Marshal output.
func decodeSeeds(tb testing.TB) []string {
	seeds := append([]string{benchDomainXML, sampleDomainXML, sampleNetworkXML, samplePoolXML,
		sampleVolumeXML, sampleCapabilitiesXML, sampleSnapshotXML}, decodeCases...)
	marshal := func(out []byte, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, string(out))
	}
	for _, doc := range []string{benchDomainXML, sampleDomainXML} {
		d, err := ParseDomain([]byte(doc))
		if err != nil {
			tb.Fatal(err)
		}
		marshal(d.Marshal())
	}
	n, err := ParseNetwork([]byte(sampleNetworkXML))
	if err != nil {
		tb.Fatal(err)
	}
	marshal(n.Marshal())
	p, err := ParseStoragePool([]byte(samplePoolXML))
	if err != nil {
		tb.Fatal(err)
	}
	marshal(p.Marshal())
	v, err := ParseStorageVolume([]byte(sampleVolumeXML))
	if err != nil {
		tb.Fatal(err)
	}
	marshal(v.Marshal())
	c, err := ParseCapabilities([]byte(sampleCapabilitiesXML))
	if err != nil {
		tb.Fatal(err)
	}
	marshal(c.Marshal())
	s, err := ParseDomainSnapshot([]byte(sampleSnapshotXML))
	if err != nil {
		tb.Fatal(err)
	}
	marshal(s.Marshal())
	return seeds
}

// FuzzDecodeMatchesEncodingXML fails when the plan and encoding/xml
// disagree on any root type: one accepts what the other refuses, or
// both accept and decode different values.
func FuzzDecodeMatchesEncodingXML(f *testing.F) {
	for _, doc := range decodeSeeds(f) {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		if err := matchesEncodingXML([]byte(doc)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPlansCompile compiles every root type's plan, so a field kind the
// decoder does not support fails here and not on a request.
func TestPlansCompile(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeFor[Domain](), reflect.TypeFor[Disk](), reflect.TypeFor[Interface](),
		reflect.TypeFor[Network](), reflect.TypeFor[StoragePool](), reflect.TypeFor[StorageVolume](),
		reflect.TypeFor[DomainSnapshot](), reflect.TypeFor[Capabilities](),
	} {
		if _, err := planFor(typ); err != nil {
			t.Error(err)
		}
	}
}

func TestPlanRefusesUnsupportedFields(t *testing.T) {
	type inner struct {
		XMLName xml.Name `xml:"inner"`
	}
	type recursive struct {
		Kids []recursive `xml:"kid"`
	}
	for _, typ := range []reflect.Type{
		reflect.TypeFor[struct{ F float64 }](),
		reflect.TypeFor[struct{ B bool }](),
		reflect.TypeFor[struct{ M map[string]string }](),
		reflect.TypeFor[struct{ I any }](),
		reflect.TypeFor[struct{ P *string }](),
		reflect.TypeFor[struct{ B []byte }](),
		reflect.TypeFor[struct{ N xml.Name }](),
		reflect.TypeFor[struct {
			S struct{ A string } `xml:"s,attr"`
		}](),
		reflect.TypeFor[struct {
			A string `xml:"a>b"`
		}](),
		reflect.TypeFor[struct {
			A string `xml:",innerxml"`
		}](),
		reflect.TypeFor[struct {
			A string `xml:",chardata"`
			B string `xml:",chardata"`
		}](),
		reflect.TypeFor[struct{ In inner }](),
		reflect.TypeFor[recursive](),
		reflect.TypeFor[struct{ Name xml.Name }](),
		reflect.TypeFor[struct{ Memory }](),
	} {
		if _, err := planFor(typ); err == nil {
			t.Errorf("%s: plan compiled", typ)
		}
	}
}

func TestParseDomainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not gated under the race detector")
	}
	data := []byte(benchDomainXML)
	n := testing.AllocsPerRun(200, func() {
		if _, err := ParseDomain(data); err != nil {
			t.Fatal(err)
		}
	})
	// The Domain, and the six strings it keeps: type, name, description,
	// memory unit, os arch and os type.
	if n > 12 {
		t.Fatalf("ParseDomain allocates %v times per bench-shaped definition, want <= 12", n)
	}
	t.Logf("%v allocations per parse", n)
}

func TestDecodeErrorsWrapLikeEncodingXML(t *testing.T) {
	_, err := ParseDomain([]byte(`<domain><name>a</nam></domain>`))
	var syn *xml.SyntaxError
	if err == nil || !strings.HasPrefix(err.Error(), "xmlspec: parse domain: ") || !errors.As(err, &syn) {
		t.Fatalf("error = %v, want a wrapped *xml.SyntaxError", err)
	}
	if want := "XML syntax error on line 1: element <name> closed by </nam>"; syn.Error() != want {
		t.Fatalf("syntax error = %q, want %q", syn.Error(), want)
	}
}

// BenchmarkParseDomain compares the plan with the encoding/xml decoder
// it replaced on the bench-shaped definition, validation included.
func BenchmarkParseDomain(b *testing.B) {
	data := []byte(benchDomainXML)
	b.Run("plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ParseDomain(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-xml", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := reference(data, (*Domain).Validate); err != nil {
				b.Fatal(err)
			}
		}
	})
}
