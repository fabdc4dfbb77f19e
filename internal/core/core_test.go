package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/events"
	"repro/internal/uri"
)

func TestErrorModel(t *testing.T) {
	err := Errorf(ErrNoDomain, "no domain %q", "x")
	if err.Error() != `domain not found: no domain "x"` {
		t.Fatalf("%q", err.Error())
	}
	if CodeOf(err) != ErrNoDomain || !IsCode(err, ErrNoDomain) {
		t.Fatal("code extraction failed")
	}
	wrapped := fmt.Errorf("outer: %w", err)
	if CodeOf(wrapped) != ErrNoDomain {
		t.Fatal("unwrapping failed")
	}
	if CodeOf(errors.New("plain")) != ErrInternal {
		t.Fatal("non-API error must map to internal")
	}
	if CodeOf(nil) != 0 {
		t.Fatal("nil error must map to 0")
	}
	if ErrAuthFailed.String() != "authentication failed" {
		t.Fatalf("%q", ErrAuthFailed)
	}
	if ErrorCode(999).String() != "error(999)" {
		t.Fatal("unknown code formatting")
	}
}

func TestWrapPassthrough(t *testing.T) {
	orig := Errorf(ErrNoNetwork, "gone")
	if got := wrap(ErrInternal, orig); CodeOf(got) != ErrNoNetwork {
		t.Fatal("wrap must preserve existing API errors")
	}
	if got := wrap(ErrXML, errors.New("bad")); CodeOf(got) != ErrXML {
		t.Fatal("wrap must assign the given code")
	}
	if wrap(ErrXML, nil) != nil {
		t.Fatal("wrap(nil) must be nil")
	}
}

func TestDomainStateNames(t *testing.T) {
	if DomainRunning.String() != "running" || DomainShutoff.String() != "shut off" {
		t.Fatal("state names wrong")
	}
	if DomainState(42).String() != "state(42)" {
		t.Fatal("unknown state formatting")
	}
}

// fakeDriver is a minimal DriverConn for registry and Connect tests.
// The embedded interface is nil: a method it does not define panics.
type fakeDriver struct {
	DriverConn
	typ    string
	closed bool
}

func (f *fakeDriver) Close() error                     { f.closed = true; return nil }
func (f *fakeDriver) Type() string                     { return f.typ }
func (f *fakeDriver) Version() (string, error)         { return "fake 1.0", nil }
func (f *fakeDriver) Hostname() (string, error)        { return "fakehost", nil }
func (f *fakeDriver) CapabilitiesXML() (string, error) { return "<capabilities/>", nil }
func (f *fakeDriver) NodeInfo() (NodeInfo, error)      { return NodeInfo{CPUs: 4}, nil }
func (f *fakeDriver) ListDomains(ListFlags) ([]string, error) {
	return []string{"a"}, nil
}
func (f *fakeDriver) LookupDomain(name string) (DomainMeta, error) {
	if name != "a" {
		return DomainMeta{}, Errorf(ErrNoDomain, "no %q", name)
	}
	return DomainMeta{Name: "a", UUID: "u", ID: 1}, nil
}
func (f *fakeDriver) LookupDomainByUUID(string) (DomainMeta, error) {
	return DomainMeta{Name: "a"}, nil
}
func (f *fakeDriver) DefineDomain(string) (DomainMeta, error) {
	return DomainMeta{Name: "a"}, nil
}
func (f *fakeDriver) UndefineDomain(string) error { return nil }
func (f *fakeDriver) CreateDomain(string) error   { return nil }
func (f *fakeDriver) DestroyDomain(string) error  { return nil }
func (f *fakeDriver) ShutdownDomain(string) error { return nil }
func (f *fakeDriver) RebootDomain(string) error   { return nil }
func (f *fakeDriver) SuspendDomain(string) error  { return nil }
func (f *fakeDriver) ResumeDomain(string) error   { return nil }
func (f *fakeDriver) DomainInfo(string) (DomainInfo, error) {
	return DomainInfo{State: DomainRunning}, nil
}
func (f *fakeDriver) DomainStats(string) (DomainStats, error) {
	return DomainStats{}, nil
}
func (f *fakeDriver) DomainXML(string) (string, error)     { return "<domain/>", nil }
func (f *fakeDriver) SetDomainMemory(string, uint64) error { return nil }
func (f *fakeDriver) SetDomainVCPUs(string, int) error     { return nil }

func TestRegistryLocalAndFallback(t *testing.T) {
	ResetRegistryForTest()
	defer ResetRegistryForTest()

	Register("fake", func(u *uri.URI) (DriverConn, error) {
		return &fakeDriver{typ: "fake"}, nil
	})
	if got := RegisteredSchemes(); len(got) != 1 || got[0] != "fake" {
		t.Fatalf("schemes %v", got)
	}

	conn, err := Open("fake:///system")
	if err != nil {
		t.Fatal(err)
	}
	if typ, _ := conn.Type(); typ != "fake" {
		t.Fatalf("type %q", typ)
	}

	// Unknown local scheme with no fallback fails.
	if _, err := Open("mystery:///x"); !IsCode(err, ErrNoSupport) {
		t.Fatalf("unknown scheme: %v", err)
	}
	// Remote URI with no fallback fails.
	if _, err := Open("fake+tcp://host/system"); !IsCode(err, ErrNoSupport) {
		t.Fatalf("remote without fallback: %v", err)
	}

	// Install a fallback: remote URIs and unknown schemes route there.
	RegisterRemote(func(u *uri.URI) (DriverConn, error) {
		return &fakeDriver{typ: "remote:" + u.Driver}, nil
	})
	conn2, err := Open("fake+tcp://host/system")
	if err != nil {
		t.Fatal(err)
	}
	if typ, _ := conn2.Type(); typ != "remote:fake" {
		t.Fatalf("remote routing: %q", typ)
	}
	conn3, err := Open("mystery:///x")
	if err != nil {
		t.Fatal(err)
	}
	if typ, _ := conn3.Type(); typ != "remote:mystery" {
		t.Fatalf("fallback routing: %q", typ)
	}
}

func TestOpenRejectsBadURI(t *testing.T) {
	ResetRegistryForTest()
	defer ResetRegistryForTest()
	if _, err := Open("://"); !IsCode(err, ErrInvalidArg) {
		t.Fatalf("bad uri: %v", err)
	}
}

func TestConnectCloseSemantics(t *testing.T) {
	drv := &fakeDriver{typ: "fake"}
	u, _ := uri.Parse("fake:///")
	conn := OpenWith(u, drv)
	if _, err := conn.Hostname(); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if !drv.closed {
		t.Fatal("driver not closed")
	}
	if err := conn.Close(); !IsCode(err, ErrConnectionClosed) {
		t.Fatalf("double close: %v", err)
	}
	if _, err := conn.Hostname(); !IsCode(err, ErrConnectionClosed) {
		t.Fatalf("use after close: %v", err)
	}
	if _, err := conn.ListAllDomains(0); !IsCode(err, ErrConnectionClosed) {
		t.Fatalf("list after close: %v", err)
	}
	dom := &Domain{c: conn, meta: DomainMeta{Name: "a"}}
	if err := dom.Create(); !IsCode(err, ErrConnectionClosed) {
		t.Fatalf("domain op after close: %v", err)
	}
}

func TestOptionalInterfacesAbsent(t *testing.T) {
	// fakeDriver implements neither EventSource nor WatchSource.
	conn := OpenWith(&uri.URI{Driver: "fake"}, &fakeDriver{typ: "fake"})
	if _, err := conn.WatchEvents("", nil, func(events.Event, bool) {}); !IsCode(err, ErrNoSupport) {
		t.Fatalf("events: %v", err)
	}
}

func TestListAllDomainsBuildsHandles(t *testing.T) {
	conn := OpenWith(&uri.URI{Driver: "fake"}, &fakeDriver{typ: "fake"})
	doms, err := conn.ListAllDomains(0)
	if err != nil || len(doms) != 1 {
		t.Fatalf("%v %v", doms, err)
	}
	d := doms[0]
	if d.Name() != "a" || d.UUID() != "u" || d.ID() != 1 || d.Connect() != conn {
		t.Fatalf("%+v", d)
	}
	st, err := d.State()
	if err != nil || st != DomainRunning {
		t.Fatalf("%v %v", st, err)
	}
}
