package common

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/xmlspec"
)

// gatedHooks parks Start until release is closed, announcing on entered
// that a Create is inside its hypervisor call.
type gatedHooks struct {
	nopHooks
	entered, release chan struct{}
}

func (h gatedHooks) Start(*xmlspec.Domain) error {
	h.entered <- struct{}{}
	<-h.release
	return nil
}

func nopDomainXML(vcpus string) string {
	return `<domain type='nop'><name>d</name><uuid>6b1f2f7e-3c1e-4a8e-9d55-3c0f4d1e2a10</uuid>` +
		`<memory>1024</memory><vcpu>` + vcpus + `</vcpu><os><type>hvm</type></os></domain>`
}

// TestJobHoldsCreateToCommit: Create holds the domain's job from its
// state check to its commit. While it is inside the hypervisor's Start,
// neither an Undefine nor a redefinition of the domain returns. Once
// Create commits, the domain is active, and both are refused.
func TestJobHoldsCreateToCommit(t *testing.T) {
	h := gatedHooks{entered: make(chan struct{}), release: make(chan struct{})}
	b := New(h, Options{Node: testNode(t)})
	if _, err := b.DefineDomain(nopDomainXML("2")); err != nil {
		t.Fatal(err)
	}
	created := make(chan error, 1)
	go func() { created <- b.CreateDomain("d") }()
	<-h.entered

	undefined, redefined := make(chan error, 1), make(chan error, 1)
	go func() { undefined <- b.UndefineDomain("d") }()
	go func() { _, err := b.DefineDomain(nopDomainXML("4")); redefined <- err }()
	select {
	case err := <-undefined:
		t.Fatalf("undefine returned (%v) while create was inside Start", err)
	case err := <-redefined:
		t.Fatalf("redefine returned (%v) while create was inside Start", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(h.release)
	if err := <-created; err != nil {
		t.Fatal(err)
	}
	if err := <-undefined; !core.IsCode(err, core.ErrOperationInvalid) {
		t.Errorf("undefine after create: %v, want %v", err, core.ErrOperationInvalid)
	}
	if err := <-redefined; !core.IsCode(err, core.ErrOperationInvalid) {
		t.Errorf("redefine after create: %v, want %v", err, core.ErrOperationInvalid)
	}
	if xml, _ := b.DomainXML("d"); !strings.Contains(xml, "<vcpu>2</vcpu>") {
		t.Fatalf("definition changed under the running guest:\n%s", xml)
	}
}
