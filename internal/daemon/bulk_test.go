package daemon_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/daemon"
)

// defineTestDomain defines (and optionally starts) one test-driver
// domain over the given connection.
func defineTestDomain(t *testing.T, conn *core.Connect, name string, start bool) {
	t.Helper()
	xml := fmt.Sprintf(`
<domain type='test'>
  <name>%s</name>
  <memory unit='MiB'>128</memory>
  <vcpu>2</vcpu>
  <os><type>hvm</type></os>
</domain>`, name)
	dom, err := conn.DefineDomain(xml)
	if err != nil {
		t.Fatal(err)
	}
	if start {
		if err := dom.Create(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBulkMonitoringOverWire drives the bulk monitoring procedures
// through the daemon and cross-checks every row against the per-domain
// path it replaces.
func TestBulkMonitoringOverWire(t *testing.T) {
	sock, _, _ := startDaemon(t, daemon.ClientLimits{}, nil)
	conn, err := core.Open(unixURI(sock))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	defineTestDomain(t, conn, "bulk-a", true)
	defineTestDomain(t, conn, "bulk-b", true)
	defineTestDomain(t, conn, "bulk-idle", false)

	// The whole-host snapshot arrives in one round trip.
	inv, err := conn.NodeInventory()
	if err != nil {
		t.Fatal(err)
	}
	if inv.Node.CPUs == 0 || inv.Node.MemoryKiB == 0 {
		t.Fatalf("empty node summary: %+v", inv.Node)
	}
	// The seed domain "test" plus the three defined above.
	if len(inv.Domains) != 4 {
		t.Fatalf("inventory has %d domains, want 4: %+v", len(inv.Domains), inv.Domains)
	}
	byName := make(map[string]core.DomainInfo, len(inv.Domains))
	for _, row := range inv.Domains {
		byName[row.Name] = row.Info
	}
	for _, name := range []string{"bulk-a", "bulk-b", "bulk-idle", "test"} {
		row, ok := byName[name]
		if !ok {
			t.Fatalf("domain %q missing from inventory", name)
		}
		dom, err := conn.LookupDomain(name)
		if err != nil {
			t.Fatal(err)
		}
		single, err := dom.Info()
		if err != nil {
			t.Fatal(err)
		}
		if row.State != single.State || row.MaxMemKiB != single.MaxMemKiB || row.VCPUs != single.VCPUs {
			t.Fatalf("bulk row for %q diverges from DomainInfo:\nbulk   %+v\nsingle %+v",
				name, row, single)
		}
	}
	if byName["bulk-idle"].State != core.DomainShutoff {
		t.Fatalf("inactive domain state %v, want shutoff", byName["bulk-idle"].State)
	}

	// Flag filtering happens daemon-side.
	active, err := conn.DomainListInfo(core.ListActive)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range active {
		if row.Name == "bulk-idle" {
			t.Fatal("inactive domain in active-only sweep")
		}
	}
	if len(active) != 3 {
		t.Fatalf("active sweep has %d domains, want 3", len(active))
	}

	// A sweep by name skips a name the daemon does not know.
	rows, err := conn.Driver().DomainListInfo(0, []string{"bulk-b", "ghost", "bulk-idle"})
	if err != nil || len(rows) != 2 || rows[0].Name != "bulk-b" || rows[1].Name != "bulk-idle" {
		t.Fatalf("named sweep: %+v %v", rows, err)
	}
}

// TestNodeInventoryIntoOverWire exercises the steady-state polling form:
// repeated sweeps into a retained inventory must stay correct across
// domain lifecycle changes while reusing the row storage in place.
func TestNodeInventoryIntoOverWire(t *testing.T) {
	sock, _, _ := startDaemon(t, daemon.ClientLimits{}, nil)
	conn, err := core.Open(unixURI(sock))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	defineTestDomain(t, conn, "into-a", true)
	defineTestDomain(t, conn, "into-b", true)

	var inv core.NodeInventory
	if err := conn.NodeInventoryInto(&inv); err != nil {
		t.Fatal(err)
	}
	if len(inv.Domains) != 3 { // seed "test" + two above
		t.Fatalf("inventory has %d domains, want 3: %+v", len(inv.Domains), inv.Domains)
	}
	firstRows := inv.Domains[:0]

	// A second sweep must reuse the same backing array and agree with a
	// fresh snapshot row for row.
	if err := conn.NodeInventoryInto(&inv); err != nil {
		t.Fatal(err)
	}
	if len(inv.Domains) == 0 || &inv.Domains[0] != &firstRows[:1][0] {
		t.Fatal("second sweep did not reuse the retained row storage")
	}
	fresh, err := conn.NodeInventory()
	if err != nil {
		t.Fatal(err)
	}
	freshByName := make(map[string]core.DomainInfo)
	for _, row := range fresh.Domains {
		freshByName[row.Name] = row.Info
	}
	for _, row := range inv.Domains {
		want, ok := freshByName[row.Name]
		if !ok {
			t.Fatalf("reused sweep has unknown domain %q", row.Name)
		}
		if row.Info.State != want.State || row.Info.MaxMemKiB != want.MaxMemKiB {
			t.Fatalf("reused sweep row %q diverges: %+v vs %+v", row.Name, row.Info, want)
		}
	}

	// Lifecycle changes must show up in the retained inventory: stop one
	// domain, undefine it, sweep again.
	dom, err := conn.LookupDomain("into-b")
	if err != nil {
		t.Fatal(err)
	}
	if err := dom.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := dom.Undefine(); err != nil {
		t.Fatal(err)
	}
	if err := conn.NodeInventoryInto(&inv); err != nil {
		t.Fatal(err)
	}
	if len(inv.Domains) != 2 {
		t.Fatalf("after undefine, inventory has %d domains, want 2: %+v", len(inv.Domains), inv.Domains)
	}
	for _, row := range inv.Domains {
		if row.Name == "into-b" {
			t.Fatal("undefined domain still present in reused sweep")
		}
	}
}

// TestBulkRepliesSteadyState: the two bulk monitoring replies of a
// 2,000-domain host, each well above the pooled buffer size, cost a
// fixed handful of objects per call once the daemon's retained reply
// buffer and the connection's spare frame are in place — counted
// process-wide, so the daemon's side of the call is included — and
// every row still equals the per-domain answer.
func TestBulkRepliesSteadyState(t *testing.T) {
	const domains = 2000
	sock, _, _ := startDaemon(t, daemon.ClientLimits{}, nil)
	conn, err := core.Open(strings.Replace(unixURI(sock), "/default", "/empty", 1))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < domains; i++ {
		defineTestDomain(t, conn, fmt.Sprintf("steady-%04d", i), true)
	}

	var inv core.NodeInventory
	var rows []core.NamedDomainInfo
	inventory := func() {
		if err := conn.NodeInventoryInto(&inv); err != nil {
			t.Fatal(err)
		}
	}
	listing := func() {
		if rows, err = conn.DomainListInfo(core.ListActive); err != nil {
			t.Fatal(err)
		}
	}
	for _, call := range []struct {
		name string
		fn   func()
	}{{"NodeInventory", inventory}, {"DomainListInfo", listing}} {
		call.fn() // sizes the buffers
		call.fn()
		if got := testing.AllocsPerRun(10, call.fn); got > 40 && !raceEnabled {
			t.Errorf("%s of %d domains: %.0f allocs per call in the steady state, want <= 40", call.name, domains, got)
		}
	}

	if len(inv.Domains) != domains || len(rows) != domains {
		t.Fatalf("inventory has %d rows, listing %d, want %d each", len(inv.Domains), len(rows), domains)
	}
	listed := make(map[string]core.DomainInfo, domains)
	for _, row := range rows {
		listed[row.Name] = row.Info
	}
	for _, row := range inv.Domains {
		dom, err := conn.LookupDomain(row.Name)
		if err != nil {
			t.Fatal(err)
		}
		single, err := dom.Info()
		if err != nil {
			t.Fatal(err)
		}
		for from, bulk := range map[string]core.DomainInfo{"NodeInventory": row.Info, "DomainListInfo": listed[row.Name]} {
			if bulk.State != single.State || bulk.MaxMemKiB != single.MaxMemKiB ||
				bulk.MemKiB != single.MemKiB || bulk.VCPUs != single.VCPUs {
				t.Fatalf("%s row for %q diverges from DomainInfo:\nbulk   %+v\nsingle %+v", from, row.Name, bulk, single)
			}
		}
	}
}

// TestRemoteHopSteadyState is the per-call allocation gate of the remote
// hop, counted process-wide so both sides of the call are in it, with
// telemetry, tracing and admission control on the path. What is left is
// what the caller keeps: the handle LookupDomain returns. The dispatch
// record, its span and reply buffer, the frames and the codec's argument
// and reply structs are all recycled or on a stack, and the names both
// sides decode again and again come back from each connection's table
// of recent strings.
func TestRemoteHopSteadyState(t *testing.T) {
	sock, _, d := startDaemon(t, daemon.ClientLimits{}, nil)
	setQoS(t, d, 0, "default rate_limit_calls_per_s=100000000 burst=100000000")
	conn, err := core.Open(unixURI(sock))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	dom, err := conn.LookupDomain("test")
	if err != nil {
		t.Fatal(err)
	}
	for _, call := range []struct {
		name string
		max  float64
		fn   func() error
	}{
		{"Hostname", 0, func() error { _, err := conn.Hostname(); return err }},
		{"Domain.Info", 0, func() error { _, err := dom.Info(); return err }},
		{"LookupDomain", 1, func() error { _, err := conn.LookupDomain("test"); return err }},
	} {
		for i := 0; i < 10; i++ { // warms the pools
			if err := call.fn(); err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(200, func() {
			if err := call.fn(); err != nil {
				t.Fatal(err)
			}
		})
		if got > call.max && !raceEnabled {
			t.Errorf("%s: %.0f allocs per call, want <= %.0f", call.name, got, call.max)
		}
		t.Logf("%s: %.0f allocs per call", call.name, got)
	}
}
