// Package wire_test verifies that every payload structure of the remote
// protocol survives an XDR round trip unchanged — the compatibility
// property the whole client/daemon split depends on.
package wire_test

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// roundTrip marshals v, unmarshals into a fresh value of the same type
// and compares.
func roundTrip(t *testing.T, v interface{}) {
	t.Helper()
	data, err := rpc.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	out := reflect.New(reflect.TypeOf(v).Elem()).Interface()
	if err := rpc.Unmarshal(data, out); err != nil {
		t.Fatalf("unmarshal %T: %v", v, err)
	}
	if !payloadEqual(v, out) {
		t.Fatalf("%T round trip mismatch:\n in: %+v\nout: %+v", v, v, out)
	}
}

// payloadEqual is DeepEqual with nil/empty slice equivalence, since XDR
// cannot distinguish them.
func payloadEqual(a, b interface{}) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Slice && fa.Len() == 0 && fb.Len() == 0 {
			continue
		}
		if !reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			return false
		}
	}
	return true
}

func TestAllPayloadsRoundTrip(t *testing.T) {
	payloads := []interface{}{
		&wire.ConnectOpenArgs{URI: "qsim+tcp://host:16509/system?x=1"},
		&wire.NameArgs{Name: "dom"},
		&wire.UUIDArgs{UUID: "11111111-2222-3333-4444-555555555555"},
		&wire.XMLArgs{XML: "<domain type='qsim'><name>x</name></domain>"},
		&wire.StringReply{Value: "banner"},
		&wire.BoolReply{Value: true},
		&wire.DomainListArgs{Flags: 3},
		&wire.NameListReply{Names: []string{"a", "b", "c"}},
		&wire.DomainMetaReply{Meta: wire.DomainMeta{Name: "d", UUID: "u", ID: -1}},
		&wire.DomainInfoReply{State: 1, MaxMemKiB: 1 << 40, MemKiB: 512, VCPUs: 8, CPUTimeNs: 42},
		&wire.DomainStatsReply{State: 5, CPUTimeNs: 1, RdBytes: 2, WrBytes: 3, DirtyPages: 99},
		&wire.SetMemoryArgs{Name: "d", MemKiB: 1024},
		&wire.SetVCPUsArgs{Name: "d", VCPUs: 4},
		&wire.NodeInfoReply{Model: "sim", MemoryKiB: 1 << 30, CPUs: 64, MHz: 2800, NUMANodes: 2, Sockets: 2, Cores: 16, Threads: 2},
		&wire.LeasesReply{Leases: []wire.DHCPLease{{MAC: "52:54:00:00:00:01", IP: "10.0.0.2", Hostname: "g"}}},
		&wire.PoolInfoReply{Active: true, CapacityKiB: 100, AllocationKiB: 40, AvailableKiB: 60},
		&wire.VolArgs{Pool: "p", Name: "v"},
		&wire.VolCreateArgs{Pool: "p", XML: "<volume/>"},
		&wire.AuthListReply{Mechanisms: []string{"SIM-PLAIN"}},
		&wire.SASLStartArgs{Mechanism: "SIM-PLAIN", Data: []byte{1, 0, 2}},
		&wire.SASLStartReply{Complete: true, Data: []byte{}},
		&wire.SnapshotCreateArgs{Domain: "d", XML: "<domainsnapshot/>"},
		&wire.SnapshotArgs{Domain: "d", Name: "s"},
		&wire.MigratePrepareArgs{Domain: "d", TotalPages: 1 << 20, Streams: 8},
		&wire.MigratePrepareReply{Cookie: 0xfeed},
		&wire.MigratePagesArgs{Cookie: 0xfeed, Stream: 3, Round: 2, Pages: 16384, Data: []byte{9, 8, 7}},
		&wire.MigrateFinishArgs{Cookie: 0xfeed, Commit: true},
	}
	for _, p := range payloads {
		roundTrip(t, p)
	}
}

// protocol is the golden list of the remote protocol: every procedure
// number ever assigned, its name, and the argument structure its payload
// decodes into (nil for procedures that take none). Numbers are
// protocol constants — a row here never changes, and a retired number
// stays listed as reserved so it is never handed out again.
var protocol = []struct {
	num  uint32
	name string
	args interface{}
}{
	{1, "ConnectOpen", wire.ConnectOpenArgs{}},
	{2, "ConnectClose", nil},
	{3, "GetType", nil},
	{4, "GetVersion", nil},
	{5, "GetHostname", nil},
	{6, "GetCapabilities", nil},
	{7, "NodeGetInfo", nil},
	{8, "DomainList", wire.DomainListArgs{}},
	{9, "DomainLookupByName", wire.NameArgs{}},
	{10, "DomainLookupByUUID", wire.UUIDArgs{}},
	{11, "DomainDefine", wire.XMLArgs{}},
	{12, "DomainUndefine", wire.NameArgs{}},
	{13, "DomainCreate", wire.NameArgs{}},
	{14, "DomainDestroy", wire.NameArgs{}},
	{15, "DomainShutdown", wire.NameArgs{}},
	{16, "DomainReboot", wire.NameArgs{}},
	{17, "DomainSuspend", wire.NameArgs{}},
	{18, "DomainResume", wire.NameArgs{}},
	{19, "DomainGetInfo", wire.NameArgs{}},
	{20, "DomainGetStats", wire.NameArgs{}},
	{21, "DomainGetXML", wire.NameArgs{}},
	{22, "DomainSetMemory", wire.SetMemoryArgs{}},
	{23, "DomainSetVCPUs", wire.SetVCPUsArgs{}},
	{24, "NetworkList", nil},
	{25, "NetworkDefine", wire.XMLArgs{}},
	{26, "NetworkUndefine", wire.NameArgs{}},
	{27, "NetworkStart", wire.NameArgs{}},
	{28, "NetworkStop", wire.NameArgs{}},
	{29, "NetworkGetXML", wire.NameArgs{}},
	{30, "NetworkIsActive", wire.NameArgs{}},
	{31, "NetworkDHCPLeases", wire.NameArgs{}},
	{32, "PoolList", nil},
	{33, "PoolDefine", wire.XMLArgs{}},
	{34, "PoolUndefine", wire.NameArgs{}},
	{35, "PoolStart", wire.NameArgs{}},
	{36, "PoolStop", wire.NameArgs{}},
	{37, "PoolGetXML", wire.NameArgs{}},
	{38, "PoolGetInfo", wire.NameArgs{}},
	{39, "VolList", wire.NameArgs{}},
	{40, "VolCreate", wire.VolCreateArgs{}},
	{41, "VolDelete", wire.VolArgs{}},
	{42, "VolGetXML", wire.VolArgs{}},
	{43, reserved, nil}, // was EventRegister
	{44, reserved, nil}, // was EventDeregister
	{45, "AuthList", nil},
	{46, "AuthSASLStart", wire.SASLStartArgs{}},
	{47, "SnapshotCreate", wire.SnapshotCreateArgs{}},
	{48, "SnapshotList", wire.NameArgs{}},
	{49, "SnapshotGetXML", wire.SnapshotArgs{}},
	{50, "SnapshotRevert", wire.SnapshotArgs{}},
	{51, "SnapshotDelete", wire.SnapshotArgs{}},
	{52, "ManagedSave", wire.NameArgs{}},
	{53, "HasManagedSave", wire.NameArgs{}},
	{54, "ManagedSaveRemove", wire.NameArgs{}},
	{55, "DeviceAttach", wire.DeviceArgs{}},
	{56, "DeviceDetach", wire.DeviceArgs{}},
	{57, "DomainListInfo", wire.DomainListInfoArgs{}},
	{58, "NodeInventory", nil},
	{59, "EventSubscribe", wire.EventSubscribeArgs{}},
	{60, "EventUnsubscribe", wire.EventUnsubscribeArgs{}},
	{61, "MigratePrepare", wire.MigratePrepareArgs{}},
	{62, "MigratePages", wire.MigratePagesArgs{}},
	{63, "MigratePagePull", wire.MigratePagesArgs{}},
	{64, "MigrateFinish", wire.MigrateFinishArgs{}},
	{1000, reserved, nil}, // was the EventLifecycle frame
	{1001, "EventWatch", nil},
}

const reserved = "reserved"

// TestProcedureNumbersAreStable holds wire.Procs to the golden list in
// both directions: no procedure renumbered or renamed, none added to the
// table without a line here, no reserved number back in use.
func TestProcedureNumbersAreStable(t *testing.T) {
	listed := make(map[uint32]bool)
	for _, g := range protocol {
		if listed[g.num] {
			t.Errorf("number %d listed twice", g.num)
		}
		listed[g.num] = true
		var got string
		switch {
		case int(g.num) < len(wire.Procs):
			got = wire.Procs[g.num].Name
		case g.num == wire.ProcEventWatch:
			got = "EventWatch" // an event frame, not a table row
		}
		want := g.name
		if want == reserved {
			want = "" // a blank row
		}
		if got != want {
			t.Errorf("procedure %d is %q, the protocol says %q", g.num, got, g.name)
		}
	}
	seen := make(map[string]uint32)
	for num, row := range wire.Procs {
		if row.Name == "" {
			continue
		}
		if !listed[uint32(num)] {
			t.Errorf("procedure %d (%s) is missing from the golden list", num, row.Name)
		}
		if prev, dup := seen[row.Name]; dup {
			t.Errorf("procedures %d and %d share the name %s", prev, num, row.Name)
		}
		seen[row.Name] = uint32(num)
	}
}

// TestObjectFlagMatchesArgs checks each row's Object flag against the
// payload it describes. A flagged row must decode into a structure whose
// first field is a string — that is the field the daemon hands to the
// ACL. The other way round, a payload leading with an object's name must
// be flagged, or a rule written against that name silently never
// matches.
func TestObjectFlagMatchesArgs(t *testing.T) {
	nameFields := map[string]bool{"Name": true, "UUID": true, "Domain": true, "Pool": true}
	for _, g := range protocol {
		if int(g.num) >= len(wire.Procs) || g.name == reserved {
			continue
		}
		row := wire.Procs[g.num]
		if g.args == nil {
			if row.Object {
				t.Errorf("%s takes no arguments but is flagged Object", g.name)
			}
			continue
		}
		// ConnectOpen, the three Define procedures and AuthSASLStart lead
		// with a string too, and are deliberately unflagged: a URI, an XML
		// document and a mechanism name are not object names.
		first := reflect.TypeOf(g.args).Field(0)
		if named := first.Type.Kind() == reflect.String && nameFields[first.Name]; named != row.Object {
			t.Errorf("%s: Object=%v but its payload leads with %s %s", g.name, row.Object, first.Name, first.Type)
		}
	}
}

// TestDomainInfoRowMatchesCore pins the zero-conversion contract of the
// bulk monitoring procedures: the daemon marshals []core.NamedDomainInfo
// and the remote driver unmarshals into it, with wire.DomainInfoRow
// documenting the layout. If the encodings ever diverge, the fast path
// silently corrupts sweeps — so byte equality is asserted here.
func TestDomainInfoRowMatchesCore(t *testing.T) {
	wireRows := wire.DomainListInfoReply{Domains: []wire.DomainInfoRow{
		{Name: "vm-1", State: int64(core.DomainRunning), MaxMemKiB: 1 << 40, MemKiB: 4096, VCPUs: 8, CPUTimeNs: 123456789},
		{Name: "", State: int64(core.DomainShutoff), MaxMemKiB: 0, MemKiB: 0, VCPUs: 0, CPUTimeNs: 0},
		{Name: "padding-check", State: int64(core.DomainCrashed), MaxMemKiB: 7, MemKiB: 3, VCPUs: 2, CPUTimeNs: 1},
	}}
	coreRows := struct{ Domains []core.NamedDomainInfo }{[]core.NamedDomainInfo{
		{Name: "vm-1", Info: core.DomainInfo{State: core.DomainRunning, MaxMemKiB: 1 << 40, MemKiB: 4096, VCPUs: 8, CPUTimeNs: 123456789}},
		{Name: "", Info: core.DomainInfo{State: core.DomainShutoff}},
		{Name: "padding-check", Info: core.DomainInfo{State: core.DomainCrashed, MaxMemKiB: 7, MemKiB: 3, VCPUs: 2, CPUTimeNs: 1}},
	}}
	a, err := rpc.Marshal(&wireRows)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rpc.Marshal(&coreRows)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("wire.DomainInfoRow and core.NamedDomainInfo encodings diverge:\nwire %x\ncore %x", a, b)
	}
	var back struct{ Domains []core.NamedDomainInfo }
	if err := rpc.Unmarshal(a, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Domains, coreRows.Domains) {
		t.Fatalf("decode into core rows diverges:\n in %+v\nout %+v", coreRows.Domains, back.Domains)
	}
}

func TestQuickStatsRoundTrip(t *testing.T) {
	f := func(r wire.DomainStatsReply) bool {
		data, err := rpc.Marshal(&r)
		if err != nil {
			return false
		}
		var out wire.DomainStatsReply
		if err := rpc.Unmarshal(data, &out); err != nil {
			return false
		}
		return out == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMetaRoundTrip(t *testing.T) {
	f := func(name, uuid string, id int32) bool {
		in := wire.DomainMetaReply{Meta: wire.DomainMeta{Name: name, UUID: uuid, ID: id}}
		data, err := rpc.Marshal(&in)
		if err != nil {
			return false
		}
		var out wire.DomainMetaReply
		if err := rpc.Unmarshal(data, &out); err != nil {
			return false
		}
		return out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
