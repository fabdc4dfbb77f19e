package core

import (
	"sort"
	"sync"

	"repro/internal/events"
	"repro/internal/hyper"
	"repro/internal/uri"
)

// DriverConn is the whole uniform API: every hypervisor driver
// implements every method. The public Connect/Domain objects are thin
// wrappers delegating here, so the same calls run in-process against a
// local driver or are forwarded by the remote driver to a daemon which
// invokes the identical interface on its side — the architecture's key
// property. Like an entry missing from libvirt's driver table, a
// capability a back end lacks answers ErrNoSupport; that code is the
// only way a driver says no, and it crosses the wire unchanged.
type DriverConn interface {
	Close() error
	// Type returns the driver name ("qemu", "xen", "lxc", "test", "remote").
	Type() string
	// Version returns the hypervisor version banner.
	Version() (string, error)
	Hostname() (string, error)
	// CapabilitiesXML returns the capabilities document.
	CapabilitiesXML() (string, error)
	NodeInfo() (NodeInfo, error)

	// Domain management. Domains are addressed by name, which is unique
	// per connection.
	ListDomains(flags ListFlags) ([]string, error)
	LookupDomain(name string) (DomainMeta, error)
	LookupDomainByUUID(uuidStr string) (DomainMeta, error)
	DefineDomain(xmlDesc string) (DomainMeta, error)
	UndefineDomain(name string) error
	CreateDomain(name string) error // start a defined domain
	DestroyDomain(name string) error
	ShutdownDomain(name string) error
	RebootDomain(name string) error
	SuspendDomain(name string) error
	ResumeDomain(name string) error
	DomainInfo(name string) (DomainInfo, error)
	DomainStats(name string) (DomainStats, error)
	DomainXML(name string) (string, error)
	SetDomainMemory(name string, kib uint64) error
	SetDomainVCPUs(name string, n int) error

	// Bulk monitoring: one call (one round trip over the remote driver)
	// instead of a list + per-domain info loop.
	//
	// DomainListInfo returns name+info rows for domains matching flags,
	// or — when names is non-empty — for exactly those names. Names not
	// defined, and domains that disappear mid-sweep, are skipped, not
	// errors.
	DomainListInfo(flags ListFlags, names []string) ([]NamedDomainInfo, error)
	// NodeInventoryInto refreshes *inv in place with the node summary and
	// every domain's row, reusing its Domains capacity (and unchanged
	// name strings) so sweeping a fixed fleet costs no per-sweep
	// allocation. On error the contents of *inv are unspecified (but
	// safe to reuse on the next call).
	NodeInventoryInto(inv *NodeInventory) error

	// Virtual networks.
	ListNetworks() ([]string, error)
	DefineNetwork(xmlDesc string) error
	UndefineNetwork(name string) error
	StartNetwork(name string) error
	StopNetwork(name string) error
	NetworkXML(name string) (string, error)
	NetworkIsActive(name string) (bool, error)
	NetworkDHCPLeases(name string) ([]DHCPLease, error)

	// Storage pools and their volumes.
	ListStoragePools() ([]string, error)
	DefineStoragePool(xmlDesc string) error
	UndefineStoragePool(name string) error
	StartStoragePool(name string) error
	StopStoragePool(name string) error
	StoragePoolXML(name string) (string, error)
	StoragePoolInfo(name string) (StoragePoolInfo, error)
	ListVolumes(pool string) ([]string, error)
	CreateVolume(pool, xmlDesc string) error
	DeleteVolume(pool, name string) error
	VolumeXML(pool, name string) (string, error)

	// Snapshots capture the runtime state (lifecycle state, memory
	// balloon, vCPUs, accounting); reverting discards the current
	// execution.
	//
	// CreateSnapshot captures the named domain's state, described by an
	// optional snapshot XML document ("" for defaults), and returns the
	// snapshot name.
	CreateSnapshot(domain, xmlDesc string) (string, error)
	// ListSnapshots returns the domain's snapshot names, oldest first.
	ListSnapshots(domain string) ([]string, error)
	// SnapshotXML returns a snapshot's description document.
	SnapshotXML(domain, snapshot string) (string, error)
	// RevertSnapshot discards the domain's current state and restores
	// the snapshot, including its lifecycle state.
	RevertSnapshot(domain, snapshot string) error
	// DeleteSnapshot removes a snapshot's record.
	DeleteSnapshot(domain, snapshot string) error

	// Managed save persists a running domain's state on the host and
	// restores it transparently on the next start — the mechanism behind
	// "save all guests across host reboot".
	//
	// ManagedSave stops the running domain, persisting its state; the
	// next CreateDomain restores instead of booting.
	ManagedSave(domain string) error
	// HasManagedSave reports whether a managed save image exists.
	HasManagedSave(domain string) (bool, error)
	// ManagedSaveRemove discards the image so the next start boots fresh.
	ManagedSaveRemove(domain string) error

	// Device hot-plug: attaching adds the device to the definition (and
	// to the live guest where that is meaningful, e.g. leasing an
	// address for a network NIC); detaching removes it by identity.
	AttachDevice(domain, deviceXML string) error
	DetachDevice(domain, deviceXML string) error

	// Inbound live migration: the connection receives page traffic for
	// a prepared (defined) destination domain. A local driver accounts
	// chunks against the destination machine; the remote driver forwards
	// them over dedicated wire procedures so the pooled RPC frame path
	// carries the load.
	//
	// The protocol is prepare → N× pages → finish. MigratePrepare
	// registers the transfer against an already-defined destination
	// domain for streams in [1, MaxMigrateStreams] and returns a cookie
	// scoping the subsequent calls. MigrateFinish(cookie, false) abandons
	// the transfer (abort path); finish-with-commit completes it. During
	// post-copy the destination machine's page-presence model is advanced
	// by every chunk that arrives after the domain started.
	MigratePrepare(domain string, totalPages uint64, streams int) (uint64, error)
	MigratePages(ch *MigrateChunk) error
	MigrateFinish(cookie uint64, commit bool) error
}

// EventSource, WatchSource, ConnHealth and MachineAccess below are the
// only optional driver interfaces: each splits a local driver from the
// remote one, so callers probe for them.

// EventSource is implemented by drivers that can deliver lifecycle
// events.
type EventSource interface {
	EventBus() *events.Bus
}

// WatchHandler receives watch-stream events. gap reports that one or
// more events were lost since the previous delivery — a sequence jump
// from server-side queue overflow, a frame lost in flight, or a
// heartbeat revealing a lost tail. On gap the consumer should run one
// bulk resync sweep instead of trusting its incremental state; when gap
// accompanies a heartbeat, ev carries no event (Type is zero).
type WatchHandler func(ev events.Event, gap bool)

// WatchHandle is one open watch stream.
type WatchHandle interface {
	// Close tears the stream down. Safe to call more than once.
	Close() error
}

// WatchSource is implemented by driver connections that deliver
// sequenced, gap-detecting watch streams — the remote driver, over
// EventSubscribe and ProcEventWatch frames. Local drivers don't need
// it: Connect.WatchEvents adapts their event bus, which never gaps.
type WatchSource interface {
	WatchEvents(domain string, types []events.Type, h WatchHandler) (WatchHandle, error)
}

// ConnHealth is implemented by driver connections that can report
// transport liveness without a round trip (the remote driver tracks its
// RPC client's state; keepalive failures flip it). Connections not
// implementing it are presumed alive.
type ConnHealth interface {
	Alive() bool
}

// MachineAccess is implemented by local drivers whose domains are backed
// by the simulation substrate; the migration engine and workload clock
// use it. Remote connections do not expose it.
type MachineAccess interface {
	Machine(name string) (*hyper.Machine, error)
}

// DHCPLease is one lease on a virtual network.
type DHCPLease struct {
	MAC      string
	IP       string
	Hostname string
}

// StoragePoolInfo summarises a pool's space accounting.
type StoragePoolInfo struct {
	Active        bool
	CapacityKiB   uint64
	AllocationKiB uint64
	AvailableKiB  uint64
}

// MigrateChunk is one page-chunk delivery to a migration sink. Stream
// identifies which of the sender's parallel streams carried it, Pages is
// the chunk's page count (the authoritative accounting), and Data a
// representative payload so the chunk exercises the real frame path.
// Priority marks a post-copy demand-fault pull, which rides the priority
// stream rather than the background copy streams.
type MigrateChunk struct {
	Cookie   uint64
	Stream   int
	Round    int
	Pages    uint64
	Priority bool
	Data     []byte
}

// DriverFactory opens a driver connection for a parsed URI.
type DriverFactory func(u *uri.URI) (DriverConn, error)

// registry maps URI schemes to local driver factories, with an optional
// fallback (the remote driver) for unrecognised or remote URIs.
var registry = struct {
	sync.Mutex
	factories map[string]DriverFactory
	fallback  DriverFactory
}{factories: make(map[string]DriverFactory)}

// Register installs a local driver factory for a URI scheme. Later
// registrations replace earlier ones, matching driver-probing order
// being a link-time decision.
func Register(scheme string, f DriverFactory) {
	registry.Lock()
	defer registry.Unlock()
	registry.factories[scheme] = f
}

// RegisterRemote installs the fallback factory used when the URI is
// remote or no local driver claims the scheme.
func RegisterRemote(f DriverFactory) {
	registry.Lock()
	defer registry.Unlock()
	registry.fallback = f
}

// RegisteredSchemes lists the local schemes, sorted (diagnostics).
func RegisteredSchemes() []string {
	registry.Lock()
	defer registry.Unlock()
	out := make([]string, 0, len(registry.factories))
	for s := range registry.factories {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// lookupFactory picks the factory for a URI: remote URIs always go to
// the fallback (the hypervisor driver runs daemon-side); local URIs go
// to the local driver, then the fallback.
func lookupFactory(u *uri.URI) (DriverFactory, error) {
	registry.Lock()
	defer registry.Unlock()
	if u.IsRemote() {
		if registry.fallback == nil {
			return nil, Errorf(ErrNoSupport, "no remote driver registered for %q", u.String())
		}
		return registry.fallback, nil
	}
	if f, ok := registry.factories[u.Driver]; ok {
		return f, nil
	}
	if registry.fallback != nil {
		return registry.fallback, nil
	}
	return nil, Errorf(ErrNoSupport, "no driver for URI scheme %q", u.Driver)
}

// ResetRegistryForTest clears all registrations; only tests use it.
func ResetRegistryForTest() {
	registry.Lock()
	defer registry.Unlock()
	registry.factories = make(map[string]DriverFactory)
	registry.fallback = nil
}
