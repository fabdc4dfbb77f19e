// Package wire defines the remote management protocol spoken between the
// remote driver and the daemon: procedure numbers and the XDR payload
// structures of every call and reply. Both sides import this package, so
// the protocol has a single definition.
//
// Forward compatibility follows the typed-parameter convention: calls
// whose argument set may grow carry a list of typed parameters instead of
// a fixed struct, so adding an attribute never changes a payload layout.
package wire

import "repro/internal/rpc"

// Remote program procedures. Numbers are part of the protocol and must
// never be reused.
const (
	ProcConnectOpen uint32 = 1 + iota
	ProcConnectClose
	ProcGetType
	ProcGetVersion
	ProcGetHostname
	ProcGetCapabilities
	ProcNodeGetInfo
	ProcDomainList
	ProcDomainLookupByName
	ProcDomainLookupByUUID
	ProcDomainDefine
	ProcDomainUndefine
	ProcDomainCreate
	ProcDomainDestroy
	ProcDomainShutdown
	ProcDomainReboot
	ProcDomainSuspend
	ProcDomainResume
	ProcDomainGetInfo
	ProcDomainGetStats
	ProcDomainGetXML
	ProcDomainSetMemory
	ProcDomainSetVCPUs
	ProcNetworkList
	ProcNetworkDefine
	ProcNetworkUndefine
	ProcNetworkStart
	ProcNetworkStop
	ProcNetworkGetXML
	ProcNetworkIsActive
	ProcNetworkDHCPLeases
	ProcPoolList
	ProcPoolDefine
	ProcPoolUndefine
	ProcPoolStart
	ProcPoolStop
	ProcPoolGetXML
	ProcPoolGetInfo
	ProcVolList
	ProcVolCreate
	ProcVolDelete
	ProcVolGetXML
	_ // 43: retired with the legacy event subscription (was EventRegister)
	_ // 44: retired with the legacy event subscription (was EventDeregister)
	ProcAuthList
	ProcAuthSASLStart
	ProcSnapshotCreate
	ProcSnapshotList
	ProcSnapshotGetXML
	ProcSnapshotRevert
	ProcSnapshotDelete
	ProcManagedSave
	ProcHasManagedSave
	ProcManagedSaveRemove
	ProcDeviceAttach
	ProcDeviceDetach
	ProcDomainListInfo
	ProcNodeInventory
	ProcEventSubscribe
	ProcEventUnsubscribe
	ProcMigratePrepare
	ProcMigratePages
	ProcMigratePagePull
	ProcMigrateFinish
)

// ProcEventWatch is the procedure number of watch-stream event frames
// (server → client): sequenced, queue-bounded lifecycle notifications
// established with ProcEventSubscribe. It is not callable and has no
// row in Procs. 1000 carried the legacy per-callback event frames and
// is retired like 43 and 44.
const ProcEventWatch uint32 = 1001

// Procs is the remote program's procedure table, indexed by procedure
// number: the one declaration of every procedure's name and of how the
// daemon treats it before dispatch. Priority marks procedures that
// never wait on a hypervisor. Object marks payloads that lead with the
// name or UUID of the object the call acts on — what a QoS ACL object
// pattern is matched against; every other procedure is matched with no
// object. TestObjectFlagMatchesArgs checks the flag against the
// argument types.
var Procs = []rpc.Proc{
	ProcConnectOpen:        {Name: "ConnectOpen", Priority: true},
	ProcConnectClose:       {Name: "ConnectClose", Priority: true},
	ProcGetType:            {Name: "GetType", Priority: true},
	ProcGetVersion:         {Name: "GetVersion"},
	ProcGetHostname:        {Name: "GetHostname", Priority: true},
	ProcGetCapabilities:    {Name: "GetCapabilities"},
	ProcNodeGetInfo:        {Name: "NodeGetInfo"},
	ProcDomainList:         {Name: "DomainList", Priority: true},
	ProcDomainLookupByName: {Name: "DomainLookupByName", Priority: true, Object: true},
	ProcDomainLookupByUUID: {Name: "DomainLookupByUUID", Priority: true, Object: true},
	ProcDomainDefine:       {Name: "DomainDefine"},
	ProcDomainUndefine:     {Name: "DomainUndefine", Object: true},
	ProcDomainCreate:       {Name: "DomainCreate", Object: true},
	ProcDomainDestroy:      {Name: "DomainDestroy", Object: true},
	ProcDomainShutdown:     {Name: "DomainShutdown", Object: true},
	ProcDomainReboot:       {Name: "DomainReboot", Object: true},
	ProcDomainSuspend:      {Name: "DomainSuspend", Object: true},
	ProcDomainResume:       {Name: "DomainResume", Object: true},
	ProcDomainGetInfo:      {Name: "DomainGetInfo", Object: true},
	ProcDomainGetStats:     {Name: "DomainGetStats", Object: true},
	ProcDomainGetXML:       {Name: "DomainGetXML", Object: true},
	ProcDomainSetMemory:    {Name: "DomainSetMemory", Object: true},
	ProcDomainSetVCPUs:     {Name: "DomainSetVCPUs", Object: true},
	ProcNetworkList:        {Name: "NetworkList"},
	ProcNetworkDefine:      {Name: "NetworkDefine"},
	ProcNetworkUndefine:    {Name: "NetworkUndefine", Object: true},
	ProcNetworkStart:       {Name: "NetworkStart", Object: true},
	ProcNetworkStop:        {Name: "NetworkStop", Object: true},
	ProcNetworkGetXML:      {Name: "NetworkGetXML", Object: true},
	ProcNetworkIsActive:    {Name: "NetworkIsActive", Object: true},
	ProcNetworkDHCPLeases:  {Name: "NetworkDHCPLeases", Object: true},
	ProcPoolList:           {Name: "PoolList"},
	ProcPoolDefine:         {Name: "PoolDefine"},
	ProcPoolUndefine:       {Name: "PoolUndefine", Object: true},
	ProcPoolStart:          {Name: "PoolStart", Object: true},
	ProcPoolStop:           {Name: "PoolStop", Object: true},
	ProcPoolGetXML:         {Name: "PoolGetXML", Object: true},
	ProcPoolGetInfo:        {Name: "PoolGetInfo", Object: true},
	ProcVolList:            {Name: "VolList", Object: true},
	ProcVolCreate:          {Name: "VolCreate", Object: true},
	ProcVolDelete:          {Name: "VolDelete", Object: true},
	ProcVolGetXML:          {Name: "VolGetXML", Object: true},
	ProcAuthList:           {Name: "AuthList", Priority: true, PreAuth: true},
	ProcAuthSASLStart:      {Name: "AuthSASLStart", Priority: true, PreAuth: true},
	ProcSnapshotCreate:     {Name: "SnapshotCreate", Object: true},
	ProcSnapshotList:       {Name: "SnapshotList", Object: true},
	ProcSnapshotGetXML:     {Name: "SnapshotGetXML", Object: true},
	ProcSnapshotRevert:     {Name: "SnapshotRevert", Object: true},
	ProcSnapshotDelete:     {Name: "SnapshotDelete", Object: true},
	ProcManagedSave:        {Name: "ManagedSave", Object: true},
	ProcHasManagedSave:     {Name: "HasManagedSave", Object: true},
	ProcManagedSaveRemove:  {Name: "ManagedSaveRemove", Object: true},
	ProcDeviceAttach:       {Name: "DeviceAttach", Object: true},
	ProcDeviceDetach:       {Name: "DeviceDetach", Object: true},
	ProcDomainListInfo:     {Name: "DomainListInfo"},
	ProcNodeInventory:      {Name: "NodeInventory"},
	ProcEventSubscribe:     {Name: "EventSubscribe", Priority: true, Object: true},
	ProcEventUnsubscribe:   {Name: "EventUnsubscribe", Priority: true},
	// Migration control and post-copy demand-fault pulls must not queue
	// behind a flood of background page chunks: the pull stream is what
	// bounds guest stalls after switch-over.
	ProcMigratePrepare:  {Name: "MigratePrepare", Priority: true, Object: true},
	ProcMigratePages:    {Name: "MigratePages"},
	ProcMigratePagePull: {Name: "MigratePagePull", Priority: true},
	ProcMigrateFinish:   {Name: "MigrateFinish", Priority: true},
}

// ConnectOpenArgs carries the effective URI the client wants the daemon
// to open with its server-side drivers.
type ConnectOpenArgs struct {
	URI string
}

// NameArgs addresses an object by name.
type NameArgs struct {
	Name string
}

// UUIDArgs addresses a domain by UUID.
type UUIDArgs struct {
	UUID string
}

// XMLArgs carries a definition document.
type XMLArgs struct {
	XML string
}

// StringReply returns one string.
type StringReply struct {
	Value string
}

// BoolReply returns one boolean.
type BoolReply struct {
	Value bool
}

// DomainListArgs selects which domains to list.
type DomainListArgs struct {
	Flags uint32
}

// NameListReply returns object names.
type NameListReply struct {
	Names []string
}

// DomainMeta is a domain identity tuple on the wire.
type DomainMeta struct {
	Name string
	UUID string
	ID   int32
}

// DomainMetaReply returns one domain identity.
type DomainMetaReply struct {
	Meta DomainMeta
}

// DomainInfoReply returns the compact info block.
type DomainInfoReply struct {
	State     uint32
	MaxMemKiB uint64
	MemKiB    uint64
	VCPUs     uint32
	CPUTimeNs uint64
}

// DomainStatsReply returns the extended monitoring snapshot.
type DomainStatsReply struct {
	State      uint32
	CPUTimeNs  uint64
	MemKiB     uint64
	MaxMemKiB  uint64
	VCPUs      uint32
	RdBytes    uint64
	WrBytes    uint64
	RdReqs     uint64
	WrReqs     uint64
	RxBytes    uint64
	TxBytes    uint64
	RxPkts     uint64
	TxPkts     uint64
	DirtyPages uint64
}

// SetMemoryArgs balloons a domain.
type SetMemoryArgs struct {
	Name   string
	MemKiB uint64
}

// SetVCPUsArgs adjusts a domain's vCPU count.
type SetVCPUsArgs struct {
	Name  string
	VCPUs uint32
}

// NodeInfoReply returns the host summary.
type NodeInfoReply struct {
	Model     string
	MemoryKiB uint64
	CPUs      uint32
	MHz       uint32
	NUMANodes uint32
	Sockets   uint32
	Cores     uint32
	Threads   uint32
}

// DHCPLease is one lease on the wire.
type DHCPLease struct {
	MAC      string
	IP       string
	Hostname string
}

// LeasesReply returns DHCP leases.
type LeasesReply struct {
	Leases []DHCPLease
}

// PoolInfoReply returns pool space accounting.
type PoolInfoReply struct {
	Active        bool
	CapacityKiB   uint64
	AllocationKiB uint64
	AvailableKiB  uint64
}

// VolArgs addresses a volume within a pool.
type VolArgs struct {
	Pool string
	Name string
}

// VolCreateArgs creates a volume within a pool.
type VolCreateArgs struct {
	Pool string
	XML  string
}

// EventSubscribeArgs opens a watch stream on the connection: sequenced
// lifecycle events filtered to one domain name ("" for all) and an
// event-type set (empty for all), delivered as TypeEvent frames with
// the ProcEventWatch procedure number.
type EventSubscribeArgs struct {
	Domain string
	Types  []uint32
}

// EventSubscribeReply returns the server-side subscription id plus the
// effective queue bounds, so the client knows how much loss-free burst
// the stream absorbs before events start coalescing and dropping.
type EventSubscribeReply struct {
	SubscriptionID int32
	QueueDepth     uint32
	CoalesceMs     uint32
}

// EventUnsubscribeArgs tears a watch stream down.
type EventUnsubscribeArgs struct {
	SubscriptionID int32
}

// WatchEvent is the payload of watch-stream event frames. Seq is
// assigned per subscription when the event is queued and the stream
// delivers queued events in order, so a receiver that observes Seq jump
// by more than one knows events were lost (queue overflow server-side,
// or a frame lost in flight) and can run one resync sweep. A frame with
// Type 0 is a heartbeat: it carries the last assigned Seq and no event,
// closing the tail-loss window after a burst.
type WatchEvent struct {
	SubscriptionID int32
	Seq            uint64
	Type           uint32
	Domain         string
	UUID           string
	Detail         string
	BusSeq         uint64 // emitting bus's own sequence number
	Coalesced      uint32 // earlier same-domain events absorbed into this frame
}

// SnapshotCreateArgs captures a snapshot of a domain.
type SnapshotCreateArgs struct {
	Domain string
	XML    string
}

// SnapshotArgs addresses one snapshot of a domain.
type SnapshotArgs struct {
	Domain string
	Name   string
}

// DeviceArgs carries a standalone device document for attach/detach.
type DeviceArgs struct {
	Domain string
	XML    string
}

// AuthListReply advertises the authentication mechanisms the service
// requires, in preference order. Empty means none.
type AuthListReply struct {
	Mechanisms []string
}

// SASLStartArgs carries one authentication step from the client.
type SASLStartArgs struct {
	Mechanism string
	Data      []byte
}

// SASLStartReply carries the server's verdict.
type SASLStartReply struct {
	Complete bool
	Data     []byte
}

// DomainListInfoArgs selects domains for a bulk info sweep. Flags
// filters like DomainList; Names, when non-empty, restricts the sweep
// to exactly those domains instead.
type DomainListInfoArgs struct {
	Flags uint32
	Names []string
}

// DomainInfoRow pairs one domain's name with its compact info block in
// bulk monitoring replies. Field widths deliberately mirror the XDR
// encoding of core.NamedDomainInfo (int encodes as 64-bit), so the
// daemon and the remote driver encode and decode the core row type
// directly — a bulk sweep crosses the boundary with zero per-row
// conversion. TestDomainInfoRowMatchesCore pins the equivalence.
type DomainInfoRow struct {
	Name      string
	State     int64
	MaxMemKiB uint64
	MemKiB    uint64
	VCPUs     int64
	CPUTimeNs uint64
}

// DomainListInfoReply returns one row per matched domain — the bulk
// counterpart of N DomainGetInfo round trips.
type DomainListInfoReply struct {
	Domains []DomainInfoRow
}

// NodeInventoryReply returns the node summary plus every domain's info
// in a single round trip: one call replaces the NodeGetInfo +
// DomainList + N×DomainGetInfo monitoring sweep.
type NodeInventoryReply struct {
	Node    NodeInfoReply
	Domains []DomainInfoRow
}

// MigratePrepareArgs registers an inbound live migration against an
// already-defined destination domain. TotalPages sizes the receiver's
// page accounting; Streams announces how many parallel copy streams the
// source will use.
type MigratePrepareArgs struct {
	Domain     string
	TotalPages uint64
	Streams    uint32
}

// MigratePrepareReply returns the cookie scoping the transfer's
// subsequent MigratePages/MigrateFinish calls.
type MigratePrepareReply struct {
	Cookie uint64
}

// MigratePagesArgs carries one page chunk of a live migration. Pages is
// the authoritative accounting; Data is a representative payload so the
// chunk crosses the pooled frame path like real memory would. The same
// payload serves ProcMigratePages (background copy streams) and
// ProcMigratePagePull (post-copy demand faults on the priority stream).
type MigratePagesArgs struct {
	Cookie uint64
	Stream uint32
	Round  uint32
	Pages  uint64
	Data   []byte
}

// MigrateFinishArgs completes (Commit) or abandons an inbound migration.
type MigrateFinishArgs struct {
	Cookie uint64
	Commit bool
}
