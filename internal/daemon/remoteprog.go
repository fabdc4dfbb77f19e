package daemon

import (
	"bytes"
	"crypto/subtle"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/rpc"
	"repro/internal/uri"
	"repro/internal/watch"
	"repro/internal/wire"
)

// invPool recycles NodeInventory values between ProcNodeInventory
// requests so their row storage survives across a monitoring poller's
// sweeps.
var invPool = sync.Pool{New: func() interface{} { return new(core.NodeInventory) }}

// remoteState is the per-client state of the remote program. Dispatch
// runs on workerpool goroutines and ClientClosed on the reader, so all
// fields are guarded: an in-flight job must never race the teardown.
type remoteState struct {
	mu      sync.Mutex
	conn    *core.Connect
	watches map[int32]*watchSub // subscription id -> watch stream
	nextSub int32
}

// watchSub ties one watch subscriber queue to its bus subscription.
type watchSub struct {
	sub   *watch.Subscriber
	busID int
}

// RemoteProgram dispatches the hypervisor management protocol. Each
// client opens its own server-side driver connection, so the daemon
// invokes the very same driver interface the client would use locally.
type RemoteProgram struct {
	srv *Server
}

// NewRemoteProgram creates the management program for a server.
func NewRemoteProgram(srv *Server) *RemoteProgram {
	return &RemoteProgram{srv: srv}
}

// ID implements Program.
func (p *RemoteProgram) ID() uint32 { return rpc.ProgramRemote }

// Procs implements Program.
func (p *RemoteProgram) Procs() []rpc.Proc { return wire.Procs }

// ClientClosed implements Program: release the driver connection and
// event subscriptions.
func (p *RemoteProgram) ClientClosed(c *Client) {
	st := p.state(c)
	st.mu.Lock()
	conn := st.conn
	st.conn = nil
	watches := st.watches
	st.watches = make(map[int32]*watchSub)
	st.mu.Unlock()
	if conn != nil {
		if src, ok := conn.Driver().(core.EventSource); ok {
			for _, ws := range watches {
				src.EventBus().Unsubscribe(ws.busID)
			}
		}
		for _, ws := range watches {
			ws.sub.Close()
		}
		conn.Close() //nolint:errcheck
	}
}

func (p *RemoteProgram) state(c *Client) *remoteState {
	return c.ProgState(rpc.ProgramRemote, func() interface{} {
		return &remoteState{watches: make(map[int32]*watchSub)}
	}).(*remoteState)
}

// conn returns the client's open driver connection.
func (p *RemoteProgram) conn(c *Client) (*core.Connect, error) {
	st := p.state(c)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.conn == nil {
		return nil, core.Errorf(core.ErrNoConnect, "no connection open; call ConnectOpen first")
	}
	return st.conn, nil
}

// Dispatch implements Program.
func (p *RemoteProgram) Dispatch(c *Client, proc uint32, payload, reply []byte) ([]byte, error) {
	if uint64(proc) >= uint64(len(handlers)) || handlers[proc] == nil {
		return nil, core.Errorf(core.ErrNoSupport, "unknown procedure %d", proc)
	}
	return handlers[proc](p, c, payload, reply)
}

// handler executes one procedure for a client and returns the
// marshalled reply, appended to reply.
type handler func(p *RemoteProgram, c *Client, payload, reply []byte) ([]byte, error)

// noArgs adapts a procedure that takes nothing: it runs on the client's
// open driver connection and never reads the payload.
func noArgs[R any](fn func(conn *core.Connect) (R, error)) handler {
	return func(p *RemoteProgram, c *Client, _, reply []byte) ([]byte, error) {
		conn, err := p.conn(c)
		if err != nil {
			return nil, err
		}
		r, err := fn(conn)
		if err != nil {
			return nil, err
		}
		return encode(reply, &r)
	}
}

// withArgs adapts a procedure whose payload decodes into an A. The
// arguments and the reply pass by value, so neither leaves the worker's
// stack.
func withArgs[A, R any](fn func(conn *core.Connect, args A) (R, error)) handler {
	return func(p *RemoteProgram, c *Client, payload, reply []byte) ([]byte, error) {
		conn, err := p.conn(c)
		if err != nil {
			return nil, err
		}
		var args A
		if err := c.conn.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		r, err := fn(conn, args)
		if err != nil {
			return nil, err
		}
		return encode(reply, &r)
	}
}

// nameOp adapts an operation on one named object that returns nothing.
func nameOp(op func(conn *core.Connect, name string) error) handler {
	return withArgs(func(conn *core.Connect, a wire.NameArgs) (struct{}, error) {
		return void(op(conn, a.Name))
	})
}

// onDriver lets nameOp take a core.DriverConn method expression.
func onDriver(op func(core.DriverConn, string) error) func(*core.Connect, string) error {
	return func(conn *core.Connect, name string) error { return op(conn.Driver(), name) }
}

// migratePages serves both page-chunk procedures; pull marks the
// post-copy demand faults that ride the priority workers.
func migratePages(pull bool) handler {
	return withArgs(func(c *core.Connect, a wire.MigratePagesArgs) (struct{}, error) {
		return void(c.Driver().MigratePages(&core.MigrateChunk{
			Cookie:   a.Cookie,
			Stream:   int(a.Stream),
			Round:    int(a.Round),
			Pages:    a.Pages,
			Priority: pull,
			Data:     a.Data,
		}))
	})
}

// handlers holds the implementation of every row of wire.Procs, indexed
// by procedure number like the table itself: adding a procedure is a
// row there, an entry here and a method on remote.Conn
// (TestProcTablesComplete fails on a row without an entry or the
// reverse).
var handlers = []handler{
	wire.ProcConnectOpen: (*RemoteProgram).connectOpen,
	wire.ProcConnectClose: func(p *RemoteProgram, c *Client, _, reply []byte) ([]byte, error) {
		p.ClientClosed(c)
		return reply, nil
	},
	wire.ProcGetType:         noArgs(func(c *core.Connect) (wire.StringReply, error) { return str(c.Type()) }),
	wire.ProcGetVersion:      noArgs(func(c *core.Connect) (wire.StringReply, error) { return str(c.Version()) }),
	wire.ProcGetHostname:     noArgs(func(c *core.Connect) (wire.StringReply, error) { return str(c.Hostname()) }),
	wire.ProcGetCapabilities: noArgs(func(c *core.Connect) (wire.StringReply, error) { return str(c.CapabilitiesXML()) }),
	wire.ProcNodeGetInfo: noArgs(func(c *core.Connect) (wire.NodeInfoReply, error) {
		ni, err := c.NodeInfo()
		return nodeInfoToWire(ni), err
	}),
	wire.ProcDomainList: withArgs(func(c *core.Connect, a wire.DomainListArgs) (wire.NameListReply, error) {
		return names(c.Driver().ListDomains(core.ListFlags(a.Flags)))
	}),
	wire.ProcDomainLookupByName: withArgs(func(c *core.Connect, a wire.NameArgs) (wire.DomainMetaReply, error) {
		return meta(c.Driver().LookupDomain(a.Name))
	}),
	wire.ProcDomainLookupByUUID: withArgs(func(c *core.Connect, a wire.UUIDArgs) (wire.DomainMetaReply, error) {
		return meta(c.Driver().LookupDomainByUUID(a.UUID))
	}),
	wire.ProcDomainDefine: withArgs(func(c *core.Connect, a wire.XMLArgs) (wire.DomainMetaReply, error) {
		return meta(c.Driver().DefineDomain(a.XML))
	}),
	wire.ProcDomainUndefine: nameOp(onDriver(core.DriverConn.UndefineDomain)),
	wire.ProcDomainCreate:   nameOp(onDriver(core.DriverConn.CreateDomain)),
	wire.ProcDomainDestroy:  nameOp(onDriver(core.DriverConn.DestroyDomain)),
	wire.ProcDomainShutdown: nameOp(onDriver(core.DriverConn.ShutdownDomain)),
	wire.ProcDomainReboot:   nameOp(onDriver(core.DriverConn.RebootDomain)),
	wire.ProcDomainSuspend:  nameOp(onDriver(core.DriverConn.SuspendDomain)),
	wire.ProcDomainResume:   nameOp(onDriver(core.DriverConn.ResumeDomain)),
	wire.ProcDomainGetInfo: withArgs(func(c *core.Connect, a wire.NameArgs) (wire.DomainInfoReply, error) {
		info, err := c.Driver().DomainInfo(a.Name)
		return wire.DomainInfoReply{
			State: uint32(info.State), MaxMemKiB: info.MaxMemKiB,
			MemKiB: info.MemKiB, VCPUs: uint32(info.VCPUs), CPUTimeNs: info.CPUTimeNs,
		}, err
	}),
	wire.ProcDomainGetStats: withArgs(func(c *core.Connect, a wire.NameArgs) (wire.DomainStatsReply, error) {
		st, err := c.Driver().DomainStats(a.Name)
		return wire.DomainStatsReply{
			State: uint32(st.State), CPUTimeNs: st.CPUTimeNs, MemKiB: st.MemKiB,
			MaxMemKiB: st.MaxMemKiB, VCPUs: uint32(st.VCPUs),
			RdBytes: st.RdBytes, WrBytes: st.WrBytes, RdReqs: st.RdReqs, WrReqs: st.WrReqs,
			RxBytes: st.RxBytes, TxBytes: st.TxBytes, RxPkts: st.RxPkts, TxPkts: st.TxPkts,
			DirtyPages: st.DirtyPages,
		}, err
	}),
	wire.ProcDomainGetXML: withArgs(func(c *core.Connect, a wire.NameArgs) (wire.StringReply, error) {
		return str(c.Driver().DomainXML(a.Name))
	}),
	wire.ProcDomainSetMemory: withArgs(func(c *core.Connect, a wire.SetMemoryArgs) (struct{}, error) {
		return void(c.Driver().SetDomainMemory(a.Name, a.MemKiB))
	}),
	wire.ProcDomainSetVCPUs: withArgs(func(c *core.Connect, a wire.SetVCPUsArgs) (struct{}, error) {
		return void(c.Driver().SetDomainVCPUs(a.Name, int(a.VCPUs)))
	}),
	wire.ProcNetworkList: noArgs(func(c *core.Connect) (wire.NameListReply, error) { return names(c.ListNetworks()) }),
	wire.ProcNetworkDefine: withArgs(func(c *core.Connect, a wire.XMLArgs) (struct{}, error) {
		return void(c.DefineNetwork(a.XML))
	}),
	wire.ProcNetworkUndefine: nameOp((*core.Connect).UndefineNetwork),
	wire.ProcNetworkStart:    nameOp((*core.Connect).StartNetwork),
	wire.ProcNetworkStop:     nameOp((*core.Connect).StopNetwork),
	wire.ProcNetworkGetXML: withArgs(func(c *core.Connect, a wire.NameArgs) (wire.StringReply, error) {
		return str(c.NetworkXML(a.Name))
	}),
	wire.ProcNetworkIsActive: withArgs(func(c *core.Connect, a wire.NameArgs) (wire.BoolReply, error) {
		active, err := c.NetworkIsActive(a.Name)
		return wire.BoolReply{Value: active}, err
	}),
	wire.ProcNetworkDHCPLeases: withArgs(func(c *core.Connect, a wire.NameArgs) (wire.LeasesReply, error) {
		leases, err := c.NetworkDHCPLeases(a.Name)
		out := wire.LeasesReply{Leases: make([]wire.DHCPLease, len(leases))}
		for i, l := range leases {
			out.Leases[i] = wire.DHCPLease{MAC: l.MAC, IP: l.IP, Hostname: l.Hostname}
		}
		return out, err
	}),
	wire.ProcPoolList: noArgs(func(c *core.Connect) (wire.NameListReply, error) { return names(c.ListStoragePools()) }),
	wire.ProcPoolDefine: withArgs(func(c *core.Connect, a wire.XMLArgs) (struct{}, error) {
		return void(c.DefineStoragePool(a.XML))
	}),
	wire.ProcPoolUndefine: nameOp((*core.Connect).UndefineStoragePool),
	wire.ProcPoolStart:    nameOp((*core.Connect).StartStoragePool),
	wire.ProcPoolStop:     nameOp((*core.Connect).StopStoragePool),
	wire.ProcPoolGetXML: withArgs(func(c *core.Connect, a wire.NameArgs) (wire.StringReply, error) {
		return str(c.StoragePoolXML(a.Name))
	}),
	wire.ProcPoolGetInfo: withArgs(func(c *core.Connect, a wire.NameArgs) (wire.PoolInfoReply, error) {
		info, err := c.StoragePoolInfo(a.Name)
		return wire.PoolInfoReply{
			Active: info.Active, CapacityKiB: info.CapacityKiB,
			AllocationKiB: info.AllocationKiB, AvailableKiB: info.AvailableKiB,
		}, err
	}),
	wire.ProcVolList: withArgs(func(c *core.Connect, a wire.NameArgs) (wire.NameListReply, error) {
		return names(c.ListVolumes(a.Name))
	}),
	wire.ProcVolCreate: withArgs(func(c *core.Connect, a wire.VolCreateArgs) (struct{}, error) {
		return void(c.CreateVolume(a.Pool, a.XML))
	}),
	wire.ProcVolDelete: withArgs(func(c *core.Connect, a wire.VolArgs) (struct{}, error) {
		return void(c.DeleteVolume(a.Pool, a.Name))
	}),
	wire.ProcVolGetXML: withArgs(func(c *core.Connect, a wire.VolArgs) (wire.StringReply, error) {
		return str(c.VolumeXML(a.Pool, a.Name))
	}),
	wire.ProcAuthList: func(p *RemoteProgram, _ *Client, _, reply []byte) ([]byte, error) {
		return encode(reply, &wire.AuthListReply{Mechanisms: p.mechanisms()})
	},
	wire.ProcAuthSASLStart: (*RemoteProgram).saslStart,
	wire.ProcSnapshotCreate: withArgs(func(c *core.Connect, a wire.SnapshotCreateArgs) (wire.StringReply, error) {
		return str(c.Driver().CreateSnapshot(a.Domain, a.XML))
	}),
	wire.ProcSnapshotList: withArgs(func(c *core.Connect, a wire.NameArgs) (wire.NameListReply, error) {
		return names(c.Driver().ListSnapshots(a.Name))
	}),
	wire.ProcSnapshotGetXML: withArgs(func(c *core.Connect, a wire.SnapshotArgs) (wire.StringReply, error) {
		return str(c.Driver().SnapshotXML(a.Domain, a.Name))
	}),
	wire.ProcSnapshotRevert: withArgs(func(c *core.Connect, a wire.SnapshotArgs) (struct{}, error) {
		return void(c.Driver().RevertSnapshot(a.Domain, a.Name))
	}),
	wire.ProcSnapshotDelete: withArgs(func(c *core.Connect, a wire.SnapshotArgs) (struct{}, error) {
		return void(c.Driver().DeleteSnapshot(a.Domain, a.Name))
	}),
	wire.ProcManagedSave: withArgs(func(c *core.Connect, a wire.NameArgs) (struct{}, error) {
		return void(c.Driver().ManagedSave(a.Name))
	}),
	wire.ProcHasManagedSave: withArgs(func(c *core.Connect, a wire.NameArgs) (wire.BoolReply, error) {
		has, err := c.Driver().HasManagedSave(a.Name)
		return wire.BoolReply{Value: has}, err
	}),
	wire.ProcManagedSaveRemove: withArgs(func(c *core.Connect, a wire.NameArgs) (struct{}, error) {
		return void(c.Driver().ManagedSaveRemove(a.Name))
	}),
	wire.ProcDeviceAttach: withArgs(func(c *core.Connect, a wire.DeviceArgs) (struct{}, error) {
		return void(c.Driver().AttachDevice(a.Domain, a.XML))
	}),
	wire.ProcDeviceDetach: withArgs(func(c *core.Connect, a wire.DeviceArgs) (struct{}, error) {
		return void(c.Driver().DetachDevice(a.Domain, a.XML))
	}),
	wire.ProcDomainListInfo: withArgs(func(c *core.Connect, a wire.DomainListInfoArgs) (struct{ Domains []core.NamedDomainInfo }, error) {
		// Core rows encode in the wire.DomainInfoRow layout (the field
		// widths are pinned by TestDomainInfoRowMatchesCore), so bulk
		// replies skip the per-row conversion copy.
		rows, err := c.Driver().DomainListInfo(core.ListFlags(a.Flags), a.Names)
		return struct{ Domains []core.NamedDomainInfo }{rows}, err
	}),
	wire.ProcNodeInventory: func(p *RemoteProgram, c *Client, _, reply []byte) ([]byte, error) {
		conn, err := p.conn(c)
		if err != nil {
			return nil, err
		}
		// The inventory is pooled across requests: the driver rebuilds
		// the rows inside the retained slice, so steady-state monitoring
		// traffic allocates almost nothing daemon-side. The payload is
		// fully encoded before the Put.
		inv := invPool.Get().(*core.NodeInventory)
		defer invPool.Put(inv)
		if err := conn.Driver().NodeInventoryInto(inv); err != nil {
			return nil, err
		}
		return encode(reply, &struct {
			Node    wire.NodeInfoReply
			Domains []core.NamedDomainInfo
		}{nodeInfoToWire(inv.Node), inv.Domains})
	},
	wire.ProcEventSubscribe:   (*RemoteProgram).eventSubscribe,
	wire.ProcEventUnsubscribe: (*RemoteProgram).eventUnsubscribe,
	wire.ProcMigratePrepare: withArgs(func(c *core.Connect, a wire.MigratePrepareArgs) (wire.MigratePrepareReply, error) {
		cookie, err := c.Driver().MigratePrepare(a.Domain, a.TotalPages, int(a.Streams))
		return wire.MigratePrepareReply{Cookie: cookie}, err
	}),
	wire.ProcMigratePages:    migratePages(false),
	wire.ProcMigratePagePull: migratePages(true),
	wire.ProcMigrateFinish: withArgs(func(c *core.Connect, a wire.MigrateFinishArgs) (struct{}, error) {
		return void(c.Driver().MigrateFinish(a.Cookie, a.Commit))
	}),
}

// connectOpen opens the server-side driver connection for a client. The
// daemon strips the transport parts of the URI: the hypervisor driver
// itself always runs locally to the daemon.
func (p *RemoteProgram) connectOpen(c *Client, payload, reply []byte) ([]byte, error) {
	var args wire.ConnectOpenArgs
	if err := c.conn.Unmarshal(payload, &args); err != nil {
		return nil, badArgs(err)
	}
	u, err := uri.Parse(args.URI)
	if err != nil {
		return nil, core.Errorf(core.ErrInvalidArg, "%v", err)
	}
	local := *u
	local.Transport = uri.TransportNone
	local.Host = ""
	local.Port = 0
	local.Username = ""
	conn, err := core.Open(local.String())
	if err != nil {
		return nil, err
	}
	st := p.state(c)
	st.mu.Lock()
	if st.conn != nil {
		st.mu.Unlock()
		conn.Close() //nolint:errcheck
		return nil, core.Errorf(core.ErrOperationInvalid, "connection already open")
	}
	st.conn = conn
	st.mu.Unlock()
	return reply, nil
}

// clientSink pushes watch frames onto the client's connection over the
// pooled marshal fast path. It runs on the subscriber's drainer
// goroutine, never on the bus emitter.
type clientSink struct{ c *Client }

// SendEvent implements watch.Sink.
func (s clientSink) SendEvent(ev *wire.WatchEvent) error {
	return s.c.SendMarshal(rpc.Header{
		Program:   rpc.ProgramRemote,
		Version:   rpc.ProtocolVersion,
		Procedure: wire.ProcEventWatch,
		Type:      uint32(rpc.TypeEvent),
	}, ev)
}

// eventSubscribe opens a watch stream: a bounded subscriber queue fed by
// the driver's event bus and drained onto the connection as sequenced
// ProcEventWatch frames.
func (p *RemoteProgram) eventSubscribe(c *Client, payload, reply []byte) ([]byte, error) {
	var args wire.EventSubscribeArgs
	if err := c.conn.Unmarshal(payload, &args); err != nil {
		return nil, badArgs(err)
	}
	conn, err := p.conn(c)
	if err != nil {
		return nil, err
	}
	src, ok := conn.Driver().(core.EventSource)
	if !ok {
		return nil, core.Errorf(core.ErrNoSupport, "driver does not deliver events")
	}
	depth, window := p.srv.EventStreamConfig()
	st := p.state(c)
	st.mu.Lock()
	st.nextSub++
	subID := st.nextSub
	st.mu.Unlock()
	sub := watch.New(watch.Config{
		ID:       subID,
		Depth:    depth,
		Coalesce: window,
		Sink:     clientSink{c},
	})
	var types []events.Type
	for _, t := range args.Types {
		types = append(types, events.Type(t))
	}
	busID := src.EventBus().Subscribe(args.Domain, types, sub.Enqueue)
	st.mu.Lock()
	// A teardown that raced the subscribe must not leak the stream.
	if st.conn == nil {
		st.mu.Unlock()
		src.EventBus().Unsubscribe(busID)
		sub.Close()
		return nil, core.Errorf(core.ErrNoConnect, "connection closed during subscription")
	}
	st.watches[subID] = &watchSub{sub: sub, busID: busID}
	st.mu.Unlock()
	return encode(reply, &wire.EventSubscribeReply{
		SubscriptionID: subID,
		QueueDepth:     uint32(sub.Depth()),
		CoalesceMs:     uint32(sub.Coalesce() / time.Millisecond),
	})
}

func (p *RemoteProgram) eventUnsubscribe(c *Client, payload, reply []byte) ([]byte, error) {
	var args wire.EventUnsubscribeArgs
	if err := c.conn.Unmarshal(payload, &args); err != nil {
		return nil, badArgs(err)
	}
	conn, err := p.conn(c)
	if err != nil {
		return nil, err
	}
	st := p.state(c)
	st.mu.Lock()
	ws, ok := st.watches[args.SubscriptionID]
	if ok {
		delete(st.watches, args.SubscriptionID)
	}
	st.mu.Unlock()
	if !ok {
		return nil, core.Errorf(core.ErrInvalidArg, "no subscription %d", args.SubscriptionID)
	}
	if src, ok := conn.Driver().(core.EventSource); ok {
		src.EventBus().Unsubscribe(ws.busID)
	}
	ws.sub.Close()
	return reply, nil
}

func (p *RemoteProgram) mechanisms() []string {
	p.srv.mu.Lock()
	defer p.srv.mu.Unlock()
	if len(p.srv.creds) == 0 {
		return nil
	}
	return []string{"SIM-PLAIN"}
}

// saslStart validates a SIM-PLAIN exchange: data is "user\x00password".
func (p *RemoteProgram) saslStart(c *Client, payload, reply []byte) ([]byte, error) {
	var args wire.SASLStartArgs
	if err := c.conn.Unmarshal(payload, &args); err != nil {
		return nil, badArgs(err)
	}
	if args.Mechanism != "SIM-PLAIN" {
		return nil, core.Errorf(core.ErrAuthFailed, "unsupported mechanism %q", args.Mechanism)
	}
	parts := bytes.SplitN(args.Data, []byte{0}, 2)
	if len(parts) != 2 {
		return nil, core.Errorf(core.ErrAuthFailed, "malformed SIM-PLAIN data")
	}
	user, pass := string(parts[0]), parts[1]
	p.srv.mu.Lock()
	want, ok := p.srv.creds[user]
	p.srv.mu.Unlock()
	if !ok || subtle.ConstantTimeCompare([]byte(want), pass) != 1 {
		return nil, core.Errorf(core.ErrAuthFailed, "invalid credentials for %q", user)
	}
	c.setAuthenticated(user)
	return encode(reply, &wire.SASLStartReply{Complete: true})
}

// nodeInfoToWire converts the core node summary to its wire form.
func nodeInfoToWire(ni core.NodeInfo) wire.NodeInfoReply {
	return wire.NodeInfoReply{
		Model: ni.Model, MemoryKiB: ni.MemoryKiB, CPUs: uint32(ni.CPUs),
		MHz: uint32(ni.MHz), NUMANodes: uint32(ni.NUMANodes),
		Sockets: uint32(ni.Sockets), Cores: uint32(ni.Cores), Threads: uint32(ni.Threads),
	}
}

// encode appends v's encoding to reply, or, when v is too big for a
// recycled buffer, to the process's one jumbo spare.
func encode(reply []byte, v interface{}) ([]byte, error) {
	if n := rpc.MarshalSize(v); n > maxPooledReply {
		reply = jumboReply.Take(n)
	}
	out, err := rpc.AppendMarshal(reply, v)
	if err != nil {
		return nil, core.Errorf(core.ErrInternal, "marshal reply: %v", err)
	}
	return out, nil
}

// str, names, meta and void build the reply shapes most procedures
// share from a driver call's results.
func str(s string, err error) (wire.StringReply, error) { return wire.StringReply{Value: s}, err }

func names(n []string, err error) (wire.NameListReply, error) {
	return wire.NameListReply{Names: n}, err
}

func meta(m core.DomainMeta, err error) (wire.DomainMetaReply, error) {
	return wire.DomainMetaReply{Meta: wire.DomainMeta{Name: m.Name, UUID: m.UUID, ID: int32(m.ID)}}, err
}

func void(err error) (struct{}, error) { return struct{}{}, err }

func badArgs(err error) error {
	return core.Errorf(core.ErrInvalidArg, "decode arguments: %v", err)
}
