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

// isAuthProc reports whether a procedure is allowed before
// authentication completes.
func isAuthProc(proc uint32) bool {
	return proc == wire.ProcAuthList || proc == wire.ProcAuthSASLStart
}

// remoteState is the per-client state of the remote program. Dispatch
// runs on workerpool goroutines and ClientClosed on the reader, so all
// fields are guarded: an in-flight job must never race the teardown.
type remoteState struct {
	mu        sync.Mutex
	conn      *core.Connect
	callbacks map[int32]int // client callback id -> bus subscription id
	nextCB    int32
	watches   map[int32]*watchSub // subscription id -> watch stream
	nextSub   int32
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

// IsPriority implements Program: procedures that never wait on a
// hypervisor may run on priority workers.
func (p *RemoteProgram) IsPriority(proc uint32) bool {
	switch proc {
	case wire.ProcConnectOpen, wire.ProcConnectClose, wire.ProcGetType,
		wire.ProcGetHostname, wire.ProcDomainList, wire.ProcDomainLookupByName,
		wire.ProcDomainLookupByUUID, wire.ProcEventRegister, wire.ProcEventDeregister,
		wire.ProcEventSubscribe, wire.ProcEventUnsubscribe,
		wire.ProcAuthList, wire.ProcAuthSASLStart,
		// Migration control and post-copy demand-fault pulls must not
		// queue behind a flood of background page chunks: the pull
		// stream is what bounds guest stalls after switch-over.
		wire.ProcMigratePrepare, wire.ProcMigratePagePull, wire.ProcMigrateFinish:
		return true
	}
	return false
}

// ClientClosed implements Program: release the driver connection and
// event subscriptions.
func (p *RemoteProgram) ClientClosed(c *Client) {
	st := p.state(c)
	st.mu.Lock()
	conn := st.conn
	st.conn = nil
	callbacks := st.callbacks
	st.callbacks = make(map[int32]int)
	watches := st.watches
	st.watches = make(map[int32]*watchSub)
	st.mu.Unlock()
	if conn != nil {
		if src, ok := conn.Driver().(core.EventSource); ok {
			for _, subID := range callbacks {
				src.EventBus().Unsubscribe(subID)
			}
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
		return &remoteState{
			callbacks: make(map[int32]int),
			watches:   make(map[int32]*watchSub),
		}
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
func (p *RemoteProgram) Dispatch(c *Client, proc uint32, payload []byte) ([]byte, error) {
	switch proc {
	case wire.ProcAuthList:
		return marshal(&wire.AuthListReply{Mechanisms: p.mechanisms()})
	case wire.ProcAuthSASLStart:
		return p.saslStart(c, payload)
	case wire.ProcConnectOpen:
		return p.connectOpen(c, payload)
	case wire.ProcConnectClose:
		p.ClientClosed(c)
		return marshal(&struct{}{})
	}
	conn, err := p.conn(c)
	if err != nil {
		return nil, err
	}
	switch proc {
	case wire.ProcGetType:
		t, err := conn.Type()
		return stringReply(t, err)
	case wire.ProcGetVersion:
		v, err := conn.Version()
		return stringReply(v, err)
	case wire.ProcGetHostname:
		h, err := conn.Hostname()
		return stringReply(h, err)
	case wire.ProcGetCapabilities:
		x, err := conn.CapabilitiesXML()
		return stringReply(x, err)
	case wire.ProcNodeGetInfo:
		ni, err := conn.NodeInfo()
		if err != nil {
			return nil, err
		}
		reply := nodeInfoToWire(ni)
		return marshal(&reply)
	case wire.ProcDomainList:
		var args wire.DomainListArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		names, err := conn.Driver().ListDomains(core.ListFlags(args.Flags))
		if err != nil {
			return nil, err
		}
		return marshal(&wire.NameListReply{Names: names})
	case wire.ProcDomainLookupByName:
		var args wire.NameArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		meta, err := conn.Driver().LookupDomain(args.Name)
		return metaReply(meta, err)
	case wire.ProcDomainLookupByUUID:
		var args wire.UUIDArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		meta, err := conn.Driver().LookupDomainByUUID(args.UUID)
		return metaReply(meta, err)
	case wire.ProcDomainDefine:
		var args wire.XMLArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		meta, err := conn.Driver().DefineDomain(args.XML)
		return metaReply(meta, err)
	case wire.ProcDomainUndefine:
		return p.nameOp(payload, conn.Driver().UndefineDomain)
	case wire.ProcDomainCreate:
		return p.nameOp(payload, conn.Driver().CreateDomain)
	case wire.ProcDomainDestroy:
		return p.nameOp(payload, conn.Driver().DestroyDomain)
	case wire.ProcDomainShutdown:
		return p.nameOp(payload, conn.Driver().ShutdownDomain)
	case wire.ProcDomainReboot:
		return p.nameOp(payload, conn.Driver().RebootDomain)
	case wire.ProcDomainSuspend:
		return p.nameOp(payload, conn.Driver().SuspendDomain)
	case wire.ProcDomainResume:
		return p.nameOp(payload, conn.Driver().ResumeDomain)
	case wire.ProcDomainGetInfo:
		var args wire.NameArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		info, err := conn.Driver().DomainInfo(args.Name)
		if err != nil {
			return nil, err
		}
		return marshal(&wire.DomainInfoReply{
			State: uint32(info.State), MaxMemKiB: info.MaxMemKiB,
			MemKiB: info.MemKiB, VCPUs: uint32(info.VCPUs), CPUTimeNs: info.CPUTimeNs,
		})
	case wire.ProcDomainGetStats:
		var args wire.NameArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		st, err := conn.Driver().DomainStats(args.Name)
		if err != nil {
			return nil, err
		}
		return marshal(&wire.DomainStatsReply{
			State: uint32(st.State), CPUTimeNs: st.CPUTimeNs, MemKiB: st.MemKiB,
			MaxMemKiB: st.MaxMemKiB, VCPUs: uint32(st.VCPUs),
			RdBytes: st.RdBytes, WrBytes: st.WrBytes, RdReqs: st.RdReqs, WrReqs: st.WrReqs,
			RxBytes: st.RxBytes, TxBytes: st.TxBytes, RxPkts: st.RxPkts, TxPkts: st.TxPkts,
			DirtyPages: st.DirtyPages,
		})
	case wire.ProcDomainGetXML:
		var args wire.NameArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		x, err := conn.Driver().DomainXML(args.Name)
		return stringReply(x, err)
	case wire.ProcDomainSetMemory:
		var args wire.SetMemoryArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		return voidReply(conn.Driver().SetDomainMemory(args.Name, args.MemKiB))
	case wire.ProcDomainSetVCPUs:
		var args wire.SetVCPUsArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		return voidReply(conn.Driver().SetDomainVCPUs(args.Name, int(args.VCPUs)))
	case wire.ProcNetworkList:
		names, err := conn.ListNetworks()
		if err != nil {
			return nil, err
		}
		return marshal(&wire.NameListReply{Names: names})
	case wire.ProcNetworkDefine:
		var args wire.XMLArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		return voidReply(conn.DefineNetwork(args.XML))
	case wire.ProcNetworkUndefine:
		return p.nameOp(payload, conn.UndefineNetwork)
	case wire.ProcNetworkStart:
		return p.nameOp(payload, conn.StartNetwork)
	case wire.ProcNetworkStop:
		return p.nameOp(payload, conn.StopNetwork)
	case wire.ProcNetworkGetXML:
		var args wire.NameArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		x, err := conn.NetworkXML(args.Name)
		return stringReply(x, err)
	case wire.ProcNetworkIsActive:
		var args wire.NameArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		active, err := conn.NetworkIsActive(args.Name)
		if err != nil {
			return nil, err
		}
		return marshal(&wire.BoolReply{Value: active})
	case wire.ProcNetworkDHCPLeases:
		var args wire.NameArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		leases, err := conn.NetworkDHCPLeases(args.Name)
		if err != nil {
			return nil, err
		}
		out := wire.LeasesReply{Leases: make([]wire.DHCPLease, len(leases))}
		for i, l := range leases {
			out.Leases[i] = wire.DHCPLease{MAC: l.MAC, IP: l.IP, Hostname: l.Hostname}
		}
		return marshal(&out)
	case wire.ProcPoolList:
		names, err := conn.ListStoragePools()
		if err != nil {
			return nil, err
		}
		return marshal(&wire.NameListReply{Names: names})
	case wire.ProcPoolDefine:
		var args wire.XMLArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		return voidReply(conn.DefineStoragePool(args.XML))
	case wire.ProcPoolUndefine:
		return p.nameOp(payload, conn.UndefineStoragePool)
	case wire.ProcPoolStart:
		return p.nameOp(payload, conn.StartStoragePool)
	case wire.ProcPoolStop:
		return p.nameOp(payload, conn.StopStoragePool)
	case wire.ProcPoolGetXML:
		var args wire.NameArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		x, err := conn.StoragePoolXML(args.Name)
		return stringReply(x, err)
	case wire.ProcPoolGetInfo:
		var args wire.NameArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		info, err := conn.StoragePoolInfo(args.Name)
		if err != nil {
			return nil, err
		}
		return marshal(&wire.PoolInfoReply{
			Active: info.Active, CapacityKiB: info.CapacityKiB,
			AllocationKiB: info.AllocationKiB, AvailableKiB: info.AvailableKiB,
		})
	case wire.ProcVolList:
		var args wire.NameArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		names, err := conn.ListVolumes(args.Name)
		if err != nil {
			return nil, err
		}
		return marshal(&wire.NameListReply{Names: names})
	case wire.ProcVolCreate:
		var args wire.VolCreateArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		return voidReply(conn.CreateVolume(args.Pool, args.XML))
	case wire.ProcVolDelete:
		var args wire.VolArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		return voidReply(conn.DeleteVolume(args.Pool, args.Name))
	case wire.ProcVolGetXML:
		var args wire.VolArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		x, err := conn.VolumeXML(args.Pool, args.Name)
		return stringReply(x, err)
	case wire.ProcEventRegister:
		return p.eventRegister(c, payload)
	case wire.ProcEventDeregister:
		return p.eventDeregister(c, payload)
	case wire.ProcEventSubscribe:
		return p.eventSubscribe(c, payload)
	case wire.ProcEventUnsubscribe:
		return p.eventUnsubscribe(c, payload)
	case wire.ProcSnapshotCreate:
		var args wire.SnapshotCreateArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		ss, err := snapshotDrv(conn)
		if err != nil {
			return nil, err
		}
		name, err := ss.CreateSnapshot(args.Domain, args.XML)
		return stringReply(name, err)
	case wire.ProcSnapshotList:
		var args wire.NameArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		ss, err := snapshotDrv(conn)
		if err != nil {
			return nil, err
		}
		names, err := ss.ListSnapshots(args.Name)
		if err != nil {
			return nil, err
		}
		return marshal(&wire.NameListReply{Names: names})
	case wire.ProcSnapshotGetXML:
		var args wire.SnapshotArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		ss, err := snapshotDrv(conn)
		if err != nil {
			return nil, err
		}
		x, err := ss.SnapshotXML(args.Domain, args.Name)
		return stringReply(x, err)
	case wire.ProcSnapshotRevert:
		var args wire.SnapshotArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		ss, err := snapshotDrv(conn)
		if err != nil {
			return nil, err
		}
		return voidReply(ss.RevertSnapshot(args.Domain, args.Name))
	case wire.ProcSnapshotDelete:
		var args wire.SnapshotArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		ss, err := snapshotDrv(conn)
		if err != nil {
			return nil, err
		}
		return voidReply(ss.DeleteSnapshot(args.Domain, args.Name))
	case wire.ProcManagedSave:
		ms, err := managedSaveDrv(conn)
		if err != nil {
			return nil, err
		}
		return p.nameOp(payload, ms.ManagedSave)
	case wire.ProcHasManagedSave:
		var args wire.NameArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		ms, err := managedSaveDrv(conn)
		if err != nil {
			return nil, err
		}
		has, err := ms.HasManagedSave(args.Name)
		if err != nil {
			return nil, err
		}
		return marshal(&wire.BoolReply{Value: has})
	case wire.ProcManagedSaveRemove:
		ms, err := managedSaveDrv(conn)
		if err != nil {
			return nil, err
		}
		return p.nameOp(payload, ms.ManagedSaveRemove)
	case wire.ProcDeviceAttach, wire.ProcDeviceDetach:
		var args wire.DeviceArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		ds, ok := conn.Driver().(core.DeviceSupport)
		if !ok {
			return nil, core.Errorf(core.ErrNoSupport, "driver does not support device hot-plug")
		}
		if proc == wire.ProcDeviceAttach {
			return voidReply(ds.AttachDevice(args.Domain, args.XML))
		}
		return voidReply(ds.DetachDevice(args.Domain, args.XML))
	case wire.ProcDomainListInfo:
		var args wire.DomainListInfoArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		rows, err := core.ListDomainInfo(conn.Driver(), core.ListFlags(args.Flags), args.Names)
		if err != nil {
			return nil, err
		}
		// Core rows encode in the wire.DomainInfoRow layout (the field
		// widths are pinned by TestDomainInfoRowMatchesCore), so bulk
		// replies skip the per-row conversion copy.
		return marshal(&struct{ Domains []core.NamedDomainInfo }{rows})
	case wire.ProcNodeInventory:
		// The inventory is pooled across requests: a driver supporting
		// BulkMonitorInto rebuilds the rows inside the retained slice,
		// so steady-state monitoring traffic allocates almost nothing
		// daemon-side. The payload is fully encoded before the Put.
		inv := invPool.Get().(*core.NodeInventory)
		defer invPool.Put(inv)
		if err := core.CollectInventoryInto(conn.Driver(), inv); err != nil {
			return nil, err
		}
		return marshal(&struct {
			Node    wire.NodeInfoReply
			Domains []core.NamedDomainInfo
		}{nodeInfoToWire(inv.Node), inv.Domains})
	case wire.ProcMigratePrepare:
		var args wire.MigratePrepareArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		ms, err := migrationSink(conn)
		if err != nil {
			return nil, err
		}
		cookie, err := ms.MigratePrepare(args.Domain, args.TotalPages, int(args.Streams))
		if err != nil {
			return nil, err
		}
		return marshal(&wire.MigratePrepareReply{Cookie: cookie})
	case wire.ProcMigratePages, wire.ProcMigratePagePull:
		var args wire.MigratePagesArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		ms, err := migrationSink(conn)
		if err != nil {
			return nil, err
		}
		return voidReply(ms.MigratePages(&core.MigrateChunk{
			Cookie:   args.Cookie,
			Stream:   int(args.Stream),
			Round:    int(args.Round),
			Pages:    args.Pages,
			Priority: proc == wire.ProcMigratePagePull,
			Data:     args.Data,
		}))
	case wire.ProcMigrateFinish:
		var args wire.MigrateFinishArgs
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, badArgs(err)
		}
		ms, err := migrationSink(conn)
		if err != nil {
			return nil, err
		}
		return voidReply(ms.MigrateFinish(args.Cookie, args.Commit))
	default:
		return nil, core.Errorf(core.ErrNoSupport, "unknown procedure %d", proc)
	}
}

func snapshotDrv(conn *core.Connect) (core.SnapshotSupport, error) {
	ss, ok := conn.Driver().(core.SnapshotSupport)
	if !ok {
		return nil, core.Errorf(core.ErrNoSupport, "driver does not support snapshots")
	}
	return ss, nil
}

func managedSaveDrv(conn *core.Connect) (core.ManagedSaveSupport, error) {
	ms, ok := conn.Driver().(core.ManagedSaveSupport)
	if !ok {
		return nil, core.Errorf(core.ErrNoSupport, "driver does not support managed save")
	}
	return ms, nil
}

func migrationSink(conn *core.Connect) (core.MigrationSink, error) {
	ms, ok := conn.Driver().(core.MigrationSink)
	if !ok {
		return nil, core.Errorf(core.ErrNoSupport, "driver does not support inbound migration")
	}
	return ms, nil
}

// connectOpen opens the server-side driver connection for a client. The
// daemon strips the transport parts of the URI: the hypervisor driver
// itself always runs locally to the daemon.
func (p *RemoteProgram) connectOpen(c *Client, payload []byte) ([]byte, error) {
	var args wire.ConnectOpenArgs
	if err := rpc.Unmarshal(payload, &args); err != nil {
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
	return marshal(&struct{}{})
}

func (p *RemoteProgram) eventRegister(c *Client, payload []byte) ([]byte, error) {
	var args wire.EventRegisterArgs
	if err := rpc.Unmarshal(payload, &args); err != nil {
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
	st := p.state(c)
	st.mu.Lock()
	st.nextCB++
	cbID := st.nextCB
	st.mu.Unlock()
	subID := src.EventBus().Subscribe(args.Domain, nil, func(ev events.Event) {
		payload, err := rpc.Marshal(&wire.LifecycleEvent{
			CallbackID: cbID,
			Type:       uint32(ev.Type),
			Domain:     ev.Domain,
			UUID:       ev.UUID,
			Detail:     ev.Detail,
			Seq:        ev.Seq,
		})
		if err != nil {
			return
		}
		c.Send(rpc.Header{ //nolint:errcheck // client may be gone
			Program:   rpc.ProgramRemote,
			Version:   rpc.ProtocolVersion,
			Procedure: wire.ProcEventLifecycle,
			Type:      uint32(rpc.TypeEvent),
		}, payload)
	})
	st.mu.Lock()
	// A teardown that raced the subscribe must not leak it.
	if st.conn == nil {
		st.mu.Unlock()
		src.EventBus().Unsubscribe(subID)
		return nil, core.Errorf(core.ErrNoConnect, "connection closed during registration")
	}
	st.callbacks[cbID] = subID
	st.mu.Unlock()
	return marshal(&wire.EventRegisterReply{CallbackID: cbID})
}

func (p *RemoteProgram) eventDeregister(c *Client, payload []byte) ([]byte, error) {
	var args wire.EventDeregisterArgs
	if err := rpc.Unmarshal(payload, &args); err != nil {
		return nil, badArgs(err)
	}
	conn, err := p.conn(c)
	if err != nil {
		return nil, err
	}
	st := p.state(c)
	st.mu.Lock()
	subID, ok := st.callbacks[args.CallbackID]
	if ok {
		delete(st.callbacks, args.CallbackID)
	}
	st.mu.Unlock()
	if !ok {
		return nil, core.Errorf(core.ErrInvalidArg, "no callback %d", args.CallbackID)
	}
	if src, ok := conn.Driver().(core.EventSource); ok {
		src.EventBus().Unsubscribe(subID)
	}
	return marshal(&struct{}{})
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
func (p *RemoteProgram) eventSubscribe(c *Client, payload []byte) ([]byte, error) {
	var args wire.EventSubscribeArgs
	if err := rpc.Unmarshal(payload, &args); err != nil {
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
	return marshal(&wire.EventSubscribeReply{
		SubscriptionID: subID,
		QueueDepth:     uint32(sub.Depth()),
		CoalesceMs:     uint32(sub.Coalesce() / time.Millisecond),
	})
}

func (p *RemoteProgram) eventUnsubscribe(c *Client, payload []byte) ([]byte, error) {
	var args wire.EventUnsubscribeArgs
	if err := rpc.Unmarshal(payload, &args); err != nil {
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
	return marshal(&struct{}{})
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
func (p *RemoteProgram) saslStart(c *Client, payload []byte) ([]byte, error) {
	var args wire.SASLStartArgs
	if err := rpc.Unmarshal(payload, &args); err != nil {
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
	return marshal(&wire.SASLStartReply{Complete: true})
}

func (p *RemoteProgram) nameOp(payload []byte, op func(string) error) ([]byte, error) {
	var args wire.NameArgs
	if err := rpc.Unmarshal(payload, &args); err != nil {
		return nil, badArgs(err)
	}
	return voidReply(op(args.Name))
}

// nodeInfoToWire converts the core node summary to its wire form.
func nodeInfoToWire(ni core.NodeInfo) wire.NodeInfoReply {
	return wire.NodeInfoReply{
		Model: ni.Model, MemoryKiB: ni.MemoryKiB, CPUs: uint32(ni.CPUs),
		MHz: uint32(ni.MHz), NUMANodes: uint32(ni.NUMANodes),
		Sockets: uint32(ni.Sockets), Cores: uint32(ni.Cores), Threads: uint32(ni.Threads),
	}
}

func marshal(v interface{}) ([]byte, error) {
	out, err := rpc.AppendMarshal(replyBufFor(v), v)
	if err != nil {
		putReplyBuf(out)
		return nil, core.Errorf(core.ErrInternal, "marshal reply: %v", err)
	}
	return out, nil
}

func stringReply(s string, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return marshal(&wire.StringReply{Value: s})
}

func voidReply(err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return marshal(&struct{}{})
}

func metaReply(meta core.DomainMeta, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return marshal(&wire.DomainMetaReply{Meta: wire.DomainMeta{
		Name: meta.Name, UUID: meta.UUID, ID: int32(meta.ID),
	}})
}

func badArgs(err error) error {
	return core.Errorf(core.ErrInvalidArg, "decode arguments: %v", err)
}
