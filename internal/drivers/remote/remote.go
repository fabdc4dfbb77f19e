// Package remote implements the remote driver: the client-side driver
// that tunnels the uniform API to a daemon over the wire protocol. It is
// selected automatically for remote URIs and for schemes no local driver
// claims, which is how one management application transparently reaches
// hypervisors on other hosts.
package remote

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/memnet"
	"repro/internal/rpc"
	"repro/internal/uri"
	"repro/internal/wire"
)

// DefaultTCPPort is the daemon's conventional TCP port.
const DefaultTCPPort = 16509

// DefaultSocketPath is the daemon's conventional unix socket.
const DefaultSocketPath = "/var/run/govirt/govirt-sock"

// DefaultCallTimeout bounds every remote call unless the URI overrides
// it ("call_timeout_ms" parameter; 0 disables). Without a bound, a
// daemon that accepts the connection but never answers wedges callers
// forever — the exact failure mode the chaos suite injects.
const DefaultCallTimeout = 30 * time.Second

// DefaultOverloadRetryCap bounds how long the driver sleeps to honor a
// server retry-after hint before surfacing the typed ErrOverloaded to
// the caller instead. Overridden by the "overload_retry_ms" URI
// parameter; 0 disables the retry entirely.
const DefaultOverloadRetryCap = 100 * time.Millisecond

// Conn is the remote driver connection.
type Conn struct {
	client        *rpc.Client
	overloadRetry time.Duration // retry-after honor cap; 0 = never retry

	wmu     sync.Mutex
	watches map[int32]*watchSub // server subscription id -> open stream
}

var (
	_ core.DriverConn  = (*Conn)(nil)
	_ core.WatchSource = (*Conn)(nil)
	_ core.ConnHealth  = (*Conn)(nil)
)

// Open dials the daemon named by the URI, authenticates if the service
// demands it, and opens the server-side driver connection. Keepalive
// probing is controlled by the "keepalive_interval" (seconds) and
// "keepalive_count" URI parameters; the default is a 5 s interval with
// 5 missed probes, "keepalive_interval=0" disables probing.
func Open(u *uri.URI) (*Conn, error) {
	nc, err := dial(u)
	if err != nil {
		remoteConnErrors.Inc()
		return nil, err
	}
	c := &Conn{overloadRetry: overloadRetryFor(u)}
	c.client = rpc.NewClientKeepalive(nc, rpc.ProgramRemote, c.handleEvent, keepaliveFor(u))
	c.client.SetCallTimeout(callTimeoutFor(u))
	if err := c.authenticate(u); err != nil {
		c.client.Close()
		remoteConnErrors.Inc()
		return nil, err
	}
	if err := c.call(wire.ProcConnectOpen, &wire.ConnectOpenArgs{URI: u.String()}, nil); err != nil {
		c.client.Close()
		remoteConnErrors.Inc()
		return nil, err
	}
	remoteConnects.Inc()
	return c, nil
}

// keepaliveFor derives the probing configuration from URI parameters.
func keepaliveFor(u *uri.URI) rpc.KeepaliveConfig {
	cfg := rpc.KeepaliveConfig{Interval: 5 * time.Second, Count: 5}
	if v, ok := u.Param("keepalive_interval"); ok {
		secs, err := strconv.Atoi(v)
		if err != nil || secs < 0 {
			return rpc.KeepaliveConfig{}
		}
		cfg.Interval = time.Duration(secs) * time.Second
	}
	if v, ok := u.Param("keepalive_count"); ok {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return rpc.KeepaliveConfig{}
		}
		cfg.Count = n
	}
	return cfg
}

// overloadRetryFor derives the retry-after honor cap from the URI;
// "overload_retry_ms=0" disables retrying so callers observe every
// rejection (the fleet manager prefers that: it has its own backoff).
func overloadRetryFor(u *uri.URI) time.Duration {
	if v, ok := u.Param("overload_retry_ms"); ok {
		ms, err := strconv.Atoi(v)
		if err == nil && ms >= 0 {
			return time.Duration(ms) * time.Millisecond
		}
	}
	return DefaultOverloadRetryCap
}

// callTimeoutFor derives the per-call deadline from the URI;
// "call_timeout_ms=0" disables it.
func callTimeoutFor(u *uri.URI) time.Duration {
	if v, ok := u.Param("call_timeout_ms"); ok {
		ms, err := strconv.Atoi(v)
		if err == nil && ms >= 0 {
			return time.Duration(ms) * time.Millisecond
		}
	}
	return DefaultCallTimeout
}

func dial(u *uri.URI) (net.Conn, error) {
	switch u.EffectiveTransport() {
	case uri.TransportUnix:
		path := DefaultSocketPath
		if p, ok := u.Param("socket"); ok {
			path = p
		}
		nc, err := net.DialTimeout("unix", path, 5*time.Second)
		if err != nil {
			return nil, fmt.Errorf("remote: dial unix %s: %w", path, err)
		}
		return nc, nil
	case uri.TransportTCP, uri.TransportTLS:
		// The TLS transport is carried over the same stream in this
		// reproduction; the handshake-cost model lives in the auth
		// exchange (see DESIGN.md, Substitutions).
		port := u.Port
		if port == 0 {
			port = DefaultTCPPort
		}
		addr := fmt.Sprintf("%s:%d", u.Host, port)
		nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, fmt.Errorf("remote: dial tcp %s: %w", addr, err)
		}
		return nc, nil
	case uri.TransportMem:
		// In-process endpoint: the host part names a memnet listener.
		nc, err := memnet.Dial(u.Host)
		if err != nil {
			return nil, fmt.Errorf("remote: %w", err)
		}
		return nc, nil
	default:
		return nil, fmt.Errorf("remote: transport %q not supported", u.EffectiveTransport())
	}
}

// authenticate performs the service's required mechanism, if any.
// SIM-PLAIN takes the username from the URI and the password from the
// "password" URI parameter.
func (c *Conn) authenticate(u *uri.URI) error {
	var mechs wire.AuthListReply
	if err := c.call(wire.ProcAuthList, &struct{}{}, &mechs); err != nil {
		return err
	}
	if len(mechs.Mechanisms) == 0 {
		return nil
	}
	for _, m := range mechs.Mechanisms {
		if m != "SIM-PLAIN" {
			continue
		}
		user := u.Username
		pass, _ := u.Param("password")
		if user == "" {
			return core.Errorf(core.ErrAuthFailed, "service requires authentication; no username in URI")
		}
		data := append(append([]byte(user), 0), []byte(pass)...)
		var reply wire.SASLStartReply
		if err := c.call(wire.ProcAuthSASLStart, &wire.SASLStartArgs{
			Mechanism: "SIM-PLAIN", Data: data,
		}, &reply); err != nil {
			return err
		}
		if !reply.Complete {
			return core.Errorf(core.ErrAuthFailed, "authentication did not complete")
		}
		return nil
	}
	return core.Errorf(core.ErrAuthFailed, "no mutually supported mechanism in %v", mechs.Mechanisms)
}

// call performs one RPC, translating remote errors to API errors.
// Transport-level failures (the daemon died or became unreachable
// mid-call) surface as the typed, retryable ErrHostUnreachable so a
// multi-host scheduler can distinguish host-down from operation-invalid.
// An ErrOverloaded admission rejection is retried once after the
// server's retry-after hint when the hint fits under the driver's honor
// cap: the rejection happened before dispatch, so the operation never
// ran and repeating it is always safe.
func (c *Conn) call(proc uint32, args, ret interface{}) error {
	err := c.callOnce(proc, args, ret)
	if cap := c.overloadRetry; cap > 0 && core.IsCode(err, core.ErrOverloaded) {
		if ra := core.RetryAfterOf(err); ra > 0 && ra <= cap {
			remoteOverloadRetries.Inc()
			time.Sleep(ra)
			err = c.callOnce(proc, args, ret)
		}
	}
	return err
}

func (c *Conn) callOnce(proc uint32, args, ret interface{}) error {
	start := time.Now()
	err := c.client.Call(proc, args, ret)
	callLatency(proc).Observe(time.Since(start))
	remoteCalls.Inc()
	if err == nil {
		return nil
	}
	remoteCallErrs.Inc()
	var re *rpc.RemoteError
	if errors.As(err, &re) {
		cerr := &core.Error{Code: core.ErrorCode(re.Code), Message: re.Message}
		if re.RetryAfterMs > 0 {
			cerr.RetryAfter = time.Duration(re.RetryAfterMs) * time.Millisecond
		}
		return cerr
	}
	var te *rpc.TransportError
	if errors.As(err, &te) {
		return core.Errorf(core.ErrHostUnreachable, "%v", te)
	}
	return core.Errorf(core.ErrRPC, "%v", err)
}

// callString, callNames, callBool and callMeta are call for the four
// reply shapes most procedures share.
func (c *Conn) callString(proc uint32, args interface{}) (string, error) {
	var r wire.StringReply
	if err := c.call(proc, args, &r); err != nil {
		return "", err
	}
	return r.Value, nil
}

func (c *Conn) callNames(proc uint32, args interface{}) ([]string, error) {
	var r wire.NameListReply
	if err := c.call(proc, args, &r); err != nil {
		return nil, err
	}
	return r.Names, nil
}

func (c *Conn) callBool(proc uint32, args interface{}) (bool, error) {
	var r wire.BoolReply
	if err := c.call(proc, args, &r); err != nil {
		return false, err
	}
	return r.Value, nil
}

func (c *Conn) callMeta(proc uint32, args interface{}) (core.DomainMeta, error) {
	var r wire.DomainMetaReply
	if err := c.call(proc, args, &r); err != nil {
		return core.DomainMeta{}, err
	}
	return core.DomainMeta{Name: r.Meta.Name, UUID: r.Meta.UUID, ID: int(r.Meta.ID)}, nil
}

func (c *Conn) nameOp(proc uint32, name string) error {
	return c.call(proc, &wire.NameArgs{Name: name}, nil)
}

// handleEvent receives unsolicited server frames; watch-stream frames
// are the only kind. It runs on the client's reader goroutine, so watch
// handlers must not block.
func (c *Conn) handleEvent(proc uint32, payload []byte) {
	if proc == wire.ProcEventWatch {
		c.handleWatchFrame(payload)
	}
}

// handleWatchFrame routes one watch frame to its stream, detecting
// sequence gaps. The per-subscription stream starts at sequence 1, so a
// first frame above 1 is already a gap — events queued between the
// server-side subscribe and the first delivered frame can never be lost
// silently. Heartbeats (Type 0) only reach the handler when they reveal
// a gap; a heartbeat confirming the last seen sequence is absorbed.
func (c *Conn) handleWatchFrame(payload []byte) {
	var ev wire.WatchEvent
	if err := c.client.Unmarshal(payload, &ev); err != nil {
		return // corrupt frame; the sequence gap it leaves triggers a resync
	}
	c.wmu.Lock()
	ws, ok := c.watches[ev.SubscriptionID]
	if !ok {
		c.wmu.Unlock()
		return
	}
	var gap, deliver bool
	if ev.Type == 0 { // heartbeat: carries the last assigned seq
		gap = ev.Seq != ws.lastSeq
		if ev.Seq > ws.lastSeq {
			ws.lastSeq = ev.Seq
		}
		deliver = gap
	} else {
		gap = ev.Seq != ws.lastSeq+1
		ws.lastSeq = ev.Seq
		deliver = true
	}
	h := ws.handler
	c.wmu.Unlock()
	if deliver {
		h(events.Event{
			Type:   events.Type(ev.Type),
			Domain: ev.Domain,
			UUID:   ev.UUID,
			Detail: ev.Detail,
			Seq:    ev.Seq,
		}, gap)
	}
}

// watchSub is one open watch stream on the client side.
type watchSub struct {
	conn    *Conn
	id      int32
	handler core.WatchHandler
	lastSeq uint64
}

// Close implements core.WatchHandle.
func (w *watchSub) Close() error {
	w.conn.wmu.Lock()
	_, open := w.conn.watches[w.id]
	delete(w.conn.watches, w.id)
	w.conn.wmu.Unlock()
	if !open {
		return nil
	}
	return w.conn.call(wire.ProcEventUnsubscribe, &wire.EventUnsubscribeArgs{SubscriptionID: w.id}, nil)
}

// WatchEvents implements core.WatchSource: it opens a server-push watch
// stream. The handler runs on the connection's reader goroutine and
// must not block; gap deliveries mean events were lost and the consumer
// should resync. A stream does not survive the connection — after a
// reconnect the consumer subscribes again on the new connection (and
// resyncs, since anything may have happened in between).
func (c *Conn) WatchEvents(domain string, types []events.Type, h core.WatchHandler) (core.WatchHandle, error) {
	if h == nil {
		return nil, core.Errorf(core.ErrInvalidArg, "watch handler must not be nil")
	}
	wtypes := make([]uint32, len(types))
	for i, t := range types {
		wtypes[i] = uint32(t)
	}
	var reply wire.EventSubscribeReply
	if err := c.call(wire.ProcEventSubscribe, &wire.EventSubscribeArgs{
		Domain: domain, Types: wtypes,
	}, &reply); err != nil {
		return nil, err
	}
	ws := &watchSub{conn: c, id: reply.SubscriptionID, handler: h}
	c.wmu.Lock()
	if c.watches == nil {
		c.watches = make(map[int32]*watchSub)
	}
	c.watches[reply.SubscriptionID] = ws
	c.wmu.Unlock()
	return ws, nil
}

// Alive implements core.ConnHealth: false once the transport failed
// (read error, keepalive timeout) or the connection was closed. One
// atomic load — checking an idle connection's health costs no traffic.
func (c *Conn) Alive() bool { return c.client.Alive() }

// Close implements core.DriverConn.
func (c *Conn) Close() error {
	c.call(wire.ProcConnectClose, &struct{}{}, nil) //nolint:errcheck // best effort
	return c.client.Close()
}

// Type implements core.DriverConn. The remote driver reports the
// underlying driver's type, preserving transparency.
func (c *Conn) Type() string {
	t, err := c.callString(wire.ProcGetType, &struct{}{})
	if err != nil {
		return "remote"
	}
	return t
}

// Version implements core.DriverConn.
func (c *Conn) Version() (string, error) {
	return c.callString(wire.ProcGetVersion, &struct{}{})
}

// Hostname implements core.DriverConn.
func (c *Conn) Hostname() (string, error) {
	return c.callString(wire.ProcGetHostname, &struct{}{})
}

// CapabilitiesXML implements core.DriverConn.
func (c *Conn) CapabilitiesXML() (string, error) {
	return c.callString(wire.ProcGetCapabilities, &struct{}{})
}

// NodeInfo implements core.DriverConn.
func (c *Conn) NodeInfo() (core.NodeInfo, error) {
	var r wire.NodeInfoReply
	if err := c.call(wire.ProcNodeGetInfo, &struct{}{}, &r); err != nil {
		return core.NodeInfo{}, err
	}
	return nodeInfoFromWire(&r), nil
}

func nodeInfoFromWire(r *wire.NodeInfoReply) core.NodeInfo {
	return core.NodeInfo{
		Model: r.Model, MemoryKiB: r.MemoryKiB, CPUs: int(r.CPUs), MHz: int(r.MHz),
		NUMANodes: int(r.NUMANodes), Sockets: int(r.Sockets), Cores: int(r.Cores),
		Threads: int(r.Threads),
	}
}

// ListDomains implements core.DriverConn.
func (c *Conn) ListDomains(flags core.ListFlags) ([]string, error) {
	return c.callNames(wire.ProcDomainList, &wire.DomainListArgs{Flags: uint32(flags)})
}

// LookupDomain implements core.DriverConn.
func (c *Conn) LookupDomain(name string) (core.DomainMeta, error) {
	return c.callMeta(wire.ProcDomainLookupByName, &wire.NameArgs{Name: name})
}

// LookupDomainByUUID implements core.DriverConn.
func (c *Conn) LookupDomainByUUID(uuidStr string) (core.DomainMeta, error) {
	return c.callMeta(wire.ProcDomainLookupByUUID, &wire.UUIDArgs{UUID: uuidStr})
}

// DefineDomain implements core.DriverConn.
func (c *Conn) DefineDomain(xmlDesc string) (core.DomainMeta, error) {
	return c.callMeta(wire.ProcDomainDefine, &wire.XMLArgs{XML: xmlDesc})
}

// UndefineDomain implements core.DriverConn.
func (c *Conn) UndefineDomain(name string) error { return c.nameOp(wire.ProcDomainUndefine, name) }

// CreateDomain implements core.DriverConn.
func (c *Conn) CreateDomain(name string) error { return c.nameOp(wire.ProcDomainCreate, name) }

// DestroyDomain implements core.DriverConn.
func (c *Conn) DestroyDomain(name string) error { return c.nameOp(wire.ProcDomainDestroy, name) }

// ShutdownDomain implements core.DriverConn.
func (c *Conn) ShutdownDomain(name string) error { return c.nameOp(wire.ProcDomainShutdown, name) }

// RebootDomain implements core.DriverConn.
func (c *Conn) RebootDomain(name string) error { return c.nameOp(wire.ProcDomainReboot, name) }

// SuspendDomain implements core.DriverConn.
func (c *Conn) SuspendDomain(name string) error { return c.nameOp(wire.ProcDomainSuspend, name) }

// ResumeDomain implements core.DriverConn.
func (c *Conn) ResumeDomain(name string) error { return c.nameOp(wire.ProcDomainResume, name) }

// DomainInfo implements core.DriverConn.
func (c *Conn) DomainInfo(name string) (core.DomainInfo, error) {
	var r wire.DomainInfoReply
	if err := c.call(wire.ProcDomainGetInfo, &wire.NameArgs{Name: name}, &r); err != nil {
		return core.DomainInfo{}, err
	}
	return core.DomainInfo{
		State: core.DomainState(r.State), MaxMemKiB: r.MaxMemKiB,
		MemKiB: r.MemKiB, VCPUs: int(r.VCPUs), CPUTimeNs: r.CPUTimeNs,
	}, nil
}

// DomainListInfo implements core.DriverConn: one round trip replaces
// the DomainList + N×DomainGetInfo sweep.
func (c *Conn) DomainListInfo(flags core.ListFlags, names []string) ([]core.NamedDomainInfo, error) {
	// Rows decode straight into the core type: wire.DomainInfoRow pins
	// the layout, but the bytes land in the caller's final slice with no
	// per-row conversion.
	var r struct{ Domains []core.NamedDomainInfo }
	err := c.call(wire.ProcDomainListInfo, &wire.DomainListInfoArgs{
		Flags: uint32(flags), Names: names,
	}, &r)
	if err != nil {
		return nil, err
	}
	return r.Domains, nil
}

// NodeInventoryInto implements core.DriverConn: the reply decodes
// into inv's existing Domains capacity, and names whose bytes did not
// change keep their previous strings — so a steady-state poller of a
// fixed fleet allocates almost nothing per sweep.
func (c *Conn) NodeInventoryInto(inv *core.NodeInventory) error {
	var r struct {
		Node    wire.NodeInfoReply
		Domains []core.NamedDomainInfo
	}
	// Seed the decode destination with the retained values: unchanged
	// strings are kept as-is and the row storage is reused in place.
	r.Node.Model = inv.Node.Model
	r.Domains = inv.Domains
	if err := c.call(wire.ProcNodeInventory, &struct{}{}, &r); err != nil {
		return err
	}
	inv.Node = nodeInfoFromWire(&r.Node)
	inv.Domains = r.Domains
	return nil
}

// DomainStats implements core.DriverConn.
func (c *Conn) DomainStats(name string) (core.DomainStats, error) {
	var r wire.DomainStatsReply
	if err := c.call(wire.ProcDomainGetStats, &wire.NameArgs{Name: name}, &r); err != nil {
		return core.DomainStats{}, err
	}
	return core.DomainStats{
		State: core.DomainState(r.State), CPUTimeNs: r.CPUTimeNs,
		MemKiB: r.MemKiB, MaxMemKiB: r.MaxMemKiB, VCPUs: int(r.VCPUs),
		RdBytes: r.RdBytes, WrBytes: r.WrBytes, RdReqs: r.RdReqs, WrReqs: r.WrReqs,
		RxBytes: r.RxBytes, TxBytes: r.TxBytes, RxPkts: r.RxPkts, TxPkts: r.TxPkts,
		DirtyPages: r.DirtyPages,
	}, nil
}

// DomainXML implements core.DriverConn.
func (c *Conn) DomainXML(name string) (string, error) {
	return c.callString(wire.ProcDomainGetXML, &wire.NameArgs{Name: name})
}

// SetDomainMemory implements core.DriverConn.
func (c *Conn) SetDomainMemory(name string, kib uint64) error {
	return c.call(wire.ProcDomainSetMemory, &wire.SetMemoryArgs{Name: name, MemKiB: kib}, nil)
}

// SetDomainVCPUs implements core.DriverConn.
func (c *Conn) SetDomainVCPUs(name string, n int) error {
	if n < 0 {
		return core.Errorf(core.ErrInvalidArg, "vcpus must be non-negative")
	}
	return c.call(wire.ProcDomainSetVCPUs, &wire.SetVCPUsArgs{Name: name, VCPUs: uint32(n)}, nil)
}

// ListNetworks implements core.DriverConn.
func (c *Conn) ListNetworks() ([]string, error) {
	return c.callNames(wire.ProcNetworkList, &struct{}{})
}

// DefineNetwork implements core.DriverConn.
func (c *Conn) DefineNetwork(xmlDesc string) error {
	return c.call(wire.ProcNetworkDefine, &wire.XMLArgs{XML: xmlDesc}, nil)
}

// UndefineNetwork implements core.DriverConn.
func (c *Conn) UndefineNetwork(name string) error { return c.nameOp(wire.ProcNetworkUndefine, name) }

// StartNetwork implements core.DriverConn.
func (c *Conn) StartNetwork(name string) error { return c.nameOp(wire.ProcNetworkStart, name) }

// StopNetwork implements core.DriverConn.
func (c *Conn) StopNetwork(name string) error { return c.nameOp(wire.ProcNetworkStop, name) }

// NetworkXML implements core.DriverConn.
func (c *Conn) NetworkXML(name string) (string, error) {
	return c.callString(wire.ProcNetworkGetXML, &wire.NameArgs{Name: name})
}

// NetworkIsActive implements core.DriverConn.
func (c *Conn) NetworkIsActive(name string) (bool, error) {
	return c.callBool(wire.ProcNetworkIsActive, &wire.NameArgs{Name: name})
}

// NetworkDHCPLeases implements core.DriverConn.
func (c *Conn) NetworkDHCPLeases(name string) ([]core.DHCPLease, error) {
	var r wire.LeasesReply
	if err := c.call(wire.ProcNetworkDHCPLeases, &wire.NameArgs{Name: name}, &r); err != nil {
		return nil, err
	}
	out := make([]core.DHCPLease, len(r.Leases))
	for i, l := range r.Leases {
		out[i] = core.DHCPLease{MAC: l.MAC, IP: l.IP, Hostname: l.Hostname}
	}
	return out, nil
}

// ListStoragePools implements core.DriverConn.
func (c *Conn) ListStoragePools() ([]string, error) {
	return c.callNames(wire.ProcPoolList, &struct{}{})
}

// DefineStoragePool implements core.DriverConn.
func (c *Conn) DefineStoragePool(xmlDesc string) error {
	return c.call(wire.ProcPoolDefine, &wire.XMLArgs{XML: xmlDesc}, nil)
}

// UndefineStoragePool implements core.DriverConn.
func (c *Conn) UndefineStoragePool(name string) error { return c.nameOp(wire.ProcPoolUndefine, name) }

// StartStoragePool implements core.DriverConn.
func (c *Conn) StartStoragePool(name string) error { return c.nameOp(wire.ProcPoolStart, name) }

// StopStoragePool implements core.DriverConn.
func (c *Conn) StopStoragePool(name string) error { return c.nameOp(wire.ProcPoolStop, name) }

// StoragePoolXML implements core.DriverConn.
func (c *Conn) StoragePoolXML(name string) (string, error) {
	return c.callString(wire.ProcPoolGetXML, &wire.NameArgs{Name: name})
}

// StoragePoolInfo implements core.DriverConn.
func (c *Conn) StoragePoolInfo(name string) (core.StoragePoolInfo, error) {
	var r wire.PoolInfoReply
	if err := c.call(wire.ProcPoolGetInfo, &wire.NameArgs{Name: name}, &r); err != nil {
		return core.StoragePoolInfo{}, err
	}
	return core.StoragePoolInfo{
		Active: r.Active, CapacityKiB: r.CapacityKiB,
		AllocationKiB: r.AllocationKiB, AvailableKiB: r.AvailableKiB,
	}, nil
}

// ListVolumes implements core.DriverConn.
func (c *Conn) ListVolumes(pool string) ([]string, error) {
	return c.callNames(wire.ProcVolList, &wire.NameArgs{Name: pool})
}

// CreateVolume implements core.DriverConn.
func (c *Conn) CreateVolume(pool, xmlDesc string) error {
	return c.call(wire.ProcVolCreate, &wire.VolCreateArgs{Pool: pool, XML: xmlDesc}, nil)
}

// DeleteVolume implements core.DriverConn.
func (c *Conn) DeleteVolume(pool, name string) error {
	return c.call(wire.ProcVolDelete, &wire.VolArgs{Pool: pool, Name: name}, nil)
}

// VolumeXML implements core.DriverConn.
func (c *Conn) VolumeXML(pool, name string) (string, error) {
	return c.callString(wire.ProcVolGetXML, &wire.VolArgs{Pool: pool, Name: name})
}

// Register installs the remote driver as the registry fallback.
func Register() {
	core.RegisterRemote(func(u *uri.URI) (core.DriverConn, error) {
		return Open(u)
	})
}
