package admin

import (
	"slices"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/rpc"
	"repro/internal/typedparams"
)

// Program dispatches the admin protocol against a daemon.
type Program struct {
	d *daemon.Daemon
}

// NewProgram creates the admin program for a daemon.
func NewProgram(d *daemon.Daemon) *Program { return &Program{d: d} }

// ID implements daemon.Program.
func (p *Program) ID() uint32 { return rpc.ProgramAdmin }

// Procs implements daemon.Program.
func (p *Program) Procs() []rpc.Proc { return Procs }

// ClientClosed implements daemon.Program; the admin program keeps no
// per-client state.
func (p *Program) ClientClosed(*daemon.Client) {}

// Dispatch implements daemon.Program. Admin calls are rare, so each
// reply is marshalled into a buffer of its own.
func (p *Program) Dispatch(c *daemon.Client, proc uint32, payload, _ []byte) ([]byte, error) {
	if uint64(proc) >= uint64(len(handlers)) || handlers[proc] == nil {
		return nil, core.Errorf(core.ErrNoSupport, "unknown admin procedure %d", proc)
	}
	return handlers[proc](p, c, payload)
}

// handler executes one admin procedure on behalf of the calling client.
type handler func(p *Program, caller *daemon.Client, payload []byte) ([]byte, error)

// noArgs adapts a procedure that never reads its payload.
func noArgs(fn func(p *Program) ([]byte, error)) handler {
	return func(p *Program, _ *daemon.Client, _ []byte) ([]byte, error) { return fn(p) }
}

// withArgs adapts a procedure whose payload decodes into an A.
func withArgs[A any](fn func(p *Program, caller *daemon.Client, args *A) ([]byte, error)) handler {
	return func(p *Program, caller *daemon.Client, payload []byte) ([]byte, error) {
		var args A
		if err := rpc.Unmarshal(payload, &args); err != nil {
			return nil, core.Errorf(core.ErrInvalidArg, "decode arguments: %v", err)
		}
		return fn(p, caller, &args)
	}
}

// onServer adapts a procedure whose only argument names a server.
func onServer(fn func(srv *daemon.Server) ([]byte, error)) handler {
	return withArgs(func(p *Program, _ *daemon.Client, a *ServerArgs) ([]byte, error) {
		srv, err := p.serverByName(a.Server)
		if err != nil {
			return nil, err
		}
		return fn(srv)
	})
}

// handlers holds the implementation of every row of Procs, indexed by
// procedure number like the table itself.
var handlers = []handler{
	ProcConnectOpen: noArgs(func(*Program) ([]byte, error) { return marshal(&struct{}{}) }),
	ProcServerList: noArgs(func(p *Program) ([]byte, error) {
		return marshal(&ServerListReply{Servers: p.d.Servers()})
	}),
	ProcServerLookup: onServer(func(srv *daemon.Server) ([]byte, error) {
		return marshal(&ServerListReply{Servers: []string{srv.Name()}})
	}),
	ProcClientList:       onServer(clientList),
	ProcClientInfo:       withArgs((*Program).clientInfo),
	ProcClientDisconnect: withArgs((*Program).clientDisconnect),
	ProcServerMetrics:    noArgs((*Program).serverMetrics),
	ProcServerSlowCalls:  noArgs((*Program).serverSlowCalls),
	ProcSettingsGet:      withArgs((*Program).settingsGet),
	ProcSettingsSet:      withArgs((*Program).settingsSet),
}

func (p *Program) serverByName(name string) (*daemon.Server, error) {
	srv, ok := p.d.Server(name)
	if !ok {
		return nil, core.Errorf(core.ErrAdmin, "no server %q", name)
	}
	return srv, nil
}

// settingsGet reports live settings of a server in key-table order,
// each a string written as in govirtd.conf.
func (p *Program) settingsGet(_ *daemon.Client, args *SettingsArgs) ([]byte, error) {
	srv, err := p.serverByName(args.Server)
	if err != nil {
		return nil, err
	}
	l := typedparams.NewList()
	for _, st := range srv.Settings().Live() {
		if len(args.Keys) == 0 || slices.Contains(args.Keys, st.Key) {
			l.AddString(st.Key, st.Value) //nolint:errcheck
		}
	}
	for _, key := range args.Keys {
		if !l.Has(key) {
			return nil, core.Errorf(core.ErrInvalidArg, "no live setting %q", key)
		}
	}
	return marshal(&ParamsReply{Params: ParamsToWire(l)})
}

// settingsSet changes live settings of a server: each parameter names a
// key and carries its value as a string written as in govirtd.conf. The
// server takes all of them or none.
func (p *Program) settingsSet(_ *daemon.Client, args *SetParamsArgs) ([]byte, error) {
	srv, err := p.serverByName(args.Server)
	if err != nil {
		return nil, err
	}
	l, err := ParamsFromWire(args.Params)
	if err != nil {
		return nil, core.Errorf(core.ErrInvalidArg, "%v", err)
	}
	settings := make([]daemon.Setting, l.Len())
	for i, prm := range l.Params() {
		if prm.Kind != typedparams.String {
			return nil, core.Errorf(core.ErrInvalidArg, "%s: a setting is a string, written as in govirtd.conf", prm.Field)
		}
		settings[i] = daemon.Setting{Key: prm.Field, Value: prm.S}
	}
	if err := srv.Set(settings); err != nil {
		return nil, core.Errorf(core.ErrInvalidArg, "%v", err)
	}
	return marshal(&struct{}{})
}

func clientList(srv *daemon.Server) ([]byte, error) {
	clients := srv.Clients()
	out := ClientListReply{Clients: make([]ClientRecord, len(clients))}
	for i, c := range clients {
		out.Clients[i] = clientRecord(c)
	}
	return marshal(&out)
}

func clientRecord(c *daemon.Client) ClientRecord {
	return ClientRecord{
		ID:        c.ID(),
		Transport: c.Transport().String(),
		Connected: c.ConnectedAt().Unix(),
		AuthDone:  c.Authenticated(),
	}
}

func (p *Program) clientInfo(_ *daemon.Client, args *ClientArgs) ([]byte, error) {
	srv, err := p.serverByName(args.Server)
	if err != nil {
		return nil, err
	}
	client, ok := srv.Client(args.ID)
	if !ok {
		return nil, core.Errorf(core.ErrAdmin, "server %q has no client %d", args.Server, args.ID)
	}
	id := client.Identity()
	l := typedparams.NewList()
	l.AddBoolean(FieldReadOnly, id.ReadOnly) //nolint:errcheck
	switch client.Transport() {
	case daemon.TransportUnix:
		l.AddInt(FieldUnixUserID, int32(id.UID))    //nolint:errcheck
		l.AddString(FieldUnixUserName, id.Username) //nolint:errcheck
		l.AddInt(FieldUnixGroupID, int32(id.GID))   //nolint:errcheck
		l.AddInt(FieldUnixProcessID, int32(id.PID)) //nolint:errcheck
	default:
		l.AddString(FieldSockAddr, id.SockAddr) //nolint:errcheck
		if id.SASLUser != "" {
			l.AddString(FieldSASLUserName, id.SASLUser) //nolint:errcheck
		}
	}
	return marshal(&ClientInfoReply{Record: clientRecord(client), Params: ParamsToWire(l)})
}

func (p *Program) clientDisconnect(self *daemon.Client, args *ClientArgs) ([]byte, error) {
	srv, err := p.serverByName(args.Server)
	if err != nil {
		return nil, err
	}
	client, ok := srv.Client(args.ID)
	if !ok {
		return nil, core.Errorf(core.ErrAdmin, "server %q has no client %d", args.Server, args.ID)
	}
	if client == self {
		return nil, core.Errorf(core.ErrOperationInvalid, "refusing to disconnect the calling client")
	}
	if err := client.Close(); err != nil {
		return nil, core.Errorf(core.ErrAdmin, "disconnect client %d: %v", args.ID, err)
	}
	return marshal(&struct{}{})
}

func (p *Program) serverMetrics() ([]byte, error) {
	reg := p.d.Metrics()
	if reg == nil {
		return nil, core.Errorf(core.ErrNoSupport, "daemon is running without telemetry")
	}
	snap := reg.Snapshot()
	out := MetricsReply{
		Counters:   make([]MetricCounter, len(snap.Counters)),
		Gauges:     make([]MetricGauge, len(snap.Gauges)),
		Histograms: make([]MetricHistogram, len(snap.Histograms)),
	}
	for i, c := range snap.Counters {
		out.Counters[i] = MetricCounter{Name: c.Name, Value: c.Value}
	}
	for i, g := range snap.Gauges {
		out.Gauges[i] = MetricGauge{Name: g.Name, Value: g.Value}
	}
	for i, h := range snap.Histograms {
		mh := MetricHistogram{
			Name: h.Name, Count: h.Count, SumNs: h.SumNs,
			P50Ns: h.P50Ns, P95Ns: h.P95Ns, P99Ns: h.P99Ns,
			Buckets: make([]MetricBucket, len(h.Buckets)),
		}
		for j, b := range h.Buckets {
			mh.Buckets[j] = MetricBucket{UpperNs: b.UpperNs, Cumulative: b.Cumulative}
		}
		out.Histograms[i] = mh
	}
	return marshal(&out)
}

func (p *Program) serverSlowCalls() ([]byte, error) {
	tr := p.d.Tracer()
	if tr == nil {
		return nil, core.Errorf(core.ErrNoSupport, "daemon is running without telemetry")
	}
	calls := tr.SlowCalls()
	out := SlowCallsReply{
		Started:     tr.Started(),
		Slow:        tr.SlowCount(),
		ThresholdNs: int64(tr.Threshold()),
		Calls:       make([]SlowCallRecord, len(calls)),
	}
	for i, sc := range calls {
		out.Calls[i] = SlowCallRecord{
			Serial:    sc.Serial,
			Program:   sc.Program,
			Proc:      sc.Proc,
			Client:    sc.Client,
			StartUnix: sc.Start.UnixNano(),
			QueueNs:   int64(sc.QueueWait),
			TotalNs:   int64(sc.Duration),
		}
	}
	return marshal(&out)
}

func marshal(v interface{}) ([]byte, error) {
	out, err := rpc.Marshal(v)
	if err != nil {
		return nil, core.Errorf(core.ErrInternal, "marshal reply: %v", err)
	}
	return out, nil
}

var _ daemon.Program = (*Program)(nil)
