package admin

import (
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/logging"
	"repro/internal/qos"
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

// Dispatch implements daemon.Program.
func (p *Program) Dispatch(c *daemon.Client, proc uint32, payload []byte) ([]byte, error) {
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

// logSet adapts the three logging setters: decode an A, apply it, and
// report what the logging subsystem refuses as an invalid argument.
func logSet[A any](set func(log *logging.Logger, args *A) error) handler {
	return withArgs(func(p *Program, _ *daemon.Client, a *A) ([]byte, error) {
		if err := set(p.d.Log(), a); err != nil {
			return nil, core.Errorf(core.ErrInvalidArg, "%v", err)
		}
		return marshal(&struct{}{})
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
	ProcThreadpoolGet:    onServer(threadpoolGet),
	ProcThreadpoolSet:    withArgs((*Program).threadpoolSet),
	ProcClientLimitsGet:  onServer(clientLimitsGet),
	ProcClientLimitsSet:  withArgs((*Program).clientLimitsSet),
	ProcClientList:       onServer(clientList),
	ProcClientInfo:       withArgs((*Program).clientInfo),
	ProcClientDisconnect: withArgs((*Program).clientDisconnect),
	ProcLogLevelGet: noArgs(func(p *Program) ([]byte, error) {
		return marshal(&LevelReply{Level: uint32(p.d.Log().Level())})
	}),
	ProcLogLevelSet: logSet(func(log *logging.Logger, a *LevelArgs) error {
		return log.SetLevel(logging.Priority(a.Level))
	}),
	ProcLogFiltersGet: noArgs(func(p *Program) ([]byte, error) {
		return marshal(&StringReply{Value: p.d.Log().FiltersString()})
	}),
	ProcLogFiltersSet: logSet(func(log *logging.Logger, a *StringArgs) error { return log.DefineFilters(a.Value) }),
	ProcLogOutputsGet: noArgs(func(p *Program) ([]byte, error) {
		return marshal(&StringReply{Value: p.d.Log().OutputsString()})
	}),
	ProcLogOutputsSet:   logSet(func(log *logging.Logger, a *StringArgs) error { return log.DefineOutputs(a.Value) }),
	ProcServerMetrics:   noArgs((*Program).serverMetrics),
	ProcServerSlowCalls: noArgs((*Program).serverSlowCalls),
	ProcQoSGet:          onServer(qosGet),
	ProcQoSSet:          withArgs((*Program).qosSet),
}

func (p *Program) serverByName(name string) (*daemon.Server, error) {
	srv, ok := p.d.Server(name)
	if !ok {
		return nil, core.Errorf(core.ErrAdmin, "no server %q", name)
	}
	return srv, nil
}

func threadpoolGet(srv *daemon.Server) ([]byte, error) {
	params := srv.Pool().Params()
	l := typedparams.NewList()
	l.AddUInt(FieldMinWorkers, uint32(params.MinWorkers))       //nolint:errcheck
	l.AddUInt(FieldMaxWorkers, uint32(params.MaxWorkers))       //nolint:errcheck
	l.AddUInt(FieldCurrentWorkers, uint32(params.NWorkers))     //nolint:errcheck
	l.AddUInt(FieldFreeWorkers, uint32(params.FreeWorkers))     //nolint:errcheck
	l.AddUInt(FieldPrioWorkers, uint32(params.PrioWorkers))     //nolint:errcheck
	l.AddUInt(FieldJobQueueDepth, uint32(params.JobQueueDepth)) //nolint:errcheck
	return marshal(&ParamsReply{Params: ParamsToWire(l)})
}

func (p *Program) threadpoolSet(_ *daemon.Client, args *SetParamsArgs) ([]byte, error) {
	srv, err := p.serverByName(args.Server)
	if err != nil {
		return nil, err
	}
	l, err := ParamsFromWire(args.Params)
	if err != nil {
		return nil, core.Errorf(core.ErrInvalidArg, "%v", err)
	}
	if err := l.Validate(ThreadpoolSetSchema, ThreadpoolReadOnly); err != nil {
		return nil, core.Errorf(core.ErrInvalidArg, "%v", err)
	}
	cur := srv.Pool().Params()
	min, max, prio := cur.MinWorkers, cur.MaxWorkers, cur.PrioWorkers
	if v, err := l.GetUInt(FieldMinWorkers); err == nil {
		min = int(v)
	}
	if v, err := l.GetUInt(FieldMaxWorkers); err == nil {
		max = int(v)
	}
	if v, err := l.GetUInt(FieldPrioWorkers); err == nil {
		prio = int(v)
	}
	if err := srv.Pool().SetParams(min, max, prio); err != nil {
		return nil, core.Errorf(core.ErrInvalidArg, "%v", err)
	}
	return marshal(&struct{}{})
}

func clientLimitsGet(srv *daemon.Server) ([]byte, error) {
	limits, cur, unauth := srv.Limits()
	l := typedparams.NewList()
	l.AddUInt(FieldMaxClients, uint32(limits.MaxClients))             //nolint:errcheck
	l.AddUInt(FieldCurrentClients, uint32(cur))                       //nolint:errcheck
	l.AddUInt(FieldMaxUnauthClients, uint32(limits.MaxUnauthClients)) //nolint:errcheck
	l.AddUInt(FieldCurrentUnauthClients, uint32(unauth))              //nolint:errcheck
	return marshal(&ParamsReply{Params: ParamsToWire(l)})
}

func (p *Program) clientLimitsSet(_ *daemon.Client, args *SetParamsArgs) ([]byte, error) {
	srv, err := p.serverByName(args.Server)
	if err != nil {
		return nil, err
	}
	l, err := ParamsFromWire(args.Params)
	if err != nil {
		return nil, core.Errorf(core.ErrInvalidArg, "%v", err)
	}
	if err := l.Validate(ClientLimitsSetSchema, ClientLimitsReadOnly); err != nil {
		return nil, core.Errorf(core.ErrInvalidArg, "%v", err)
	}
	limits, _, _ := srv.Limits()
	if v, err := l.GetUInt(FieldMaxClients); err == nil {
		limits.MaxClients = int(v)
	}
	if v, err := l.GetUInt(FieldMaxUnauthClients); err == nil {
		limits.MaxUnauthClients = int(v)
	}
	if err := srv.SetLimits(limits); err != nil {
		return nil, err
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

func qosGet(srv *daemon.Server) ([]byte, error) {
	eng := srv.QoS()
	if eng == nil {
		return marshal(&QoSReply{})
	}
	snaps := eng.Snapshot()
	out := QoSReply{
		Enabled:       true,
		ShedWatermark: uint32(eng.ShedWatermark()),
		Classes:       make([]QoSClassInfo, len(snaps)),
	}
	for i, s := range snaps {
		out.Classes[i] = QoSClassInfo{
			Spec:             s.Config.Spec(),
			Inflight:         s.Inflight,
			Queued:           s.Queued,
			RejectedRate:     s.Rejected[qos.ReasonRate],
			RejectedACL:      s.Rejected[qos.ReasonACL],
			RejectedInflight: s.Rejected[qos.ReasonInflight],
			RejectedShed:     s.Rejected[qos.ReasonShed],
		}
	}
	return marshal(&out)
}

func (p *Program) qosSet(_ *daemon.Client, args *QoSSetArgs) ([]byte, error) {
	srv, err := p.serverByName(args.Server)
	if err != nil {
		return nil, err
	}
	if args.Disable {
		srv.SetQoS(nil)
		return marshal(&struct{}{})
	}
	classes, err := qos.ParseClasses(args.Specs)
	if err != nil {
		return nil, core.Errorf(core.ErrInvalidArg, "%v", err)
	}
	srv.SetQoS(qos.NewEngine(qos.Config{
		Classes:       classes,
		ShedWatermark: int(args.ShedWatermark),
	}))
	return marshal(&struct{}{})
}

func marshal(v interface{}) ([]byte, error) {
	out, err := rpc.Marshal(v)
	if err != nil {
		return nil, core.Errorf(core.ErrInternal, "marshal reply: %v", err)
	}
	return out, nil
}

var _ daemon.Program = (*Program)(nil)
