// Package admin implements the administration interface: runtime
// management of the daemon itself — servers, connected-client
// introspection and forced disconnect, metrics, and the live settings of
// govirtd.conf (workerpool and client limits, logging, admission
// control) — over its own protocol program. This is the published
// follow-on feature set to the management architecture (daemon
// self-management), built on the same RPC substrate.
package admin

import (
	"repro/internal/rpc"
	"repro/internal/typedparams"
)

// Admin program procedures. Numbers are protocol constants: a retired
// one stays a blank row, never handed out again.
const (
	ProcConnectOpen uint32 = 1 + iota
	ProcServerList
	ProcServerLookup
	_ // 4: retired with the live settings (was ThreadpoolGet)
	_ // 5: retired with the live settings (was ThreadpoolSet)
	_ // 6: retired with the live settings (was ClientLimitsGet)
	_ // 7: retired with the live settings (was ClientLimitsSet)
	ProcClientList
	ProcClientInfo
	ProcClientDisconnect
	_ // 11: retired with the live settings (was LogLevelGet)
	_ // 12: retired with the live settings (was LogLevelSet)
	_ // 13: retired with the live settings (was LogFiltersGet)
	_ // 14: retired with the live settings (was LogFiltersSet)
	_ // 15: retired with the live settings (was LogOutputsGet)
	_ // 16: retired with the live settings (was LogOutputsSet)
	ProcServerMetrics
	ProcServerSlowCalls
	_ // 19: retired with the live settings (was QoSGet)
	_ // 20: retired with the live settings (was QoSSet)
	ProcSettingsGet
	ProcSettingsSet
)

// Procs is the admin program's procedure table, indexed by procedure
// number. Every admin procedure is a priority operation: none of them
// depend on a hypervisor answering, so a daemon wedged on guest
// operations stays administrable. None is callable before
// authentication. The object of a procedure that addresses a server is
// that server's name.
var Procs = []rpc.Proc{
	ProcConnectOpen:      {Name: "ConnectOpen", Priority: true},
	ProcServerList:       {Name: "ServerList", Priority: true},
	ProcServerLookup:     {Name: "ServerLookup", Priority: true, Object: true},
	ProcClientList:       {Name: "ClientList", Priority: true, Object: true},
	ProcClientInfo:       {Name: "ClientInfo", Priority: true, Object: true},
	ProcClientDisconnect: {Name: "ClientDisconnect", Priority: true, Object: true},
	ProcServerMetrics:    {Name: "ServerMetrics", Priority: true},
	ProcServerSlowCalls:  {Name: "ServerSlowCalls", Priority: true},
	ProcSettingsGet:      {Name: "SettingsGet", Priority: true, Object: true},
	ProcSettingsSet:      {Name: "SettingsSet", Priority: true, Object: true},
}

// Typed-parameter field names of client identity.
const (
	FieldReadOnly      = "readonly"
	FieldSockAddr      = "sock_addr"
	FieldSASLUserName  = "sasl_user_name"
	FieldUnixUserID    = "unix_user_id"
	FieldUnixUserName  = "unix_user_name"
	FieldUnixGroupID   = "unix_group_id"
	FieldUnixProcessID = "unix_process_id"
)

// WireParam is one typed parameter on the wire.
type WireParam struct {
	Field string
	Kind  uint32
	I     int32
	U     uint32
	L     int64
	UL    uint64
	D     float64
	B     bool
	S     string
}

// ParamsToWire flattens a typed-parameter list for transport.
func ParamsToWire(l *typedparams.List) []WireParam {
	if l == nil {
		return nil
	}
	ps := l.Params()
	out := make([]WireParam, len(ps))
	for i, p := range ps {
		out[i] = WireParam{
			Field: p.Field, Kind: uint32(p.Kind),
			I: p.I, U: p.U, L: p.L, UL: p.UL, D: p.D, B: p.B, S: p.S,
		}
	}
	return out
}

// ParamsFromWire rebuilds a typed-parameter list, validating kinds and
// rejecting duplicates.
func ParamsFromWire(ws []WireParam) (*typedparams.List, error) {
	l := typedparams.NewList()
	for _, w := range ws {
		var err error
		switch typedparams.Kind(w.Kind) {
		case typedparams.Int:
			err = l.AddInt(w.Field, w.I)
		case typedparams.UInt:
			err = l.AddUInt(w.Field, w.U)
		case typedparams.LLong:
			err = l.AddLLong(w.Field, w.L)
		case typedparams.ULLong:
			err = l.AddULLong(w.Field, w.UL)
		case typedparams.Double:
			err = l.AddDouble(w.Field, w.D)
		case typedparams.Boolean:
			err = l.AddBoolean(w.Field, w.B)
		case typedparams.String:
			err = l.AddString(w.Field, w.S)
		default:
			return nil, &badKindError{field: w.Field, kind: w.Kind}
		}
		if err != nil {
			return nil, err
		}
	}
	return l, nil
}

type badKindError struct {
	field string
	kind  uint32
}

func (e *badKindError) Error() string {
	return "admin: parameter " + e.field + " has unknown kind"
}

// ServerArgs addresses a server by name.
type ServerArgs struct {
	Server string
}

// ServerListReply returns the daemon's server names in creation order.
type ServerListReply struct {
	Servers []string
}

// SettingsArgs names live settings of a server; no key names them all.
type SettingsArgs struct {
	Server string
	Keys   []string
}

// ParamsReply returns typed parameters.
type ParamsReply struct {
	Params []WireParam
}

// SetParamsArgs carries typed parameters to install on a server.
type SetParamsArgs struct {
	Server string
	Params []WireParam
}

// ClientRecord summarises one connected client.
type ClientRecord struct {
	ID        uint64
	Transport string
	Connected int64 // unix seconds
	AuthDone  bool
}

// ClientListReply returns the clients of a server.
type ClientListReply struct {
	Clients []ClientRecord
}

// ClientArgs addresses one client on a server.
type ClientArgs struct {
	Server string
	ID     uint64
}

// ClientInfoReply returns a client's identity as typed parameters plus
// the fixed fields.
type ClientInfoReply struct {
	Record ClientRecord
	Params []WireParam
}

// MetricCounter is one counter sample in a metrics reply.
type MetricCounter struct {
	Name  string
	Value uint64
}

// MetricGauge is one gauge sample in a metrics reply.
type MetricGauge struct {
	Name  string
	Value int64
}

// MetricBucket is one cumulative histogram bucket; UpperNs 0 means +Inf.
type MetricBucket struct {
	UpperNs    uint64
	Cumulative uint64
}

// MetricHistogram is one histogram sample with server-computed quantiles.
type MetricHistogram struct {
	Name    string
	Count   uint64
	SumNs   uint64
	P50Ns   uint64
	P95Ns   uint64
	P99Ns   uint64
	Buckets []MetricBucket
}

// MetricsReply returns a full snapshot of the daemon's metric registry.
type MetricsReply struct {
	Counters   []MetricCounter
	Gauges     []MetricGauge
	Histograms []MetricHistogram
}

// SlowCallRecord is one recorded slow call.
type SlowCallRecord struct {
	Serial    uint32
	Program   string
	Proc      string
	Client    uint64
	StartUnix int64 // unix nanos
	QueueNs   int64
	TotalNs   int64
}

// SlowCallsReply returns the tracer's state: lifetime span counts, the
// active threshold and the bounded ring of recent slow calls.
type SlowCallsReply struct {
	Started     uint64
	Slow        uint64
	ThresholdNs int64
	Calls       []SlowCallRecord
}
