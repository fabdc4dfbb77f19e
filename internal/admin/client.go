package admin

import (
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/typedparams"
)

// Connect is a client connection to a daemon's admin server — the
// client-side API of the administration interface.
type Connect struct {
	client *rpc.Client
}

// DefaultAdminSocket is the admin server's conventional unix socket.
const DefaultAdminSocket = "/var/run/govirt/govirt-admin-sock"

// Open dials the admin server at the given unix socket path ("" for the
// default) and opens the admin connection.
func Open(socket string) (*Connect, error) {
	if socket == "" {
		socket = DefaultAdminSocket
	}
	nc, err := net.DialTimeout("unix", socket, 5*time.Second)
	if err != nil {
		return nil, core.Errorf(core.ErrNoConnect, "dial admin socket %s: %v", socket, err)
	}
	return OpenConn(nc)
}

// OpenConn wraps an established transport as an admin connection.
func OpenConn(nc net.Conn) (*Connect, error) {
	c := &Connect{client: rpc.NewClient(nc, rpc.ProgramAdmin, nil)}
	if err := c.call(ProcConnectOpen, &struct{}{}, nil); err != nil {
		c.client.Close()
		return nil, err
	}
	return c, nil
}

// Close releases the connection.
func (c *Connect) Close() error { return c.client.Close() }

func (c *Connect) call(proc uint32, args, ret interface{}) error {
	err := c.client.Call(proc, args, ret)
	if err == nil {
		return nil
	}
	if re, ok := err.(*rpc.RemoteError); ok {
		return &core.Error{Code: core.ErrorCode(re.Code), Message: re.Message}
	}
	return core.Errorf(core.ErrRPC, "%v", err)
}

// ListServers returns the daemon's server names.
func (c *Connect) ListServers() ([]string, error) {
	var r ServerListReply
	if err := c.call(ProcServerList, &struct{}{}, &r); err != nil {
		return nil, err
	}
	return r.Servers, nil
}

// LookupServer verifies a server exists.
func (c *Connect) LookupServer(name string) error {
	return c.call(ProcServerLookup, &ServerArgs{Server: name}, nil)
}

// Settings reads live settings of a server, every one when no key is
// named. Each comes back as a string parameter named by its key and
// written as in govirtd.conf: `8`, `"3:stderr"`, `["gold burst=5"]`.
func (c *Connect) Settings(server string, keys ...string) (*typedparams.List, error) {
	var r ParamsReply
	if err := c.call(ProcSettingsGet, &SettingsArgs{Server: server, Keys: keys}, &r); err != nil {
		return nil, err
	}
	return ParamsFromWire(r.Params)
}

// SetSettings changes live settings of a server: each parameter is a
// string named by its key and written as in govirtd.conf. The daemon
// checks every value as it checks the file, then applies all of them
// or, on any error, none.
func (c *Connect) SetSettings(server string, settings *typedparams.List) error {
	return c.call(ProcSettingsSet, &SetParamsArgs{
		Server: server, Params: ParamsToWire(settings),
	}, nil)
}

// ClientInfo describes one connected client.
type ClientInfo struct {
	ID        uint64
	Transport string
	Connected time.Time
	AuthDone  bool
	Identity  *typedparams.List
}

// ListClients returns the clients connected to a server.
func (c *Connect) ListClients(server string) ([]ClientInfo, error) {
	var r ClientListReply
	if err := c.call(ProcClientList, &ServerArgs{Server: server}, &r); err != nil {
		return nil, err
	}
	out := make([]ClientInfo, len(r.Clients))
	for i, rec := range r.Clients {
		out[i] = ClientInfo{
			ID:        rec.ID,
			Transport: rec.Transport,
			Connected: time.Unix(rec.Connected, 0),
			AuthDone:  rec.AuthDone,
		}
	}
	return out, nil
}

// GetClientInfo retrieves the identity details of one client.
func (c *Connect) GetClientInfo(server string, id uint64) (ClientInfo, error) {
	var r ClientInfoReply
	if err := c.call(ProcClientInfo, &ClientArgs{Server: server, ID: id}, &r); err != nil {
		return ClientInfo{}, err
	}
	identity, err := ParamsFromWire(r.Params)
	if err != nil {
		return ClientInfo{}, core.Errorf(core.ErrInternal, "%v", err)
	}
	return ClientInfo{
		ID:        r.Record.ID,
		Transport: r.Record.Transport,
		Connected: time.Unix(r.Record.Connected, 0),
		AuthDone:  r.Record.AuthDone,
		Identity:  identity,
	}, nil
}

// DisconnectClient forcefully closes a client's connection.
func (c *Connect) DisconnectClient(server string, id uint64) error {
	return c.call(ProcClientDisconnect, &ClientArgs{Server: server, ID: id}, nil)
}

// Metrics retrieves a full snapshot of the daemon's metric registry.
func (c *Connect) Metrics() (*MetricsReply, error) {
	var r MetricsReply
	if err := c.call(ProcServerMetrics, &struct{}{}, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// SlowCalls retrieves the daemon's recent slow-call ring and tracer
// counters.
func (c *Connect) SlowCalls() (*SlowCallsReply, error) {
	var r SlowCallsReply
	if err := c.call(ProcServerSlowCalls, &struct{}{}, &r); err != nil {
		return nil, err
	}
	return &r, nil
}
