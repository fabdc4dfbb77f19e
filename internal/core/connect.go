package core

import (
	"sync"

	"repro/internal/events"
	"repro/internal/uri"
)

// Connect is an open management connection — the root object of the API.
type Connect struct {
	mu     sync.Mutex
	uri    *uri.URI
	drv    DriverConn
	closed bool
}

// Open establishes a connection for the given URI string, selecting the
// driver through the registry (remote URIs route to the remote driver).
func Open(uriStr string) (*Connect, error) {
	u, err := uri.Parse(uriStr)
	if err != nil {
		return nil, wrap(ErrInvalidArg, err)
	}
	factory, err := lookupFactory(u)
	if err != nil {
		return nil, err
	}
	drv, err := factory(u)
	if err != nil {
		return nil, wrap(ErrNoConnect, err)
	}
	return &Connect{uri: u, drv: drv}, nil
}

// OpenWith wraps an already-constructed driver connection; the daemon
// uses it to run API calls against its server-side drivers.
func OpenWith(u *uri.URI, drv DriverConn) *Connect {
	return &Connect{uri: u, drv: drv}
}

// Close releases the connection. Further use returns ErrConnectionClosed.
func (c *Connect) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return Errorf(ErrConnectionClosed, "connection already closed")
	}
	c.closed = true
	return c.drv.Close()
}

// conn returns the live driver or an error if closed.
func (c *Connect) conn() (DriverConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, Errorf(ErrConnectionClosed, "connection is closed")
	}
	return c.drv, nil
}

// do runs a driver operation that takes one string and returns only an
// error (a domain, network or pool name, or an XML definition).
func (c *Connect) do(op func(DriverConn, string) error, arg string) error {
	d, err := c.conn()
	if err != nil {
		return err
	}
	return op(d, arg)
}

// URI returns the connection URI.
func (c *Connect) URI() *uri.URI { return c.uri }

// Driver exposes the underlying driver connection to subsystems that
// call it directly (migration, daemon dispatch, fleet and telemetry
// sweeps).
func (c *Connect) Driver() DriverConn { return c.drv }

// Type returns the driver name.
func (c *Connect) Type() (string, error) {
	d, err := c.conn()
	if err != nil {
		return "", err
	}
	return d.Type(), nil
}

// Version returns the hypervisor version banner.
func (c *Connect) Version() (string, error) {
	d, err := c.conn()
	if err != nil {
		return "", err
	}
	return d.Version()
}

// Hostname returns the managed host's name.
func (c *Connect) Hostname() (string, error) {
	d, err := c.conn()
	if err != nil {
		return "", err
	}
	return d.Hostname()
}

// CapabilitiesXML returns the capabilities document.
func (c *Connect) CapabilitiesXML() (string, error) {
	d, err := c.conn()
	if err != nil {
		return "", err
	}
	return d.CapabilitiesXML()
}

// NodeInfo returns the host node summary.
func (c *Connect) NodeInfo() (NodeInfo, error) {
	d, err := c.conn()
	if err != nil {
		return NodeInfo{}, err
	}
	return d.NodeInfo()
}

// DomainListInfo collects name+info rows for every domain matching
// flags in one driver call (one round trip over the remote driver).
func (c *Connect) DomainListInfo(flags ListFlags) ([]NamedDomainInfo, error) {
	d, err := c.conn()
	if err != nil {
		return nil, err
	}
	return d.DomainListInfo(flags, nil)
}

// NodeInventory returns a whole-host monitoring snapshot: the node
// summary plus every domain's info, in one driver call.
func (c *Connect) NodeInventory() (NodeInventory, error) {
	var inv NodeInventory
	if err := c.NodeInventoryInto(&inv); err != nil {
		return NodeInventory{}, err
	}
	return inv, nil
}

// NodeInventoryInto refreshes *inv in place — the steady-state form of
// NodeInventory for monitoring pollers, reusing the inventory's row
// storage.
func (c *Connect) NodeInventoryInto(inv *NodeInventory) error {
	d, err := c.conn()
	if err != nil {
		return err
	}
	return d.NodeInventoryInto(inv)
}

// ListAllDomains enumerates domains matching flags (0 = all) as handles.
func (c *Connect) ListAllDomains(flags ListFlags) ([]*Domain, error) {
	d, err := c.conn()
	if err != nil {
		return nil, err
	}
	names, err := d.ListDomains(flags)
	if err != nil {
		return nil, err
	}
	out := make([]*Domain, 0, len(names))
	for _, n := range names {
		meta, err := d.LookupDomain(n)
		if err != nil {
			// Racing undefine between list and lookup: skip.
			if IsCode(err, ErrNoDomain) {
				continue
			}
			return nil, err
		}
		out = append(out, &Domain{c: c, meta: meta})
	}
	return out, nil
}

// LookupDomain returns a handle for the named domain.
func (c *Connect) LookupDomain(name string) (*Domain, error) {
	d, err := c.conn()
	if err != nil {
		return nil, err
	}
	meta, err := d.LookupDomain(name)
	if err != nil {
		return nil, err
	}
	return &Domain{c: c, meta: meta}, nil
}

// LookupDomainByUUID returns a handle for the domain with the given UUID.
func (c *Connect) LookupDomainByUUID(uuidStr string) (*Domain, error) {
	d, err := c.conn()
	if err != nil {
		return nil, err
	}
	meta, err := d.LookupDomainByUUID(uuidStr)
	if err != nil {
		return nil, err
	}
	return &Domain{c: c, meta: meta}, nil
}

// DefineDomain registers a persistent domain from its XML definition.
func (c *Connect) DefineDomain(xmlDesc string) (*Domain, error) {
	d, err := c.conn()
	if err != nil {
		return nil, err
	}
	meta, err := d.DefineDomain(xmlDesc)
	if err != nil {
		return nil, err
	}
	return &Domain{c: c, meta: meta}, nil
}

// CreateDomainXML defines and immediately starts a domain.
func (c *Connect) CreateDomainXML(xmlDesc string) (*Domain, error) {
	dom, err := c.DefineDomain(xmlDesc)
	if err != nil {
		return nil, err
	}
	if err := dom.Create(); err != nil {
		// Keep the system clean: a failed create leaves no definition.
		_ = dom.Undefine()
		return nil, err
	}
	return dom, nil
}

// WatchEvents opens a watch stream: sequenced lifecycle events filtered
// to one domain name ("" for all) and an event-type set (nil for all),
// with loss surfaced through the handler's gap flag. Remote connections
// stream server-push frames (WatchSource); local drivers are adapted
// from their event bus, whose synchronous in-process delivery never
// gaps. ErrNoSupport when the driver delivers no events at all.
func (c *Connect) WatchEvents(domain string, types []events.Type, h WatchHandler) (WatchHandle, error) {
	d, err := c.conn()
	if err != nil {
		return nil, err
	}
	if ws, ok := d.(WatchSource); ok {
		return ws.WatchEvents(domain, types, h)
	}
	src, ok := d.(EventSource)
	if !ok {
		return nil, Errorf(ErrNoSupport, "driver %q does not deliver events", d.Type())
	}
	id := src.EventBus().Subscribe(domain, types, func(ev events.Event) { h(ev, false) })
	return busWatch{bus: src.EventBus(), id: id}, nil
}

// busWatch adapts a local event-bus subscription to the WatchHandle
// contract.
type busWatch struct {
	bus *events.Bus
	id  int
}

// Close implements WatchHandle.
func (w busWatch) Close() error {
	w.bus.Unsubscribe(w.id)
	return nil
}

// Alive reports transport liveness without a round trip: false once the
// connection is closed or its driver (via ConnHealth) knows the
// transport is gone. Drivers without ConnHealth are presumed alive.
func (c *Connect) Alive() bool {
	d, err := c.conn()
	if err != nil {
		return false
	}
	if h, ok := d.(ConnHealth); ok {
		return h.Alive()
	}
	return true
}

// Domain is a handle on one domain.
type Domain struct {
	c    *Connect
	meta DomainMeta
}

// Name returns the domain name.
func (d *Domain) Name() string { return d.meta.Name }

// UUID returns the domain UUID string.
func (d *Domain) UUID() string { return d.meta.UUID }

// ID returns the runtime id at handle-creation time (-1 if inactive).
func (d *Domain) ID() int { return d.meta.ID }

// Connect returns the owning connection.
func (d *Domain) Connect() *Connect { return d.c }

func (d *Domain) drv() (DriverConn, error) { return d.c.conn() }

// Create starts the defined domain.
func (d *Domain) Create() error { return d.c.do(DriverConn.CreateDomain, d.meta.Name) }

// Destroy force-stops the domain.
func (d *Domain) Destroy() error { return d.c.do(DriverConn.DestroyDomain, d.meta.Name) }

// Shutdown asks the guest to shut down gracefully.
func (d *Domain) Shutdown() error { return d.c.do(DriverConn.ShutdownDomain, d.meta.Name) }

// Reboot restarts the guest.
func (d *Domain) Reboot() error { return d.c.do(DriverConn.RebootDomain, d.meta.Name) }

// Suspend pauses the domain, keeping memory resident.
func (d *Domain) Suspend() error { return d.c.do(DriverConn.SuspendDomain, d.meta.Name) }

// Resume continues a suspended domain.
func (d *Domain) Resume() error { return d.c.do(DriverConn.ResumeDomain, d.meta.Name) }

// Undefine removes the persistent definition (the domain must be off).
func (d *Domain) Undefine() error { return d.c.do(DriverConn.UndefineDomain, d.meta.Name) }

// Info returns the compact info block.
func (d *Domain) Info() (DomainInfo, error) {
	drv, err := d.drv()
	if err != nil {
		return DomainInfo{}, err
	}
	return drv.DomainInfo(d.meta.Name)
}

// Stats returns the extended monitoring snapshot.
func (d *Domain) Stats() (DomainStats, error) {
	drv, err := d.drv()
	if err != nil {
		return DomainStats{}, err
	}
	return drv.DomainStats(d.meta.Name)
}

// State returns just the lifecycle state.
func (d *Domain) State() (DomainState, error) {
	info, err := d.Info()
	if err != nil {
		return DomainNoState, err
	}
	return info.State, nil
}

// XML returns the live definition document.
func (d *Domain) XML() (string, error) {
	drv, err := d.drv()
	if err != nil {
		return "", err
	}
	return drv.DomainXML(d.meta.Name)
}

// SetMemory adjusts the domain's memory balloon.
func (d *Domain) SetMemory(kib uint64) error {
	drv, err := d.drv()
	if err != nil {
		return err
	}
	return drv.SetDomainMemory(d.meta.Name, kib)
}

// SetVCPUs adjusts the domain's active vCPU count.
func (d *Domain) SetVCPUs(n int) error {
	drv, err := d.drv()
	if err != nil {
		return err
	}
	return drv.SetDomainVCPUs(d.meta.Name, n)
}

// ListNetworks enumerates virtual network names.
func (c *Connect) ListNetworks() ([]string, error) {
	d, err := c.conn()
	if err != nil {
		return nil, err
	}
	return d.ListNetworks()
}

// DefineNetwork registers a virtual network from XML.
func (c *Connect) DefineNetwork(xmlDesc string) error { return c.do(DriverConn.DefineNetwork, xmlDesc) }

// UndefineNetwork removes a network definition.
func (c *Connect) UndefineNetwork(name string) error { return c.do(DriverConn.UndefineNetwork, name) }

// StartNetwork brings a network up.
func (c *Connect) StartNetwork(name string) error { return c.do(DriverConn.StartNetwork, name) }

// StopNetwork tears a network down.
func (c *Connect) StopNetwork(name string) error { return c.do(DriverConn.StopNetwork, name) }

// NetworkXML returns a network's definition document.
func (c *Connect) NetworkXML(name string) (string, error) {
	d, err := c.conn()
	if err != nil {
		return "", err
	}
	return d.NetworkXML(name)
}

// NetworkIsActive reports whether the network is up.
func (c *Connect) NetworkIsActive(name string) (bool, error) {
	d, err := c.conn()
	if err != nil {
		return false, err
	}
	return d.NetworkIsActive(name)
}

// NetworkDHCPLeases lists active leases on the network.
func (c *Connect) NetworkDHCPLeases(name string) ([]DHCPLease, error) {
	d, err := c.conn()
	if err != nil {
		return nil, err
	}
	return d.NetworkDHCPLeases(name)
}

// ListStoragePools enumerates pool names.
func (c *Connect) ListStoragePools() ([]string, error) {
	d, err := c.conn()
	if err != nil {
		return nil, err
	}
	return d.ListStoragePools()
}

// DefineStoragePool registers a pool from XML.
func (c *Connect) DefineStoragePool(xmlDesc string) error {
	return c.do(DriverConn.DefineStoragePool, xmlDesc)
}

// UndefineStoragePool removes a pool definition.
func (c *Connect) UndefineStoragePool(name string) error {
	return c.do(DriverConn.UndefineStoragePool, name)
}

// StartStoragePool activates a pool.
func (c *Connect) StartStoragePool(name string) error { return c.do(DriverConn.StartStoragePool, name) }

// StopStoragePool deactivates a pool.
func (c *Connect) StopStoragePool(name string) error { return c.do(DriverConn.StopStoragePool, name) }

// StoragePoolXML returns a pool's definition document.
func (c *Connect) StoragePoolXML(name string) (string, error) {
	d, err := c.conn()
	if err != nil {
		return "", err
	}
	return d.StoragePoolXML(name)
}

// StoragePoolInfo returns a pool's space accounting.
func (c *Connect) StoragePoolInfo(name string) (StoragePoolInfo, error) {
	d, err := c.conn()
	if err != nil {
		return StoragePoolInfo{}, err
	}
	return d.StoragePoolInfo(name)
}

// ListVolumes enumerates volume names within a pool.
func (c *Connect) ListVolumes(pool string) ([]string, error) {
	d, err := c.conn()
	if err != nil {
		return nil, err
	}
	return d.ListVolumes(pool)
}

// CreateVolume creates a volume in a pool from XML.
func (c *Connect) CreateVolume(pool, xmlDesc string) error {
	d, err := c.conn()
	if err != nil {
		return err
	}
	return d.CreateVolume(pool, xmlDesc)
}

// DeleteVolume removes a volume from a pool.
func (c *Connect) DeleteVolume(pool, name string) error {
	d, err := c.conn()
	if err != nil {
		return err
	}
	return d.DeleteVolume(pool, name)
}

// VolumeXML returns a volume's definition document.
func (c *Connect) VolumeXML(pool, name string) (string, error) {
	d, err := c.conn()
	if err != nil {
		return "", err
	}
	return d.VolumeXML(pool, name)
}
