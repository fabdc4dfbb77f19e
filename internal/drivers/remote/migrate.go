package remote

import (
	"repro/internal/core"
	"repro/internal/wire"
)

// Live-migration sink forwarding: the migration engine pushes page
// chunks at the destination connection through core.DriverConn, and
// this client carries them to the daemon over dedicated wire procedures.
// Chunks ride the same pooled frame path as every other call — pipelined
// over one connection, so N engine streams really do interleave N chunk
// sequences on the wire. Demand-fault pulls use a separate procedure
// number that the daemon schedules on its priority workers.

// MigratePrepare implements core.DriverConn.
func (c *Conn) MigratePrepare(domain string, totalPages uint64, streams int) (uint64, error) {
	var rep wire.MigratePrepareReply
	err := c.call(wire.ProcMigratePrepare, &wire.MigratePrepareArgs{
		Domain:     domain,
		TotalPages: totalPages,
		Streams:    uint32(streams),
	}, &rep)
	if err != nil {
		return 0, err
	}
	return rep.Cookie, nil
}

// MigratePages implements core.DriverConn.
func (c *Conn) MigratePages(ch *core.MigrateChunk) error {
	proc := wire.ProcMigratePages
	if ch.Priority {
		proc = wire.ProcMigratePagePull
	}
	return c.call(proc, &wire.MigratePagesArgs{
		Cookie: ch.Cookie,
		Stream: uint32(ch.Stream),
		Round:  uint32(ch.Round),
		Pages:  ch.Pages,
		Data:   ch.Data,
	}, nil)
}

// MigrateFinish implements core.DriverConn.
func (c *Conn) MigrateFinish(cookie uint64, commit bool) error {
	return c.call(wire.ProcMigrateFinish, &wire.MigrateFinishArgs{
		Cookie: cookie,
		Commit: commit,
	}, nil)
}
