package common

import (
	"repro/internal/core"
	"repro/internal/telemetry"
)

// Inbound live-migration page traffic. The migration engine drives the
// destination through core.DriverConn: prepare registers a transfer
// against an already-defined domain, page chunks account received memory
// (and advance the machine's page-presence model once the domain runs in
// post-copy), finish drops the transfer state. The sink never touches
// domain lifecycle itself — the engine uses the ordinary define/create/
// undefine procedures for that, so an abandoned transfer leaves nothing
// behind but a deleted map entry.

var (
	sinkInbound  = telemetry.Default.Counter("migration_inbound_total")
	sinkChunks   = telemetry.Default.Counter("migration_chunks_rx_total")
	sinkPulls    = telemetry.Default.Counter("migration_pull_chunks_rx_total")
	sinkPagesRx  = telemetry.Default.Counter("migration_pages_rx_total")
	sinkFinished = telemetry.Default.Counter("migration_inbound_finished_total")
)

// inboundMigration is the receiver-side state of one transfer.
type inboundMigration struct {
	domain     string
	totalPages uint64
	streams    int
	received   uint64   // pages received in total
	pullPages  uint64   // pages received on the priority (fault-pull) stream
	perStream  []uint64 // pages per background stream
}

// MigratePrepare implements core.DriverConn.
func (b *Base) MigratePrepare(domain string, totalPages uint64, streams int) (uint64, error) {
	// streams sizes an allocation and arrives straight off the wire.
	if streams < 1 || streams > core.MaxMigrateStreams {
		return 0, core.Errorf(core.ErrInvalidArg,
			"migrate prepare: %d streams outside [1, %d]", streams, core.MaxMigrateStreams)
	}
	// Under the job, so an Undefine, which ends the domain's transfers,
	// comes wholly before or after.
	r, err := b.begin("", domain, wantAny)
	if err != nil {
		return 0, core.Errorf(core.ErrNoDomain,
			"migrate prepare: no domain %q on destination", domain)
	}
	defer r.job.Unlock()
	b.migMu.Lock()
	defer b.migMu.Unlock()
	if b.migrations == nil {
		b.migrations = make(map[uint64]*inboundMigration)
	}
	for _, in := range b.migrations {
		if in.domain == domain {
			return 0, core.Errorf(core.ErrOperationInvalid,
				"migrate prepare: domain %q already receiving a migration", domain)
		}
	}
	b.migCookie++
	cookie := b.migCookie
	b.migrations[cookie] = &inboundMigration{
		domain:     domain,
		totalPages: totalPages,
		streams:    streams,
		perStream:  make([]uint64, streams),
	}
	sinkInbound.Inc()
	return cookie, nil
}

// MigratePages implements core.DriverConn.
func (b *Base) MigratePages(ch *core.MigrateChunk) error {
	b.migMu.Lock()
	in, ok := b.migrations[ch.Cookie]
	if !ok {
		b.migMu.Unlock()
		return core.Errorf(core.ErrOperationInvalid,
			"migrate pages: unknown transfer cookie %d", ch.Cookie)
	}
	in.received += ch.Pages
	if ch.Priority {
		in.pullPages += ch.Pages
		sinkPulls.Inc()
	} else {
		if ch.Stream >= 0 && ch.Stream < len(in.perStream) {
			in.perStream[ch.Stream] += ch.Pages
		}
		sinkChunks.Inc()
	}
	domain := in.domain
	b.migMu.Unlock()
	sinkPagesRx.Add(ch.Pages)

	// Once the destination domain is running (post-copy switch-over
	// happened), arriving pages become resident in its machine model.
	if m, err := b.Machine(domain); err == nil {
		m.MarkPresent(ch.Pages)
	}
	return nil
}

// MigrateFinish implements core.DriverConn.
func (b *Base) MigrateFinish(cookie uint64, commit bool) error {
	b.migMu.Lock()
	defer b.migMu.Unlock()
	if _, ok := b.migrations[cookie]; !ok {
		return core.Errorf(core.ErrOperationInvalid,
			"migrate finish: unknown transfer cookie %d", cookie)
	}
	delete(b.migrations, cookie)
	sinkFinished.Inc()
	return nil
}

// InboundMigrationPages reports the received/pull page totals of the
// active transfer targeting domain, if any. Tests and diagnostics use it
// to verify that page traffic really crossed the sink.
func (b *Base) InboundMigrationPages(domain string) (received, pulled uint64, ok bool) {
	b.migMu.Lock()
	defer b.migMu.Unlock()
	for _, in := range b.migrations {
		if in.domain == domain {
			return in.received, in.pullPages, true
		}
	}
	return 0, 0, false
}
