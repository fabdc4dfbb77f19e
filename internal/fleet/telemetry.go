package fleet

import "repro/internal/telemetry"

// Fleet-controller metrics. They live in the Default registry so they
// surface through every existing export path (the Prometheus text
// endpoint, `virtadminx metrics` against an in-process daemon, and
// telemetry.Default.Snapshot()) without new plumbing.
var (
	fleetPlacements        = telemetry.Default.Counter("fleet_placements_total")
	fleetPlacementRetries  = telemetry.Default.Counter("fleet_placement_retries_total")
	fleetPlacementFailures = telemetry.Default.Counter("fleet_placement_failures_total")
	fleetPlacementLatency  = telemetry.Default.Histogram("fleet_placement_seconds")

	fleetHostsUp    = telemetry.Default.Gauge("fleet_hosts_up")
	fleetHostsKnown = telemetry.Default.Gauge("fleet_hosts_known")
	fleetReconnects = telemetry.Default.Counter("fleet_reconnects_total")

	fleetRebalanceMigrations = telemetry.Default.Counter("fleet_rebalance_migrations_total")
	fleetRebalanceFailures   = telemetry.Default.Counter("fleet_rebalance_failures_total")
	fleetPolls               = telemetry.Default.Counter("fleet_inventory_polls_total")

	// Polls deferred because the host's daemon answered ErrOverloaded:
	// the host stays up and the registry backs off by the server's
	// retry-after hint instead of tearing the connection down.
	fleetOverloadBackoffs = telemetry.Default.Counter("fleet_overload_backoffs_total")

	// Watch-driven reconciliation (watch.go).
	fleetWatchEvents  = telemetry.Default.Counter("fleet_watch_events_total")
	fleetWatchGaps    = telemetry.Default.Counter("fleet_watch_gaps_total")
	fleetWatchResyncs = telemetry.Default.Counter("watch_resyncs_total")
	fleetWatchFetches = telemetry.Default.Counter("fleet_watch_fetches_total")
)
