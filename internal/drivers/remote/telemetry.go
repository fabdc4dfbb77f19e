package remote

import (
	"fmt"
	"sync/atomic"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Client-side view of the management plane: how long calls take as seen
// by the application (queue + wire + dispatch), and how often connecting
// succeeds. These live in the Default registry because driver connections
// have no daemon to report through.
var (
	remoteCalls      = telemetry.Default.Counter("remote_calls_total")
	remoteCallErrs   = telemetry.Default.Counter("remote_call_errors_total")
	remoteConnects   = telemetry.Default.Counter("remote_connects_total")
	remoteConnErrors = telemetry.Default.Counter("remote_connect_failures_total")

	// Calls retried after an ErrOverloaded rejection whose retry-after
	// hint fit under the driver's cap.
	remoteOverloadRetries = telemetry.Default.Counter("remote_overload_retries_total")

	// Per-procedure latency histograms, row for row beside wire.Procs;
	// each is created on its procedure's first call, so procedures a
	// process never calls add no series.
	callLatencies = make([]atomic.Pointer[telemetry.Histogram], len(wire.Procs))
)

// callLatency returns the latency histogram of one procedure.
func callLatency(proc uint32) *telemetry.Histogram {
	if h := callLatencies[proc].Load(); h != nil {
		return h
	}
	// The registry hands every racing first caller the same histogram.
	h := telemetry.Default.Histogram(fmt.Sprintf("remote_call_seconds{proc=%q}", wire.Procs[proc].Name))
	callLatencies[proc].Store(h)
	return h
}
