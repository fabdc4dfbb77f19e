package rpc

import (
	"fmt"

	"repro/internal/telemetry"
)

// Wire-level counters. Every framed message in the process is counted
// here regardless of which connection carried it; the cost is two atomic
// adds per message. They live in the Default registry so the daemon's
// metrics surface and the Prometheus endpoint see the whole substrate.
var (
	txFrames = telemetry.Default.Counter("rpc_tx_frames_total")
	rxFrames = telemetry.Default.Counter("rpc_rx_frames_total")
	txBytes  = telemetry.Default.Counter("rpc_tx_bytes_total")
	rxBytes  = telemetry.Default.Counter("rpc_rx_bytes_total")

	kaPingsSent = telemetry.Default.Counter("rpc_keepalive_pings_total")
	kaPongsRcvd = telemetry.Default.Counter("rpc_keepalive_pongs_total")
	kaFailures  = telemetry.Default.Counter("rpc_keepalive_failures_total")

	// Robustness counters: calls abandoned at their deadline and frames
	// perturbed by the armed faultpoint registry. Fault counters stay at
	// zero in production (the registry is disarmed); under chaos tests
	// they let assertions confirm faults actually flowed.
	callsDeadlined  = telemetry.Default.Counter("rpc_calls_deadline_total")
	faultsDropped   = telemetry.Default.Counter("rpc_faults_dropped_total")
	faultsCorrupted = telemetry.Default.Counter("rpc_faults_corrupted_total")

	// Pong replies the client failed to send (a run of them tears the
	// connection down, see maxPongWriteFailures).
	pongWriteFails = telemetry.Default.Counter("rpc_pong_write_failures_total")
)

// Proc declares one procedure of a protocol program. A program's table
// is a slice of rows indexed by procedure number (a blank row is a
// number the program does not serve), and it is the only place a
// procedure is described: the daemon's read loop derives names for
// metrics, QoS ACL rules and slow-call traces, worker routing, the
// authentication gate and ACL object extraction from the row.
type Proc struct {
	Name     string // symbolic name; operator surface (ACL patterns, proc= labels)
	Priority bool   // never waits on a hypervisor: may run on priority workers
	PreAuth  bool   // callable before authentication completes
	Object   bool   // the payload leads with the object name ACL rules match on
}

var programNames = map[uint32]string{
	ProgramRemote: "remote",
	ProgramAdmin:  "admin",
}

// ProgramName returns the symbolic name of a program number.
func ProgramName(program uint32) string {
	if s, ok := programNames[program]; ok {
		return s
	}
	return fmt.Sprintf("program-0x%x", program)
}
