package telemetry

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// ContentType is the exact content type of the Prometheus text exposition
// format the handlers serve (format version 0.0.4).
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// splitName separates a metric name from its optional label clause:
// `a_total{x="1"}` → (`a_total`, `x="1"`).
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// appendEscapedLabelValue appends s with the label-value escapes the
// exposition format requires: backslash, double quote and newline.
func appendEscapedLabelValue(dst []byte, s string) []byte {
	start := 0 // beginning of the run not yet appended
	for i := 0; i < len(s); i++ {
		esc := s[i]
		switch esc {
		case '\\', '"':
		case '\n':
			esc = 'n'
		default:
			continue
		}
		dst = append(dst, s[start:i]...)
		dst = append(dst, '\\', esc)
		start = i + 1
	}
	return append(dst, s[start:]...)
}

// EscapeLabelValue escapes a label value for the text exposition format
// (`\` → `\\`, `"` → `\"`, newline → `\n`).
func EscapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	return string(appendEscapedLabelValue(make([]byte, 0, len(s)+8), s))
}

// Labels renders key/value pairs as a label clause body with properly
// escaped values: Labels("host", `n"1`) → `host="n\"1"`. Use it wherever
// a label clause is baked into a metric name or an Extra clause.
func Labels(kv ...string) string {
	if len(kv)%2 != 0 {
		panic("telemetry: Labels needs key/value pairs")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeHelp escapes a HELP docstring (backslash and newline only, per
// the exposition format).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// appendFamilyHeader appends the `# HELP` and `# TYPE` lines introducing
// one metric family.
func appendFamilyHeader(dst []byte, name, kind, help string) []byte {
	dst = append(dst, "# HELP "...)
	dst = append(dst, name...)
	dst = append(dst, ' ')
	dst = append(dst, escapeHelp(help)...)
	dst = append(dst, "\n# TYPE "...)
	dst = append(dst, name...)
	dst = append(dst, ' ')
	dst = append(dst, kind...)
	return append(dst, '\n')
}

// helpMu guards helpText: registrations are set-up-path only, renders
// take the read lock once per family.
var helpMu sync.RWMutex

// helpText maps metric family base names to their HELP docstrings.
// Families not listed here get a generated placeholder so every family
// in the exposition carries a HELP line.
var helpText = map[string]string{
	"daemon_dispatch_total":            "RPC procedures dispatched by the daemon.",
	"daemon_dispatch_errors_total":     "RPC procedure dispatches that returned an error.",
	"daemon_dispatch_seconds":          "Latency of RPC procedure dispatch.",
	"daemon_dispatch_unknown_total":    "Calls refused because their procedure number has no table row.",
	"daemon_clients":                   "Connected daemon clients.",
	"daemon_clients_rejected_total":    "Client connections rejected at the accept limit.",
	"daemon_pool_workers":              "Worker goroutines in the dispatch pool.",
	"daemon_pool_queue_depth":          "Jobs waiting in the dispatch pool queue.",
	"daemon_pool_busy_workers":         "Dispatch pool workers currently running a job.",
	"daemon_pool_jobs_done_total":      "Jobs completed by the dispatch pool.",
	"daemon_pool_spawns_total":         "Worker goroutines spawned by the dispatch pool.",
	"daemon_queue_wait_seconds":        "Time jobs waited in the dispatch pool queue.",
	"rpc_tx_frames_total":              "RPC frames transmitted.",
	"rpc_rx_frames_total":              "RPC frames received.",
	"rpc_tx_bytes_total":               "RPC bytes transmitted.",
	"rpc_rx_bytes_total":               "RPC bytes received.",
	"rpc_keepalive_pings_total":        "Keepalive pings sent.",
	"rpc_keepalive_pongs_total":        "Keepalive pongs received.",
	"rpc_keepalive_failures_total":     "Connections dropped by keepalive timeout.",
	"rpc_calls_deadline_total":         "RPC calls abandoned at their deadline.",
	"rpc_faults_dropped_total":         "Frames dropped by fault injection.",
	"rpc_faults_corrupted_total":       "Frames corrupted by fault injection.",
	"rpc_pong_write_failures_total":    "Keepalive pong writes that failed.",
	"remote_calls_total":               "Calls issued by the remote driver.",
	"remote_call_errors_total":         "Remote driver calls that returned an error.",
	"remote_connects_total":            "Connections opened by the remote driver.",
	"remote_connect_failures_total":    "Remote driver connection attempts that failed.",
	"remote_call_seconds":              "Latency of remote driver calls.",
	"driver_ops_total":                 "Operations executed by local drivers.",
	"fleet_placements_total":           "Domain placements performed by the fleet scheduler.",
	"fleet_placement_retries_total":    "Placements retried on another host.",
	"fleet_placement_failures_total":   "Placements that failed on every candidate host.",
	"fleet_placement_seconds":          "Latency of fleet placements.",
	"fleet_hosts_up":                   "Fleet hosts currently reachable.",
	"fleet_hosts_known":                "Fleet hosts registered.",
	"fleet_reconnects_total":           "Reconnect attempts to fleet hosts.",
	"fleet_rebalance_migrations_total": "Migrations performed by the rebalancer.",
	"fleet_rebalance_failures_total":   "Rebalancer migrations that failed.",
	"fleet_inventory_polls_total":      "Fleet inventory polls.",
	"fleet_watch_events_total":         "Watch-stream events folded into fleet cached state.",
	"fleet_watch_gaps_total":           "Watch-stream sequence gaps detected by the fleet.",
	"fleet_watch_fetches_total":        "Targeted bulk fetches for event-incomplete records.",
	"watch_resyncs_total":              "Bulk resync sweeps owed to watch-stream gaps.",
	"events_delivered_total":           "Watch-stream event frames delivered to subscribers.",
	"events_dropped_total":             "Watch-stream events dropped by queue overflow.",
	"events_coalesced_total":           "Watch-stream events coalesced into a newer same-domain frame.",
	"events_heartbeats_total":          "Watch-stream heartbeat frames sent.",
	"watch_queue_depth":                "Events queued across all watch subscriptions.",
	"watch_subscribers":                "Open watch subscriptions.",
	"fault_injected_total":             "Fault injections fired, by site and kind.",
}

// SetMetricHelp registers (or replaces) the HELP docstring for a metric
// family base name, used when the registry snapshot is rendered.
func SetMetricHelp(base, help string) {
	helpMu.Lock()
	helpText[base] = help
	helpMu.Unlock()
}

// metricHelp returns the HELP docstring for a family, generating a
// placeholder for unregistered names so the exposition never lacks one.
// The placeholder is registered, so it is built once, not per scrape.
func metricHelp(base string) string {
	helpMu.RLock()
	h, ok := helpText[base]
	helpMu.RUnlock()
	if ok {
		return h
	}
	helpMu.Lock()
	defer helpMu.Unlock()
	if h, ok = helpText[base]; !ok {
		h = "Metric " + base + "."
		helpText[base] = h
	}
	return h
}

// AppendPrometheus appends the registry in the Prometheus text
// exposition format (version 0.0.4) to dst: every family introduced by
// `# HELP`/`# TYPE` exactly once, samples grouped per family.
// Histograms are emitted in seconds, following the Prometheus base-unit
// convention; internal nanosecond names ending in `_seconds` are
// expected from callers. Every value is read in place, so the render
// allocates nothing once dst has room for it.
func (r *Registry) AppendPrometheus(dst []byte) []byte {
	for _, s := range r.series() {
		if s.opens {
			dst = appendFamilyHeader(dst, s.base, s.kind, metricHelp(s.base))
		}
		switch {
		case s.hist != nil:
			dst = s.hist.appendPrometheus(dst, s.base, s.labels)
		case s.counter != nil:
			dst = appendSample(dst, s.base, "", s.labels)
			dst = append(appendUint(dst, s.counter()), '\n')
		default:
			dst = appendSample(dst, s.base, "", s.labels)
			dst = append(strconv.AppendInt(dst, s.gauge(), 10), '\n')
		}
	}
	return dst
}

// appendSample appends a sample's name, label clause and the space
// before its value.
func appendSample(dst []byte, base, suffix, labels string) []byte {
	dst = append(dst, base...)
	dst = append(dst, suffix...)
	if labels != "" {
		dst = append(dst, '{')
		dst = append(dst, labels...)
		dst = append(dst, '}')
	}
	return append(dst, ' ')
}

// appendPrometheus appends the histogram's cumulative buckets, sum and
// count; the count is the +Inf bucket's total.
func (h *Histogram) appendPrometheus(dst []byte, base, labels string) []byte {
	var total uint64
	for i, c := range h.load() {
		total += c
		dst = append(dst, base...)
		dst = append(dst, "_bucket{"...)
		if labels != "" {
			dst = append(dst, labels...)
			dst = append(dst, ',')
		}
		dst = append(dst, `le="`...)
		if upper := upperNs(i); upper != 0 {
			dst = appendSeconds(dst, upper)
		} else {
			dst = append(dst, "+Inf"...)
		}
		dst = append(dst, `"} `...)
		dst = append(appendUint(dst, total), '\n')
	}
	dst = appendSample(dst, base, "_sum", labels)
	dst = append(appendSeconds(dst, h.sumNs.Load()), '\n')
	dst = appendSample(dst, base, "_count", labels)
	return append(appendUint(dst, total), '\n')
}

// renderBufs recycles the registry render's output buffer, a few tens
// of kilobytes sized by the number of registered series.
var renderBufs = sync.Pool{New: func() any { return new([]byte) }}

// Handler serves the registry in Prometheus text format — the daemon
// mounts this at /metrics when the listener is enabled in configuration.
func Handler(r *Registry) http.Handler {
	return HandlerWith(r, nil)
}

// HandlerWith serves the registry plus, when dc is non-nil, the
// per-domain collector's exposition on the same endpoint. The domain
// sweep runs (or is served from cache) before any byte is written, so a
// failed sweep becomes a clean 503 the scraper can see.
func HandlerWith(r *Registry, dc *DomainCollector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var domain *exposition
		if dc != nil {
			var err error
			domain, err = dc.acquire()
			if err != nil {
				http.Error(w, "domain metrics sweep failed: "+err.Error(),
					http.StatusServiceUnavailable)
				return
			}
			// The lease keeps the next sweep off the body until it is
			// written out.
			defer dc.release(domain)
		}
		w.Header().Set("Content-Type", ContentType)
		buf := renderBufs.Get().(*[]byte)
		*buf = r.AppendPrometheus((*buf)[:0])
		_, _ = w.Write(*buf)
		renderBufs.Put(buf)
		if domain != nil && len(domain.body) > 0 {
			_, _ = w.Write(domain.body)
		}
	})
}

// BucketBounds returns the fixed histogram bucket upper bounds in
// nanoseconds (ascending), exposed for tests and report tooling.
func BucketBounds() []uint64 { return append([]uint64(nil), bucketBoundsNs[:]...) }
