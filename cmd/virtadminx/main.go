// Command virtadminx is the daemon administration client — the
// virt-admin equivalent. It connects to the daemon's admin server over
// its unix socket and manages workerpools, client limits, connected
// clients and the logging subsystem at runtime.
//
// Usage:
//
//	virtadminx [-sock path] <command> [args...]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/drivers/lxc"
	"repro/internal/drivers/qemu"
	"repro/internal/drivers/remote"
	drvtest "repro/internal/drivers/test"
	"repro/internal/drivers/xen"
	"repro/internal/logging"
	"repro/internal/telemetry"
	"repro/internal/typedparams"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("virtadminx", flag.ContinueOnError)
	sock := fs.String("sock", admin.DefaultAdminSocket, "admin unix socket path")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	args := fs.Args()
	if len(args) == 0 || args[0] == "help" {
		printHelp()
		return nil
	}
	// domain-metrics talks to a driver URI, not the admin socket, so it
	// must not require a running daemon.
	if args[0] == "domain-metrics" {
		return needArgs(args, 2, func() error { return domainMetrics(args[1], args[2:]) })
	}
	conn, err := admin.Open(*sock)
	if err != nil {
		return err
	}
	defer conn.Close()

	switch args[0] {
	case "srv-list":
		return srvList(conn)
	case "srv-threadpool-info":
		return needArgs(args, 2, func() error { return threadpoolInfo(conn, args[1]) })
	case "srv-threadpool-set":
		return needArgs(args, 2, func() error { return threadpoolSet(conn, args[1], args[2:]) })
	case "srv-clients-info":
		return needArgs(args, 2, func() error { return clientsInfo(conn, args[1]) })
	case "srv-clients-set":
		return needArgs(args, 2, func() error { return clientsSet(conn, args[1], args[2:]) })
	case "client-list":
		return needArgs(args, 2, func() error { return clientList(conn, args[1]) })
	case "client-info":
		return needArgs(args, 3, func() error { return clientInfo(conn, args[1], args[2]) })
	case "client-disconnect":
		return needArgs(args, 3, func() error { return clientDisconnect(conn, args[1], args[2]) })
	case "dmn-log-info":
		return logInfo(conn)
	case "dmn-log-define":
		return logDefine(conn, args[1:])
	case "metrics":
		return metrics(conn, args[1:])
	case "slow-calls":
		return slowCalls(conn)
	case "qos":
		return needArgs(args, 2, func() error { return qosInfo(conn, args[1]) })
	case "qos-set":
		return needArgs(args, 2, func() error { return qosSet(conn, args[1], args[2:]) })
	default:
		return fmt.Errorf("unknown command %q (try \"help\")", args[0])
	}
}

func needArgs(args []string, n int, fn func() error) error {
	if len(args) < n {
		return fmt.Errorf("command %s needs %d argument(s)", args[0], n-1)
	}
	return fn()
}

func printHelp() {
	fmt.Print(`virtadminx — daemon administration client
usage: virtadminx [-sock path] <command> [args...]

Monitoring commands:
  srv-list                          list servers on the daemon
  srv-threadpool-info <server>      show workerpool parameters
  srv-clients-info <server>         show client limits and counts
  client-list <server>              list connected clients
  client-info <server> <id>         show a client's identity
  dmn-log-info                      show logging level, filters, outputs
  metrics [--all]                   show call counts and dispatch latencies
  slow-calls                        show the recent slow-call ring
  qos <server>                      show admission classes, quotas and rejection counts
  domain-metrics <uri> [--prom]     per-domain stats from one bulk sweep of a driver URI

Management commands:
  srv-threadpool-set <server> [--min-workers N] [--max-workers N] [--prio-workers N]
  srv-clients-set <server> [--max-clients N] [--max-unauth-clients N]
  client-disconnect <server> <id>   force-close a client connection
  dmn-log-define [--level N] [--filters "..."] [--outputs "..."]
  qos-set <server> --class "spec" [--class "spec" ...] [--watermark N]
  qos-set <server> --disable       remove admission control

A --class spec is the qos_classes grammar, e.g.
  "bronze rate_limit_calls_per_s=50 burst=10 max_inflight_calls=4 priority=2 users=eve"
`)
}

func srvList(conn *admin.Connect) error {
	servers, err := conn.ListServers()
	if err != nil {
		return err
	}
	fmt.Printf(" %-4s %s\n ---------------\n", "Id", "Name")
	for i, s := range servers {
		fmt.Printf(" %-4d %s\n", i, s)
	}
	return nil
}

func printParams(l *typedparams.List) {
	for _, p := range l.Params() {
		fmt.Printf("%-24s: %v\n", p.Field, p.Value())
	}
}

func threadpoolInfo(conn *admin.Connect, server string) error {
	params, err := conn.ThreadpoolParams(server)
	if err != nil {
		return err
	}
	printParams(params)
	return nil
}

// parseFlagUInts maps "--flag value" pairs onto typed-parameter fields.
func parseFlagUInts(args []string, mapping map[string]string) (*typedparams.List, error) {
	l := typedparams.NewList()
	for i := 0; i < len(args); i++ {
		field, ok := mapping[args[i]]
		if !ok {
			return nil, fmt.Errorf("unknown flag %q", args[i])
		}
		if i+1 >= len(args) {
			return nil, fmt.Errorf("flag %s needs a value", args[i])
		}
		v, err := strconv.ParseUint(args[i+1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("flag %s: bad value %q", args[i], args[i+1])
		}
		if err := l.AddUInt(field, uint32(v)); err != nil {
			return nil, err
		}
		i++
	}
	if l.Len() == 0 {
		return nil, fmt.Errorf("nothing to set")
	}
	return l, nil
}

func threadpoolSet(conn *admin.Connect, server string, args []string) error {
	params, err := parseFlagUInts(args, map[string]string{
		"--min-workers":  admin.FieldMinWorkers,
		"--max-workers":  admin.FieldMaxWorkers,
		"--prio-workers": admin.FieldPrioWorkers,
	})
	if err != nil {
		return err
	}
	return conn.SetThreadpoolParams(server, params)
}

func clientsInfo(conn *admin.Connect, server string) error {
	params, err := conn.ClientLimits(server)
	if err != nil {
		return err
	}
	printParams(params)
	return nil
}

func clientsSet(conn *admin.Connect, server string, args []string) error {
	params, err := parseFlagUInts(args, map[string]string{
		"--max-clients":        admin.FieldMaxClients,
		"--max-unauth-clients": admin.FieldMaxUnauthClients,
	})
	if err != nil {
		return err
	}
	return conn.SetClientLimits(server, params)
}

func clientList(conn *admin.Connect, server string) error {
	clients, err := conn.ListClients(server)
	if err != nil {
		return err
	}
	fmt.Printf(" %-5s %-10s %-6s %s\n -----------------------------------------------\n",
		"Id", "Transport", "Auth", "Connected since")
	for _, c := range clients {
		auth := "no"
		if c.AuthDone {
			auth = "yes"
		}
		fmt.Printf(" %-5d %-10s %-6s %s\n", c.ID, c.Transport, auth,
			c.Connected.Format("2006-01-02 15:04:05-0700"))
	}
	return nil
}

func clientInfo(conn *admin.Connect, server, idStr string) error {
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		return fmt.Errorf("bad client id %q", idStr)
	}
	info, err := conn.GetClientInfo(server, id)
	if err != nil {
		return err
	}
	fmt.Printf("%-24s: %d\n", "id", info.ID)
	fmt.Printf("%-24s: %s\n", "transport", info.Transport)
	fmt.Printf("%-24s: %s\n", "connected since", info.Connected.Format("2006-01-02 15:04:05-0700"))
	printParams(info.Identity)
	return nil
}

func clientDisconnect(conn *admin.Connect, server, idStr string) error {
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		return fmt.Errorf("bad client id %q", idStr)
	}
	if err := conn.DisconnectClient(server, id); err != nil {
		return err
	}
	fmt.Printf("Client %d disconnected from server %s\n", id, server)
	return nil
}

func logInfo(conn *admin.Connect) error {
	level, err := conn.LoggingLevel()
	if err != nil {
		return err
	}
	filters, err := conn.LoggingFilters()
	if err != nil {
		return err
	}
	outputs, err := conn.LoggingOutputs()
	if err != nil {
		return err
	}
	fmt.Printf("Logging level:   %s\n", level)
	fmt.Printf("Logging filters: %s\n", filters)
	fmt.Printf("Logging outputs: %s\n", outputs)
	return nil
}

// splitMetricName splits a full metric name "base{labels}" into its base
// name and the label clause without braces.
func splitMetricName(full string) (base, labels string) {
	if i := strings.IndexByte(full, '{'); i >= 0 {
		return full[:i], strings.TrimSuffix(full[i+1:], "}")
	}
	return full, ""
}

// labelValue extracts one key's value from a label clause
// (`key="value",key="value"`).
func labelValue(labels, key string) string {
	for _, part := range strings.Split(labels, ",") {
		if kv := strings.SplitN(part, "=", 2); len(kv) == 2 && kv[0] == key {
			return strings.Trim(kv[1], `"`)
		}
	}
	return ""
}

func metrics(conn *admin.Connect, args []string) error {
	showAll := false
	for _, a := range args {
		if a != "--all" {
			return fmt.Errorf("unknown flag %q", a)
		}
		showAll = true
	}
	r, err := conn.Metrics()
	if err != nil {
		return err
	}

	type dispatchRow struct {
		name          string
		calls, errors uint64
		p50, p95, p99 time.Duration
	}
	rows := map[string]*dispatchRow{}
	rowFor := func(labels string) *dispatchRow {
		key := labelValue(labels, "program") + "." + labelValue(labels, "proc")
		dr, ok := rows[key]
		if !ok {
			dr = &dispatchRow{name: key}
			rows[key] = dr
		}
		return dr
	}
	for _, c := range r.Counters {
		base, labels := splitMetricName(c.Name)
		switch base {
		case "daemon_dispatch_total":
			rowFor(labels).calls = c.Value
		case "daemon_dispatch_errors_total":
			rowFor(labels).errors = c.Value
		}
	}
	for _, h := range r.Histograms {
		base, labels := splitMetricName(h.Name)
		if base != "daemon_dispatch_seconds" {
			continue
		}
		dr := rowFor(labels)
		dr.p50 = time.Duration(h.P50Ns)
		dr.p95 = time.Duration(h.P95Ns)
		dr.p99 = time.Duration(h.P99Ns)
	}
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf(" %-36s %8s %6s %10s %10s %10s\n", "Procedure", "Calls", "Errs", "p50", "p95", "p99")
	fmt.Println(" " + strings.Repeat("-", 84))
	for _, k := range keys {
		dr := rows[k]
		fmt.Printf(" %-36s %8d %6d %10v %10v %10v\n",
			dr.name, dr.calls, dr.errors, dr.p50, dr.p95, dr.p99)
	}
	if !showAll {
		return nil
	}
	fmt.Println("\nCounters:")
	for _, c := range r.Counters {
		fmt.Printf("  %-56s %d\n", c.Name, c.Value)
	}
	fmt.Println("\nGauges:")
	for _, g := range r.Gauges {
		fmt.Printf("  %-56s %d\n", g.Name, g.Value)
	}
	fmt.Println("\nHistograms:")
	for _, h := range r.Histograms {
		avg := time.Duration(0)
		if h.Count > 0 {
			avg = time.Duration(h.SumNs / h.Count)
		}
		fmt.Printf("  %-56s count=%d avg=%v p50=%v p95=%v p99=%v\n",
			h.Name, h.Count, avg,
			time.Duration(h.P50Ns), time.Duration(h.P95Ns), time.Duration(h.P99Ns))
	}
	return nil
}

// domainMetrics sweeps a driver URI once through the domain collector
// and prints the rows — the CLI face of the /metrics export, useful for
// eyeballing what the daemon would serve. --prom dumps the raw
// exposition instead of the table.
func domainMetrics(uriStr string, args []string) error {
	prom := false
	for _, a := range args {
		if a != "--prom" {
			return fmt.Errorf("unknown flag %q", a)
		}
		prom = true
	}
	quiet := logging.NewQuiet(logging.Error)
	drvtest.Register(quiet)
	qemu.Register(quiet)
	xen.Register(quiet)
	lxc.Register(quiet)
	remote.Register()
	conn, err := core.Open(uriStr)
	if err != nil {
		return err
	}
	defer conn.Close() //nolint:errcheck
	dc, err := telemetry.NewDriverDomainCollector(conn.Driver(), telemetry.DomainCollectorConfig{})
	if err != nil {
		return err
	}
	var w io.Writer = io.Discard // the table below is built from the swept rows
	if prom {
		w = os.Stdout
	}
	if _, err := dc.WriteExposition(w); err != nil || prom {
		return err
	}
	rows := dc.Rows()
	fmt.Printf(" %-24s %-36s %-12s %6s %12s %12s %12s\n",
		"Domain", "UUID", "State", "VCPUs", "Mem KiB", "CPU time", "Uptime")
	fmt.Println(" " + strings.Repeat("-", 122))
	for _, r := range rows {
		fmt.Printf(" %-24s %-36s %-12s %6d %12d %12v %12v\n",
			r.Name, r.UUID, r.State, r.VCPUs, r.MemKiB,
			time.Duration(r.CPUTimeNs).Round(time.Millisecond),
			time.Duration(r.UptimeNs).Round(time.Second))
	}
	fmt.Printf("\n%d domain(s), one bulk sweep (%v)\n", len(rows), dc.Stats().LastSweep.Round(time.Microsecond))
	return nil
}

func slowCalls(conn *admin.Connect) error {
	r, err := conn.SlowCalls()
	if err != nil {
		return err
	}
	fmt.Printf("Calls traced: %d\n", r.Started)
	fmt.Printf("Slow calls:   %d\n", r.Slow)
	fmt.Printf("Threshold:    %v\n", time.Duration(r.ThresholdNs))
	if len(r.Calls) == 0 {
		return nil
	}
	fmt.Printf("\n %-8s %-32s %-7s %-14s %10s %10s\n",
		"Serial", "Procedure", "Client", "Started", "Queue", "Total")
	fmt.Println(" " + strings.Repeat("-", 86))
	for _, c := range r.Calls {
		fmt.Printf(" %-8d %-32s %-7d %-14s %10v %10v\n",
			c.Serial, c.Program+"."+c.Proc, c.Client,
			time.Unix(0, c.StartUnix).Format("15:04:05.000"),
			time.Duration(c.QueueNs), time.Duration(c.TotalNs))
	}
	return nil
}

func qosInfo(conn *admin.Connect, server string) error {
	r, err := conn.QoS(server)
	if err != nil {
		return err
	}
	if !r.Enabled {
		fmt.Println("QoS: disabled")
		return nil
	}
	fmt.Printf("QoS: enabled, shed watermark %d\n\n", r.ShedWatermark)
	fmt.Printf(" %-10s %8s %6s %8s %8s %8s %8s  %s\n",
		"Class", "Inflight", "Queued", "rej:rate", "rej:acl", "rej:infl", "rej:shed", "Spec")
	fmt.Println(" " + strings.Repeat("-", 110))
	for _, cl := range r.Classes {
		name := cl.Spec
		if i := strings.IndexByte(name, ' '); i > 0 {
			name = name[:i]
		}
		fmt.Printf(" %-10s %8d %6d %8d %8d %8d %8d  %s\n",
			name, cl.Inflight, cl.Queued,
			cl.RejectedRate, cl.RejectedACL, cl.RejectedInflight, cl.RejectedShed, cl.Spec)
	}
	return nil
}

func qosSet(conn *admin.Connect, server string, args []string) error {
	var specs []string
	watermark := -1
	disable := false
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "--class":
			if i+1 >= len(args) {
				return fmt.Errorf("--class needs a spec string")
			}
			specs = append(specs, args[i+1])
			i++
		case "--watermark":
			if i+1 >= len(args) {
				return fmt.Errorf("--watermark needs a value")
			}
			v, err := strconv.Atoi(args[i+1])
			if err != nil || v < 0 {
				return fmt.Errorf("--watermark: bad value %q", args[i+1])
			}
			watermark = v
			i++
		case "--disable":
			disable = true
		default:
			return fmt.Errorf("unknown flag %q", args[i])
		}
	}
	if disable {
		if len(specs) > 0 || watermark >= 0 {
			return fmt.Errorf("--disable cannot be combined with --class or --watermark")
		}
		if err := conn.DisableQoS(server); err != nil {
			return err
		}
		fmt.Printf("QoS disabled on server %s\n", server)
		return nil
	}
	if len(specs) == 0 {
		return fmt.Errorf("nothing to set; pass --class (repeatable) or --disable")
	}
	if watermark < 0 {
		// Keep the server's current watermark when only classes change.
		if cur, err := conn.QoS(server); err == nil && cur.Enabled {
			watermark = int(cur.ShedWatermark)
		} else {
			watermark = 0
		}
	}
	if err := conn.SetQoS(server, specs, watermark); err != nil {
		return err
	}
	fmt.Printf("QoS updated on server %s: %d class(es), shed watermark %d\n",
		server, len(specs), watermark)
	return nil
}

func logDefine(conn *admin.Connect, args []string) error {
	did := false
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "--level":
			if i+1 >= len(args) {
				return fmt.Errorf("--level needs a value")
			}
			p, err := logging.ParsePriority(args[i+1])
			if err != nil {
				return err
			}
			if err := conn.SetLoggingLevel(p); err != nil {
				return err
			}
			did = true
			i++
		case "--filters":
			if i+1 >= len(args) {
				return fmt.Errorf("--filters needs a value")
			}
			if err := conn.SetLoggingFilters(strings.TrimSpace(args[i+1])); err != nil {
				return err
			}
			did = true
			i++
		case "--outputs":
			if i+1 >= len(args) {
				return fmt.Errorf("--outputs needs a value")
			}
			if err := conn.SetLoggingOutputs(strings.TrimSpace(args[i+1])); err != nil {
				return err
			}
			did = true
			i++
		default:
			return fmt.Errorf("unknown flag %q", args[i])
		}
	}
	if !did {
		return fmt.Errorf("nothing to define; pass --level, --filters or --outputs")
	}
	return nil
}
