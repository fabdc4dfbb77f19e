// Command virtadminx is the daemon administration client — the
// virt-admin equivalent. It connects to the daemon's admin server over
// its unix socket, manages connected clients, reads metrics, and reads
// and changes the live settings of govirtd.conf at runtime.
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
	case "config":
		return needArgs(args, 2, func() error { return config(conn, args[1], args[2:]) })
	case "config-set":
		return needArgs(args, 3, func() error { return configSet(conn, args[1], args[2:]) })
	case "client-list":
		return needArgs(args, 2, func() error { return clientList(conn, args[1]) })
	case "client-info":
		return needArgs(args, 3, func() error { return clientInfo(conn, args[1], args[2]) })
	case "client-disconnect":
		return needArgs(args, 3, func() error { return clientDisconnect(conn, args[1], args[2]) })
	case "metrics":
		return metrics(conn, args[1:])
	case "slow-calls":
		return slowCalls(conn)
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
  config <server> [key ...]         show live settings as govirtd.conf lines
  client-list <server>              list connected clients
  client-info <server> <id>         show a client's identity
  metrics [--all]                   show call counts and dispatch latencies
                                    (--all: pool, client and QoS gauges too)
  slow-calls                        show the recent slow-call ring
  domain-metrics <uri> [--prom]     per-domain stats from one bulk sweep of a driver URI

Management commands:
  config-set <server> key=value ... change live settings, all or none
  client-disconnect <server> <id>   force-close a client connection

Live settings are govirtd.conf's keys min_workers, max_workers,
prio_workers, max_clients, max_anonymous_clients, log_level,
log_filters, log_outputs, qos_classes and qos_shed_watermark; a value
is written as in the file, e.g.
  config-set govirtd max_workers=40 'log_filters="3:daemon.slowcall"'
  config-set govirtd 'qos_classes=["bronze rate_limit_calls_per_s=50 burst=10 users=eve"]'
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

// config prints live settings of a server, one govirtd.conf line each.
func config(conn *admin.Connect, server string, keys []string) error {
	settings, err := conn.Settings(server, keys...)
	if err != nil {
		return err
	}
	for _, p := range settings.Params() {
		fmt.Printf("%s = %s\n", p.Field, p.S)
	}
	return nil
}

// configSet changes live settings of a server, each argument a
// govirtd.conf line "key=value".
func configSet(conn *admin.Connect, server string, lines []string) error {
	settings := typedparams.NewList()
	for _, line := range lines {
		key, value, ok := strings.Cut(line, "=")
		if !ok {
			return fmt.Errorf("%q is not key=value", line)
		}
		if err := settings.AddString(strings.TrimSpace(key), strings.TrimSpace(value)); err != nil {
			return err
		}
	}
	return conn.SetSettings(server, settings)
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
