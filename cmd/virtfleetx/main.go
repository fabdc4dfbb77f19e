// Command virtfleetx is the fleet controller CLI: one management
// application driving a pool of govirtd daemons through the uniform
// API. It lists host health, places domains with a pluggable policy and
// rebalances load between hosts by live migration — the multi-host
// management story the underlying library exists to enable.
//
// Usage:
//
//	virtfleetx -hosts uri1,uri2[,...] <command> [args...]
//	virtfleetx -conf fleet.conf <command> [args...]
//
// Commands:
//
//	hosts                       list hosts and their health
//	status                      show per-host load and fleet skew
//	schedule <file.xml>...      place domain definitions on the fleet
//	rebalance [flags]           migrate domains to even out load
//	simulate [flags]            mega-fleet scale harness (in-process daemons)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/drivers/lxc"
	"repro/internal/drivers/qemu"
	"repro/internal/drivers/remote"
	drvtest "repro/internal/drivers/test"
	"repro/internal/drivers/xen"
	"repro/internal/fleet"
	"repro/internal/logging"
	"repro/internal/scale"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("virtfleetx", flag.ContinueOnError)
	hostsFlag := fs.String("hosts", "", "comma-separated daemon connection URIs")
	confFlag := fs.String("conf", "", "fleet.conf path (flags override it)")
	policyFlag := fs.String("policy", "", `placement policy: "spread", "pack" or "weighted"`)
	verbose := fs.Bool("v", false, "verbose logging")
	waitFlag := fs.Duration("wait", 5*time.Second, "time to wait for hosts to connect")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	args := fs.Args()
	if len(args) == 0 || args[0] == "help" {
		printHelp()
		return nil
	}

	level := logging.Warn
	if *verbose {
		level = logging.Info
	}
	log := logging.New(level)
	drvtest.Register(log)
	qemu.Register(log)
	xen.Register(log)
	lxc.Register(log)
	remote.Register()

	// simulate builds its own in-process fleet; it never touches the
	// -hosts registry bring-up below.
	if args[0] == "simulate" {
		return cmdSimulate(args[1:])
	}

	fileCfg := fleet.DefaultFileConfig()
	if *confFlag != "" {
		text, err := os.ReadFile(*confFlag)
		if err != nil {
			return err
		}
		fileCfg, err = fleet.ParseFileConfig(string(text))
		if err != nil {
			return err
		}
	}
	if *hostsFlag != "" {
		fileCfg.Hosts = strings.Split(*hostsFlag, ",")
	}
	if *policyFlag != "" {
		fileCfg.Policy = *policyFlag
	}
	cfg, err := fileCfg.RegistryConfig()
	if err != nil {
		return err
	}
	cfg.Log = log

	reg, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	reg.Start()
	defer reg.Close()
	if up := reg.WaitSettled(*waitFlag); up == 0 {
		return fmt.Errorf("no fleet host is reachable")
	}

	switch args[0] {
	case "hosts":
		return cmdHosts(reg)
	case "status":
		return cmdStatus(reg)
	case "metrics":
		return cmdMetrics(reg, args[1:])
	case "schedule":
		if len(args) < 2 {
			return fmt.Errorf("schedule needs at least one XML file")
		}
		return cmdSchedule(reg, args[1:])
	case "rebalance":
		return cmdRebalance(reg, fileCfg, args[1:])
	default:
		return fmt.Errorf("unknown command %q (try \"help\")", args[0])
	}
}

func printHelp() {
	fmt.Print(`virtfleetx — multi-daemon fleet controller
usage: virtfleetx [-hosts uri1,uri2] [-conf fleet.conf] [-policy name] [-v] <command> [args...]

Commands:
  hosts                       list hosts and their health
  status                      show per-host load, domains and fleet skew
  metrics [--prom]            per-domain stats across the fleet; --prom emits
                              one Prometheus exposition with host="..." labels
  schedule <file.xml>...      place each domain definition on the best host
  rebalance [flags]           live-migrate domains to even out load
    --drain <host>            evacuate one host completely
    --skew <x>                target load spread (default from config, 0.2)
    --max <n>                 migration cap for the pass
    --concurrency <n>         parallel migrations
    --streams <n>             parallel transfer streams per migration
    --auto-converge           throttle source vCPUs if pre-copy cannot converge
    --postcopy                switch after one round, pull the rest on demand
    --dry-run                 plan only, do not migrate
  simulate [flags]            stand up an in-process mega-fleet of fake
                              daemons over memory transports and measure
                              settle, schedule and rebalance-plan times
    --hosts <n>               simulated daemons (default 100)
    --domains <n>             seeded domains per host (default 100)
    --probes <n>              schedule probes to time (default 100)
`)
}

// cmdSimulate is the scale harness entry point: it launches N real
// daemon instances inside this process, each serving the fake
// hypervisor over a memory transport, drives them through a registry
// exactly like a real fleet, and reports the scaling numbers the T8
// experiment records.
func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	hosts := fs.Int("hosts", 100, "simulated daemons")
	domains := fs.Int("domains", 100, "seeded domains per host")
	probes := fs.Int("probes", 100, "schedule probes to time")
	policy := fs.String("policy", "spread", "placement policy")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fmt.Printf("Launching %d in-process daemons...\n", *hosts)
	f, err := scale.Launch(scale.Options{
		Hosts:          *hosts,
		DomainsPerHost: *domains,
		Policy:         *policy,
	})
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Printf("Fleet settled: %d hosts up in %v\n", len(f.Names), f.SettleTime.Round(time.Millisecond))

	if err := f.SeedDomains(); err != nil {
		return err
	}
	fmt.Printf("Seeded %d domains (%d/host) in %v\n",
		f.Domains(), *domains, f.SeedTime.Round(time.Millisecond))

	lats, err := f.ScheduleProbes(*probes)
	if err != nil {
		return err
	}
	fmt.Printf("Schedule: %d probes, p50 %v  p99 %v  max %v\n",
		len(lats), scale.Percentile(lats, 50), scale.Percentile(lats, 99),
		scale.Percentile(lats, 100))

	planDur, moves := f.PlanRebalance(fleet.RebalanceOptions{})
	fmt.Printf("Rebalance plan: %d move(s) in %v\n", moves, planDur.Round(time.Microsecond))
	fmt.Printf("Registry working set: %.1f MiB for %d domains on %d hosts\n",
		float64(f.RegistryBytes())/(1<<20), f.Domains(), len(f.Names))
	return nil
}

func cmdHosts(reg *fleet.Registry) error {
	fmt.Printf(" %-16s %-12s %-8s %s\n %s\n", "Name", "State", "Domains", "URI",
		strings.Repeat("-", 64))
	for _, st := range reg.Status() {
		extra := st.URI
		if st.Err != "" {
			extra += "  (" + st.Err + ")"
		}
		fmt.Printf(" %-16s %-12s %-8d %s\n", st.Name, st.State, st.Domains, extra)
	}
	return nil
}

func cmdStatus(reg *fleet.Registry) error {
	reg.RefreshNow()
	sums := reg.Summaries()
	fmt.Printf(" %-16s %-8s %-10s %-10s %-10s %-12s\n %s\n",
		"Host", "State", "Domains", "MemLoad", "CPULoad", "FreeMemMiB",
		strings.Repeat("-", 72))
	for i := range sums {
		sum := &sums[i]
		fmt.Printf(" %-16s %-8s %-10d %-10.2f %-10.2f %-12d\n",
			sum.Host, sum.State, sum.ActiveDomains, sum.MemLoad(), sum.CPULoad(),
			sum.FreeMemKiB()/1024)
	}
	fmt.Printf("\nFleet skew (hottest - coldest load): %.3f\n", fleet.SkewSummaries(sums))
	return nil
}

// cmdMetrics is the fleet-wide aggregated scrape: every up host's
// inventory becomes one DomainRowSet tagged host="...", rendered as a
// single spec-compliant exposition (each family appears once, carrying
// all hosts' samples). The data rides the registry's existing bulk
// inventory polls — no extra per-domain round trips.
func cmdMetrics(reg *fleet.Registry, args []string) error {
	prom := false
	for _, a := range args {
		if a != "--prom" {
			return fmt.Errorf("unknown flag %q", a)
		}
		prom = true
	}
	reg.RefreshNow()
	invs := reg.Inventory()

	// Fleet inventories carry no UUIDs, so that label stays off.
	labels := telemetry.DomainLabelSet{State: true}
	sets := make([]telemetry.DomainRowSet, 0, len(invs))
	hosts := make([]string, 0, len(invs))
	for i := range invs {
		inv := &invs[i]
		if inv.State != fleet.HostUp {
			continue
		}
		rows := make([]telemetry.DomainRow, len(inv.Domains))
		for j, d := range inv.Domains {
			rows[j] = telemetry.DomainRow{
				Name: d.Name, State: d.State,
				MemKiB: d.MemKiB, MaxMemKiB: d.MaxMemKiB,
				VCPUs: d.VCPUs, CPUTimeNs: d.CPUTimeNs,
			}
		}
		sets = append(sets, telemetry.DomainRowSet{
			Extra: telemetry.Labels("host", inv.Host),
			Rows:  rows,
		})
		hosts = append(hosts, inv.Host)
	}
	if prom {
		_, err := os.Stdout.Write(telemetry.AppendDomainExposition(nil, sets, labels))
		return err
	}
	fmt.Printf(" %-16s %-24s %-12s %6s %12s %12s\n %s\n",
		"Host", "Domain", "State", "VCPUs", "Mem KiB", "CPU time",
		strings.Repeat("-", 88))
	total := 0
	for i, set := range sets {
		for _, r := range set.Rows {
			fmt.Printf(" %-16s %-24s %-12s %6d %12d %12v\n",
				hosts[i], r.Name, r.State, r.VCPUs, r.MemKiB,
				time.Duration(r.CPUTimeNs).Round(time.Millisecond))
			total++
		}
	}
	fmt.Printf("\n%d domain(s) on %d host(s)\n", total, len(sets))
	return nil
}

func cmdSchedule(reg *fleet.Registry, files []string) error {
	for _, file := range files {
		xmlDesc, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		p, err := reg.Schedule(string(xmlDesc))
		if err != nil {
			return fmt.Errorf("%s: %v", file, err)
		}
		note := ""
		if len(p.FailedHosts) > 0 {
			note = fmt.Sprintf("  (retried past %s)", strings.Join(p.FailedHosts, ", "))
		}
		fmt.Printf("Domain %s placed on %s%s\n", p.Domain.Name(), p.Host, note)
	}
	return nil
}

func cmdRebalance(reg *fleet.Registry, fileCfg fleet.FileConfig, args []string) error {
	opts := fileCfg.RebalanceConfig()
	dryRun := false
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "--drain":
			if i+1 >= len(args) {
				return fmt.Errorf("--drain needs a host name")
			}
			opts.Drain = args[i+1]
			i++
		case "--skew":
			if i+1 >= len(args) {
				return fmt.Errorf("--skew needs a value")
			}
			if _, err := fmt.Sscanf(args[i+1], "%g", &opts.SkewThreshold); err != nil {
				return fmt.Errorf("--skew: bad value %q", args[i+1])
			}
			i++
		case "--max":
			if i+1 >= len(args) {
				return fmt.Errorf("--max needs a value")
			}
			if _, err := fmt.Sscanf(args[i+1], "%d", &opts.MaxMigrations); err != nil {
				return fmt.Errorf("--max: bad value %q", args[i+1])
			}
			i++
		case "--concurrency":
			if i+1 >= len(args) {
				return fmt.Errorf("--concurrency needs a value")
			}
			if _, err := fmt.Sscanf(args[i+1], "%d", &opts.Concurrency); err != nil {
				return fmt.Errorf("--concurrency: bad value %q", args[i+1])
			}
			i++
		case "--streams":
			if i+1 >= len(args) {
				return fmt.Errorf("--streams needs a value")
			}
			if _, err := fmt.Sscanf(args[i+1], "%d", &opts.Migrate.ParallelStreams); err != nil {
				return fmt.Errorf("--streams: bad value %q", args[i+1])
			}
			i++
		case "--auto-converge":
			opts.Migrate.AutoConverge = true
		case "--postcopy":
			opts.Migrate.PostCopy = true
		case "--dry-run":
			dryRun = true
		default:
			return fmt.Errorf("unknown flag %q", args[i])
		}
	}

	if dryRun {
		reg.RefreshNow()
		moves, before, after, converged := fleet.PlanRebalance(reg.Inventory(), opts)
		fmt.Printf("Skew %.3f -> %.3f (converged: %v), %d move(s) planned:\n",
			before, after, converged, len(moves))
		for _, mv := range moves {
			fmt.Printf("  %s: %s -> %s (%d MiB)\n", mv.Domain, mv.From, mv.To, mv.MemKiB/1024)
		}
		return nil
	}

	// Ctrl-C stops scheduling new migrations; in-flight ones finish.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	opts.OnMigration = func(rec fleet.MigrationRecord) {
		if rec.Err != nil {
			fmt.Printf("  %s: %s -> %s FAILED: %v\n", rec.Domain, rec.From, rec.To, rec.Err)
			return
		}
		fmt.Printf("  %s: %s -> %s in %.1f ms (downtime %.2f ms)\n",
			rec.Domain, rec.From, rec.To, rec.Result.TotalTimeMs(), rec.Result.DowntimeMs())
	}
	res, err := reg.Rebalance(ctx, opts)
	if err != nil && len(res.Planned) == 0 {
		return err // rejected before planning (e.g. unknown drain host)
	}
	fmt.Printf("Skew %.3f -> %.3f, %d/%d migration(s) done, converged: %v\n",
		res.SkewBefore, res.SkewAfter, len(res.Migrations), len(res.Planned), res.Converged)
	return err
}
