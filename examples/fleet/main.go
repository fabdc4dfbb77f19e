// Fleet: the multi-host management story, end to end. Three govirtd
// daemons come up in-process on unix sockets — three "hosts", each with
// its own simulated hypervisor. A fleet.Registry dials all three
// through the uniform API, a spread-policy scheduler places twelve
// domains across them, and a rebalancing pass drains one host by live
// migration with zero lost domains — everything driven client-side
// through the same stable surface a single-host application uses.
//
// The program exits non-zero if placement is not balanced or any domain
// is lost during the drain, so CI can run it as a smoke test.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/daemon"
	"repro/internal/drivers/remote"
	drvtest "repro/internal/drivers/test"
	"repro/internal/fleet"
	"repro/internal/logging"
	"repro/internal/telemetry"
)

func main() {
	nHosts := flag.Int("hosts", 3, "number of in-process daemons")
	nDomains := flag.Int("domains", 12, "number of domains to place")
	drain := flag.Bool("drain", true, "drain the first host after placement")
	flag.Parse()

	logger := logging.NewQuiet(logging.Error)
	drvtest.Register(logger)
	remote.Register()

	dir, err := os.MkdirTemp("", "fleet")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// One daemon per "host". The /empty path gives each an empty
	// environment (the /default path would pre-define a canned domain on
	// every host and the names would clash during migration).
	var uris []string
	for i := 0; i < *nHosts; i++ {
		d := daemon.New(logger)
		srv, err := d.AddServer("govirtd", 2, 8, 2, daemon.ClientLimits{})
		if err != nil {
			log.Fatal(err)
		}
		srv.AddProgram(daemon.NewRemoteProgram(srv))
		sock := filepath.Join(dir, fmt.Sprintf("node%d.sock", i))
		if err := srv.ListenUnix(sock, daemon.ServiceConfig{}); err != nil {
			log.Fatal(err)
		}
		defer d.Shutdown()
		uris = append(uris, "test+unix:///empty?socket="+strings.ReplaceAll(sock, "/", "%2F"))
	}

	reg, err := fleet.New(fleet.Config{
		Hosts:        uris,
		PollInterval: 500 * time.Millisecond,
		Policy:       fleet.Spread(),
		Log:          logger,
	})
	if err != nil {
		log.Fatal(err)
	}
	reg.Start()
	defer reg.Close()
	if up := reg.WaitSettled(5 * time.Second); up != *nHosts {
		log.Fatalf("only %d/%d hosts came up", up, *nHosts)
	}
	fmt.Printf("fleet up: %d hosts\n", *nHosts)

	// Phase 1: spread-place the domains. Every placement goes through
	// Schedule: parse the definition, rank the hosts by projected load,
	// define+start on the winner.
	for i := 0; i < *nDomains; i++ {
		p, err := reg.Schedule(domainXML(fmt.Sprintf("vm%02d", i)))
		if err != nil {
			log.Fatalf("schedule vm%02d: %v", i, err)
		}
		fmt.Printf("  vm%02d -> %s\n", i, p.Host)
	}

	counts := activeCounts(reg)
	fmt.Printf("\nplacement by host: %v (skew %.3f)\n", counts, fleet.SkewSummaries(reg.Summaries()))
	min, max := minMax(counts)
	if max-min > 1 {
		log.Fatalf("spread policy placed unevenly: %v", counts)
	}
	if total(counts) != *nDomains {
		log.Fatalf("expected %d active domains, found %d", *nDomains, total(counts))
	}

	if !*drain {
		return
	}

	// Phase 2: drain the first host for maintenance. The rebalancer
	// live-migrates every domain off it; each migration runs the full
	// iterative pre-copy against the domain's workload model.
	drainHost := reg.Hosts()[0]
	fmt.Printf("\ndraining %s...\n", drainHost)
	res, err := reg.Rebalance(context.Background(), fleet.RebalanceOptions{
		Drain:       drainHost,
		Concurrency: 2,
		OnMigration: func(rec fleet.MigrationRecord) {
			if rec.Err != nil {
				log.Fatalf("migration %s %s->%s: %v", rec.Domain, rec.From, rec.To, rec.Err)
			}
			fmt.Printf("  %s: %s -> %s in %.1f ms (downtime %.2f ms, %d rounds)\n",
				rec.Domain, rec.From, rec.To,
				rec.Result.TotalTimeMs(), rec.Result.DowntimeMs(), rec.Result.Iterations)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if !res.Converged {
		log.Fatalf("drain did not converge: %+v", res)
	}

	counts = activeCounts(reg)
	fmt.Printf("\nafter drain: %v\n", counts)
	if counts[drainHost] != 0 {
		log.Fatalf("drain host still carries %d domains", counts[drainHost])
	}
	if total(counts) != *nDomains {
		log.Fatalf("domains lost during drain: expected %d, found %d", *nDomains, total(counts))
	}
	fmt.Printf("drained %s: %d migrations, zero lost domains\n", drainHost, len(res.Migrations))

	// The whole run is visible in the shared telemetry registry — the
	// same counters a production fleet would export over /metrics.
	snap := telemetry.Default.Snapshot()
	fmt.Println("\nfleet telemetry:")
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, "fleet_") {
			fmt.Printf("  %-36s %d\n", c.Name, c.Value)
		}
	}
}

// domainXML builds a definition with workload hints: enough memory to
// make placement interesting, a dirty-page rate the migration engine
// can converge on.
func domainXML(name string) string {
	return fmt.Sprintf(`
<domain type='test'>
  <name>%s</name>
  <description>cpu_util=0.3 dirty_pages_sec=1000</description>
  <memory unit='MiB'>8192</memory>
  <vcpu>4</vcpu>
  <os><type arch='x86_64'>hvm</type></os>
</domain>`, name)
}

func activeCounts(reg *fleet.Registry) map[string]int {
	reg.RefreshNow()
	counts := map[string]int{}
	for _, sum := range reg.Summaries() {
		counts[sum.Host] = sum.ActiveDomains
	}
	return counts
}

func minMax(counts map[string]int) (min, max int) {
	first := true
	for _, n := range counts {
		if first || n < min {
			min = n
		}
		if first || n > max {
			max = n
		}
		first = false
	}
	return min, max
}

func total(counts map[string]int) int {
	sum := 0
	for _, n := range counts {
		sum += n
	}
	return sum
}
