package fleet

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/drivers/remote"
	drvtest "repro/internal/drivers/test"
	"repro/internal/logging"
)

// registerDrivers resets the global driver registry and installs the
// test and remote drivers, mirroring what the CLIs do at start-up.
func registerDrivers(t *testing.T) {
	t.Helper()
	core.ResetRegistryForTest()
	log := logging.NewQuiet(logging.Error)
	drvtest.Register(log)
	remote.Register()
	t.Cleanup(core.ResetRegistryForTest)
}

// startFleetDaemon brings up one govirtd daemon on the given unix
// socket: one simulated "host" of the fleet.
func startFleetDaemon(t *testing.T, sock string) *daemon.Daemon {
	t.Helper()
	d := daemon.New(logging.NewQuiet(logging.Error))
	srv, err := d.AddServer("govirtd", 2, 8, 2, daemon.ClientLimits{})
	if err != nil {
		t.Fatal(err)
	}
	srv.AddProgram(daemon.NewRemoteProgram(srv))
	if err := srv.ListenUnix(sock, daemon.ServiceConfig{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Shutdown)
	return d
}

func emptyURI(sock string) string {
	return "test+unix:///empty?socket=" + strings.ReplaceAll(sock, "/", "%2F")
}

func testXML(name string, memMiB, vcpus int) string {
	return fmt.Sprintf(`
<domain type='test'>
  <name>%s</name>
  <description>cpu_util=0.3 dirty_pages_sec=1000</description>
  <memory unit='MiB'>%d</memory>
  <vcpu>%d</vcpu>
  <os><type arch='x86_64'>hvm</type></os>
</domain>`, name, memMiB, vcpus)
}

// fastConfig returns registry settings tuned for tests: short poll,
// short backoff.
func fastConfig(uris ...string) Config {
	return Config{
		Hosts:        uris,
		PollInterval: 20 * time.Millisecond,
		BackoffMin:   10 * time.Millisecond,
		BackoffMax:   100 * time.Millisecond,
	}
}

// synthetic inventory helpers for the pure scheduler/planner tests.

func synthHost(name, drv string, memKiB uint64, cpus int, doms ...DomainRecord) HostInventory {
	return HostInventory{
		Host: name, State: HostUp, DriverType: drv,
		Node:    core.NodeInfo{MemoryKiB: memKiB, CPUs: cpus},
		Domains: doms,
	}
}

// summaries condenses synthetic hosts the way the registry's cache does.
func summaries(invs ...HostInventory) []HostSummary {
	sums := make([]HostSummary, len(invs))
	for i := range invs {
		sums[i] = invs[i].Summary()
	}
	return sums
}

func runningDom(name string, memKiB uint64, vcpus int) DomainRecord {
	return DomainRecord{Name: name, State: core.DomainRunning, MemKiB: memKiB, VCPUs: vcpus}
}

func TestFleetPolicySpreadVsPack(t *testing.T) {
	sums := summaries(
		synthHost("busy", "test", 1000, 100, runningDom("a", 400, 10)),
		synthHost("idle", "test", 1000, 100),
	)
	req := Request{Name: "new", TypeName: "test", MemKiB: 100, VCPUs: 1}

	if got := RankSummaries(Spread(), req, sums); len(got) != 2 || got[0] != "idle" {
		t.Fatalf("spread ranking = %v, want idle first", got)
	}
	if got := RankSummaries(Pack(), req, sums); len(got) != 2 || got[0] != "busy" {
		t.Fatalf("pack ranking = %v, want busy first", got)
	}
	// Weighted with equal weights agrees with spread here.
	if got := RankSummaries(Weighted(1, 1), req, sums); got[0] != "idle" {
		t.Fatalf("weighted ranking = %v, want idle first", got)
	}
}

func TestFleetCandidateFiltering(t *testing.T) {
	sums := summaries(
		synthHost("ok", "test", 1000, 100),
		synthHost("wrongdrv", "qemu", 1000, 100),
		synthHost("full", "test", 1000, 100, runningDom("hog", 950, 1)),
		HostInventory{Host: "down", State: HostDown, DriverType: "test",
			Node: core.NodeInfo{MemoryKiB: 1000, CPUs: 100}},
	)
	req := Request{Name: "new", TypeName: "test", MemKiB: 100, VCPUs: 1}
	cands := CandidateSummaries(req, sums)
	if len(cands) != 1 || cands[0].Host != "ok" {
		t.Fatalf("candidates = %+v, want just \"ok\"", cands)
	}
	// Without a type constraint the driver filter passes everything up
	// with capacity.
	req.TypeName = ""
	if cands := CandidateSummaries(req, sums); len(cands) != 2 {
		t.Fatalf("untyped candidates = %d, want 2", len(cands))
	}
}

func TestFleetPolicyByName(t *testing.T) {
	for _, name := range []string{"", "spread", "pack", "weighted"} {
		if _, err := PolicyByName(name); err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
	}
	if _, err := PolicyByName("bogus"); !core.IsCode(err, core.ErrInvalidArg) {
		t.Fatalf("bogus policy error = %v", err)
	}
}

func TestFleetParseRequest(t *testing.T) {
	req, err := ParseRequest(testXML("vm1", 512, 2))
	if err != nil {
		t.Fatal(err)
	}
	if req.Name != "vm1" || req.TypeName != "test" || req.MemKiB != 512*1024 || req.VCPUs != 2 {
		t.Fatalf("request = %+v", req)
	}
	if _, err := ParseRequest("<domain>"); !core.IsCode(err, core.ErrXML) {
		t.Fatalf("bad XML error = %v", err)
	}
	// Well-formed but invalid: ParseDomain's validation is the only check.
	invalid := "<domain type='test'><name>vm1</name><memory>1024</memory><vcpu>0</vcpu></domain>"
	if _, err := ParseRequest(invalid); !core.IsCode(err, core.ErrXML) || !strings.Contains(err.Error(), "vcpu count") {
		t.Fatalf("invalid definition error = %v", err)
	}
}

func TestFleetPlanRebalanceSkew(t *testing.T) {
	invs := []HostInventory{
		synthHost("hot", "test", 1000, 1000,
			runningDom("a", 100, 1), runningDom("b", 100, 1),
			runningDom("c", 100, 1), runningDom("d", 100, 1)),
		synthHost("cold", "test", 1000, 1000),
	}
	moves, before, after, converged := PlanRebalance(invs, RebalanceOptions{SkewThreshold: 0.1})
	if !converged || len(moves) != 2 {
		t.Fatalf("moves=%v converged=%v", moves, converged)
	}
	if before != 0.4 || after != 0 {
		t.Fatalf("skew %v -> %v, want 0.4 -> 0", before, after)
	}
	for _, mv := range moves {
		if mv.From != "hot" || mv.To != "cold" {
			t.Fatalf("unexpected move %+v", mv)
		}
	}
	// The input snapshot must not be mutated by the simulation.
	if len(invs[0].Domains) != 4 {
		t.Fatal("planner mutated its input")
	}
}

func TestFleetPlanRebalanceDrain(t *testing.T) {
	invs := []HostInventory{
		synthHost("h0", "test", 1000, 1000,
			runningDom("a", 100, 1), runningDom("b", 200, 1)),
		synthHost("h1", "test", 1000, 1000, runningDom("c", 100, 1)),
		synthHost("h2", "test", 1000, 1000),
	}
	moves, _, _, converged := PlanRebalance(invs, RebalanceOptions{Drain: "h0"})
	if !converged || len(moves) != 2 {
		t.Fatalf("drain moves=%v converged=%v", moves, converged)
	}
	// Largest domain moves first, to the emptiest host.
	if moves[0].Domain != "b" || moves[0].To != "h2" {
		t.Fatalf("first drain move %+v, want b -> h2", moves[0])
	}
	for _, mv := range moves {
		if mv.From != "h0" {
			t.Fatalf("drain move from %s, want h0", mv.From)
		}
	}
}

func TestFleetPlanRebalanceNoProgress(t *testing.T) {
	// One giant domain: moving it would just swap which host is hot, so
	// the planner must stop rather than thrash.
	invs := []HostInventory{
		synthHost("hot", "test", 1000, 1000, runningDom("giant", 800, 1)),
		synthHost("cold", "test", 1000, 1000),
	}
	moves, _, _, converged := PlanRebalance(invs, RebalanceOptions{SkewThreshold: 0.1})
	if len(moves) != 0 || converged {
		t.Fatalf("moves=%v converged=%v, want no moves", moves, converged)
	}
}

func TestFleetConfigParse(t *testing.T) {
	text := `
# fleet controller
hosts = ["test+tcp://10.0.0.1:16509/", "test+tcp://10.0.0.2:16509/"]
poll_interval_ms = 500
policy = "pack"
rebalance_skew = 0.3
rebalance_max_migrations = 4
rebalance_concurrency = 2
migrate_bandwidth_mbps = 500
migrate_streams = 4
migrate_auto_converge = on
migrate_postcopy = false
`
	cfg, err := ParseFileConfig(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Hosts) != 2 || cfg.PollIntervalMs != 500 || cfg.Policy != "pack" {
		t.Fatalf("cfg = %+v", cfg)
	}
	rc, err := cfg.RegistryConfig()
	if err != nil {
		t.Fatal(err)
	}
	if rc.PollInterval != 500*time.Millisecond || rc.Policy.Name() != "pack" {
		t.Fatalf("registry config = %+v", rc)
	}
	ro := cfg.RebalanceConfig()
	if ro.SkewThreshold != 0.3 || ro.MaxMigrations != 4 || ro.Migrate.BandwidthMBps != 500 {
		t.Fatalf("rebalance options = %+v", ro)
	}
	if ro.Migrate.ParallelStreams != 4 || !ro.Migrate.AutoConverge || ro.Migrate.PostCopy {
		t.Fatalf("migrate options = %+v", ro.Migrate)
	}

	for _, bad := range []string{
		"bogus_key = 1",
		`policy = "bogus"`,
		"rebalance_skew = 2.0",
		"poll_interval_ms = 0",
		`hosts = [oops]`,
		"migrate_streams = -1",
		"migrate_auto_converge = maybe",
	} {
		if _, err := ParseFileConfig(bad); err == nil {
			t.Fatalf("config %q accepted", bad)
		}
	}

	// Out-of-range migrate_streams errors carry the offending line.
	_, err = ParseFileConfig("policy = \"spread\"\nmigrate_streams = 100")
	if err == nil || !strings.Contains(err.Error(), "config line 2: migrate_streams") {
		t.Fatalf("out-of-range migrate_streams: %v", err)
	}
}

func TestFleetRegistryReconnect(t *testing.T) {
	registerDrivers(t)
	sock := filepath.Join(t.TempDir(), "node.sock")
	d := startFleetDaemon(t, sock)

	reg, err := New(fastConfig(emptyURI(sock)))
	if err != nil {
		t.Fatal(err)
	}
	reg.Start()
	defer reg.Close()
	if up := reg.WaitSettled(5 * time.Second); up != 1 {
		t.Fatalf("%d hosts up, want 1", up)
	}
	name := reg.Hosts()[0]

	// Kill the daemon: the poll loop must notice and flip the host down.
	d.Shutdown()
	if !reg.WaitHostState(name, HostDown, 5*time.Second) {
		t.Fatal("host never went down after daemon shutdown")
	}
	if _, err := reg.Host(name); !core.IsRetryable(err) {
		t.Fatalf("Host() on a down host = %v, want retryable", err)
	}

	// Bring a daemon back on the same socket: backoff reconnect must
	// find it without intervention.
	startFleetDaemon(t, sock)
	if !reg.WaitHostState(name, HostUp, 5*time.Second) {
		t.Fatal("host never reconnected after daemon restart")
	}
	if _, err := reg.Host(name); err != nil {
		t.Fatalf("Host() after reconnect: %v", err)
	}
}

// TestFleetHostDiesBetweenDefineAndStart is the regression test for the
// typed host-failure error: a daemon dying between the define and start
// halves of a placement must surface a retryable error, and the
// scheduler must carry the domain to another host.
func TestFleetHostDiesBetweenDefineAndStart(t *testing.T) {
	registerDrivers(t)
	dir := t.TempDir()
	sock0 := filepath.Join(dir, "node0.sock")
	sock1 := filepath.Join(dir, "node1.sock")
	d0 := startFleetDaemon(t, sock0)
	d1 := startFleetDaemon(t, sock1)
	daemons := map[string]*daemon.Daemon{"node0": d0, "node1": d1}

	reg, err := New(fastConfig(emptyURI(sock0), emptyURI(sock1)))
	if err != nil {
		t.Fatal(err)
	}
	reg.Start()
	defer reg.Close()
	if up := reg.WaitSettled(5 * time.Second); up != 2 {
		t.Fatalf("%d hosts up, want 2", up)
	}

	// First, the raw error shape: define on a host, kill it, start.
	conn, err := core.Open(emptyURI(sock0))
	if err != nil {
		t.Fatal(err)
	}
	dom, err := conn.DefineDomain(testXML("probe", 256, 1))
	if err != nil {
		t.Fatal(err)
	}
	d0.Shutdown()
	err = dom.Create()
	if err == nil {
		t.Fatal("Create on a dead daemon succeeded")
	}
	if !core.IsCode(err, core.ErrHostUnreachable) {
		t.Fatalf("Create error = %v (code %v), want ErrHostUnreachable", err, core.CodeOf(err))
	}
	if !core.IsRetryable(err) {
		t.Fatalf("error %v not classified retryable", err)
	}
	conn.Close()
	reg.WaitHostState("node0", HostDown, 5*time.Second)

	// Now the scheduler-level behaviour: restart node0, then rig the
	// placement to kill whichever host wins right after define. Schedule
	// must retry the domain onto the surviving host.
	daemons["node0"] = startFleetDaemon(t, sock0)
	if !reg.WaitHostState("node0", HostUp, 5*time.Second) {
		t.Fatal("node0 never came back")
	}
	killed := ""
	reg.hookAfterDefine = func(hostName string) {
		if killed == "" {
			killed = hostName
			daemons[hostName].Shutdown()
		}
	}
	p, err := reg.Schedule(testXML("survivor", 256, 1))
	if err != nil {
		t.Fatalf("Schedule with dying host: %v", err)
	}
	if p.Attempts != 2 || len(p.FailedHosts) != 1 || p.FailedHosts[0] != killed {
		t.Fatalf("placement = %+v (killed %s), want one failed host", p, killed)
	}
	if p.Host == killed {
		t.Fatalf("domain placed on the killed host %s", killed)
	}
	if st, err := p.Domain.Info(); err != nil || st.State != core.DomainRunning {
		t.Fatalf("survivor state %+v err=%v", st, err)
	}
}

func TestFleetIntegrationSpreadAndDrain(t *testing.T) {
	registerDrivers(t)
	dir := t.TempDir()
	const nHosts, nDomains = 3, 12
	var uris []string
	for i := 0; i < nHosts; i++ {
		sock := filepath.Join(dir, fmt.Sprintf("node%d.sock", i))
		startFleetDaemon(t, sock)
		uris = append(uris, emptyURI(sock))
	}

	reg, err := New(fastConfig(uris...))
	if err != nil {
		t.Fatal(err)
	}
	reg.Start()
	defer reg.Close()
	if up := reg.WaitSettled(5 * time.Second); up != nHosts {
		t.Fatalf("%d hosts up, want %d", up, nHosts)
	}

	for i := 0; i < nDomains; i++ {
		if _, err := reg.Schedule(testXML(fmt.Sprintf("vm%02d", i), 8192, 4)); err != nil {
			t.Fatalf("schedule vm%02d: %v", i, err)
		}
	}
	counts := activeByHost(t, reg)
	minN, maxN := nDomains, 0
	for _, n := range counts {
		if n < minN {
			minN = n
		}
		if n > maxN {
			maxN = n
		}
	}
	if maxN-minN > 1 {
		t.Fatalf("spread placement uneven: %v", counts)
	}

	// Drain the first host; every domain must survive.
	drain := reg.Hosts()[0]
	res, err := reg.Rebalance(context.Background(), RebalanceOptions{
		Drain: drain, Concurrency: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("drain not converged: %+v", res)
	}
	for _, rec := range res.Migrations {
		if rec.Err != nil {
			t.Fatalf("migration %s: %v", rec.Domain, rec.Err)
		}
	}
	counts = activeByHost(t, reg)
	if counts[drain] != 0 {
		t.Fatalf("drain host still carries %d domains", counts[drain])
	}
	totalAfter := 0
	for _, n := range counts {
		totalAfter += n
	}
	if totalAfter != nDomains {
		t.Fatalf("domains lost during drain: %d/%d, counts %v", totalAfter, nDomains, counts)
	}
}

func activeByHost(t *testing.T, reg *Registry) map[string]int {
	t.Helper()
	reg.RefreshNow()
	counts := map[string]int{}
	for _, sum := range reg.Summaries() {
		counts[sum.Host] = sum.ActiveDomains
	}
	return counts
}

func TestFleetRebalanceCancellation(t *testing.T) {
	registerDrivers(t)
	dir := t.TempDir()
	sock0 := filepath.Join(dir, "node0.sock")
	sock1 := filepath.Join(dir, "node1.sock")
	startFleetDaemon(t, sock0)
	startFleetDaemon(t, sock1)

	cfg := fastConfig(emptyURI(sock0), emptyURI(sock1))
	cfg.Policy = Pack() // pile every domain onto one host
	reg, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg.Start()
	defer reg.Close()
	if up := reg.WaitSettled(5 * time.Second); up != 2 {
		t.Fatalf("%d hosts up, want 2", up)
	}
	for i := 0; i < 4; i++ {
		if _, err := reg.Schedule(testXML(fmt.Sprintf("vm%d", i), 8192, 4)); err != nil {
			t.Fatal(err)
		}
	}
	counts := activeByHost(t, reg)
	if counts["node0"] != 4 && counts["node1"] != 4 {
		t.Fatalf("pack policy spread the domains: %v", counts)
	}

	// A context cancelled up front stops the pass before any migration.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := reg.Rebalance(cancelled, RebalanceOptions{SkewThreshold: 0.01})
	if err != context.Canceled {
		t.Fatalf("pre-cancelled rebalance error = %v", err)
	}
	if len(res.Migrations) != 0 || len(res.Planned) == 0 {
		t.Fatalf("pre-cancelled rebalance ran migrations: %+v", res)
	}

	// Cancelling mid-pass stops new migrations; the in-flight one
	// completes. Serial concurrency makes the cut-off deterministic:
	// OnMigration fires (and cancels) while the worker still holds the
	// semaphore, so the dispatch loop wakes on ctx.Done.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err = reg.Rebalance(ctx, RebalanceOptions{
		SkewThreshold: 0.01,
		Concurrency:   1,
		OnMigration: func(MigrationRecord) {
			cancel()
			time.Sleep(20 * time.Millisecond)
		},
	})
	if err != context.Canceled {
		t.Fatalf("mid-pass cancel error = %v", err)
	}
	if len(res.Planned) < 2 {
		t.Fatalf("expected a multi-move plan, got %+v", res.Planned)
	}
	if len(res.Migrations) != 1 {
		t.Fatalf("%d migrations ran after cancel, want 1", len(res.Migrations))
	}
	if res.Migrations[0].Err != nil {
		t.Fatalf("in-flight migration failed: %v", res.Migrations[0].Err)
	}
	if res.Converged {
		t.Fatal("cancelled pass reported converged")
	}

	// No domain was lost: all four still run somewhere.
	counts = activeByHost(t, reg)
	totalActive := 0
	for _, n := range counts {
		totalActive += n
	}
	if totalActive != 4 {
		t.Fatalf("domains lost after cancellation: %v", counts)
	}
}

// TestFleetShippedConfigParses keeps configs/fleet.conf in sync with
// the parser: every documented key must round-trip into a usable
// registry configuration.
func TestFleetShippedConfigParses(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "configs", "fleet.conf"))
	if err != nil {
		t.Fatalf("read shipped config: %v", err)
	}
	fc, err := ParseFileConfig(string(data))
	if err != nil {
		t.Fatalf("parse shipped config: %v", err)
	}
	if len(fc.Hosts) != 2 || fc.Policy != "spread" {
		t.Fatalf("unexpected shipped config: %+v", fc)
	}
	if _, err := fc.RegistryConfig(); err != nil {
		t.Fatalf("shipped config not usable: %v", err)
	}
	ro := fc.RebalanceConfig()
	if ro.SkewThreshold != 0.2 || ro.MaxMigrations != 16 || ro.Concurrency != 1 {
		t.Fatalf("unexpected rebalance options: %+v", ro)
	}
}
