package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/daemon"
	drvtest "repro/internal/drivers/test"
	"repro/internal/logging"
)

var endpoints atomic.Int64

// startDaemons brings up two in-process daemons reachable over memnet
// and returns their names and the -hosts value that reaches the test
// driver's empty environment on each.
func startDaemons(t *testing.T) ([2]string, string) {
	t.Helper()
	drvtest.Register(logging.NewQuiet(logging.Error))
	var names [2]string
	uris := make([]string, 0, len(names))
	for i := range names {
		names[i] = fmt.Sprintf("fleetx-%d", endpoints.Add(1))
		d := daemon.New(logging.NewQuiet(logging.Error))
		t.Cleanup(d.Shutdown)
		srv, err := d.AddServer("govirtd", 1, 4, 1, daemon.ClientLimits{})
		if err != nil {
			t.Fatal(err)
		}
		srv.AddProgram(daemon.NewRemoteProgram(srv))
		if err := srv.ListenMem(names[i], daemon.ServiceConfig{}); err != nil {
			t.Fatal(err)
		}
		uris = append(uris, "test+mem://"+names[i]+"/empty")
	}
	return names, strings.Join(uris, ",")
}

// fleetx runs the CLI entry point with stdout captured.
func fleetx(t *testing.T, args ...string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(args)
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), runErr
}

// wantLines fails unless every pattern matches some line of out.
func wantLines(t *testing.T, out string, patterns ...string) {
	t.Helper()
	lines := strings.Split(out, "\n")
	for _, p := range patterns {
		re := regexp.MustCompile(p)
		found := false
		for _, l := range lines {
			if re.MatchString(l) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no line matches %q in:\n%s", p, out)
		}
	}
}

const vmXML = `<domain type='test'>
  <name>web</name>
  <memory unit='MiB'>256</memory>
  <vcpu>1</vcpu>
  <os><type>hvm</type></os>
</domain>`

// TestCommandsAgainstTwoDaemons drives every subcommand that talks to a
// fleet once. Each invocation opens fresh connections, and the test
// driver keeps its domains per connection, so every run starts from two
// empty hosts.
func TestCommandsAgainstTwoDaemons(t *testing.T) {
	names, hosts := startDaemons(t)
	a, b := regexp.QuoteMeta(names[0]), regexp.QuoteMeta(names[1])
	xmlFile := filepath.Join(t.TempDir(), "web.xml")
	if err := os.WriteFile(xmlFile, []byte(vmXML), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args  []string
		lines []string
	}{
		{[]string{"hosts"}, []string{
			`^ Name\s+State\s+Domains\s+URI\s*$`,
			`^ ` + a + `\s+up\s+0\s+test\+mem://` + a + `/empty$`,
			`^ ` + b + `\s+up\s+0\s+test\+mem://` + b + `/empty$`,
		}},
		{[]string{"status"}, []string{
			`^ Host\s+State\s+Domains\s+MemLoad\s+CPULoad\s+FreeMemMiB\s*$`,
			`^ ` + a + `\s+up\s+0\s+0\.00\s+0\.00\s+\d+\s*$`,
			`^ ` + b + `\s+up\s+0\s+0\.00\s+0\.00\s+\d+\s*$`,
			`^Fleet skew \(hottest - coldest load\): 0\.000$`,
		}},
		{[]string{"metrics"}, []string{
			`^ Host\s+Domain\s+State\s+VCPUs\s+Mem KiB\s+CPU time\s*$`,
			`^0 domain\(s\) on 2 host\(s\)$`,
		}},
		{[]string{"schedule", xmlFile}, []string{
			`^Domain web placed on (` + a + `|` + b + `)$`,
		}},
		{[]string{"rebalance", "--dry-run"}, []string{
			`^Skew 0\.000 -> 0\.000 \(converged: true\), 0 move\(s\) planned:$`,
		}},
	} {
		out, err := fleetx(t, append([]string{"-hosts", hosts}, tc.args...)...)
		if err != nil {
			t.Fatalf("%v: %v\n%s", tc.args, err, out)
		}
		wantLines(t, out, tc.lines...)
	}
}

func TestSimulateSmallFleet(t *testing.T) {
	out, err := fleetx(t, "simulate", "--hosts", "2", "--domains", "2", "--probes", "5")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	wantLines(t, out,
		`^Launching 2 in-process daemons\.\.\.$`,
		`^Fleet settled: 2 hosts up in `,
		`^Seeded 4 domains \(2/host\) in `,
		`^Schedule: 5 probes, p50 \S+  p99 \S+  max \S+$`,
		`^Rebalance plan: \d+ move\(s\) in `,
		`^Registry working set: [0-9.]+ MiB for \d+ domains on 2 hosts$`,
	)
}

func TestHelpAndErrors(t *testing.T) {
	out, err := fleetx(t, "help")
	if err != nil {
		t.Fatal(err)
	}
	wantLines(t, out, `^  hosts\s+list hosts`, `^  rebalance \[flags\]`, `^  simulate \[flags\]`)

	_, hosts := startDaemons(t)
	if _, err := fleetx(t, "-hosts", hosts, "warp"); err == nil || !strings.Contains(err.Error(), `unknown command "warp"`) {
		t.Errorf("unknown command: %v", err)
	}
	if _, err := fleetx(t, "-hosts", hosts, "schedule"); err == nil {
		t.Error("schedule without a file accepted")
	}
	if _, err := fleetx(t, "-hosts", hosts, "rebalance", "--max"); err == nil {
		t.Error("--max without a value accepted")
	}
	if _, err := fleetx(t, "-hosts", "test+mem://fleetx-nobody/empty", "-wait", "200ms", "hosts"); err == nil ||
		!strings.Contains(err.Error(), "no fleet host is reachable") {
		t.Errorf("unreachable fleet: %v", err)
	}
}
