package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/admin"
	"repro/internal/daemon"
	"repro/internal/logging"
)

// startTestDaemon brings up a daemon with an admin server and returns
// the admin socket path.
func startTestDaemon(t *testing.T) string {
	t.Helper()
	d := daemon.New(logging.NewQuiet(logging.Error))
	if _, err := d.AddServer("govirtd", 2, 8, 2, daemon.ClientLimits{MaxClients: 20}); err != nil {
		t.Fatal(err)
	}
	adm, err := d.AddServer("admin", 1, 2, 1, daemon.ClientLimits{MaxClients: 5})
	if err != nil {
		t.Fatal(err)
	}
	adm.AddProgram(admin.NewProgram(d))
	sock := filepath.Join(t.TempDir(), "admin.sock")
	if err := adm.ListenUnix(sock, daemon.ServiceConfig{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Shutdown)
	return sock
}

func adminCLI(t *testing.T, sock string, args ...string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	full := append([]string{"-sock", sock}, args...)
	runErr := run(full)
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), runErr
}

func TestHelp(t *testing.T) {
	out, err := adminCLI(t, "/nonexistent", "help")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"srv-list", "config-set", "client-disconnect", "qos_classes"} {
		if !strings.Contains(out, want) {
			t.Errorf("help missing %q", want)
		}
	}
}

func TestSrvList(t *testing.T) {
	sock := startTestDaemon(t)
	out, err := adminCLI(t, sock, "srv-list")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "govirtd") || !strings.Contains(out, "admin") {
		t.Fatalf("srv-list:\n%s", out)
	}
}

func TestThreadpoolInfoAndSet(t *testing.T) {
	sock := startTestDaemon(t)
	out, err := adminCLI(t, sock, "config", "govirtd", "min_workers", "max_workers")
	if err != nil || out != "min_workers = 2\nmax_workers = 8\n" {
		t.Fatalf("config: %v\n%s", err, out)
	}
	if _, err := adminCLI(t, sock, "config-set", "govirtd", "max_workers=32", "prio_workers = 4"); err != nil {
		t.Fatal(err)
	}
	out, _ = adminCLI(t, sock, "config", "govirtd")
	if !strings.Contains(out, "max_workers = 32\n") || !strings.Contains(out, "prio_workers = 4\n") {
		t.Fatalf("set not applied:\n%s", out)
	}
	// Error paths.
	for _, args := range [][]string{
		{"config-set", "govirtd", "warp=9"},            // no such key
		{"config-set", "govirtd", "max_workers"},       // no value
		{"config-set", "govirtd", "max_workers=x"},     // not an integer
		{"config-set", "govirtd"},                      // nothing to set
		{"config", "govirtd", "unix_sock_path"},        // read at start-up only
		{"config-set", "govirtd", `unix_sock_path=""`}, // likewise
	} {
		if _, err := adminCLI(t, sock, args...); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestClientsInfoAndSet(t *testing.T) {
	sock := startTestDaemon(t)
	out, err := adminCLI(t, sock, "config", "govirtd", "max_clients")
	if err != nil || out != "max_clients = 20\n" {
		t.Fatalf("config: %v\n%s", err, out)
	}
	if _, err := adminCLI(t, sock, "config-set", "govirtd", "max_clients=99"); err != nil {
		t.Fatal(err)
	}
	if out, _ = adminCLI(t, sock, "config", "govirtd", "max_clients"); out != "max_clients = 99\n" {
		t.Fatalf("set not applied:\n%s", out)
	}
}

func TestClientListAndInfo(t *testing.T) {
	sock := startTestDaemon(t)
	// Our own admin connection appears in the admin server's client list.
	out, err := adminCLI(t, sock, "client-list", "admin")
	if err != nil || !strings.Contains(out, "unix") {
		t.Fatalf("client-list: %v\n%s", err, out)
	}
	if _, err := adminCLI(t, sock, "client-info", "admin", "notanumber"); err == nil {
		t.Fatal("bad id accepted")
	}
	if _, err := adminCLI(t, sock, "client-disconnect", "admin", "99999"); err == nil {
		t.Fatal("missing client disconnect accepted")
	}
}

func TestLogCommands(t *testing.T) {
	sock := startTestDaemon(t)
	out, err := adminCLI(t, sock, "config", "govirtd", "log_level", "log_filters", "log_outputs")
	if err != nil || out != "log_level = 4\nlog_filters = \"\"\nlog_outputs = \"\"\n" {
		t.Fatalf("config: %v\n%s", err, out)
	}
	if _, err := adminCLI(t, sock, "config-set", "govirtd", "log_level=1", `log_filters="3:rpc"`); err != nil {
		t.Fatal(err)
	}
	out, _ = adminCLI(t, sock, "config", "govirtd", "log_level", "log_filters")
	if out != "log_level = 1\nlog_filters = \"3:rpc\"\n" {
		t.Fatalf("config-set not applied:\n%s", out)
	}
	if _, err := adminCLI(t, sock, "config-set", "govirtd", "log_level=debug"); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := adminCLI(t, sock, "config-set", "govirtd", "log_filters=3:rpc"); err == nil {
		t.Fatal("unquoted string accepted")
	}
}

func TestMetricsCommand(t *testing.T) {
	sock := startTestDaemon(t)
	// Generate some dispatch traffic so the table has rows.
	if _, err := adminCLI(t, sock, "srv-list"); err != nil {
		t.Fatal(err)
	}
	out, err := adminCLI(t, sock, "metrics")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Procedure") || !strings.Contains(out, "admin.ConnectOpen") {
		t.Fatalf("metrics:\n%s", out)
	}
	out, err = adminCLI(t, sock, "metrics", "--all")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Counters:", "Gauges:", "Histograms:", "daemon_clients", "daemon_dispatch_seconds"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics --all missing %q", want)
		}
	}
	if _, err := adminCLI(t, sock, "metrics", "--warp"); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestSlowCallsCommand(t *testing.T) {
	d := daemon.New(logging.NewQuiet(logging.Error))
	adm, err := d.AddServer("admin", 1, 2, 1, daemon.ClientLimits{MaxClients: 5})
	if err != nil {
		t.Fatal(err)
	}
	adm.AddProgram(admin.NewProgram(d))
	sock := filepath.Join(t.TempDir(), "admin.sock")
	if err := adm.ListenUnix(sock, daemon.ServiceConfig{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Shutdown)
	// With a 1ns threshold every dispatched call lands in the ring.
	d.Tracer().SetThreshold(time.Nanosecond)

	if _, err := adminCLI(t, sock, "srv-list"); err != nil {
		t.Fatal(err)
	}
	out, err := adminCLI(t, sock, "slow-calls")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Calls traced:", "Slow calls:", "Threshold:    1ns", "admin.ServerList"} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-calls missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownCommandAndBadSocket(t *testing.T) {
	sock := startTestDaemon(t)
	if _, err := adminCLI(t, sock, "warp"); err == nil {
		t.Fatal("unknown command accepted")
	}
	if _, err := adminCLI(t, "/does/not/exist.sock", "srv-list"); err == nil {
		t.Fatal("bad socket accepted")
	}
}
