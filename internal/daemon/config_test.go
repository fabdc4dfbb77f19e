package daemon

import (
	"strings"
	"testing"
)

func TestParseConfigDefaults(t *testing.T) {
	cfg, err := ParseConfig("")
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig()
	if cfg.MaxWorkers != def.MaxWorkers || cfg.MaxClients != def.MaxClients ||
		cfg.TCPPort != def.TCPPort || cfg.LogLevel != def.LogLevel {
		t.Fatalf("%+v", cfg)
	}
}

func TestParseConfigFull(t *testing.T) {
	text := `
# govirtd configuration
unix_sock_path = "/tmp/govirt.sock"
admin_sock_path = "/tmp/govirt-admin.sock"
listen_tcp = 1
tcp_bind_address = "127.0.0.1"
tcp_port = 26509
auth_tcp = "sasl"
sasl_credentials = ["admin:secret", "ops:hunter2"]

min_workers = 3
max_workers = 40
prio_workers = 8

max_clients = 200
max_anonymous_clients = 30

log_level = 1
log_filters = "3:rpc 4:daemon.server"
log_outputs = "1:stderr 3:file:/var/log/govirtd.log"

metrics_address = "127.0.0.1:9177"
slow_call_threshold_ms = 100
`
	cfg, err := ParseConfig(text)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.UnixSocketPath != "/tmp/govirt.sock" || !cfg.ListenTCP || cfg.TCPPort != 26509 {
		t.Fatalf("%+v", cfg)
	}
	if cfg.AuthTCP != "sasl" || cfg.SASLCredentials["admin"] != "secret" || cfg.SASLCredentials["ops"] != "hunter2" {
		t.Fatalf("creds %+v", cfg.SASLCredentials)
	}
	if cfg.MinWorkers != 3 || cfg.MaxWorkers != 40 || cfg.PrioWorkers != 8 {
		t.Fatalf("%+v", cfg)
	}
	if cfg.MaxClients != 200 || cfg.MaxUnauthClients != 30 {
		t.Fatalf("%+v", cfg)
	}
	if cfg.LogLevel != 1 || !strings.Contains(cfg.LogFilters, "3:rpc") || cfg.LogOutputs != "1:stderr 3:file:/var/log/govirtd.log" {
		t.Fatalf("%+v", cfg)
	}
	// The buffer output only kept records in memory; it is refused by key.
	buffered := strings.Replace(text, "3:file:/var/log/govirtd.log", "3:buffer", 1)
	if _, err := ParseConfig(buffered); err == nil || !strings.Contains(err.Error(), "log_outputs") {
		t.Fatalf("3:buffer output: %v", err)
	}
	if cfg.MetricsAddress != "127.0.0.1:9177" || cfg.SlowCallThresholdMs != 100 {
		t.Fatalf("telemetry keys %+v", cfg)
	}
}

func TestParseConfigTelemetryDefaults(t *testing.T) {
	cfg, err := ParseConfig("")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MetricsAddress != "" {
		t.Fatalf("metrics listener on by default: %q", cfg.MetricsAddress)
	}
	if cfg.SlowCallThresholdMs != 250 {
		t.Fatalf("slow-call default %d", cfg.SlowCallThresholdMs)
	}
}

func TestParseConfigErrors(t *testing.T) {
	bad := []string{
		"max_workers",                      // no '='
		"warp_drive = 1",                   // unknown key
		`unix_sock_path = /no/quotes`,      // unquoted string
		"max_workers = lots",               // not an integer
		"listen_tcp = maybe",               // not a bool
		`auth_tcp = "kerberos"`,            // unknown auth
		`sasl_credentials = "admin:x"`,     // not a list
		`sasl_credentials = ["adminx"]`,    // missing colon
		"min_workers = 9\nmax_workers = 2", // min > max
		"max_clients = 0",
		"max_anonymous_clients = 9999",
		"tcp_port = 99999",
		"log_level = 9",
		`auth_tcp = "sasl"`, // sasl without credentials
		"slow_call_threshold_ms = -1",
		`metrics_address = unquoted`,
	}
	for _, text := range bad {
		if _, err := ParseConfig(text); err == nil {
			t.Errorf("ParseConfig(%q) accepted", text)
		}
	}
}

func TestParseConfigEmptyList(t *testing.T) {
	cfg, err := ParseConfig(`sasl_credentials = []`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.SASLCredentials) != 0 {
		t.Fatalf("%+v", cfg.SASLCredentials)
	}
}
