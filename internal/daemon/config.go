package daemon

import (
	"fmt"
	"strings"

	"repro/internal/conf"
	"repro/internal/faultpoint"
	"repro/internal/logging"
	"repro/internal/qos"
	"repro/internal/uri"
)

// Config is the daemon's persistent configuration, read once at start-up
// from a libvirtd.conf-style file. The fields whose rows in Keys are
// marked live (workerpool and client limits, logging, admission control)
// can later be changed through the admin interface without a restart;
// Server.Apply is how a Config reaches a running server either way.
type Config struct {
	// Sockets.
	UnixSocketPath  string
	AdminSocketPath string
	ListenTCP       bool
	TCPBindAddress  string
	TCPPort         int
	AuthTCP         string // "none" or "sasl"
	SASLCredentials map[string]string

	// Workerpool.
	MinWorkers  int
	MaxWorkers  int
	PrioWorkers int

	// Client limits.
	MaxClients       int
	MaxUnauthClients int

	// Logging.
	LogLevel   int
	LogFilters string
	LogOutputs string

	// Telemetry.
	MetricsAddress      string // HTTP /metrics listener; "" disables
	SlowCallThresholdMs int    // slow-call tracing threshold; 0 disables

	// Per-domain metrics export (needs MetricsAddress).
	DomainMetricsURI         string // driver URI swept per scrape; "" disables
	DomainMetricsStalenessMs int    // rendered-sweep reuse window
	DomainMetricsMaxDomains  int    // cardinality cap on exported rows; 0 = unlimited

	// Watch streams (see internal/watch).
	EventQueueDepth       int // per-subscription queue depth
	EventCoalesceWindowMs int // per-domain coalesce window; 0 disables

	// Robustness.
	StateDir        string // crash-safe object journal root; "" disables
	CallTimeoutMs   int    // per-call dispatch deadline; 0 disables
	ShutdownGraceMs int    // in-flight drain budget on shutdown

	// Multi-tenant QoS (see internal/qos): per-class admission specs
	// and the queue-depth watermark above which queued low-priority
	// calls are shed. Empty QoSClasses disables admission control.
	QoSClasses       []string
	QoSShedWatermark int

	// Debug: deterministic fault injection (see internal/faultpoint).
	// Production configurations leave these empty.
	FaultInjection string // "site:mode:prob[:delay_ms],..." spec list
	FaultSeed      int    // PRNG seed the registry is armed with
}

// DefaultConfig returns the shipped defaults.
func DefaultConfig() Config {
	return Config{
		UnixSocketPath:      "/var/run/govirt/govirt-sock",
		AdminSocketPath:     "/var/run/govirt/govirt-admin-sock",
		TCPBindAddress:      "0.0.0.0",
		TCPPort:             16509,
		AuthTCP:             "none",
		SASLCredentials:     map[string]string{},
		MinWorkers:          5,
		MaxWorkers:          20,
		PrioWorkers:         5,
		MaxClients:          120,
		MaxUnauthClients:    20,
		LogLevel:            3,
		LogOutputs:          "3:stderr",
		SlowCallThresholdMs: 250,
		CallTimeoutMs:       30000,
		ShutdownGraceMs:     5000,

		DomainMetricsStalenessMs: 1000,
		DomainMetricsMaxDomains:  10000,

		EventQueueDepth:       256,
		EventCoalesceWindowMs: 10,

		QoSShedWatermark: 128,
	}
}

// Keys is the govirtd.conf key table (the dialect is package conf's),
// bound to c's fields. sasl_credentials lands in creds as written;
// ParseConfig folds it into c.SASLCredentials.
func (c *Config) Keys(creds *[]string) []conf.Key {
	return []conf.Key{
		conf.String("unix_sock_path", &c.UnixSocketPath),
		conf.String("admin_sock_path", &c.AdminSocketPath),
		conf.Bool("listen_tcp", &c.ListenTCP),
		conf.String("tcp_bind_address", &c.TCPBindAddress),
		conf.Int("tcp_port", &c.TCPPort, 1, 65535),
		conf.String("auth_tcp", &c.AuthTCP),
		conf.Strings("sasl_credentials", creds),
		conf.Live(conf.Int("min_workers", &c.MinWorkers, 0)),
		conf.Live(conf.Int("max_workers", &c.MaxWorkers, 1)),
		conf.Live(conf.Int("prio_workers", &c.PrioWorkers, 0)),
		conf.Live(conf.Int("max_clients", &c.MaxClients, 1)),
		conf.Live(conf.Int("max_anonymous_clients", &c.MaxUnauthClients, 0)),
		conf.Live(conf.Int("log_level", &c.LogLevel, 1, 4)),
		conf.Live(conf.String("log_filters", &c.LogFilters)),
		conf.Live(conf.String("log_outputs", &c.LogOutputs)),
		conf.String("metrics_address", &c.MetricsAddress),
		conf.Int("slow_call_threshold_ms", &c.SlowCallThresholdMs, 0),
		conf.String("domain_metrics", &c.DomainMetricsURI),
		conf.Int("domain_metrics_staleness_ms", &c.DomainMetricsStalenessMs, 0),
		conf.Int("domain_metrics_max_domains", &c.DomainMetricsMaxDomains, 0),
		conf.Int("event_queue_depth", &c.EventQueueDepth, 1),
		conf.Int("event_coalesce_window_ms", &c.EventCoalesceWindowMs, 0),
		conf.String("state_dir", &c.StateDir),
		conf.Int("call_timeout_ms", &c.CallTimeoutMs, 0),
		conf.Int("shutdown_grace_ms", &c.ShutdownGraceMs, 0),
		conf.Live(conf.Strings("qos_classes", &c.QoSClasses)),
		conf.Live(conf.Int("qos_shed_watermark", &c.QoSShedWatermark, 0)),
		conf.String("fault_injection", &c.FaultInjection),
		conf.Int("fault_seed", &c.FaultSeed),
	}
}

// Setting is one live setting: its key and its value written as in
// govirtd.conf.
type Setting struct {
	Key, Value string
}

// Live returns c's live settings in key-table order.
func (c Config) Live() []Setting {
	var out []Setting
	for _, k := range c.Keys(new([]string)) {
		if k.Live {
			out = append(out, Setting{k.Name, k.Value()})
		}
	}
	return out
}

// ParseConfig reads a govirtd.conf document over the shipped defaults.
func ParseConfig(text string) (Config, error) {
	cfg := DefaultConfig()
	var creds []string
	at, err := conf.Parse(text, cfg.Keys(&creds))
	for _, e := range creds {
		user, pass, found := strings.Cut(e, ":")
		if err == nil && (!found || user == "") {
			err = at.Errorf("sasl_credentials", `entries must be "user:password"`)
		}
		cfg.SASLCredentials[user] = pass
	}
	if err == nil {
		err = cfg.validate(at)
	}
	if err != nil {
		err = fmt.Errorf("daemon: %v", err)
	}
	return cfg, err
}

// Validate cross-checks the configuration: what no single row of Keys
// can say about its own value.
func (c *Config) Validate() error {
	if err := c.validate(nil); err != nil {
		return fmt.Errorf("daemon: %v", err)
	}
	return nil
}

// validate is Validate with the lines a document set its keys on, so a
// sub-grammar's complaint points at the key that holds it.
func (c *Config) validate(at conf.Lines) error {
	if c.MinWorkers > c.MaxWorkers {
		return fmt.Errorf("worker limits invalid: min=%d max=%d", c.MinWorkers, c.MaxWorkers)
	}
	if c.MaxUnauthClients > c.MaxClients {
		return fmt.Errorf("max_anonymous_clients outside [0, max_clients]")
	}
	if _, err := logging.ParseFilters(c.LogFilters); err != nil {
		return at.Errorf("log_filters", "%v", err)
	}
	if _, err := logging.ParseOutputs(c.LogOutputs); err != nil {
		return at.Errorf("log_outputs", "%v", err)
	}
	if c.AuthTCP != "none" && c.AuthTCP != "sasl" {
		return at.Errorf("auth_tcp", `must be "none" or "sasl"`)
	}
	if c.AuthTCP == "sasl" && len(c.SASLCredentials) == 0 {
		return fmt.Errorf("auth_tcp=sasl requires sasl_credentials")
	}
	if c.DomainMetricsURI != "" {
		if _, err := uri.Parse(c.DomainMetricsURI); err != nil {
			return at.Errorf("domain_metrics", "%v", err)
		}
	}
	if c.FaultInjection != "" {
		if _, err := faultpoint.ParseSpecs(c.FaultInjection); err != nil {
			return at.Errorf("fault_injection", "%v", err)
		}
	}
	// Full spec validation: duplicate class names, zero-rate classes,
	// malformed keys.
	if _, err := qos.ParseClasses(c.QoSClasses); err != nil {
		return at.Errorf("qos_classes", "%v", err)
	}
	return nil
}
