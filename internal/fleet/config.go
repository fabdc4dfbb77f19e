package fleet

import (
	"fmt"
	"time"

	"repro/internal/conf"
	"repro/internal/core"
)

// FileConfig is the on-disk fleet controller configuration, read from a
// fleet.conf document.
type FileConfig struct {
	Hosts          []string // daemon connection URIs
	PollIntervalMs int
	BackoffMinMs   int
	BackoffMaxMs   int
	BackoffJitter  float64 // reconnect jitter fraction, [0, 1]
	CallTimeoutMs  int     // per-call deadline on host URIs; 0 = driver default
	Policy         string  // "spread", "pack" or "weighted"

	RebalanceSkew          float64 // load spread that triggers rebalancing
	RebalanceMaxMigrations int
	RebalanceConcurrency   int

	MigrateBandwidthMBps uint64
	MigrateMaxDowntimeMs uint64
	MigrateStreams       int  // parallel transfer streams per migration; 0 = 1
	MigrateAutoConverge  bool // throttle source vCPUs when pre-copy cannot converge
	MigratePostCopy      bool // switch after one round, pull the rest on demand
}

// DefaultFileConfig returns the shipped defaults.
func DefaultFileConfig() FileConfig {
	return FileConfig{
		PollIntervalMs:         2000,
		BackoffMinMs:           100,
		BackoffMaxMs:           10000,
		BackoffJitter:          0.2,
		Policy:                 "spread",
		RebalanceSkew:          0.2,
		RebalanceMaxMigrations: 16,
		RebalanceConcurrency:   1,
	}
}

// Keys is the fleet.conf key table (the dialect is package conf's),
// bound to c's fields.
func (c *FileConfig) Keys() []conf.Key {
	return []conf.Key{
		conf.Strings("hosts", &c.Hosts),
		conf.Int("poll_interval_ms", &c.PollIntervalMs, 1),
		conf.Int("backoff_min_ms", &c.BackoffMinMs, 1),
		conf.Int("backoff_max_ms", &c.BackoffMaxMs),
		conf.Float("backoff_jitter", &c.BackoffJitter, 0, 1),
		conf.Int("call_timeout_ms", &c.CallTimeoutMs, 0),
		conf.String("policy", &c.Policy),
		conf.Float("rebalance_skew", &c.RebalanceSkew, 0, 1),
		conf.Int("rebalance_max_migrations", &c.RebalanceMaxMigrations, 1),
		conf.Int("rebalance_concurrency", &c.RebalanceConcurrency, 1),
		conf.Uint("migrate_bandwidth_mbps", &c.MigrateBandwidthMBps),
		conf.Uint("migrate_max_downtime_ms", &c.MigrateMaxDowntimeMs),
		conf.Int("migrate_streams", &c.MigrateStreams, 0, core.MaxMigrateStreams),
		conf.Bool("migrate_auto_converge", &c.MigrateAutoConverge),
		conf.Bool("migrate_postcopy", &c.MigratePostCopy),
	}
}

// ParseFileConfig reads a fleet.conf document over the shipped defaults.
func ParseFileConfig(text string) (FileConfig, error) {
	cfg := DefaultFileConfig()
	at, err := conf.Parse(text, cfg.Keys())
	if err == nil {
		err = cfg.validate(at)
	}
	if err != nil {
		err = fmt.Errorf("fleet: %v", err)
	}
	return cfg, err
}

// validate cross-checks the configuration: what no single row of Keys
// can say about its own value.
func (c *FileConfig) validate(at conf.Lines) error {
	if c.BackoffMaxMs < c.BackoffMinMs {
		return fmt.Errorf("backoff window invalid: min=%dms max=%dms", c.BackoffMinMs, c.BackoffMaxMs)
	}
	if c.RebalanceSkew == 0 { // the row's [0, 1] cannot say (0, 1]
		return at.Errorf("rebalance_skew", "must be positive")
	}
	if _, err := PolicyByName(c.Policy); err != nil {
		return at.Errorf("policy", "%v", err)
	}
	return nil
}

// RegistryConfig converts the file form into a runtime Config.
func (c *FileConfig) RegistryConfig() (Config, error) {
	policy, err := PolicyByName(c.Policy)
	if err != nil {
		return Config{}, err
	}
	jitter := c.BackoffJitter
	if jitter == 0 {
		jitter = -1 // explicit zero in the file means "no jitter"
	}
	return Config{
		Hosts:         c.Hosts,
		PollInterval:  time.Duration(c.PollIntervalMs) * time.Millisecond,
		BackoffMin:    time.Duration(c.BackoffMinMs) * time.Millisecond,
		BackoffMax:    time.Duration(c.BackoffMaxMs) * time.Millisecond,
		BackoffJitter: jitter,
		CallTimeout:   time.Duration(c.CallTimeoutMs) * time.Millisecond,
		Policy:        policy,
	}, nil
}

// RebalanceConfig converts the file form into runtime RebalanceOptions.
func (c *FileConfig) RebalanceConfig() RebalanceOptions {
	return RebalanceOptions{
		SkewThreshold: c.RebalanceSkew,
		MaxMigrations: c.RebalanceMaxMigrations,
		Concurrency:   c.RebalanceConcurrency,
		Migrate: core.MigrateOptions{
			BandwidthMBps:   c.MigrateBandwidthMBps,
			MaxDowntimeMs:   c.MigrateMaxDowntimeMs,
			ParallelStreams: c.MigrateStreams,
			AutoConverge:    c.MigrateAutoConverge,
			PostCopy:        c.MigratePostCopy,
		},
	}
}
