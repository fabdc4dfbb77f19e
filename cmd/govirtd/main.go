// Command govirtd is the management daemon: it hosts the hypervisor
// drivers server-side, accepts client connections over unix and TCP
// sockets, and exposes the admin server for its own runtime management.
//
// Usage:
//
//	govirtd [-config govirtd.conf] [-sock path] [-admin-sock path] [-tcp addr:port]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/drivers/common"
	"repro/internal/drivers/lxc"
	"repro/internal/drivers/qemu"
	drvtest "repro/internal/drivers/test"
	"repro/internal/drivers/xen"
	"repro/internal/faultpoint"
	"repro/internal/logging"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "govirtd:", err)
		os.Exit(1)
	}
}

func run() error {
	configPath := flag.String("config", "", "configuration file (govirtd.conf syntax)")
	sockOverride := flag.String("sock", "", "management unix socket path (overrides config)")
	adminSockOverride := flag.String("admin-sock", "", "admin unix socket path (overrides config)")
	tcpOverride := flag.String("tcp", "", "listen on this TCP address (overrides config)")
	flag.Parse()

	cfg := daemon.DefaultConfig()
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			return err
		}
		cfg, err = daemon.ParseConfig(string(data))
		if err != nil {
			return err
		}
	}
	if *sockOverride != "" {
		cfg.UnixSocketPath = *sockOverride
	}
	if *adminSockOverride != "" {
		cfg.AdminSocketPath = *adminSockOverride
	}

	// The management server first: applying the configuration to it also
	// sets up the daemon's logging, which everything after logs through.
	log := logging.New(logging.Priority(cfg.LogLevel))
	d := daemon.New(log)
	d.Tracer().SetThreshold(time.Duration(cfg.SlowCallThresholdMs) * time.Millisecond)
	d.SetCallTimeout(time.Duration(cfg.CallTimeoutMs) * time.Millisecond)
	d.SetShutdownGrace(time.Duration(cfg.ShutdownGraceMs) * time.Millisecond)
	d.SetEventStreamConfig(cfg.EventQueueDepth, time.Duration(cfg.EventCoalesceWindowMs)*time.Millisecond)
	mgmt, err := d.AddServer("govirtd", cfg.MinWorkers, cfg.MaxWorkers, cfg.PrioWorkers,
		daemon.ClientLimits{MaxClients: cfg.MaxClients, MaxUnauthClients: cfg.MaxUnauthClients})
	if err != nil {
		return err
	}
	if err := mgmt.Apply(cfg); err != nil {
		return err
	}
	mgmt.AddProgram(daemon.NewRemoteProgram(mgmt))
	if len(cfg.SASLCredentials) > 0 {
		mgmt.SetCredentials(cfg.SASLCredentials)
	}

	// Crash-safe persistence: every driver connection journals defined
	// objects under state_dir and replays them on open.
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			return fmt.Errorf("state_dir: %w", err)
		}
		common.SetStateRoot(cfg.StateDir)
		log.Infof("daemon", "state journal at %s", cfg.StateDir)
	}

	// Debug-only deterministic fault injection.
	if cfg.FaultInjection != "" {
		specs, err := faultpoint.ParseSpecs(cfg.FaultInjection)
		if err != nil {
			return err
		}
		for site, spec := range specs {
			faultpoint.Default.Set(site, spec)
		}
		faultpoint.Default.Arm(int64(cfg.FaultSeed))
		log.Warnf("daemon", "fault injection armed (seed %d): %s", cfg.FaultSeed, cfg.FaultInjection)
	}

	// Server-side drivers.
	drvtest.Register(log)
	qemu.Register(log)
	xen.Register(log)
	lxc.Register(log)

	if err := os.MkdirAll(filepath.Dir(cfg.UnixSocketPath), 0o755); err != nil {
		return err
	}
	removeStale(cfg.UnixSocketPath)
	if err := mgmt.ListenUnix(cfg.UnixSocketPath, daemon.ServiceConfig{}); err != nil {
		return err
	}
	log.Infof("daemon", "management server listening on %s", cfg.UnixSocketPath)

	if *tcpOverride != "" || cfg.ListenTCP {
		addr := *tcpOverride
		if addr == "" {
			addr = fmt.Sprintf("%s:%d", cfg.TCPBindAddress, cfg.TCPPort)
		}
		tcpCfg := daemon.ServiceConfig{Transport: daemon.TransportTCP}
		if cfg.AuthTCP == "sasl" {
			tcpCfg.AuthSASL = true
		}
		bound, err := mgmt.ListenTCP(addr, tcpCfg)
		if err != nil {
			return err
		}
		log.Infof("daemon", "management server listening on tcp %s (auth=%s)", bound, cfg.AuthTCP)
	}

	// Admin server: small dedicated pool so it stays responsive while the
	// management workers are saturated.
	adm, err := d.AddServer("admin", 1, 4, 1, daemon.ClientLimits{MaxClients: 10})
	if err != nil {
		return err
	}
	adm.AddProgram(admin.NewProgram(d))
	removeStale(cfg.AdminSocketPath)
	if err := adm.ListenUnix(cfg.AdminSocketPath, daemon.ServiceConfig{}); err != nil {
		return err
	}
	log.Infof("daemon", "admin server listening on %s", cfg.AdminSocketPath)

	// Chaos observability: count fired injections on /metrics.
	telemetry.InstrumentFaultpoints(telemetry.Default, faultpoint.Default)

	// Optional Prometheus-text metrics endpoint; off unless configured.
	// With domain_metrics set, /metrics additionally exports per-domain
	// rows swept from that driver URI behind the staleness-bounded
	// single-flight cache.
	var metricsSrv *telemetry.MetricsServer
	if cfg.MetricsAddress != "" {
		var dc *telemetry.DomainCollector
		if cfg.DomainMetricsURI != "" {
			conn, err := core.Open(cfg.DomainMetricsURI)
			if err != nil {
				return fmt.Errorf("domain_metrics: %w", err)
			}
			dc, err = telemetry.NewDriverDomainCollector(conn.Driver(), telemetry.DomainCollectorConfig{
				Staleness:  time.Duration(cfg.DomainMetricsStalenessMs) * time.Millisecond,
				MaxDomains: cfg.DomainMetricsMaxDomains,
			})
			if err != nil {
				return fmt.Errorf("domain_metrics: %w", err)
			}
			log.Infof("daemon", "per-domain metrics export sweeping %s (staleness %dms, cap %d)",
				cfg.DomainMetricsURI, cfg.DomainMetricsStalenessMs, cfg.DomainMetricsMaxDomains)
		}
		metricsSrv, err = telemetry.ServeMetrics(cfg.MetricsAddress,
			telemetry.HandlerWith(telemetry.Default, dc))
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		log.Infof("daemon", "metrics endpoint listening on http://%s/metrics", metricsSrv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	log.Infof("daemon", "received %s, shutting down", s)
	if metricsSrv != nil {
		// Drain in-flight scrapes within the same grace budget as the
		// RPC servers instead of dying with the process.
		grace := time.Duration(cfg.ShutdownGraceMs) * time.Millisecond
		if err := metricsSrv.Shutdown(grace); err != nil {
			log.Errorf("daemon", "metrics endpoint shutdown: %v", err)
		}
	}
	d.Shutdown()
	removeStale(cfg.UnixSocketPath)
	removeStale(cfg.AdminSocketPath)
	return nil
}

// removeStale deletes a leftover socket file so rebinding succeeds.
func removeStale(path string) {
	if fi, err := os.Stat(path); err == nil && fi.Mode()&os.ModeSocket != 0 {
		os.Remove(path) //nolint:errcheck
	}
}
