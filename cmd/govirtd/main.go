// Command govirtd is the management daemon: it hosts the hypervisor
// drivers server-side, accepts client connections over unix and TCP
// sockets, and exposes the admin server for its own runtime management.
//
// Usage:
//
//	govirtd [-config govirtd.conf] [-sock path] [-admin-sock path] [-tcp addr:port]
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
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
	logs := logging.New(logging.Priority(cfg.LogLevel))
	log, ctx := logs.For("daemon"), context.Background()
	d := daemon.New(logs)
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
		log.LogAttrs(ctx, slog.LevelInfo, "state journal", slog.String("dir", cfg.StateDir))
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
		log.LogAttrs(ctx, slog.LevelWarn, "fault injection armed",
			slog.Int("seed", cfg.FaultSeed), slog.String("spec", cfg.FaultInjection))
	}

	// Server-side drivers.
	drvtest.Register(logs)
	qemu.Register(logs)
	xen.Register(logs)
	lxc.Register(logs)

	if err := os.MkdirAll(filepath.Dir(cfg.UnixSocketPath), 0o755); err != nil {
		return err
	}
	removeStale(cfg.UnixSocketPath)
	if err := mgmt.ListenUnix(cfg.UnixSocketPath, daemon.ServiceConfig{}); err != nil {
		return err
	}
	log.LogAttrs(ctx, slog.LevelInfo, "management server listening", slog.String("unix", cfg.UnixSocketPath))

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
		log.LogAttrs(ctx, slog.LevelInfo, "management server listening",
			slog.String("tcp", bound), slog.String("auth", cfg.AuthTCP))
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
	log.LogAttrs(ctx, slog.LevelInfo, "admin server listening", slog.String("unix", cfg.AdminSocketPath))

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
			log.LogAttrs(ctx, slog.LevelInfo, "per-domain metrics export",
				slog.String("uri", cfg.DomainMetricsURI),
				slog.Int("staleness_ms", cfg.DomainMetricsStalenessMs),
				slog.Int("cap", cfg.DomainMetricsMaxDomains))
		}
		metricsSrv, err = telemetry.ServeMetrics(cfg.MetricsAddress,
			telemetry.HandlerWith(telemetry.Default, dc))
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		log.LogAttrs(ctx, slog.LevelInfo, "metrics endpoint listening",
			slog.String("url", "http://"+metricsSrv.Addr()+"/metrics"))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	log.LogAttrs(ctx, slog.LevelInfo, "shutting down", slog.String("signal", s.String()))
	if metricsSrv != nil {
		// Drain in-flight scrapes within the same grace budget as the
		// RPC servers instead of dying with the process.
		grace := time.Duration(cfg.ShutdownGraceMs) * time.Millisecond
		if err := metricsSrv.Shutdown(grace); err != nil {
			log.LogAttrs(ctx, slog.LevelError, "metrics endpoint shutdown", slog.Any("err", err))
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
