package daemon

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// slowCallRing is how many recent slow calls the daemon's tracer keeps.
const slowCallRing = 64

// procStat caches the metric handles of one (program, procedure) pair so
// the dispatch hot path touches only atomics after the first call.
type procStat struct {
	calls   *telemetry.Counter
	errors  *telemetry.Counter
	latency *telemetry.Histogram
}

// dispatchStat returns the metric handles of one table row, building
// them on the procedure's first dispatch so that a procedure nobody
// calls adds no series. Returns nil when the server is uninstrumented.
func (s *Server) dispatchStat(pg *program, proc uint32) *procStat {
	if pg.stats == nil {
		return nil
	}
	if st := pg.stats[proc].Load(); st != nil {
		return st
	}
	labels := fmt.Sprintf("{program=%q,proc=%q}", pg.name, pg.procs[proc].Name)
	pg.stats[proc].CompareAndSwap(nil, &procStat{
		calls:   s.metrics.Counter("daemon_dispatch_total" + labels),
		errors:  s.metrics.Counter("daemon_dispatch_errors_total" + labels),
		latency: s.metrics.Histogram("daemon_dispatch_seconds" + labels),
	})
	return pg.stats[proc].Load()
}

// registerServerMetrics installs the per-server function metrics: client
// occupancy, rejected connections and workerpool state sampled straight
// from the server at snapshot time.
func registerServerMetrics(reg *telemetry.Registry, s *Server) {
	label := fmt.Sprintf("{server=%q}", s.name)
	reg.GaugeFunc("daemon_clients"+label, func() int64 {
		_, current, _ := s.Limits()
		return int64(current)
	})
	reg.CounterFunc("daemon_clients_rejected_total"+label, s.RejectedCount)
	reg.GaugeFunc("daemon_pool_workers"+label, func() int64 {
		return int64(s.pool.Params().NWorkers)
	})
	reg.GaugeFunc("daemon_pool_queue_depth"+label, func() int64 {
		st := s.pool.Stats()
		return int64(st.QueueLen + st.PrioQueueLen)
	})
	reg.GaugeFunc("daemon_pool_busy_workers"+label, func() int64 {
		st := s.pool.Stats()
		return int64(st.Busy + st.PrioBusy)
	})
	reg.CounterFunc("daemon_pool_jobs_done_total"+label, func() uint64 {
		st := s.pool.Stats()
		return st.OrdinaryDone + st.PriorityDone
	})
	reg.CounterFunc("daemon_pool_spawns_total"+label, func() uint64 {
		return s.pool.Stats().Spawns
	})
	// Queue wait observed per dequeued job, split by priority class.
	waitH := reg.Histogram("daemon_queue_wait_seconds" + label)
	s.pool.SetWaitObserver(func(wait time.Duration, priority bool) {
		waitH.Observe(wait)
	})
}
