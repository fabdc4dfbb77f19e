// Package daemon implements the management daemon: servers accepting
// client connections over stream transports, per-server workerpools
// executing decoded requests, the dispatch machinery routing procedures
// to protocol programs, and runtime-adjustable limits — the component
// that makes remote, non-intrusive management possible for hypervisors
// without their own remote interface.
package daemon

import (
	"fmt"
	"sync"
	"time"
)

// Job is one unit of work for a workerpool.
type Job func()

// ShedJob is a QoS-managed job. The pool invokes RunQueued exactly once:
// with shed=false to run the call normally, or shed=true when admission
// control evicted it — either at submit time to make room under the
// shed watermark, or at dequeue when it out-waited its class's
// max_queue_wait bound. Both ways it receives the time the call spent
// queued. It is an interface so that the daemon can queue its recycled
// dispatch record itself, not a closure allocated around it.
type ShedJob interface {
	RunQueued(shed bool, wait time.Duration)
}

// queuedJob is a job with its enqueue time, so dequeuing can report how
// long the job sat in the queue. Exactly one of job/sjob is set; a slot
// with both nil is the tombstone of a watermark-shed entry and is
// skipped by workers.
type queuedJob struct {
	job     Job
	sjob    ShedJob
	at      time.Time
	maxWait time.Duration // shed when queued longer than this; 0 = never
	prio    int8          // shed priority; lower sheds first
}

// PoolParams are the tunable attributes of a workerpool. NWorkers,
// FreeWorkers and JobQueueDepth are read-only.
type PoolParams struct {
	MinWorkers    int
	MaxWorkers    int
	PrioWorkers   int
	NWorkers      int
	FreeWorkers   int
	JobQueueDepth int
}

// Workerpool executes jobs on a dynamically sized set of ordinary
// workers plus a constant set of priority workers. Ordinary workers take
// any job; priority workers only take priority jobs, guaranteeing that
// critical operations (which never depend on a hypervisor answering)
// always find a worker even when every ordinary worker is wedged.
type Workerpool struct {
	mu   sync.Mutex
	cond *sync.Cond

	// Both queues are head-index rings: workers consume from queue[qhead]
	// and Submit appends at the tail, so the backing array is reused
	// instead of being re-allocated every time the slice slides to empty.
	queue     []queuedJob // ordinary jobs
	qhead     int
	prioQueue []queuedJob // priority jobs
	prioHead  int
	waitObs   func(wait time.Duration, priority bool)

	minWorkers    int
	maxWorkers    int
	prioTarget    int
	shedWatermark int // ordinary-queue depth triggering eviction; 0 = off
	nWorkers      int // live ordinary workers
	nPrio         int // live priority workers
	busy          int // ordinary workers running a job
	prioBusy      int
	quitting      bool
	jobsDone      uint64
	prioDone      uint64
	spawnsTotal   uint64
	shedTotal     uint64
}

// NewWorkerpool creates and starts a pool. min workers are spawned
// immediately; the pool grows on demand up to max.
func NewWorkerpool(min, max, prio int) (*Workerpool, error) {
	if min < 0 || prio < 0 {
		return nil, fmt.Errorf("daemon: workerpool limits must be non-negative")
	}
	if max < 1 {
		return nil, fmt.Errorf("daemon: workerpool needs at least one ordinary worker")
	}
	if min > max {
		return nil, fmt.Errorf("daemon: minWorkers %d exceeds maxWorkers %d", min, max)
	}
	p := &Workerpool{minWorkers: min, maxWorkers: max, prioTarget: prio}
	p.cond = sync.NewCond(&p.mu)
	p.mu.Lock()
	for i := 0; i < min; i++ {
		p.spawnOrdinaryLocked()
	}
	for i := 0; i < prio; i++ {
		p.spawnPriorityLocked()
	}
	p.mu.Unlock()
	return p, nil
}

// ordLen / prioLen are the live queue depths under the head-index
// scheme.
func (p *Workerpool) ordLen() int  { return len(p.queue) - p.qhead }
func (p *Workerpool) prioLen() int { return len(p.prioQueue) - p.prioHead }

// popOrdinaryLocked removes and returns the oldest ordinary job. The
// consumed slot is zeroed so the backing array does not pin the job
// closure, and the slice is rewound to [:0] once drained so appends
// reuse its capacity.
func (p *Workerpool) popOrdinaryLocked() queuedJob {
	qj := p.queue[p.qhead]
	p.queue[p.qhead] = queuedJob{}
	p.qhead++
	if p.qhead == len(p.queue) {
		p.queue = p.queue[:0]
		p.qhead = 0
	}
	return qj
}

func (p *Workerpool) popPriorityLocked() queuedJob {
	qj := p.prioQueue[p.prioHead]
	p.prioQueue[p.prioHead] = queuedJob{}
	p.prioHead++
	if p.prioHead == len(p.prioQueue) {
		p.prioQueue = p.prioQueue[:0]
		p.prioHead = 0
	}
	return qj
}

func (p *Workerpool) spawnOrdinaryLocked() {
	p.nWorkers++
	p.spawnsTotal++
	go p.ordinaryWorker()
}

func (p *Workerpool) spawnPriorityLocked() {
	p.nPrio++
	p.spawnsTotal++
	go p.priorityWorker()
}

// quitHelperLocked reports whether an ordinary worker should terminate:
// the pool is shutting down, or the live count exceeds the (possibly
// lowered) maximum and we are above the minimum.
func (p *Workerpool) quitHelperLocked() bool {
	if p.quitting {
		return true
	}
	return p.nWorkers > p.maxWorkers && p.nWorkers > p.minWorkers
}

func (p *Workerpool) ordinaryWorker() {
	p.mu.Lock()
	for {
		if p.quitHelperLocked() {
			p.nWorkers--
			p.mu.Unlock()
			return
		}
		var qj queuedJob
		var priority bool
		switch {
		case p.prioLen() > 0:
			qj = p.popPriorityLocked()
			priority = true
		case p.ordLen() > 0:
			qj = p.popOrdinaryLocked()
		default:
			p.cond.Wait()
			continue
		}
		if qj.job == nil && qj.sjob == nil {
			continue // tombstone of a watermark-shed entry
		}
		p.busy++
		obs := p.waitObs
		p.mu.Unlock()
		shed := runQueued(qj, priority, obs)
		p.mu.Lock()
		p.busy--
		p.jobsDone++
		if shed {
			p.shedTotal++
		}
	}
}

// runQueued observes the job's queue wait and runs it. A QoS-managed
// job that out-waited its class bound runs in shed mode; its wait is
// observed all the same, so shed calls still appear in the queue-wait
// histogram rather than vanishing from it.
func runQueued(qj queuedJob, priority bool, obs func(time.Duration, bool)) bool {
	wait := time.Since(qj.at)
	if obs != nil {
		obs(wait, priority)
	}
	if qj.sjob != nil {
		shed := qj.maxWait > 0 && wait > qj.maxWait
		qj.sjob.RunQueued(shed, wait)
		return shed
	}
	qj.job()
	return false
}

func (p *Workerpool) priorityWorker() {
	p.mu.Lock()
	for {
		if p.quitting || p.nPrio > p.prioTarget {
			p.nPrio--
			p.mu.Unlock()
			return
		}
		if p.prioLen() == 0 {
			p.cond.Wait()
			continue
		}
		qj := p.popPriorityLocked()
		if qj.job == nil && qj.sjob == nil {
			continue
		}
		p.prioBusy++
		obs := p.waitObs
		p.mu.Unlock()
		shed := runQueued(qj, true, obs)
		p.mu.Lock()
		p.prioBusy--
		p.prioDone++
		if shed {
			p.shedTotal++
		}
	}
}

// Submit enqueues a job. Priority jobs may be taken by priority workers;
// ordinary jobs only by ordinary workers. The pool grows by one ordinary
// worker when a job arrives, every ordinary worker is occupied, and the
// maximum has not been reached.
func (p *Workerpool) Submit(job Job, priority bool) error {
	if job == nil {
		return fmt.Errorf("daemon: nil job")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.quitting {
		return fmt.Errorf("daemon: workerpool is shut down")
	}
	if priority {
		p.prioQueue = append(p.prioQueue, queuedJob{job: job, at: time.Now()})
	} else {
		p.queue = append(p.queue, queuedJob{job: job, at: time.Now()})
	}
	freeOrdinary := p.nWorkers - p.busy
	if freeOrdinary <= p.ordLen()+p.prioLen()-1 && p.nWorkers < p.maxWorkers {
		p.spawnOrdinaryLocked()
	}
	p.cond.Broadcast()
	return nil
}

// SubmitQoS enqueues a QoS-managed job carrying its class's shed
// priority and queue-wait bound. When the ordinary queue sits at or
// above the shed watermark, the lowest-priority sheddable queued entry
// below the arriving call's priority is evicted to make room — its
// ShedJob runs immediately with shed=true and its recorded queue wait
// (so the wait histogram sees shed calls too). If the arriving call is
// itself the lowest priority, it is shed instead of growing the queue.
// Priority submissions bypass the watermark: control-plane classes must
// stay admittable under exactly the overload that triggers shedding.
func (p *Workerpool) SubmitQoS(job ShedJob, priority bool, shedPrio int8, maxWait time.Duration) error {
	if job == nil {
		return fmt.Errorf("daemon: nil job")
	}
	var victim queuedJob
	p.mu.Lock()
	if p.quitting {
		p.mu.Unlock()
		return fmt.Errorf("daemon: workerpool is shut down")
	}
	obs := p.waitObs
	if !priority && p.shedWatermark > 0 && p.ordLen() >= p.shedWatermark {
		if i, ok := p.findVictimLocked(shedPrio); ok {
			victim = p.queue[i]
			p.queue[i] = queuedJob{} // tombstone; workers skip it
			p.shedTotal++
		} else {
			p.shedTotal++
			p.mu.Unlock()
			if obs != nil {
				obs(0, priority)
			}
			job.RunQueued(true, 0)
			return nil
		}
	}
	qj := queuedJob{sjob: job, at: time.Now(), maxWait: maxWait, prio: shedPrio}
	if priority {
		p.prioQueue = append(p.prioQueue, qj)
	} else {
		p.queue = append(p.queue, qj)
	}
	freeOrdinary := p.nWorkers - p.busy
	if freeOrdinary <= p.ordLen()+p.prioLen()-1 && p.nWorkers < p.maxWorkers {
		p.spawnOrdinaryLocked()
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	if victim.sjob != nil {
		wait := time.Since(victim.at)
		if obs != nil {
			obs(wait, false)
		}
		victim.sjob.RunQueued(true, wait)
	}
	return nil
}

// findVictimLocked picks the ordinary-queue entry to evict: the
// sheddable (QoS-managed) queued call with the lowest shed priority
// strictly below the arriving call's. Plain Submit entries and
// tombstones are never victims.
func (p *Workerpool) findVictimLocked(below int8) (int, bool) {
	best, found := 0, false
	for i := p.qhead; i < len(p.queue); i++ {
		qj := &p.queue[i]
		if qj.sjob == nil || qj.prio >= below {
			continue
		}
		if !found || qj.prio < p.queue[best].prio {
			best, found = i, true
		}
	}
	return best, found
}

// SetShedWatermark sets the ordinary-queue depth at which SubmitQoS
// starts evicting lowest-priority queued work; 0 disables eviction.
func (p *Workerpool) SetShedWatermark(depth int) {
	if depth < 0 {
		depth = 0
	}
	p.mu.Lock()
	p.shedWatermark = depth
	p.mu.Unlock()
}

// Params returns a snapshot of the pool's attributes.
func (p *Workerpool) Params() PoolParams {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolParams{
		MinWorkers:    p.minWorkers,
		MaxWorkers:    p.maxWorkers,
		PrioWorkers:   p.prioTarget,
		NWorkers:      p.nWorkers,
		FreeWorkers:   p.nWorkers - p.busy,
		JobQueueDepth: p.ordLen() + p.prioLen(),
	}
}

// SetParams adjusts the tunable attributes. Lowering MaxWorkers makes
// surplus idle workers exit as they re-check the limits; busy workers
// finish their job first. PrioWorkers adjusts the constant priority set
// in either direction.
func (p *Workerpool) SetParams(min, max, prio int) error {
	if min < 0 || prio < 0 {
		return fmt.Errorf("daemon: workerpool limits must be non-negative")
	}
	if max < 1 {
		return fmt.Errorf("daemon: workerpool needs at least one ordinary worker")
	}
	if min > max {
		return fmt.Errorf("daemon: minWorkers %d exceeds maxWorkers %d", min, max)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.quitting {
		return fmt.Errorf("daemon: workerpool is shut down")
	}
	p.minWorkers, p.maxWorkers = min, max
	for p.nWorkers < p.minWorkers {
		p.spawnOrdinaryLocked()
	}
	for p.nPrio < prio {
		p.spawnPriorityLocked()
	}
	p.prioTarget = prio
	p.cond.Broadcast()
	return nil
}

// PoolStats combines the pool's lifetime counters with its current
// state: queue depths and how many workers are running a job right now.
type PoolStats struct {
	OrdinaryDone uint64 // jobs completed by ordinary workers
	PriorityDone uint64 // jobs completed by priority workers
	Spawns       uint64 // workers ever spawned
	Shed         uint64 // QoS jobs shed (watermark eviction or queue-wait bound)
	QueueLen     int    // ordinary jobs waiting
	PrioQueueLen int    // priority jobs waiting
	Busy         int    // ordinary workers running a job
	PrioBusy     int    // priority workers running a job
}

// Stats reports lifetime counters and current queue/worker occupancy.
func (p *Workerpool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		OrdinaryDone: p.jobsDone,
		PriorityDone: p.prioDone,
		Spawns:       p.spawnsTotal,
		Shed:         p.shedTotal,
		QueueLen:     p.ordLen(),
		PrioQueueLen: p.prioLen(),
		Busy:         p.busy,
		PrioBusy:     p.prioBusy,
	}
}

// SetWaitObserver installs a callback invoked once per dequeued job with
// the time the job spent queued. The callback runs on the worker
// goroutine just before the job; it must be cheap. Pass nil to clear.
func (p *Workerpool) SetWaitObserver(fn func(wait time.Duration, priority bool)) {
	p.mu.Lock()
	p.waitObs = fn
	p.mu.Unlock()
}

// Drain waits up to grace for the pool to go quiet: empty queues and no
// worker running a job. It reports whether the pool drained in time. The
// pool keeps accepting jobs while draining — callers wanting a clean
// stop close their listeners first, so no new work arrives.
func (p *Workerpool) Drain(grace time.Duration) bool {
	deadline := time.Now().Add(grace)
	for {
		p.mu.Lock()
		quiet := p.ordLen() == 0 && p.prioLen() == 0 && p.busy == 0 && p.prioBusy == 0
		p.mu.Unlock()
		if quiet {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// Shutdown stops accepting jobs and makes all workers exit; queued jobs
// are dropped. It does not wait for running jobs to finish.
func (p *Workerpool) Shutdown() {
	p.mu.Lock()
	p.quitting = true
	p.cond.Broadcast()
	p.mu.Unlock()
}
