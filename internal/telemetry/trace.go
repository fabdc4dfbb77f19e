package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// SlowCall is one recorded span that exceeded the tracer's threshold:
// enough to identify the call (RPC serial, program/procedure, client)
// and to split its latency into queue wait and dispatch time.
type SlowCall struct {
	Serial    uint32
	Program   string
	Proc      string
	Client    uint64
	Start     time.Time
	QueueWait time.Duration
	Duration  time.Duration
}

// Span is one in-flight traced call, a value the caller keeps (the
// daemon keeps it in the call's dispatch record), so tracing a call
// allocates nothing. Fill QueueWait before Finish; Finish computes the
// duration and hands the span to the tracer. A zero span is inert, so
// callers can trace unconditionally.
type Span struct {
	tracer    *Tracer
	Serial    uint32
	Program   string
	Proc      string
	Client    uint64
	Start     time.Time
	QueueWait time.Duration
}

// Finish completes the span. If the total duration meets the tracer's
// threshold the call is recorded in the slow ring and reported through
// the OnSlow hook.
func (s *Span) Finish() {
	if s.tracer == nil {
		return
	}
	s.tracer.finish(s, time.Since(s.Start))
}

// Tracer tracks per-call spans and keeps a bounded in-memory ring of
// recent slow calls. The fast path (Start + Finish under threshold) is
// one time read, one atomic add and one atomic threshold load.
type Tracer struct {
	thresholdNs atomic.Int64
	started     atomic.Uint64
	slow        atomic.Uint64

	mu   sync.Mutex
	ring []SlowCall
	next int
	full bool

	onSlow atomic.Value // func(SlowCall)
}

// DefaultSlowCallThreshold flags calls slower than this unless
// configured otherwise (govirtd.conf slow_call_threshold_ms).
const DefaultSlowCallThreshold = 250 * time.Millisecond

// NewTracer creates a tracer keeping the most recent capacity slow
// calls. A threshold of 0 disables slow-call recording.
func NewTracer(capacity int, threshold time.Duration) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	t := &Tracer{ring: make([]SlowCall, 0, capacity)}
	t.thresholdNs.Store(int64(threshold))
	return t
}

// Threshold returns the current slow-call threshold.
func (t *Tracer) Threshold() time.Duration {
	return time.Duration(t.thresholdNs.Load())
}

// SetThreshold installs a new slow-call threshold; 0 disables recording.
func (t *Tracer) SetThreshold(d time.Duration) {
	t.thresholdNs.Store(int64(d))
}

// OnSlow installs a hook invoked synchronously for every slow call (the
// daemon points it at the logging subsystem). Pass nil to clear.
func (t *Tracer) OnSlow(fn func(SlowCall)) {
	t.onSlow.Store(fn)
}

// Start opens a span. Safe on a nil tracer, which returns a zero span.
func (t *Tracer) Start(program, proc string, client uint64, serial uint32) Span {
	if t == nil {
		return Span{}
	}
	t.started.Add(1)
	return Span{
		tracer:  t,
		Serial:  serial,
		Program: program,
		Proc:    proc,
		Client:  client,
		Start:   time.Now(),
	}
}

// Started returns how many spans were opened over the tracer's lifetime.
func (t *Tracer) Started() uint64 { return t.started.Load() }

// SlowCount returns how many calls exceeded the threshold.
func (t *Tracer) SlowCount() uint64 { return t.slow.Load() }

func (t *Tracer) finish(s *Span, d time.Duration) {
	threshold := t.thresholdNs.Load()
	if threshold <= 0 || int64(d) < threshold {
		return
	}
	t.slow.Add(1)
	sc := SlowCall{
		Serial:    s.Serial,
		Program:   s.Program,
		Proc:      s.Proc,
		Client:    s.Client,
		Start:     s.Start,
		QueueWait: s.QueueWait,
		Duration:  d,
	}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, sc)
	} else {
		t.ring[t.next] = sc
		t.full = true
	}
	t.next = (t.next + 1) % cap(t.ring)
	t.mu.Unlock()
	if fn, ok := t.onSlow.Load().(func(SlowCall)); ok && fn != nil {
		fn(sc)
	}
}

// SlowCalls returns the recorded slow calls, most recent last.
func (t *Tracer) SlowCalls() []SlowCall {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		out := make([]SlowCall, len(t.ring))
		copy(out, t.ring)
		return out
	}
	out := make([]SlowCall, 0, cap(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}
