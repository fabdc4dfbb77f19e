// Package watch implements the server side of watch streams: bounded,
// coalescing, per-connection subscriber queues that bridge the local
// events.Bus onto the wire as sequenced rpc.TypeEvent frames.
//
// The contract with the client is loss-*detecting*, not loss-free. Each
// queued event gets the subscription's next sequence number at enqueue
// time and queued events leave in order, so the wire stream carries a
// contiguous run of sequence numbers as long as nothing is lost. Two
// things break the run: drop-oldest backpressure (the queue is full, the
// head slot is discarded and its number is never sent) and frames lost
// in flight. Either way the receiver observes Seq jump by more than one
// and answers with a single bulk resync sweep — the client never falls
// back to a poll loop.
//
// Per-domain coalescing keeps bursts cheap: while a domain's event is
// still queued and younger than the coalesce window, a newer event for
// the same domain overwrites the queued slot in place, keeping the
// slot's original sequence number (the stream stays contiguous; the
// frame's Coalesced field counts the absorbed events). Since lifecycle
// consumers care about the latest state, not the intermediate hops, this
// is lossless for reconciliation.
//
// After a burst drains, the subscriber emits a few heartbeat frames
// (Type 0, carrying the last assigned sequence number) and then goes
// silent. Heartbeats close the tail-loss window — if the *last* event
// frame of a burst is lost, no later event would ever reveal the gap —
// without giving up the idle-stream property: a quiesced subscription
// sends nothing.
package watch

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/faultpoint"
	"repro/internal/wire"
)

// Defaults for the queue bounds, overridable per daemon via the
// event_queue_depth / event_coalesce_window_ms config keys.
const (
	DefaultDepth             = 256
	DefaultCoalesceWindow    = 10 * time.Millisecond
	DefaultHeartbeatInterval = 200 * time.Millisecond
	DefaultHeartbeatCount    = 3
)

// Sink delivers one watch frame toward the subscriber's connection.
// SendEvent runs on the subscriber's drainer goroutine; it may block on
// the transport but must eventually return. A returned error is fatal
// for the subscription (the connection is gone). ev is the drainer's
// one reused frame: SendEvent must not keep it after it returns.
type Sink interface {
	SendEvent(ev *wire.WatchEvent) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(ev *wire.WatchEvent) error

// SendEvent calls f.
func (f SinkFunc) SendEvent(ev *wire.WatchEvent) error { return f(ev) }

// Config parameterises one Subscriber.
type Config struct {
	ID       int32         // subscription id echoed in every frame
	Depth    int           // queue capacity; <= 0 uses DefaultDepth
	Coalesce time.Duration // per-domain coalesce window; 0 disables, < 0 uses default

	// Heartbeat behaviour after a burst drains. Interval <= 0 uses the
	// default; Count < 0 uses the default, 0 disables heartbeats.
	HeartbeatInterval time.Duration
	HeartbeatCount    int

	Sink Sink

	// now substitutes the clock in tests.
	now func() time.Time
}

// slot is one queued event plus its enqueue time (for the coalesce
// window check).
type slot struct {
	ev     wire.WatchEvent
	queued time.Time
}

// Stats is a point-in-time view of one subscriber's counters.
type Stats struct {
	Delivered uint64 // frames handed to the sink (events, not heartbeats)
	Dropped   uint64 // events discarded by drop-oldest backpressure
	Coalesced uint64 // events absorbed into an already-queued slot
	Queued    int    // events currently queued
	LastSeq   uint64 // highest sequence number assigned so far
}

// Subscriber is one watch stream: a fixed-capacity ring of pending
// events drained by a dedicated goroutine. Enqueue never blocks and
// never allocates on the steady path; all backpressure is absorbed by
// coalescing and drop-oldest.
type Subscriber struct {
	cfg Config

	mu       sync.Mutex
	buf      []slot
	head     int               // ring index of the oldest queued slot
	count    int               // queued slots
	firstSeq uint64            // sequence number of the slot at head (valid when count > 0)
	nextSeq  uint64            // next sequence number to assign
	lastSeq  uint64            // last sequence number assigned (nextSeq - 1)
	byDomain map[string]uint64 // domain → queued seq, for O(1) coalesce lookup
	closed   bool

	wake chan struct{} // capacity 1: enqueue → drainer
	done chan struct{} // closed exactly once by Close

	closeOnce sync.Once

	delivered atomic.Uint64
	dropped   atomic.Uint64
	coalesced atomic.Uint64
}

// New creates a Subscriber and starts its drainer goroutine. The caller
// must Close it when the connection (or the subscription) goes away.
func New(cfg Config) *Subscriber {
	if cfg.Depth <= 0 {
		cfg.Depth = DefaultDepth
	}
	if cfg.Coalesce < 0 {
		cfg.Coalesce = DefaultCoalesceWindow
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if cfg.HeartbeatCount < 0 {
		cfg.HeartbeatCount = DefaultHeartbeatCount
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	s := &Subscriber{
		cfg:      cfg,
		buf:      make([]slot, cfg.Depth),
		nextSeq:  1,
		byDomain: make(map[string]uint64),
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	subscribersGauge.Add(1)
	go s.run()
	return s
}

// ID returns the subscription id.
func (s *Subscriber) ID() int32 { return s.cfg.ID }

// Depth returns the effective queue capacity.
func (s *Subscriber) Depth() int { return s.cfg.Depth }

// Coalesce returns the effective coalesce window.
func (s *Subscriber) Coalesce() time.Duration { return s.cfg.Coalesce }

// Enqueue queues one bus event for delivery. It never blocks: a full
// queue drops its oldest entry (creating a detectable sequence gap), and
// an event for a domain whose previous event is still queued within the
// coalesce window replaces that slot in place. Safe to call from the
// bus's emitter goroutine. Events arriving after Close are discarded.
func (s *Subscriber) Enqueue(ev events.Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	now := s.cfg.now()

	// Coalesce: the domain already has a queued slot young enough.
	if seq, ok := s.byDomain[ev.Domain]; ok && s.cfg.Coalesce > 0 {
		sl := &s.buf[s.pos(seq)]
		if now.Sub(sl.queued) <= s.cfg.Coalesce {
			sl.ev.Type = uint32(ev.Type)
			sl.ev.UUID = ev.UUID
			sl.ev.Detail = ev.Detail
			sl.ev.BusSeq = ev.Seq
			sl.ev.Coalesced++
			s.coalesced.Add(1)
			s.mu.Unlock()
			eventsCoalesced.Inc()
			s.signal()
			return
		}
	}

	// Backpressure: full queue discards the oldest slot. Its sequence
	// number is never sent, so the receiver sees the gap and resyncs.
	if s.count == len(s.buf) {
		old := &s.buf[s.head]
		if s.byDomain[old.ev.Domain] == old.ev.Seq {
			delete(s.byDomain, old.ev.Domain)
		}
		*old = slot{}
		s.head = (s.head + 1) % len(s.buf)
		s.count--
		s.firstSeq++
		s.dropped.Add(1)
		eventsDropped.Inc()
		queueDepth.Add(-1)
	}

	seq := s.nextSeq
	s.nextSeq++
	s.lastSeq = seq
	if s.count == 0 {
		s.firstSeq = seq
	}
	s.buf[(s.head+s.count)%len(s.buf)] = slot{
		ev: wire.WatchEvent{
			SubscriptionID: s.cfg.ID,
			Seq:            seq,
			Type:           uint32(ev.Type),
			Domain:         ev.Domain,
			UUID:           ev.UUID,
			Detail:         ev.Detail,
			BusSeq:         ev.Seq,
		},
		queued: now,
	}
	s.count++
	s.byDomain[ev.Domain] = seq
	s.mu.Unlock()
	queueDepth.Add(1)
	s.signal()
}

// pos maps a queued sequence number to its ring index. Queued slots
// hold contiguous ascending sequence numbers starting at firstSeq, so
// the offset from firstSeq is the offset from head.
func (s *Subscriber) pos(seq uint64) int {
	return (s.head + int(seq-s.firstSeq)) % len(s.buf)
}

// signal nudges the drainer without blocking.
func (s *Subscriber) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// dequeue pops the oldest queued event. The frame content is copied out
// under the lock, so a concurrent Enqueue can no longer coalesce into
// it once it is on its way to the wire.
func (s *Subscriber) dequeue() (wire.WatchEvent, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return wire.WatchEvent{}, false
	}
	sl := &s.buf[s.head]
	ev := sl.ev
	if s.byDomain[ev.Domain] == ev.Seq {
		delete(s.byDomain, ev.Domain)
	}
	*sl = slot{}
	s.head = (s.head + 1) % len(s.buf)
	s.count--
	s.firstSeq = ev.Seq + 1
	queueDepth.Add(-1)
	return ev, true
}

// deliver pushes one frame through the sink. The "watch.send"
// faultpoint sits here — chaos tests drop or delay individual watch
// frames without touching the call path underneath.
func (s *Subscriber) deliver(ev *wire.WatchEvent) error {
	if spec, ok := faultpoint.Default.Eval("watch.send"); ok {
		switch spec.Mode {
		case faultpoint.ModeDrop:
			return nil // lost in flight; the seq gap tells the client
		case faultpoint.ModeError:
			if spec.Err != nil {
				return spec.Err
			}
			return errInjectedSend
		}
		// ModeDelay slept inside Eval; fall through and send.
	}
	if err := s.cfg.Sink.SendEvent(ev); err != nil {
		return err
	}
	if ev.Type != 0 {
		s.delivered.Add(1)
		eventsDelivered.Inc()
	}
	return nil
}

// heartbeatFrame builds a Type-0 frame carrying the last assigned
// sequence number, or false when nothing was ever queued.
func (s *Subscriber) heartbeatFrame() (wire.WatchEvent, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastSeq == 0 {
		return wire.WatchEvent{}, false
	}
	return wire.WatchEvent{SubscriptionID: s.cfg.ID, Seq: s.lastSeq}, true
}

// run is the drainer: it moves queued events to the sink in order, then
// trails off with a bounded number of heartbeats before going silent.
func (s *Subscriber) run() {
	timer := time.NewTimer(s.cfg.HeartbeatInterval)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	var hb <-chan time.Time
	hbLeft := 0
	// One frame per drainer: every delivery, heartbeats included, reuses
	// it, so an event costs no heap frame of its own.
	var frame wire.WatchEvent
	for {
		sent := false
		for {
			var ok bool
			if frame, ok = s.dequeue(); !ok {
				break
			}
			if err := s.deliver(&frame); err != nil {
				s.Close()
				return
			}
			sent = true
		}
		if sent && s.cfg.HeartbeatCount > 0 {
			hbLeft = s.cfg.HeartbeatCount
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(s.cfg.HeartbeatInterval)
			hb = timer.C
		}
		if hbLeft <= 0 {
			hb = nil
		}
		select {
		case <-s.done:
			return
		case <-s.wake:
		case <-hb:
			hbLeft--
			if hbFrame, ok := s.heartbeatFrame(); ok {
				frame = hbFrame
				if err := s.deliver(&frame); err != nil {
					s.Close()
					return
				}
				heartbeatsSent.Inc()
			}
			if hbLeft > 0 {
				timer.Reset(s.cfg.HeartbeatInterval)
			} else {
				hb = nil
			}
		}
	}
}

// Close tears the subscription down: the drainer exits, queued events
// are discarded and later Enqueue calls are no-ops. Idempotent.
func (s *Subscriber) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		if s.count > 0 {
			queueDepth.Add(-int64(s.count))
			s.count = 0
			s.byDomain = make(map[string]uint64)
			for i := range s.buf {
				s.buf[i] = slot{}
			}
		}
		s.mu.Unlock()
		close(s.done)
		subscribersGauge.Add(-1)
	})
}

// Stats samples the subscriber's counters.
func (s *Subscriber) Stats() Stats {
	s.mu.Lock()
	queued := s.count
	last := s.lastSeq
	s.mu.Unlock()
	return Stats{
		Delivered: s.delivered.Load(),
		Dropped:   s.dropped.Load(),
		Coalesced: s.coalesced.Load(),
		Queued:    queued,
		LastSeq:   last,
	}
}

// errInjectedSend is the default ModeError verdict for watch.send.
var errInjectedSend = watchError("watch: injected send fault")

// watchError is a trivial constant error type.
type watchError string

func (e watchError) Error() string { return string(e) }
