package watch

import (
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/faultpoint"
	"repro/internal/wire"
)

// collectSink buffers every frame and optionally blocks the drainer on
// the first frame until the test releases it, so events pile up in the
// queue deterministically.
func collectSink(buf int, blockFirst bool) (Sink, chan wire.WatchEvent, chan struct{}) {
	frames := make(chan wire.WatchEvent, buf)
	gate := make(chan struct{})
	sink := SinkFunc(func(ev *wire.WatchEvent) error {
		frames <- *ev
		if blockFirst && ev.Seq == 1 && ev.Type != 0 {
			<-gate
		}
		return nil
	})
	return sink, frames, gate
}

func recvFrame(t *testing.T, frames chan wire.WatchEvent) wire.WatchEvent {
	t.Helper()
	select {
	case f := <-frames:
		return f
	case <-time.After(2 * time.Second):
		t.Fatalf("timed out waiting for watch frame")
		return wire.WatchEvent{}
	}
}

func TestWatchSequenceContiguous(t *testing.T) {
	sink, frames, _ := collectSink(64, false)
	s := New(Config{ID: 7, Depth: 16, Coalesce: 0, HeartbeatCount: 0, Sink: sink})
	defer s.Close()

	const n = 10
	for i := 0; i < n; i++ {
		s.Enqueue(events.Event{Type: events.EventStarted, Domain: domainName(i), Seq: uint64(100 + i)})
	}
	for i := 0; i < n; i++ {
		f := recvFrame(t, frames)
		if f.Seq != uint64(i+1) {
			t.Fatalf("frame %d: seq = %d, want %d", i, f.Seq, i+1)
		}
		if f.SubscriptionID != 7 {
			t.Fatalf("frame %d: sub id = %d, want 7", i, f.SubscriptionID)
		}
		if f.Domain != domainName(i) {
			t.Fatalf("frame %d: domain %q, want %q", i, f.Domain, domainName(i))
		}
		if f.BusSeq != uint64(100+i) {
			t.Fatalf("frame %d: bus seq = %d, want %d", i, f.BusSeq, 100+i)
		}
	}
	st := s.Stats()
	if st.Delivered != n || st.Dropped != 0 || st.Coalesced != 0 {
		t.Fatalf("stats = %+v, want %d delivered, 0 dropped, 0 coalesced", st, n)
	}
}

func domainName(i int) string {
	return string(rune('a'+i%26)) + "-dom"
}

func TestWatchCoalesceSameDomain(t *testing.T) {
	sink, frames, gate := collectSink(64, true)
	s := New(Config{ID: 1, Depth: 16, Coalesce: time.Minute, HeartbeatCount: 0, Sink: sink})
	defer s.Close()

	// First event gets dequeued and blocks inside the sink; everything
	// after stays queued and is eligible for coalescing.
	s.Enqueue(events.Event{Type: events.EventStarted, Domain: "blocker"})
	first := recvFrame(t, frames)
	if first.Seq != 1 {
		t.Fatalf("first seq = %d, want 1", first.Seq)
	}

	s.Enqueue(events.Event{Type: events.EventStarted, Domain: "web", Seq: 10})
	s.Enqueue(events.Event{Type: events.EventSuspended, Domain: "web", Seq: 11})
	s.Enqueue(events.Event{Type: events.EventStopped, Domain: "web", Seq: 12})
	close(gate)

	f := recvFrame(t, frames)
	if f.Domain != "web" || f.Seq != 2 {
		t.Fatalf("coalesced frame = %+v, want domain web seq 2", f)
	}
	if events.Type(f.Type) != events.EventStopped {
		t.Fatalf("coalesced type = %d, want EventStopped: latest state wins", f.Type)
	}
	if f.Coalesced != 2 {
		t.Fatalf("coalesced count = %d, want 2", f.Coalesced)
	}
	if f.BusSeq != 12 {
		t.Fatalf("coalesced bus seq = %d, want 12 (latest)", f.BusSeq)
	}
	select {
	case extra := <-frames:
		t.Fatalf("unexpected extra frame %+v", extra)
	case <-time.After(50 * time.Millisecond):
	}
	if st := s.Stats(); st.Coalesced != 2 {
		t.Fatalf("stats.Coalesced = %d, want 2", st.Coalesced)
	}
}

func TestWatchDropOldestCreatesGap(t *testing.T) {
	sink, frames, gate := collectSink(64, true)
	s := New(Config{ID: 1, Depth: 2, Coalesce: 0, HeartbeatCount: 0, Sink: sink})
	defer s.Close()

	s.Enqueue(events.Event{Type: events.EventStarted, Domain: "d0"})
	first := recvFrame(t, frames) // drainer now blocked; queue is empty
	if first.Seq != 1 {
		t.Fatalf("first seq = %d, want 1", first.Seq)
	}
	// Four more distinct domains into a depth-2 queue: seqs 2 and 3 are
	// displaced by 4 and 5.
	for _, d := range []string{"d1", "d2", "d3", "d4"} {
		s.Enqueue(events.Event{Type: events.EventStarted, Domain: d})
	}
	close(gate)

	got := []uint64{recvFrame(t, frames).Seq, recvFrame(t, frames).Seq}
	if got[0] != 4 || got[1] != 5 {
		t.Fatalf("post-drop seqs = %v, want [4 5]", got)
	}
	if st := s.Stats(); st.Dropped != 2 {
		t.Fatalf("stats.Dropped = %d, want 2", st.Dropped)
	}
}

func TestWatchHeartbeatTrailer(t *testing.T) {
	sink, frames, _ := collectSink(64, false)
	s := New(Config{
		ID: 3, Depth: 8, Coalesce: 0,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatCount:    2,
		Sink:              sink,
	})
	defer s.Close()

	s.Enqueue(events.Event{Type: events.EventStarted, Domain: "web"})
	ev := recvFrame(t, frames)
	if ev.Type == 0 {
		t.Fatalf("first frame is a heartbeat, want the event")
	}
	for i := 0; i < 2; i++ {
		hb := recvFrame(t, frames)
		if hb.Type != 0 {
			t.Fatalf("trailer frame %d: type = %d, want 0 (heartbeat)", i, hb.Type)
		}
		if hb.Seq != ev.Seq {
			t.Fatalf("heartbeat seq = %d, want last event seq %d", hb.Seq, ev.Seq)
		}
	}
	// After the bounded trailer the stream goes silent.
	select {
	case extra := <-frames:
		t.Fatalf("heartbeats did not stop: got %+v", extra)
	case <-time.After(150 * time.Millisecond):
	}
}

// TestWatchDrainerReusesFrame pins the Sink contract: one subscriber
// hands every delivery, heartbeats included, through the same frame, so
// a sink that kept ev would see it overwritten.
func TestWatchDrainerReusesFrame(t *testing.T) {
	type delivery struct {
		ptr *wire.WatchEvent
		ev  wire.WatchEvent
	}
	got := make(chan delivery, 16)
	s := New(Config{
		ID: 5, Depth: 8, Coalesce: 0,
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatCount:    1,
		Sink: SinkFunc(func(ev *wire.WatchEvent) error {
			got <- delivery{ev, *ev}
			return nil
		}),
	})
	defer s.Close()

	const n = 4
	for i := 0; i < n; i++ {
		s.Enqueue(events.Event{Type: events.EventStarted, Domain: domainName(i)})
	}
	var first *wire.WatchEvent
	for i := 0; i <= n; i++ { // n events, then the one heartbeat
		var d delivery
		select {
		case d = <-got:
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out waiting for frame %d", i)
		}
		if want := uint64(min(i+1, n)); d.ev.Seq != want {
			t.Fatalf("frame %d: seq = %d, want %d", i, d.ev.Seq, want)
		}
		if i == n && d.ev.Type != 0 {
			t.Fatalf("frame %d: type = %d, want the heartbeat", i, d.ev.Type)
		}
		if first == nil {
			first = d.ptr
		} else if d.ptr != first {
			t.Fatalf("frame %d delivered through %p, frame 0 through %p: the drainer allocated a new frame", i, d.ptr, first)
		}
	}
}

func TestWatchCloseDiscardsAndIgnores(t *testing.T) {
	sink, _, _ := collectSink(1, true)
	s := New(Config{ID: 1, Depth: 4, HeartbeatCount: 0, Sink: sink})
	s.Enqueue(events.Event{Type: events.EventStarted, Domain: "a"})
	s.Close()
	s.Close() // idempotent
	s.Enqueue(events.Event{Type: events.EventStarted, Domain: "b"})
	if st := s.Stats(); st.Queued != 0 {
		t.Fatalf("queued after close = %d, want 0", st.Queued)
	}
}

func TestWatchSendFaultpointDrop(t *testing.T) {
	faultpoint.Default.Arm(42)
	defer faultpoint.Default.Disarm()
	faultpoint.Default.Set("watch.send", faultpoint.Spec{Mode: faultpoint.ModeDrop, Prob: 1})

	sink, frames, _ := collectSink(8, false)
	s := New(Config{ID: 1, Depth: 8, HeartbeatCount: 0, Sink: sink})
	defer s.Close()

	s.Enqueue(events.Event{Type: events.EventStarted, Domain: "web"})
	select {
	case f := <-frames:
		t.Fatalf("frame delivered despite armed drop faultpoint: %+v", f)
	case <-time.After(100 * time.Millisecond):
	}
	// The sequence number was consumed: the next delivered frame after
	// disarming reveals the gap.
	faultpoint.Default.Clear("watch.send")
	s.Enqueue(events.Event{Type: events.EventStarted, Domain: "db"})
	f := recvFrame(t, frames)
	if f.Seq != 2 {
		t.Fatalf("post-drop seq = %d, want 2 (gap over the dropped 1)", f.Seq)
	}
}
