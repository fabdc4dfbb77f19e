package events

import (
	"sync"
	"testing"
)

func TestSubscribeAndEmit(t *testing.T) {
	b := NewBus()
	c := NewCollector()
	id := b.Subscribe("", nil, c.Callback())
	if id <= 0 {
		t.Fatalf("id %d", id)
	}
	b.Emit(Event{Type: EventStarted, Domain: "d1"})
	b.Emit(Event{Type: EventStopped, Domain: "d2"})
	if c.Len() != 2 {
		t.Fatalf("collected %d", c.Len())
	}
	evs := c.Events()
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("sequence %d %d", evs[0].Seq, evs[1].Seq)
	}
}

func TestDomainFilter(t *testing.T) {
	b := NewBus()
	c := NewCollector()
	b.Subscribe("web01", nil, c.Callback())
	b.Emit(Event{Type: EventStarted, Domain: "web01"})
	b.Emit(Event{Type: EventStarted, Domain: "db01"})
	if c.Len() != 1 || c.Events()[0].Domain != "web01" {
		t.Fatalf("filter failed: %+v", c.Events())
	}
}

func TestTypeFilter(t *testing.T) {
	b := NewBus()
	c := NewCollector()
	b.Subscribe("", []Type{EventCrashed, EventStopped}, c.Callback())
	b.Emit(Event{Type: EventStarted, Domain: "d"})
	b.Emit(Event{Type: EventCrashed, Domain: "d"})
	b.Emit(Event{Type: EventResumed, Domain: "d"})
	b.Emit(Event{Type: EventStopped, Domain: "d"})
	if c.Len() != 2 {
		t.Fatalf("collected %d", c.Len())
	}
}

func TestUnsubscribe(t *testing.T) {
	b := NewBus()
	c := NewCollector()
	id := b.Subscribe("", nil, c.Callback())
	b.Emit(Event{Type: EventStarted, Domain: "d"})
	b.Unsubscribe(id)
	b.Emit(Event{Type: EventStopped, Domain: "d"})
	if c.Len() != 1 {
		t.Fatalf("collected %d after unsubscribe", c.Len())
	}
	if b.SubscriberCount() != 0 {
		t.Fatal("subscriber still registered")
	}
	b.Unsubscribe(9999) // no-op
}

func TestNilCallbackRejected(t *testing.T) {
	b := NewBus()
	if id := b.Subscribe("", nil, nil); id != -1 {
		t.Fatalf("nil callback got id %d", id)
	}
}

func TestConcurrentEmitSequencing(t *testing.T) {
	b := NewBus()
	c := NewCollector()
	b.Subscribe("", nil, c.Callback())
	var wg sync.WaitGroup
	const n = 50
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n; j++ {
				b.Emit(Event{Type: EventStarted, Domain: "d"})
			}
		}()
	}
	wg.Wait()
	if c.Len() != 8*n {
		t.Fatalf("collected %d", c.Len())
	}
	seen := make(map[uint64]bool)
	for _, ev := range c.Events() {
		if seen[ev.Seq] {
			t.Fatalf("duplicate sequence %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
	for i := uint64(1); i <= 8*n; i++ {
		if !seen[i] {
			t.Fatalf("sequence gap at %d", i)
		}
	}
}

// TestCallbackChangesSubscriptionsDuringEmit runs callbacks that
// unsubscribe themselves and subscribe another: they must run outside
// the bus lock (or this deadlocks), the new subscriber must not see the
// event being delivered, and the removed one must not see the next.
func TestCallbackChangesSubscriptionsDuringEmit(t *testing.T) {
	b := NewBus()
	late := NewCollector()
	var self int
	var got []uint64
	self = b.Subscribe("", nil, func(ev Event) {
		got = append(got, ev.Seq)
		b.Unsubscribe(self)
		b.Subscribe("", nil, late.Callback())
	})
	b.Emit(Event{Type: EventStarted, Domain: "d"})
	b.Emit(Event{Type: EventStopped, Domain: "d"})
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("self-removing callback saw %v, want [1]", got)
	}
	if evs := late.Events(); len(evs) != 1 || evs[0].Seq != 2 {
		t.Fatalf("callback added during emit saw %+v, want only seq 2", evs)
	}
	if n := b.SubscriberCount(); n != 1 {
		t.Fatalf("%d subscribers left, want 1", n)
	}
}

// TestSubscribeDuringConcurrentEmit changes the subscriber list while
// other goroutines emit, for the race detector: Emit walks the list it
// read outside the lock, so a change must never write to that list.
func TestSubscribeDuringConcurrentEmit(t *testing.T) {
	b := NewBus()
	c := NewCollector()
	b.Subscribe("", nil, c.Callback())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				b.Emit(Event{Type: EventStarted, Domain: "d"})
			}
		}()
	}
	for j := 0; j < 200; j++ {
		b.Unsubscribe(b.Subscribe("d", []Type{EventStarted}, func(Event) {}))
	}
	wg.Wait()
	if c.Len() != 800 || b.SubscriberCount() != 1 {
		t.Fatalf("collected %d, %d subscribers left", c.Len(), b.SubscriberCount())
	}
}

// TestEmitAllocs pins delivery without a per-event allocation: the
// subscriber list Emit walks is never copied for it.
func TestEmitAllocs(t *testing.T) {
	b := NewBus()
	hits := 0
	b.Subscribe("", nil, func(Event) { hits++ })
	b.Subscribe("web01", []Type{EventStarted}, func(Event) { hits++ })
	b.Subscribe("db01", nil, func(Event) { hits++ })
	ev := Event{Type: EventStarted, Domain: "web01"}
	if got := testing.AllocsPerRun(100, func() { b.Emit(ev) }); got != 0 {
		t.Fatalf("Emit: %.1f allocs per event, want 0", got)
	}
	if hits != 2*101 {
		t.Fatalf("%d deliveries, want %d", hits, 2*101)
	}
}

func TestTypeString(t *testing.T) {
	if EventStarted.String() != "started" || EventMigrated.String() != "migrated" {
		t.Fatal("type names wrong")
	}
	if Type(99).String() != "event(99)" {
		t.Fatal("unknown type formatting")
	}
}
