// Package events implements the domain lifecycle event bus: drivers emit
// events when domains change state and management applications subscribe
// with callbacks, so monitoring stays non-intrusive — no agent in the
// guest, no polling required.
package events

import (
	"fmt"
	"slices"
	"sync"
)

// Type classifies a lifecycle event.
type Type int

// Lifecycle event types.
const (
	EventDefined Type = 1 + iota
	EventUndefined
	EventStarted
	EventSuspended
	EventResumed
	EventStopped
	EventShutdown
	EventCrashed
	EventMigrated
)

var typeNames = map[Type]string{
	EventDefined:   "defined",
	EventUndefined: "undefined",
	EventStarted:   "started",
	EventSuspended: "suspended",
	EventResumed:   "resumed",
	EventStopped:   "stopped",
	EventShutdown:  "shutdown",
	EventCrashed:   "crashed",
	EventMigrated:  "migrated",
}

func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("event(%d)", int(t))
}

// Event is one domain lifecycle notification.
type Event struct {
	Type   Type
	Domain string
	UUID   string
	Detail string
	Seq    uint64
}

// Callback receives events; it runs on the emitting goroutine and must
// not block.
type Callback func(Event)

// Bus fans events out to subscribers. Subscriptions can be filtered to a
// single domain name or receive everything.
type Bus struct {
	mu     sync.Mutex
	nextID int
	seq    uint64
	// subs is copied on write, so Emit may walk it outside the lock.
	subs []*subscription
}

type subscription struct {
	id     int
	domain string // empty = all
	types  map[Type]bool
	cb     Callback
}

// NewBus creates an empty bus.
func NewBus() *Bus {
	return &Bus{}
}

// Subscribe registers cb for events. domain filters to one domain name
// ("" for all); types filters to a set of event types (nil for all).
// It returns a subscription id for Unsubscribe.
func (b *Bus) Subscribe(domain string, types []Type, cb Callback) int {
	if cb == nil {
		return -1
	}
	s := &subscription{domain: domain, cb: cb}
	if len(types) > 0 {
		s.types = make(map[Type]bool, len(types))
		for _, t := range types {
			s.types[t] = true
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	s.id = b.nextID
	b.subs = append(slices.Clip(b.subs), s)
	return s.id
}

// Unsubscribe removes a subscription; unknown ids are ignored.
func (b *Bus) Unsubscribe(id int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.subs = slices.DeleteFunc(slices.Clone(b.subs), func(s *subscription) bool { return s.id == id })
}

// SubscriberCount returns the number of live subscriptions.
func (b *Bus) SubscriberCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Emit delivers an event to all matching subscribers synchronously. The
// sequence number is assigned here, so subscribers observe a gap-free,
// monotonically increasing order per bus.
func (b *Bus) Emit(ev Event) {
	b.mu.Lock()
	b.seq++
	ev.Seq = b.seq
	subs := b.subs
	b.mu.Unlock()
	for _, s := range subs {
		if (s.domain == "" || s.domain == ev.Domain) && (s.types == nil || s.types[ev.Type]) {
			s.cb(ev)
		}
	}
}

// Collector is a convenience subscriber buffering events for inspection,
// used by tests and by the monitoring example.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Callback returns the collector's Callback for Subscribe.
func (c *Collector) Callback() Callback {
	return func(ev Event) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.events = append(c.events, ev)
	}
}

// Events returns a copy of everything collected so far.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// Len returns the number of collected events.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}
