package daemon

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// shedFunc adapts a function to ShedJob.
type shedFunc func(shed bool, wait time.Duration)

func (f shedFunc) RunQueued(shed bool, wait time.Duration) { f(shed, wait) }

// obsRecorder collects wait-observer callbacks for assertions.
type obsRecorder struct {
	mu    sync.Mutex
	waits []time.Duration
}

func (o *obsRecorder) record(w time.Duration, _ bool) {
	o.mu.Lock()
	o.waits = append(o.waits, w)
	o.mu.Unlock()
}

func (o *obsRecorder) count() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.waits)
}

// wedgePool occupies the pool's single ordinary worker with a job that
// blocks until the returned channel is closed.
func wedgePool(t *testing.T, p *Workerpool) chan struct{} {
	t.Helper()
	block := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit(func() { close(started); <-block }, false); err != nil {
		t.Fatal(err)
	}
	<-started
	return block
}

func TestQoSSubmitWatermarkEvictsLowestPriority(t *testing.T) {
	p, _ := NewWorkerpool(1, 1, 0)
	defer p.Shutdown()
	obs := &obsRecorder{}
	p.SetWaitObserver(obs.record)
	p.SetShedWatermark(2)
	block := wedgePool(t, p)

	// Two bronze-priority calls fill the queue to the watermark.
	var shedState [2]atomic.Int32 // 0 = not run, 1 = ran, 2 = shed
	for i := 0; i < 2; i++ {
		i := i
		err := p.SubmitQoS(shedFunc(func(shed bool, wait time.Duration) {
			if shed {
				shedState[i].Store(2)
			} else {
				shedState[i].Store(1)
			}
		}), false, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	// A gold-priority arrival over the watermark evicts one bronze call
	// immediately, on the submitter's goroutine.
	var goldShed atomic.Bool
	var goldRan atomic.Bool
	err := p.SubmitQoS(shedFunc(func(shed bool, wait time.Duration) {
		goldShed.Store(shed)
		goldRan.Store(true)
	}), false, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := shedState[0].Load() + shedState[1].Load(); n != 2 {
		t.Fatalf("exactly one bronze call must be shed at submit time, states %v %v",
			shedState[0].Load(), shedState[1].Load())
	}
	// The shed call's queue wait was observed (it must not vanish from
	// the wait histogram): wedge job dequeue + victim = 2 observations.
	if got := obs.count(); got != 2 {
		t.Fatalf("wait observer fired %d times, want 2 (wedge dequeue + victim)", got)
	}
	if got := p.Stats().Shed; got != 1 {
		t.Fatalf("Shed counter = %d, want 1", got)
	}

	close(block)
	waitFor(t, "surviving jobs", func() bool {
		return goldRan.Load() && shedState[0].Load()+shedState[1].Load() == 3
	})
	if goldShed.Load() {
		t.Fatal("gold call was shed")
	}
}

func TestQoSSubmitWatermarkShedsIncomingLowest(t *testing.T) {
	p, _ := NewWorkerpool(1, 1, 0)
	defer p.Shutdown()
	obs := &obsRecorder{}
	p.SetWaitObserver(obs.record)
	p.SetShedWatermark(1)
	block := wedgePool(t, p)
	defer close(block)

	// Queue holds one gold call; a bronze arrival over the watermark
	// finds no lower-priority victim and is shed itself, synchronously.
	if err := p.SubmitQoS(shedFunc(func(bool, time.Duration) {}), false, 8, 0); err != nil {
		t.Fatal(err)
	}
	var shed atomic.Bool
	done := make(chan struct{})
	err := p.SubmitQoS(shedFunc(func(s bool, wait time.Duration) {
		shed.Store(s)
		close(done)
	}), false, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("incoming-shed job not invoked synchronously")
	}
	if !shed.Load() {
		t.Fatal("incoming lowest-priority call must be shed")
	}
	if got := p.Stats().Shed; got != 1 {
		t.Fatalf("Shed counter = %d, want 1", got)
	}
}

func TestQoSSubmitPlainEntriesNeverEvicted(t *testing.T) {
	p, _ := NewWorkerpool(1, 1, 0)
	defer p.Shutdown()
	p.SetShedWatermark(1)
	block := wedgePool(t, p)

	// The queue holds a plain (non-QoS) entry. It is not a victim
	// candidate, so the arriving QoS call is shed instead.
	var plainRan atomic.Bool
	if err := p.Submit(func() { plainRan.Store(true) }, false); err != nil {
		t.Fatal(err)
	}
	var shed atomic.Bool
	err := p.SubmitQoS(shedFunc(func(s bool, wait time.Duration) { shed.Store(s) }), false, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !shed.Load() {
		t.Fatal("QoS call must be shed rather than evicting a plain entry")
	}
	close(block)
	waitFor(t, "plain job survives", func() bool { return plainRan.Load() })
}

func TestQoSSubmitPriorityBypassesWatermark(t *testing.T) {
	p, _ := NewWorkerpool(1, 1, 1)
	defer p.Shutdown()
	p.SetShedWatermark(1)
	block := wedgePool(t, p)
	defer close(block)

	// Ordinary queue at the watermark; a priority (control-plane)
	// submission must neither evict it nor be shed — a priority worker
	// picks it up promptly.
	var ordShed atomic.Bool
	if err := p.SubmitQoS(shedFunc(func(s bool, wait time.Duration) { ordShed.Store(s) }), false, 2, 0); err != nil {
		t.Fatal(err)
	}
	var ctrlShed atomic.Bool
	ran := make(chan struct{})
	err := p.SubmitQoS(shedFunc(func(s bool, wait time.Duration) {
		ctrlShed.Store(s)
		close(ran)
	}), true, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("control-plane call starved under watermark pressure")
	}
	if ctrlShed.Load() {
		t.Fatal("priority submission was shed")
	}
	if ordShed.Load() {
		t.Fatal("priority submission evicted queued ordinary work")
	}
	if got := p.Stats().Shed; got != 0 {
		t.Fatalf("Shed counter = %d, want 0", got)
	}
}

func TestQoSDeadlineShedOnDequeueObservesWait(t *testing.T) {
	p, _ := NewWorkerpool(1, 1, 0)
	defer p.Shutdown()
	obs := &obsRecorder{}
	p.SetWaitObserver(obs.record)
	block := wedgePool(t, p)

	// A call with a 5ms queue-wait bound queues behind the wedged
	// worker for much longer; at dequeue it runs in shed mode and its
	// wait still reaches the observer.
	var shed atomic.Bool
	var shedWait atomic.Int64
	done := make(chan struct{})
	err := p.SubmitQoS(shedFunc(func(s bool, wait time.Duration) {
		shed.Store(s)
		shedWait.Store(int64(wait))
		close(done)
	}), false, 5, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	close(block)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("queued job never ran")
	}
	if !shed.Load() {
		t.Fatal("call that out-waited its bound must be shed")
	}
	if got := time.Duration(shedWait.Load()); got < 25*time.Millisecond {
		t.Fatalf("shed call reported wait %v, slept 30ms", got)
	}
	waitFor(t, "observer saw both dequeues", func() bool { return obs.count() == 2 })
	obs.mu.Lock()
	last := obs.waits[len(obs.waits)-1]
	obs.mu.Unlock()
	if last < 25*time.Millisecond {
		t.Fatalf("observer recorded %v for the shed call", last)
	}
	waitFor(t, "shed counter", func() bool { return p.Stats().Shed == 1 })
}

func TestQoSSubmitWithoutWatermarkBehavesLikeSubmit(t *testing.T) {
	// QoS-disabled daemons route every call through SubmitQoS with
	// watermark 0 and no wait bound; jobs must run normally.
	p, _ := NewWorkerpool(1, 2, 0)
	defer p.Shutdown()
	var done atomic.Int64
	for i := 0; i < 50; i++ {
		err := p.SubmitQoS(shedFunc(func(shed bool, wait time.Duration) {
			if !shed {
				done.Add(1)
			}
		}), false, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all jobs run unshed", func() bool { return done.Load() == 50 })
	if got := p.Stats().Shed; got != 0 {
		t.Fatalf("Shed counter = %d, want 0", got)
	}
}
