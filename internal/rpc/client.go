package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// EventHandler receives unsolicited server messages (procedure + raw
// payload). It runs on the client's reader goroutine and must not block.
type EventHandler func(procedure uint32, payload []byte)

// pendingShards is the size of the pending-call table; a power of two so
// the shard index is a mask. Sixteen shards keep lock contention
// negligible even with dozens of goroutines calling concurrently.
const pendingShards = 16

type pendingShard struct {
	mu sync.Mutex
	m  map[uint32]chan reply
}

// maxPongWriteFailures is how many consecutive pong replies may fail to
// send before the client declares the connection dead. One failure can
// be an injected fault or a transient buffer problem; a run of them
// means the write side is gone while the read side still limps along,
// and the peer's keepalive will kill us anyway — better to fail fast.
const maxPongWriteFailures = 3

// Client drives the call side of a connection: it assigns serials,
// matches replies, and forwards events. Multiple goroutines may call
// concurrently; replies are routed by serial, so slow calls do not block
// fast ones. The serial counter is atomic and the pending table is
// sharded, so concurrent callers do not serialise on a single lock.
type Client struct {
	program uint32
	conn    *Conn

	serial atomic.Uint32
	shards [pendingShards]pendingShard

	closed  atomic.Bool
	done    chan struct{} // closed when closed first turns true; stops keepalive at once
	errMu   sync.Mutex
	readErr error

	pongFails int // consecutive pong send failures; readLoop-only

	lastRx      atomic.Int64 // unix nanos of the last received message
	callTimeout atomic.Int64 // default per-call deadline in nanos; 0 = none
	onEvent     EventHandler
}

type reply struct {
	status  Status
	payload []byte
	frame   *Frame // pooled backing of payload; released after decode
}

func (r *reply) release() {
	if r.frame != nil {
		r.frame.Release()
		r.frame = nil
	}
}

// replyChanPool recycles the one-shot reply channels: every call needs
// one, and steady-state traffic would otherwise allocate a fresh channel
// per round trip. A channel is recycled only when it is provably empty
// and unreachable by the reader (see CallContext); channels closed by
// failAll or racing an in-flight send are left to the GC.
var replyChanPool = sync.Pool{
	New: func() interface{} { return make(chan reply, 1) },
}

// timerPool recycles the per-call deadline timers, saving the timer and
// context allocations that would otherwise dominate a round trip's
// allocation budget.
var timerPool = sync.Pool{
	New: func() interface{} {
		t := time.NewTimer(time.Hour)
		t.Stop()
		return t
	},
}

func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// NewClient wraps an established transport connection for the given
// program and starts the reply reader.
func NewClient(nc net.Conn, program uint32, onEvent EventHandler) *Client {
	return NewClientKeepalive(nc, program, onEvent, KeepaliveConfig{})
}

// NewClientKeepalive is NewClient with dead-peer detection enabled when
// ka is valid.
func NewClientKeepalive(nc net.Conn, program uint32, onEvent EventHandler, ka KeepaliveConfig) *Client {
	c := &Client{
		program: program,
		conn:    NewConn(nc),
		onEvent: onEvent,
		done:    make(chan struct{}),
	}
	for i := range c.shards {
		c.shards[i].m = make(map[uint32]chan reply)
	}
	c.noteTraffic()
	go c.readLoop()
	if ka.Valid() {
		c.startKeepalive(ka)
	}
	return c
}

// Close tears the connection down; in-flight calls fail.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	close(c.done)
	return c.conn.Close()
}

// Alive reports whether the client is still usable: false after Close
// or once the transport failed (read error, keepalive timeout — any
// path through failAll). One atomic load, no round trip, so health
// checks of idle connections stay traffic-free.
func (c *Client) Alive() bool { return !c.closed.Load() }

func (c *Client) shard(serial uint32) *pendingShard {
	return &c.shards[serial%pendingShards]
}

// register assigns the next free serial and parks ch under it. A serial
// still pending from a wrapped-around earlier call is skipped, so a
// slow in-flight call can never have its reply stolen by a new one.
func (c *Client) register(ch chan reply) (uint32, bool) {
	for {
		s := c.serial.Add(1)
		if s == 0 {
			continue // serial 0 is never assigned
		}
		sh := c.shard(s)
		sh.mu.Lock()
		if _, busy := sh.m[s]; busy {
			sh.mu.Unlock()
			continue // wraparound landed on a still-pending call
		}
		sh.m[s] = ch
		sh.mu.Unlock()
		if c.closed.Load() {
			// failAll may have drained the shard before our insert; undo.
			// If the entry is still ours the channel was never shared and
			// can be recycled; if failAll got there first it closed it.
			if _, ok := c.take(s); ok {
				replyChanPool.Put(ch)
			}
			return 0, false
		}
		return s, true
	}
}

// reclaim resolves a call abandoned at its deadline. If the pending
// entry is still present the reader never answered: remove it (making
// the channel unreachable, hence reusable) and report abandonment.
// Otherwise the reply may have raced the deadline into the channel
// buffer; use it if it landed.
func (c *Client) reclaim(serial uint32, ch chan reply) (r reply, got, abandoned bool) {
	if _, pending := c.take(serial); pending {
		replyChanPool.Put(ch)
		return reply{}, false, true
	}
	select {
	case r, got = <-ch:
	default:
	}
	if !got {
		// The reader removed the entry but its send has not landed yet
		// (or failAll closed the channel); this channel may still receive
		// and must not be recycled.
		return reply{}, false, true
	}
	return r, true, false
}

// take removes and returns the channel pending under serial.
func (c *Client) take(serial uint32) (chan reply, bool) {
	sh := c.shard(serial)
	sh.mu.Lock()
	ch, ok := sh.m[serial]
	if ok {
		delete(sh.m, serial)
	}
	sh.mu.Unlock()
	return ch, ok
}

func (c *Client) readLoop() {
	for {
		f, err := c.conn.ReadFrame()
		if err != nil {
			c.failAll(err)
			return
		}
		c.noteTraffic()
		h := f.Header
		switch MsgType(h.Type) {
		case TypePing:
			// Server-initiated probe: answer immediately. A failed pong
			// write is counted, and a persistent run of them tears the
			// connection down instead of silently looping while the
			// peer concludes we are dead.
			f.Release()
			pong := h
			pong.Type = uint32(TypePong)
			if err := c.conn.WriteMessage(pong, nil); err != nil {
				pongWriteFails.Inc()
				c.pongFails++
				if c.pongFails >= maxPongWriteFailures {
					c.failAll(fmt.Errorf("rpc: pong send failed %d times: %w", c.pongFails, err))
					c.conn.Close()
					return
				}
			} else {
				c.pongFails = 0
			}
		case TypePong:
			// Traffic note above is all a pong needs.
			f.Release()
			kaPongsRcvd.Inc()
		case TypeReply:
			if ch, ok := c.take(h.Serial); ok {
				// The frame travels with the reply; the caller releases
				// it after decoding. Channel capacity 1 guarantees the
				// send never blocks the reader.
				ch <- reply{status: Status(h.Status), payload: f.Payload, frame: f}
			} else {
				f.Release() // abandoned at its deadline; discard
			}
		case TypeEvent:
			if c.onEvent != nil {
				c.onEvent(h.Procedure, f.Payload)
			}
			f.Release()
		default:
			// A Call arriving at a client is a protocol violation; drop
			// the connection rather than guessing.
			f.Release()
			c.failAll(fmt.Errorf("rpc: unexpected message type %d from server", h.Type))
			c.conn.Close()
			return
		}
	}
}

func (c *Client) failAll(err error) {
	c.errMu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	c.errMu.Unlock()
	if !c.closed.Swap(true) {
		close(c.done)
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for serial, ch := range sh.m {
			delete(sh.m, serial)
			close(ch)
		}
		sh.mu.Unlock()
	}
}

func (c *Client) lastErr() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.readErr
}

// SetCallTimeout sets the default deadline applied to every Call (and to
// CallContext invocations whose context carries no deadline of its own).
// Zero disables the default, restoring unbounded waits.
func (c *Client) SetCallTimeout(d time.Duration) {
	c.callTimeout.Store(int64(d))
}

// CallTimeout returns the default per-call deadline (zero = none).
func (c *Client) CallTimeout() time.Duration {
	return time.Duration(c.callTimeout.Load())
}

// Call invokes a procedure: args are XDR-marshalled, the reply payload is
// XDR-unmarshalled into ret (which may be nil for void returns). Error
// replies decode the standard error payload. The client's default call
// timeout, if set, bounds the wait.
func (c *Client) Call(procedure uint32, args interface{}, ret interface{}) error {
	return c.CallContext(context.Background(), procedure, args, ret)
}

// CallContext is Call bounded by a context. When ctx has no deadline and
// the client has a default call timeout, that timeout applies. A call
// abandoned at its deadline returns a *TransportError (Op "deadline")
// wrapping ctx's error; the reply, if it ever arrives, is discarded by
// the reader since the pending entry is gone.
func (c *Client) CallContext(ctx context.Context, procedure uint32, args interface{}, ret interface{}) error {
	if c.closed.Load() {
		if readErr := c.lastErr(); readErr != nil {
			return &TransportError{Op: "call", Err: fmt.Errorf("connection failed: %w", readErr)}
		}
		return &TransportError{Op: "call", Err: fmt.Errorf("client is closed")}
	}
	// A caller-supplied context deadline is honoured as-is; the client's
	// default call timeout is enforced with a pooled timer instead of a
	// derived context, which would cost several allocations per call.
	var timeoutC <-chan time.Time
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		if d := c.CallTimeout(); d > 0 {
			t := timerPool.Get().(*time.Timer)
			t.Reset(d)
			defer putTimer(t)
			timeoutC = t.C
		}
	}
	ch := replyChanPool.Get().(chan reply)
	serial, ok := c.register(ch)
	if !ok {
		if readErr := c.lastErr(); readErr != nil {
			return &TransportError{Op: "call", Err: fmt.Errorf("connection failed: %w", readErr)}
		}
		return &TransportError{Op: "call", Err: fmt.Errorf("client is closed")}
	}

	h := Header{
		Program:   c.program,
		Version:   ProtocolVersion,
		Procedure: procedure,
		Type:      uint32(TypeCall),
		Serial:    serial,
	}
	// Args are encoded straight into the pooled frame buffer — no
	// intermediate payload allocation.
	if err := c.conn.WriteMarshal(h, args); err != nil {
		if _, pending := c.take(serial); pending {
			// The reader never saw this serial; the channel is untouched.
			replyChanPool.Put(ch)
		}
		var ce *codecError
		if errors.As(err, &ce) {
			return fmt.Errorf("rpc: marshal args for proc %d: %w", procedure, ce.err)
		}
		return &TransportError{Op: "send", Err: fmt.Errorf("send proc %d: %w", procedure, err)}
	}

	var r reply
	var got bool
	var abandoned bool
	select {
	case r, got = <-ch:
	case <-ctx.Done():
		r, got, abandoned = c.reclaim(serial, ch)
		if abandoned {
			callsDeadlined.Inc()
			return &TransportError{Op: "deadline", Err: fmt.Errorf("proc %d abandoned: %w", procedure, ctx.Err())}
		}
	case <-timeoutC:
		r, got, abandoned = c.reclaim(serial, ch)
		if abandoned {
			callsDeadlined.Inc()
			return &TransportError{Op: "deadline", Err: fmt.Errorf("proc %d abandoned: %w", procedure, context.DeadlineExceeded)}
		}
	}
	if !got {
		// failAll closed the channel; it must not be recycled.
		return &TransportError{Op: "recv", Err: fmt.Errorf("connection lost awaiting proc %d: %v", procedure, c.lastErr())}
	}
	// The reader delivered exactly one reply and forgot the serial; the
	// drained channel is safe to reuse.
	replyChanPool.Put(ch)
	if r.status == StatusError {
		var ep ErrorPayload
		err := c.conn.Unmarshal(r.payload, &ep)
		r.release()
		if err != nil {
			return fmt.Errorf("rpc: proc %d failed with undecodable error: %v", procedure, err)
		}
		return &RemoteError{Code: ep.Code, Message: ep.Message, RetryAfterMs: ep.RetryAfterMs}
	}
	var uerr error
	if ret != nil {
		uerr = c.conn.Unmarshal(r.payload, ret)
	}
	r.release()
	if uerr != nil {
		return fmt.Errorf("rpc: unmarshal reply for proc %d: %w", procedure, uerr)
	}
	return nil
}

// Unmarshal decodes an event payload through the client's connection.
func (c *Client) Unmarshal(data []byte, v interface{}) error { return c.conn.Unmarshal(data, v) }

// RemoteError is a server-reported failure with its transported code.
// RetryAfterMs carries the server's backoff hint on overload
// rejections (0 = none).
type RemoteError struct {
	Code         uint32
	Message      string
	RetryAfterMs uint32
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote error %d: %s", e.Code, e.Message)
}

// TransportError is a connection-level failure: the peer could not be
// reached, the send failed, or the connection died before the reply
// arrived. It is distinct from RemoteError (the server processed the
// call and reported a failure), so callers managing many hosts can tell
// "this daemon is gone" apart from "this operation is invalid" and
// retry elsewhere.
type TransportError struct {
	Op  string // "call", "send" or "recv"
	Err error
}

func (e *TransportError) Error() string { return fmt.Sprintf("rpc: %v", e.Err) }

func (e *TransportError) Unwrap() error { return e.Err }
