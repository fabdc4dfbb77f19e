package rpc

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/faultpoint"
)

// Program numbers identify the protocol spoken on a connection.
const (
	ProgramRemote uint32 = 0x20008086 // hypervisor management
	ProgramAdmin  uint32 = 0x06900690 // daemon administration
)

// ProtocolVersion is the single supported protocol version.
const ProtocolVersion uint32 = 1

// MsgType classifies a message.
type MsgType uint32

// Message types.
const (
	TypeCall  MsgType = 0 // client request
	TypeReply MsgType = 1 // server response
	TypeEvent MsgType = 2 // unsolicited server notification
	TypePing  MsgType = 3 // keepalive probe
	TypePong  MsgType = 4 // keepalive response
)

// Status qualifies a reply.
type Status uint32

// Reply statuses.
const (
	StatusOK    Status = 0
	StatusError Status = 1
)

// Header precedes every message payload on the wire.
type Header struct {
	Program   uint32
	Version   uint32
	Procedure uint32
	Type      uint32
	Serial    uint32
	Status    uint32
}

const headerLen = 6 * 4

// frameOverhead is the length word plus header preceding every payload.
const frameOverhead = 4 + headerLen

// MaxMessageLen bounds a whole framed message (length word included).
const MaxMessageLen = 16 * 1024 * 1024

// maxPooledFrame caps the buffer capacity retained in the frame pool.
// A jumbo frame's buffer never enters it: the pool is process-wide and
// keeps what it is given through two collections, so one XML dump would
// pin megabytes per processor. Jumbo buffers go to the one JumboSpare
// of the connection that read them instead, where a sweep of thousands
// of domains finds the same buffer again on its next reply.
const maxPooledFrame = 64 * 1024

// jumboIdleRun is how many messages in a row may pass without needing
// a JumboSpare's buffer before it is let go to the GC.
const jumboIdleRun = 64

// JumboSpare retains at most one buffer larger than the pooled size for
// an owner whose large messages recur — a connection reading bulk
// replies, a daemon marshalling them. The choice between it and the
// small pools is the owner's, made from the message length. The buffer
// is kept only while large messages keep coming: after jumboIdleRun
// messages that did not need it (Idle) it is dropped, and one handed
// back later than that is not kept, so an idle owner pins nothing. The
// zero value is ready to use; all methods may be called concurrently.
type JumboSpare struct {
	ttl atomic.Int32 // messages left before the buffer is dropped
	mu  sync.Mutex
	buf []byte
}

// Take returns an empty buffer with room for n bytes: the retained one
// if it is large enough, else a new one with an eighth to spare so a
// slowly growing listing does not reallocate on every call.
func (s *JumboSpare) Take(n int) []byte {
	s.ttl.Store(jumboIdleRun)
	s.mu.Lock()
	b := s.buf
	s.buf = nil
	s.mu.Unlock()
	if cap(b) >= n {
		return b[:0]
	}
	return make([]byte, 0, n+n/8)
}

// Put hands a buffer back once its message has been consumed.
func (s *JumboSpare) Put(b []byte) {
	s.mu.Lock()
	if s.ttl.Load() > 0 && cap(b) > cap(s.buf) {
		s.buf = b
	}
	s.mu.Unlock()
}

// Idle notes one message that did not need the buffer. It takes no
// lock unless it is the one that ends the run.
func (s *JumboSpare) Idle() {
	if s.ttl.Load() > 0 && s.ttl.Add(-1) == 0 {
		s.mu.Lock()
		s.buf = nil
		s.mu.Unlock()
	}
}

// ErrorPayload carries a failure across the wire. RetryAfterMs is the
// server's backoff hint on overload rejections (0 = none); it travels
// with every error frame so admission control can pace clients without
// a side channel.
type ErrorPayload struct {
	Code         uint32
	Message      string
	RetryAfterMs uint32
}

// PeekString returns the first XDR string or opaque field of an
// encoded payload without decoding or copying — a view into the
// payload bytes. Admission ACL checks use it to read the object name
// or UUID leading nearly every management call before committing to a
// full decode. Reports false when the payload doesn't start with a
// well-formed length-prefixed field.
func PeekString(payload []byte) ([]byte, bool) {
	if len(payload) < 4 {
		return nil, false
	}
	n := binary.BigEndian.Uint32(payload)
	if uint64(n) > uint64(len(payload)-4) {
		return nil, false
	}
	return payload[4 : 4+n], true
}

// Frame is one received message backed by a pooled buffer. Payload
// aliases that buffer, so the recipient must call Release exactly once
// when done with it — after Unmarshal (which copies all strings and
// byte slices out) the payload is never needed again.
type Frame struct {
	Header  Header
	Payload []byte
	buf     []byte
	spare   *JumboSpare // where a jumbo buf goes on Release; nil = the GC
}

var framePool = sync.Pool{New: func() interface{} { return new(Frame) }}

func getFrame() *Frame { return framePool.Get().(*Frame) }

// Release returns the frame's buffer to the pool. The frame and its
// Payload must not be touched afterwards.
func (f *Frame) Release() {
	if f == nil {
		return
	}
	if cap(f.buf) > maxPooledFrame {
		if f.spare != nil {
			f.spare.Put(f.buf)
		}
		f.buf = nil
	}
	f.spare = nil
	f.Payload = nil
	f.Header = Header{}
	framePool.Put(f)
}

// discard releases a frame whose read failed: its buffer, if jumbo, is
// not kept for a connection that is about to go away.
func (f *Frame) discard() {
	f.spare = nil
	f.Release()
}

// grow returns b truncated to zero length with capacity for at least n
// bytes, reusing b's array when possible.
func grow(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:0]
	}
	return make([]byte, 0, n)
}

// codecError marks a WriteMarshal failure that happened while encoding
// the arguments — before any bytes reached the wire — so callers can
// report it as a marshalling problem rather than a transport one.
type codecError struct{ err error }

func (e *codecError) Error() string { return e.err.Error() }

func (e *codecError) Unwrap() error { return e.err }

// Conn frames messages over a stream transport. Reads and writes are
// independently serialised, so one goroutine may read while others
// write.
type Conn struct {
	rmu sync.Mutex
	wmu sync.Mutex
	c   net.Conn

	// rspare holds the buffer of the last jumbo frame read, between its
	// Release and the next jumbo frame.
	rspare JumboSpare
	lenBuf [4]byte // the length word being read; guarded by rmu
	recent recentStrings
}

// Unmarshal is package Unmarshal for a payload that arrived on c, except
// that a short string c decoded lately comes back shared, not copied.
func (c *Conn) Unmarshal(data []byte, v interface{}) error { return unmarshal(data, v, &c.recent) }

// NewConn wraps a stream connection.
func NewConn(c net.Conn) *Conn { return &Conn{c: c} }

// Close closes the underlying transport.
func (c *Conn) Close() error { return c.c.Close() }

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.c.RemoteAddr() }

// LocalAddr returns the local address.
func (c *Conn) LocalAddr() net.Addr { return c.c.LocalAddr() }

// send finishes a frame built in f's pooled buffer: buf holds the
// length word, the header and the payload, or, for a jumbo payload,
// only the first two, with tail the payload written behind them under
// the same hold of the write lock. The "rpc.send" faultpoint can drop
// the frame (reported as sent — the bytes just never leave, as on a
// lossy network), corrupt its payload, or fail the write outright. f is
// released either way.
func (c *Conn) send(f *Frame, buf, tail []byte) error {
	f.buf = buf
	defer f.Release()
	if total := len(buf) + len(tail); total > MaxMessageLen {
		return fmt.Errorf("rpc: message of %d exceeds limit", total)
	}
	if spec, ok := faultpoint.Default.Eval("rpc.send"); ok {
		switch spec.Mode {
		case faultpoint.ModeDrop:
			faultsDropped.Inc()
			return nil
		case faultpoint.ModeCorrupt:
			if len(tail) > 0 {
				tail = corruptCopy(tail) // the caller's; never flipped in place
			} else {
				corruptInPlace(buf[frameOverhead:])
			}
			faultsCorrupted.Inc()
		case faultpoint.ModeError:
			if spec.Err != nil {
				return spec.Err
			}
			return fmt.Errorf("rpc: injected send fault")
		}
	}
	c.wmu.Lock()
	n, err := c.c.Write(buf)
	if err == nil && len(tail) > 0 {
		var m int
		m, err = c.c.Write(tail)
		n += m
	}
	c.wmu.Unlock()
	if n > 0 {
		txBytes.Add(uint64(n))
	}
	if err == nil {
		txFrames.Inc()
	}
	return err
}

// putFrameHeader writes the length word and header into buf[0:28].
func putFrameHeader(buf []byte, total uint32, h Header) {
	binary.BigEndian.PutUint32(buf[0:], total)
	binary.BigEndian.PutUint32(buf[4:], h.Program)
	binary.BigEndian.PutUint32(buf[8:], h.Version)
	binary.BigEndian.PutUint32(buf[12:], h.Procedure)
	binary.BigEndian.PutUint32(buf[16:], h.Type)
	binary.BigEndian.PutUint32(buf[20:], h.Serial)
	binary.BigEndian.PutUint32(buf[24:], h.Status)
}

// WriteMessage frames and sends one message. The frame is assembled in
// a pooled buffer, so the steady-state write path allocates nothing; a
// jumbo payload is not copied behind its header but sent after it.
// Faults are injected as described at send.
func (c *Conn) WriteMessage(h Header, payload []byte) error {
	total := frameOverhead + len(payload)
	f := getFrame()
	var buf, tail []byte
	if total > maxPooledFrame {
		// A jumbo payload is sent as it stands, behind a header-only
		// buffer: copying it would cost a second frame-sized buffer.
		buf, tail = grow(f.buf, frameOverhead)[:frameOverhead], payload
	} else {
		buf = append(grow(f.buf, total)[:frameOverhead], payload...)
	}
	putFrameHeader(buf, uint32(total), h)
	return c.send(f, buf, tail)
}

// WriteMarshal XDR-encodes args directly into the pooled frame buffer
// behind the header and sends the result: one buffer, zero payload
// copies, no per-call allocation. A nil args sends an empty payload.
// Encoding failures return a *codecError; everything else is a
// transport-level error. Faults are injected as described at send, once
// the frame is built (a marshalling bug is reported even on a dropped
// frame).
func (c *Conn) WriteMarshal(h Header, args interface{}) error {
	f := getFrame()
	buf := grow(f.buf, 256)[:frameOverhead]
	if args != nil {
		out, err := AppendMarshal(buf, args)
		if err != nil {
			f.buf = buf
			f.Release()
			return &codecError{err}
		}
		buf = out
	}
	putFrameHeader(buf, uint32(len(buf)), h)
	return c.send(f, buf, nil)
}

// ReadFrame receives one framed message into a pooled buffer, or, for a
// frame above the pooled size, into the connection's one spare. The
// caller owns the returned frame and must Release it once the payload
// has been consumed; a frame whose read failed keeps no buffer. The
// "rpc.recv" faultpoint can drop a received frame (the read loops on to
// the next one, as if the frame were lost in flight), corrupt its
// payload, or fail the read.
func (c *Conn) ReadFrame() (*Frame, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	f := getFrame()
	for {
		if _, err := io.ReadFull(c.c, c.lenBuf[:]); err != nil {
			f.discard()
			return nil, err
		}
		total := binary.BigEndian.Uint32(c.lenBuf[:])
		if total < frameOverhead || total > MaxMessageLen {
			f.discard()
			return nil, fmt.Errorf("rpc: invalid message length %d", total)
		}
		n := int(total) - 4
		if n <= maxPooledFrame {
			c.rspare.Idle()
		} else {
			f.spare = &c.rspare
			if cap(f.buf) < n {
				f.buf = c.rspare.Take(n)
			}
		}
		rest := grow(f.buf, n)[:n]
		f.buf = rest
		if _, err := io.ReadFull(c.c, rest); err != nil {
			f.discard()
			return nil, err
		}
		f.Header = Header{
			Program:   binary.BigEndian.Uint32(rest[0:]),
			Version:   binary.BigEndian.Uint32(rest[4:]),
			Procedure: binary.BigEndian.Uint32(rest[8:]),
			Type:      binary.BigEndian.Uint32(rest[12:]),
			Serial:    binary.BigEndian.Uint32(rest[16:]),
			Status:    binary.BigEndian.Uint32(rest[20:]),
		}
		rxFrames.Inc()
		rxBytes.Add(uint64(total))
		payload := rest[headerLen:]
		if spec, ok := faultpoint.Default.Eval("rpc.recv"); ok {
			switch spec.Mode {
			case faultpoint.ModeDrop:
				faultsDropped.Inc()
				continue // reuse the buffer for the next frame
			case faultpoint.ModeCorrupt:
				corruptInPlace(payload) // the buffer is ours; flip in place
				faultsCorrupted.Inc()
			case faultpoint.ModeError:
				f.discard()
				if spec.Err != nil {
					return nil, spec.Err
				}
				return nil, fmt.Errorf("rpc: injected recv fault")
			}
		}
		f.Payload = payload
		return f, nil
	}
}

// ReadMessage receives one framed message, copying the payload out of
// the pooled buffer. Callers on hot paths should prefer ReadFrame +
// Release; this convenience form exists for tests and simple loops.
func (c *Conn) ReadMessage() (Header, []byte, error) {
	f, err := c.ReadFrame()
	if err != nil {
		return Header{}, nil, err
	}
	h := f.Header
	payload := make([]byte, len(f.Payload))
	copy(payload, f.Payload)
	f.Release()
	return h, payload, nil
}

// corruptCopy returns a bit-flipped copy of a payload; the original is
// left alone so callers retrying with the same buffer are unaffected.
func corruptCopy(payload []byte) []byte {
	if len(payload) == 0 {
		return payload
	}
	out := make([]byte, len(payload))
	copy(out, payload)
	corruptInPlace(out)
	return out
}

// corruptInPlace bit-flips a payload the caller owns.
func corruptInPlace(p []byte) {
	if len(p) == 0 {
		return
	}
	p[0] ^= 0xff
	p[len(p)/2] ^= 0xa5
	p[len(p)-1] ^= 0xff
}
