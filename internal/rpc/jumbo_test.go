package rpc

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/memnet"
)

var jumboHdr = Header{Program: ProgramRemote, Version: ProtocolVersion, Procedure: 9, Type: uint32(TypeReply), Serial: 3}

// patterned returns n bytes no two neighbours of which are equal, so a
// shifted or truncated copy never compares equal.
func patterned(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i>>8)
	}
	return p
}

// streamConn is memConn over any reader.
type streamConn struct {
	memConn
	r io.Reader
}

func (c *streamConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// looping replays one byte string for ever.
type looping struct {
	data []byte
	off  int
}

func (l *looping) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}

func spareCap(c *Conn) int {
	c.rspare.mu.Lock()
	defer c.rspare.mu.Unlock()
	return cap(c.rspare.buf)
}

// TestJumboReadReusesSpare: 100 KB frames read in a loop land in the
// connection's one spare after the first — nothing frame-sized is
// allocated per frame, which is what a bulk monitoring reply costs the
// client otherwise.
func TestJumboReadReusesSpare(t *testing.T) {
	payload := patterned(100_000)
	frame := rawFrame(jumboHdr, payload, frameOverhead+len(payload))
	conn := NewConn(&streamConn{r: &looping{data: frame}})
	read := func() {
		f, err := conn.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.Header != jumboHdr || !bytes.Equal(f.Payload, payload) {
			t.Fatal("jumbo frame decoded wrong")
		}
		f.Release()
	}
	read()
	if got := spareCap(conn); got < len(payload) {
		t.Fatalf("spare holds %d bytes after a released 100 KB frame", got)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(50, read)
	runtime.ReadMemStats(&m1)
	if perFrame := (m1.TotalAlloc - m0.TotalAlloc) / 51; allocs > 1 || perFrame > 1024 {
		t.Fatalf("steady-state jumbo read: %.1f allocs, %d B per frame, want <= 1 and <= 1 KiB", allocs, perFrame)
	}
}

// TestJumboSpareLifetime: the spare survives a short run of small
// frames, is dropped by a run of jumboIdleRun of them, is not taken
// back from a frame released after such a run, and never keeps the
// buffer of a frame whose read failed.
func TestJumboSpareLifetime(t *testing.T) {
	payload := patterned(100_000)
	jumbo := rawFrame(jumboHdr, payload, frameOverhead+len(payload))
	small := rawFrame(jumboHdr, []byte("ping"), frameOverhead+4)
	var stream bytes.Buffer
	conn := NewConn(&streamConn{r: &stream})
	next := func() *Frame {
		t.Helper()
		f, err := conn.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	smalls := func(n int) {
		for i := 0; i < n; i++ {
			stream.Write(small)
			next().Release()
		}
	}

	stream.Write(jumbo)
	next().Release()
	smalls(jumboIdleRun - 1)
	if spareCap(conn) == 0 {
		t.Fatalf("spare dropped after %d small frames, before the run of %d", jumboIdleRun-1, jumboIdleRun)
	}
	smalls(1)
	if got := spareCap(conn); got != 0 {
		t.Fatalf("spare of %d bytes still pinned after %d small frames", got, jumboIdleRun)
	}

	stream.Write(jumbo)
	held := next()
	smalls(jumboIdleRun)
	held.Release()
	if got := spareCap(conn); got != 0 {
		t.Fatalf("a frame released after the idle run left %d bytes pinned", got)
	}

	// A parked spare is taken for the next jumbo frame; when that read
	// fails (the stream ends mid-payload) nothing is put back.
	stream.Write(jumbo)
	next().Release()
	if spareCap(conn) == 0 {
		t.Fatal("no spare parked before the failed read")
	}
	stream.Write(jumbo[:len(jumbo)/2])
	if _, err := conn.ReadFrame(); err == nil {
		t.Fatal("truncated jumbo frame read without error")
	}
	if got := spareCap(conn); got != 0 {
		t.Fatalf("failed read left %d bytes pinned", got)
	}
}

// captureConn records what is written to it, and how.
type captureConn struct {
	memConn
	out    bytes.Buffer
	writes int
	fail   error // returned by every Write when set
}

func (c *captureConn) Write(p []byte) (int, error) {
	c.writes++
	if c.fail != nil {
		return 0, c.fail
	}
	return c.out.Write(p)
}

// framesIn decodes every frame of a captured byte stream.
func framesIn(t *testing.T, stream []byte) (headers []Header, payloads [][]byte) {
	t.Helper()
	conn := NewConn(&memConn{r: bytes.NewReader(stream)})
	for {
		h, p, err := conn.ReadMessage()
		if err == io.EOF {
			return headers, payloads
		}
		if err != nil {
			t.Fatalf("captured stream does not parse: %v", err)
		}
		headers, payloads = append(headers, h), append(payloads, p)
	}
}

// TestJumboWriteMatchesSmall: a payload sent behind its header (jumbo)
// is on the wire, in the counters and under every rpc.send fault
// exactly what a payload copied behind its header (small) is.
func TestJumboWriteMatchesSmall(t *testing.T) {
	injected := errors.New("injected")
	type outcome struct {
		sendErr   bool // the faulted WriteMessage returned an error
		onWire    int  // frames that reached the peer, of two sent
		corrupted bool // the first of them is the bit-flipped payload
	}
	modes := []struct {
		name string
		spec *faultpoint.Spec
		want outcome
	}{
		{"clean", nil, outcome{onWire: 2}},
		{"drop", &faultpoint.Spec{Mode: faultpoint.ModeDrop, Prob: 1, Limit: 1}, outcome{onWire: 1}},
		{"corrupt", &faultpoint.Spec{Mode: faultpoint.ModeCorrupt, Prob: 1, Limit: 1}, outcome{onWire: 2, corrupted: true}},
		{"error", &faultpoint.Spec{Mode: faultpoint.ModeError, Prob: 1, Limit: 1, Err: injected}, outcome{sendErr: true, onWire: 1}},
	}
	for _, size := range []int{1000, 100_000} {
		for _, m := range modes {
			payload := patterned(size)
			keep := bytes.Clone(payload)
			cc := &captureConn{}
			conn := NewConn(cc)
			if m.spec != nil {
				faultpoint.Default.Set("rpc.send", *m.spec)
				faultpoint.Default.Arm(1)
			}
			frames0, bytes0 := txFrames.Value(), txBytes.Value()
			first := conn.WriteMessage(jumboHdr, payload)
			second := conn.WriteMessage(jumboHdr, payload)
			faultpoint.Default.Disarm()

			if (first != nil) != m.want.sendErr || (m.want.sendErr && !errors.Is(first, injected)) || second != nil {
				t.Fatalf("%d B, %s: WriteMessage returned %v then %v", size, m.name, first, second)
			}
			if !bytes.Equal(payload, keep) {
				t.Fatalf("%d B, %s: the caller's payload was modified", size, m.name)
			}
			headers, payloads := framesIn(t, cc.out.Bytes())
			if len(headers) != m.want.onWire {
				t.Fatalf("%d B, %s: %d frames on the wire, want %d", size, m.name, len(headers), m.want.onWire)
			}
			for i := range headers {
				want := payload
				if i == 0 && m.want.corrupted {
					want = corruptCopy(payload)
				}
				if headers[i] != jumboHdr || !bytes.Equal(payloads[i], want) {
					t.Fatalf("%d B, %s: frame %d differs from what was sent", size, m.name, i)
				}
			}
			sent := uint64(m.want.onWire)
			if df, db := txFrames.Value()-frames0, txBytes.Value()-bytes0; df != sent || db != sent*uint64(frameOverhead+size) {
				t.Fatalf("%d B, %s: counted %d frames, %d bytes for %d frames of %d bytes",
					size, m.name, df, db, sent, frameOverhead+size)
			}
			// Small: one write per frame. Jumbo: header, then payload.
			per := 1
			if frameOverhead+size > maxPooledFrame {
				per = 2
			}
			if cc.writes != per*m.want.onWire {
				t.Fatalf("%d B, %s: %d writes for %d frames", size, m.name, cc.writes, m.want.onWire)
			}
		}
	}
}

// TestJumboWriteErrors: a jumbo frame whose header cannot be written
// sends no payload after it.
func TestJumboWriteErrors(t *testing.T) {
	boom := errors.New("boom")
	cc := &captureConn{fail: boom}
	conn := NewConn(cc)
	if err := conn.WriteMessage(jumboHdr, patterned(100_000)); !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	if cc.writes != 1 {
		t.Fatalf("%d writes after a failed header write, want 1", cc.writes)
	}
}

// TestJumboOverMemnet: memnet carries the header and the payload of a
// jumbo frame as the two writes they are.
func TestJumboOverMemnet(t *testing.T) {
	ln, err := memnet.Listen("rpc-jumbo-test")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck
	payload := patterned(300_000)
	sent := make(chan error, 1)
	go func() {
		nc, err := memnet.Dial("rpc-jumbo-test")
		if err != nil {
			sent <- err
			return
		}
		defer nc.Close() //nolint:errcheck
		conn := NewConn(nc)
		for i := 0; i < 3 && err == nil; i++ {
			err = conn.WriteMessage(jumboHdr, payload)
		}
		sent <- err
	}()
	nc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close() //nolint:errcheck
	conn := NewConn(nc)
	for i := 0; i < 3; i++ {
		f, err := conn.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.Header != jumboHdr || !bytes.Equal(f.Payload, payload) {
			t.Fatalf("frame %d arrived changed", i)
		}
		f.Release()
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// keepaliveLoops counts the goroutines running a client's keepalive
// loop, and returns every goroutine's stack for a failure message.
func keepaliveLoops() (int, []byte) {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("startKeepalive.func1")), buf
}

// TestKeepaliveExitsOnClose: the probing goroutine of a closed client
// is gone at once, not at its next tick — 50 clients with a 5 s
// interval leave no keepalive loop behind within 2 s of Close. Other
// tests' goroutines do not count, so a shuffled order cannot fail it.
func TestKeepaliveExitsOnClose(t *testing.T) {
	var peers []net.Conn
	var clients []*Client
	for i := 0; i < 50; i++ {
		a, b := net.Pipe()
		peers = append(peers, b)
		clients = append(clients, NewClientKeepalive(a, ProgramRemote, nil, KeepaliveConfig{Interval: 5 * time.Second, Count: 3}))
	}
	if n, _ := keepaliveLoops(); n < 50 {
		t.Fatalf("%d keepalive loops for 50 open clients: keepalive is not running", n)
	}
	for i, c := range clients {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		peers[i].Close() //nolint:errcheck
	}
	// Well under the 5 s tick: a loop that is gone by then left on Close.
	deadline := time.Now().Add(2 * time.Second)
	for {
		n, stacks := keepaliveLoops()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d keepalive loops 2 s after Close:\n%s", n, stacks)
		}
		time.Sleep(time.Millisecond)
	}
}
