package rpc

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// fixedInfo mirrors the shape of a typical monitoring reply: fixed-width
// fields only, the steady-state hot path of the protocol.
type fixedInfo struct {
	State     uint32
	MaxMemKiB uint64
	MemKiB    uint64
	VCPUs     uint32
	CPUTimeNs uint64
}

// TestPlanMatchesReflect is the differential gate for the compiled
// codec: every encoding must be byte-identical to the reflective
// reference implementation, and both decoders must agree.
func TestPlanMatchesReflect(t *testing.T) {
	cases := []interface{}{
		&fixedInfo{State: 1, MaxMemKiB: 1 << 40, MemKiB: 12345, VCPUs: 8, CPUTimeNs: math.MaxUint64},
		&sample{
			Flag: true, I32: -42, U32: 7, I64: -1 << 40, U64: 1 << 50,
			N: -9, F: 2.75, S: "hello world",
			Raw:    []byte{1, 2, 3},
			Strs:   []string{"a", "bb", "ccc"},
			Nested: inner{A: 1, B: "x"},
			Inners: []inner{{A: 2, B: "y"}, {A: 3, B: "z"}},
		},
		&sample{}, // zero values: empty strings, nil slices
		&struct{ S string }{"abc"},
		&struct{ V []uint64 }{[]uint64{1, 2, 3}},
		&struct{ B []byte }{},
	}
	for i, v := range cases {
		fast, err := Marshal(v)
		if err != nil {
			t.Fatalf("case %d: Marshal: %v", i, err)
		}
		ref, err := MarshalReflect(v)
		if err != nil {
			t.Fatalf("case %d: MarshalReflect: %v", i, err)
		}
		if !bytes.Equal(fast, ref) {
			t.Fatalf("case %d: encodings differ:\nfast %x\nref  %x", i, fast, ref)
		}
		out1 := reflect.New(reflect.TypeOf(v).Elem()).Interface()
		out2 := reflect.New(reflect.TypeOf(v).Elem()).Interface()
		if err := Unmarshal(fast, out1); err != nil {
			t.Fatalf("case %d: Unmarshal: %v", i, err)
		}
		if err := UnmarshalReflect(fast, out2); err != nil {
			t.Fatalf("case %d: UnmarshalReflect: %v", i, err)
		}
		if !reflect.DeepEqual(out1, out2) {
			t.Fatalf("case %d: decoders disagree:\n%+v\n%+v", i, out1, out2)
		}
	}
}

// TestPlanQuickEquality fuzzes random values through both encoders and
// decoders; any divergence is a bug in the compiled plan.
func TestPlanQuickEquality(t *testing.T) {
	f := func(flag bool, i32 int32, u64 uint64, f64 float64, s string, raw []byte, strs []string) bool {
		if len(s) > MaxStringLen || len(raw) > MaxStringLen || len(strs) > MaxArrayLen {
			return true
		}
		for _, e := range strs {
			if len(e) > MaxStringLen {
				return true
			}
		}
		in := struct {
			Flag bool
			I32  int32
			U64  uint64
			F    float64
			S    string
			Raw  []byte
			Strs []string
		}{flag, i32, u64, f64, s, raw, strs}
		fast, err := Marshal(&in)
		if err != nil {
			return false
		}
		ref, err := MarshalReflect(&in)
		if err != nil || !bytes.Equal(fast, ref) {
			return false
		}
		out1, out2 := in, in
		out1.Raw, out1.Strs = nil, nil
		out2.Raw, out2.Strs = nil, nil
		if err := Unmarshal(fast, &out1); err != nil {
			return false
		}
		if err := UnmarshalReflect(fast, &out2); err != nil {
			return false
		}
		return reflect.DeepEqual(out1, out2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestMarshalAllocs is the allocation regression gate: marshalling a
// fixed-width wire struct must cost at most the output buffer (1 alloc),
// and appending into a pre-sized buffer must cost nothing.
func TestMarshalAllocs(t *testing.T) {
	v := &fixedInfo{State: 1, MaxMemKiB: 1 << 21, MemKiB: 1 << 20, VCPUs: 4, CPUTimeNs: 5e9}
	if _, err := Marshal(v); err != nil { // warm the plan cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Marshal(v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Marshal of fixed struct: %.1f allocs/op, want <= 1", allocs)
	}

	buf := make([]byte, 0, 256)
	allocs = testing.AllocsPerRun(200, func() {
		out, err := AppendMarshal(buf[:0], v)
		if err != nil {
			t.Fatal(err)
		}
		_ = out
	})
	if allocs != 0 {
		t.Fatalf("AppendMarshal into sized buffer: %.1f allocs/op, want 0", allocs)
	}
}

// TestDecodeReuse pins the steady-state decode contract: unmarshalling
// over a retained value reuses slice capacity (same backing array) and
// keeps strings whose bytes did not change, while still producing
// exactly the encoded value — including shrinking and growing rows.
func TestDecodeReuse(t *testing.T) {
	type row struct {
		Name string
		N    uint64
	}
	type payload struct{ Rows []row }
	enc := func(p *payload) []byte {
		t.Helper()
		data, err := Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first := payload{Rows: []row{{"alpha", 1}, {"beta", 2}, {"gamma", 3}}}
	var dst payload
	if err := Unmarshal(enc(&first), &dst); err != nil {
		t.Fatal(err)
	}
	base := &dst.Rows[0]
	name0 := dst.Rows[0].Name

	// Same names, new numbers: backing array and strings must survive.
	second := payload{Rows: []row{{"alpha", 10}, {"beta", 20}, {"gamma", 30}}}
	allocs := testing.AllocsPerRun(100, func() {
		if err := Unmarshal(enc(&second), &dst); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(dst, second) {
		t.Fatalf("reused decode diverged: %+v", dst)
	}
	if &dst.Rows[0] != base {
		t.Fatal("decode with sufficient capacity reallocated the slice")
	}
	if unsafeStringData(dst.Rows[0].Name) != unsafeStringData(name0) {
		t.Fatal("unchanged name was reallocated")
	}
	// Marshal of the source is ~1 alloc; the reused decode itself must
	// add nothing beyond it.
	if allocs > 1 {
		t.Fatalf("steady-state reuse decode: %.1f allocs/op, want <= 1", allocs)
	}

	// Shrink: fewer rows must adjust len and keep values exact.
	third := payload{Rows: []row{{"delta", 9}}}
	if err := Unmarshal(enc(&third), &dst); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst, third) {
		t.Fatalf("shrinking decode diverged: %+v", dst)
	}
	// Grow beyond capacity: a fresh array, values exact.
	fourth := payload{Rows: []row{{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}, {"e", 5}}}
	if err := Unmarshal(enc(&fourth), &dst); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst, fourth) {
		t.Fatalf("growing decode diverged: %+v", dst)
	}
}

func unsafeStringData(s string) *byte { return unsafe.StringData(s) }

// TestSerialWraparound seeds the serial counter just below overflow and
// drives calls across the wrap: serial 0 must never be assigned, and a
// serial still pending from before the wrap must be skipped, not stolen.
func TestSerialWraparound(t *testing.T) {
	a, b := net.Pipe()
	echoServer(t, b)
	cl := NewClient(a, ProgramRemote, nil)
	defer cl.Close()

	cl.serial.Store(math.MaxUint32 - 2)

	// Park a fake pending call on serial 1 — the first serial after the
	// wrap — so register must skip it.
	blocked := make(chan reply, 1)
	sh := cl.shard(1)
	sh.mu.Lock()
	sh.m[1] = blocked
	sh.mu.Unlock()

	type msg struct{ S string }
	for i := 0; i < 8; i++ {
		var out msg
		in := msg{S: fmt.Sprintf("wrap-%d", i)}
		if err := cl.Call(1, &in, &out); err != nil {
			t.Fatalf("call %d across wraparound: %v", i, err)
		}
		if out.S != in.S {
			t.Fatalf("call %d: echo %q != %q", i, out.S, in.S)
		}
	}

	// The parked entry survived untouched and serial 0 was never used.
	sh.mu.Lock()
	ch, still := sh.m[1]
	sh.mu.Unlock()
	if !still || ch != blocked {
		t.Fatal("pending serial 1 was reassigned across wraparound")
	}
	sh0 := cl.shard(0)
	sh0.mu.Lock()
	_, zero := sh0.m[0]
	sh0.mu.Unlock()
	if zero {
		t.Fatal("serial 0 was assigned")
	}
	select {
	case <-blocked:
		t.Fatal("parked call received a stolen reply")
	default:
	}
}

// pongFailConn fails every write once tripped, simulating a connection
// whose write side died while the read side still delivers.
type pongFailConn struct {
	net.Conn
	fail atomic.Bool
}

func (c *pongFailConn) Write(p []byte) (int, error) {
	if c.fail.Load() {
		return 0, fmt.Errorf("injected write failure")
	}
	return c.Conn.Write(p)
}

// TestPongWriteFailureTearsDown drives server pings at a client whose
// writes fail: after maxPongWriteFailures consecutive failed pongs the
// client must close itself instead of looping silently.
func TestPongWriteFailureTearsDown(t *testing.T) {
	a, b := net.Pipe()
	fc := &pongFailConn{Conn: a}
	cl := NewClient(fc, ProgramRemote, nil)
	defer cl.Close()

	before := pongWriteFails.Value()
	fc.fail.Store(true)

	srv := NewConn(b)
	ping := Header{Program: ProgramRemote, Version: ProtocolVersion, Type: uint32(TypePing)}
	for i := 0; i < maxPongWriteFailures; i++ {
		if err := srv.WriteMessage(ping, nil); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}

	deadline := time.After(2 * time.Second)
	for !cl.closed.Load() {
		select {
		case <-deadline:
			t.Fatal("client did not tear down after persistent pong failures")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if got := pongWriteFails.Value() - before; got < maxPongWriteFailures {
		t.Fatalf("pong write failures counted %d, want >= %d", got, maxPongWriteFailures)
	}
	if err := cl.Call(1, nil, nil); err == nil {
		t.Fatal("call on torn-down client accepted")
	}
}
