package rpc

import (
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

type inner struct {
	A uint32
	B string
}

type sample struct {
	Flag    bool
	I32     int32
	U32     uint32
	I64     int64
	U64     uint64
	N       int
	F       float64
	S       string
	Raw     []byte
	Strs    []string
	Nested  inner
	Inners  []inner
	private int // must be skipped
}

func TestXDRRoundTrip(t *testing.T) {
	in := sample{
		Flag: true, I32: -42, U32: 7, I64: -1 << 40, U64: 1 << 50,
		N: -9, F: 2.75, S: "hello world",
		Raw:    []byte{1, 2, 3},
		Strs:   []string{"a", "bb", "ccc"},
		Nested: inner{A: 1, B: "x"},
		Inners: []inner{{A: 2, B: "y"}, {A: 3, B: "z"}},
	}
	data, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out sample
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	in.private, out.private = 0, 0
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", in, out)
	}
}

func TestXDRAlignment(t *testing.T) {
	// Strings are padded to 4-byte boundaries.
	for _, s := range []string{"", "a", "ab", "abc", "abcd", "abcde"} {
		data, err := Marshal(struct{ S string }{s})
		if err != nil {
			t.Fatal(err)
		}
		if len(data)%4 != 0 {
			t.Fatalf("unaligned encoding for %q: %d bytes", s, len(data))
		}
		var out struct{ S string }
		if err := Unmarshal(data, &out); err != nil || out.S != s {
			t.Fatalf("%q: %v %q", s, err, out.S)
		}
	}
}

// recursive reaches itself through a slice, the only way a Go struct can.
type recursive struct {
	ID   uint32
	Kids []recursive
}

// TestXDRNoPlan: a value with no codec plan is refused by every entry
// point with the typed error naming the type and the compile reason —
// no panic, nothing appended to the caller's buffer.
func TestXDRNoPlan(t *testing.T) {
	for _, c := range []struct {
		name   string
		value  interface{} // for Marshal, AppendMarshal, MarshalSize
		target interface{} // for Unmarshal
		want   string
	}{
		{"nil", nil, nil, "xdr: no codec plan for <nil>: nil value"},
		{"non-struct", uint32(7), new(uint32), "xdr: no codec plan for uint32: not a struct"},
		{"chan field", struct{ C chan int }{}, &struct{ C chan int }{},
			"xdr: no codec plan for struct { C chan int }: unsupported kind chan at .C"},
		{"recursive", recursive{ID: 1}, &recursive{},
			"xdr: no codec plan for rpc.recursive: recursive type rpc.recursive"},
	} {
		t.Run(c.name, func(t *testing.T) {
			check := func(op string, err error) {
				t.Helper()
				var np *NoPlanError
				if !errors.As(err, &np) || err.Error() != c.want {
					t.Fatalf("%s: got %v, want NoPlanError %q", op, err, c.want)
				}
			}
			out, err := Marshal(c.value)
			check("Marshal", err)
			if out != nil {
				t.Fatalf("Marshal returned %d bytes beside the error", len(out))
			}
			buf := append(make([]byte, 0, 64), "head"...)
			out, err = AppendMarshal(buf, c.value)
			check("AppendMarshal", err)
			if out != nil || string(buf) != "head" {
				t.Fatalf("AppendMarshal touched the caller's buffer: out=%q buf=%q", out, buf)
			}
			check("Unmarshal", Unmarshal([]byte{0, 0, 0, 7}, c.target))
			if n := MarshalSize(c.value); n != 0 {
				t.Fatalf("MarshalSize = %d, want 0", n)
			}
			if c.target != nil {
				if n := MarshalSize(c.target); n != 0 {
					t.Fatalf("MarshalSize(pointer) = %d, want 0", n)
				}
			}
		})
	}
}

func TestXDRErrors(t *testing.T) {
	var nilPtr *sample
	if _, err := Marshal(nilPtr); err == nil {
		t.Fatal("nil pointer accepted")
	}
	if err := Unmarshal(nil, nil); err == nil {
		t.Fatal("nil target accepted")
	}
	var s sample
	if err := Unmarshal([]byte{1, 2}, &s); err == nil {
		t.Fatal("truncated input accepted")
	}
	// Trailing bytes rejected.
	data, _ := Marshal(struct{ A uint32 }{5})
	var out struct{ A uint32 }
	if err := Unmarshal(append(data, 0), &out); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Oversized array length rejected without allocation.
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	var arr struct{ V []uint32 }
	if err := Unmarshal(huge, &arr); err == nil {
		t.Fatal("oversized array accepted")
	}
	// Bad bool value.
	bad, _ := Marshal(struct{ A uint32 }{7})
	var b struct{ B bool }
	if err := Unmarshal(bad, &b); err == nil {
		t.Fatal("bool=7 accepted")
	}
}

func TestXDRQuickRoundTrip(t *testing.T) {
	f := func(flag bool, i32 int32, u64 uint64, f64 float64, s string, raw []byte) bool {
		if len(s) > MaxStringLen || len(raw) > MaxStringLen {
			return true
		}
		in := struct {
			Flag bool
			I32  int32
			U64  uint64
			F    float64
			S    string
			Raw  []byte
		}{flag, i32, u64, f64, s, raw}
		data, err := Marshal(&in)
		if err != nil {
			return false
		}
		out := in
		out.Raw = nil
		if err := Unmarshal(data, &out); err != nil {
			return false
		}
		if len(in.Raw) == 0 && len(out.Raw) == 0 {
			out.Raw = in.Raw
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFramingRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	h := Header{Program: ProgramRemote, Version: 1, Procedure: 7, Type: uint32(TypeCall), Serial: 3}
	payload := []byte("payload-bytes")
	done := make(chan error, 1)
	go func() { done <- ca.WriteMessage(h, payload) }()
	gh, gp, err := cb.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if gh != h || string(gp) != string(payload) {
		t.Fatalf("got %+v %q", gh, gp)
	}
}

func TestFramingRejectsOversize(t *testing.T) {
	a, _ := net.Pipe()
	ca := NewConn(a)
	big := make([]byte, MaxMessageLen)
	if err := ca.WriteMessage(Header{}, big); err == nil {
		t.Fatal("oversized write accepted")
	}
}

// echoServer implements a minimal server: proc 1 echoes the payload,
// proc 2 returns an error, proc 3 emits an event then replies.
func echoServer(t *testing.T, nc net.Conn) {
	t.Helper()
	conn := NewConn(nc)
	go func() {
		for {
			h, payload, err := conn.ReadMessage()
			if err != nil {
				return
			}
			switch h.Procedure {
			case 1:
				h.Type = uint32(TypeReply)
				h.Status = uint32(StatusOK)
				conn.WriteMessage(h, payload) //nolint:errcheck
			case 2:
				h.Type = uint32(TypeReply)
				h.Status = uint32(StatusError)
				ep, _ := Marshal(&ErrorPayload{Code: 42, Message: "nope"})
				conn.WriteMessage(h, ep) //nolint:errcheck
			case 3:
				ev := Header{Program: h.Program, Version: 1, Procedure: 99, Type: uint32(TypeEvent)}
				conn.WriteMessage(ev, []byte{}) //nolint:errcheck
				h.Type = uint32(TypeReply)
				conn.WriteMessage(h, []byte{}) //nolint:errcheck
			}
		}
	}()
}

func TestClientCall(t *testing.T) {
	a, b := net.Pipe()
	echoServer(t, b)
	cl := NewClient(a, ProgramRemote, nil)
	defer cl.Close()

	type msg struct{ S string }
	var out msg
	if err := cl.Call(1, &msg{S: "ping"}, &out); err != nil {
		t.Fatal(err)
	}
	if out.S != "ping" {
		t.Fatalf("echo %q", out.S)
	}
	err := cl.Call(2, &msg{S: "x"}, nil)
	re, ok := err.(*RemoteError)
	if !ok || re.Code != 42 || re.Message != "nope" {
		t.Fatalf("error call: %v", err)
	}
}

func TestClientConcurrentCalls(t *testing.T) {
	a, b := net.Pipe()
	echoServer(t, b)
	cl := NewClient(a, ProgramRemote, nil)
	defer cl.Close()
	type msg struct{ S string }
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				in := msg{S: strings.Repeat("x", id+1)}
				var out msg
				if err := cl.Call(1, &in, &out); err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if out.S != in.S {
					t.Errorf("mismatched echo")
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestClientEvents(t *testing.T) {
	a, b := net.Pipe()
	echoServer(t, b)
	got := make(chan uint32, 1)
	cl := NewClient(a, ProgramRemote, func(proc uint32, _ []byte) { got <- proc })
	defer cl.Close()
	if err := cl.Call(3, nil, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case proc := <-got:
		if proc != 99 {
			t.Fatalf("event proc %d", proc)
		}
	case <-time.After(time.Second):
		t.Fatal("no event delivered")
	}
}

func TestClientConnectionLoss(t *testing.T) {
	a, b := net.Pipe()
	cl := NewClient(a, ProgramRemote, nil)
	done := make(chan error, 1)
	go func() { done <- cl.Call(1, nil, nil) }()
	// Give the call a moment to register, then sever.
	time.Sleep(10 * time.Millisecond)
	b.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call survived connection loss")
		}
	case <-time.After(time.Second):
		t.Fatal("call hung after connection loss")
	}
	// Subsequent calls fail fast.
	if err := cl.Call(1, nil, nil); err == nil {
		t.Fatal("call on dead client accepted")
	}
}

func TestClientCloseRejectsCalls(t *testing.T) {
	a, b := net.Pipe()
	echoServer(t, b)
	cl := NewClient(a, ProgramRemote, nil)
	cl.Close()
	if err := cl.Call(1, nil, nil); err == nil {
		t.Fatal("call after close accepted")
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
