package rpc

import (
	"bytes"
	"encoding/binary"
	"net"
	"reflect"
	"testing"
	"time"
)

// FuzzUnmarshalStats feeds arbitrary bytes into the XDR decoder against
// a representative reply structure: decoding must never panic or
// over-allocate, only return errors.
func FuzzUnmarshalStats(f *testing.F) {
	type statsLike struct {
		State  uint32
		CPU    uint64
		Names  []string
		Raw    []byte
		Flag   bool
		Amount float64
	}
	seed, err := Marshal(&statsLike{State: 3, CPU: 42, Names: []string{"a", "b"}, Raw: []byte{1}, Flag: true, Amount: 2.5})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var out statsLike
		_ = Unmarshal(data, &out) // must not panic
		if len(out.Raw) > MaxStringLen || len(out.Names) > MaxArrayLen {
			t.Fatalf("decoder exceeded limits: raw=%d names=%d", len(out.Raw), len(out.Names))
		}
	})
}

// FuzzRoundTrip checks that whatever the decoder accepts re-encodes to
// an equivalent value (decode∘encode∘decode is stable), and that the
// connection's recent-string table cannot be observed: each input is
// also decoded twice through one Conn, which carries its table from
// input to input, and must read exactly as package Unmarshal does.
func FuzzRoundTrip(f *testing.F) {
	type msg struct {
		A uint32
		S string
		B []byte
		N []string
	}
	seed, _ := Marshal(&msg{A: 7, S: "x", B: []byte{9}, N: []string{"x", "vm01", "vm02"}})
	f.Add(seed)
	conn := new(Conn)
	f.Fuzz(func(t *testing.T, data []byte) {
		var first msg
		err := Unmarshal(data, &first)
		for i := 0; i < 2; i++ {
			var viaConn msg
			cerr := conn.Unmarshal(data, &viaConn)
			if (cerr == nil) != (err == nil) || (err == nil && !reflect.DeepEqual(viaConn, first)) {
				t.Fatalf("Conn.Unmarshal %+v (%v), Unmarshal %+v (%v)", viaConn, cerr, first, err)
			}
		}
		if err != nil {
			return
		}
		re, err := Marshal(&first)
		if err != nil {
			t.Fatalf("re-encode of accepted value failed: %v", err)
		}
		var second msg
		if err := Unmarshal(re, &second); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("unstable round trip: %+v vs %+v", first, second)
		}
	})
}

// memConn is a net.Conn over an in-memory byte stream: reads come from a
// fixed buffer (then EOF), writes are discarded. Just enough transport
// for frame-decoder fuzzing without sockets.
type memConn struct {
	r *bytes.Reader
}

func (c *memConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *memConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *memConn) Close() error                     { return nil }
func (c *memConn) LocalAddr() net.Addr              { return &net.UnixAddr{Name: "mem", Net: "unix"} }
func (c *memConn) RemoteAddr() net.Addr             { return &net.UnixAddr{Name: "mem", Net: "unix"} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// rawFrame hand-assembles one wire frame: 4-byte total length, 24-byte
// header, payload. Building it manually (instead of via WriteMessage)
// lets seeds declare lengths that lie.
func rawFrame(h Header, payload []byte, declared int) []byte {
	buf := make([]byte, 4+headerLen+len(payload))
	binary.BigEndian.PutUint32(buf[0:], uint32(declared))
	binary.BigEndian.PutUint32(buf[4:], h.Program)
	binary.BigEndian.PutUint32(buf[8:], h.Version)
	binary.BigEndian.PutUint32(buf[12:], h.Procedure)
	binary.BigEndian.PutUint32(buf[16:], h.Type)
	binary.BigEndian.PutUint32(buf[20:], h.Serial)
	binary.BigEndian.PutUint32(buf[24:], h.Status)
	copy(buf[4+headerLen:], payload)
	return buf
}

// FuzzReadMessage feeds arbitrary byte streams into the frame decoder:
// truncated frames, oversized or lying length prefixes, garbage headers,
// and multi-frame runs. The decoder must only ever return clean errors —
// no panics, no allocation beyond MaxMessageLen, no infinite loop.
func FuzzReadMessage(f *testing.F) {
	okHdr := Header{Program: ProgramRemote, Version: ProtocolVersion, Procedure: 3, Type: uint32(TypeCall), Serial: 7}
	valid := rawFrame(okHdr, []byte("payload"), 4+headerLen+7)
	f.Add(valid)
	f.Add(append(valid, valid...))                         // two back-to-back frames
	f.Add(valid[:9])                                       // truncated mid-header
	f.Add(rawFrame(okHdr, nil, MaxMessageLen+1))           // oversized declared length
	f.Add(rawFrame(okHdr, nil, 3))                         // under-length (< frame floor)
	f.Add(rawFrame(okHdr, []byte("xx"), 4+headerLen+2000)) // length lies long: truncated body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xde, 0xad})      // hostile length word
	f.Add(bytes.Repeat([]byte{0x00}, 64))                  // zero spray
	f.Fuzz(func(t *testing.T, data []byte) {
		conn := NewConn(&memConn{r: bytes.NewReader(data)})
		// Drain the stream: each iteration consumes at least the length
		// word, so the loop is bounded by len(data).
		for {
			h, payload, err := conn.ReadMessage()
			if err != nil {
				return
			}
			if len(payload) > MaxMessageLen {
				t.Fatalf("decoder returned %d-byte payload past MaxMessageLen", len(payload))
			}
			_ = h
		}
	})
}
