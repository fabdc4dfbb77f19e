package rpc

import (
	"net"
	"testing"
	"time"
)

// pongServer answers pings and proc-1 calls. With stamp set it answers
// a ping with a fake pong instead: stamp records the client's receipt.
func pongServer(nc net.Conn, stamp func()) {
	conn := NewConn(nc)
	go func() {
		for {
			h, payload, err := conn.ReadMessage()
			if err != nil {
				return
			}
			switch MsgType(h.Type) {
			case TypePing:
				if stamp != nil {
					stamp()
					continue
				}
				h.Type = uint32(TypePong)
				conn.WriteMessage(h, nil) //nolint:errcheck
			case TypeCall:
				h.Type = uint32(TypeReply)
				conn.WriteMessage(h, payload) //nolint:errcheck
			}
		}
	}()
}

// TestKeepaliveHealthyPeerStaysUp: a peer that answers every ping keeps
// an idle connection up for many intervals, whatever the miss budget.
// An answered ping is never a miss, however late the next tick runs. The
// last row stamps each pong one interval before the peer read the ping,
// at or before the tick that sent it: the next tick finds it a full
// interval old, as after a zero round trip, with no scheduler luck.
func TestKeepaliveHealthyPeerStaysUp(t *testing.T) {
	const interval = 10 * time.Millisecond
	for _, tc := range []struct {
		name    string
		count   int
		stamped bool
	}{
		{"count 50", 50, false},
		{"count 5", 5, false},
		{"count 2", 2, false},
		{"pong stamped at the tick", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			a, b := net.Pipe()
			cl := NewClientKeepalive(a, ProgramRemote, nil, KeepaliveConfig{Interval: interval, Count: tc.count})
			defer cl.Close()
			var stamp func()
			if tc.stamped {
				stamp = func() { cl.lastRx.Store(time.Now().Add(-interval).UnixNano()) }
			}
			pongServer(b, stamp)
			time.Sleep(300 * time.Millisecond)
			if err := cl.Call(1, nil, nil); err != nil {
				t.Fatalf("healthy connection was torn down: %v", err)
			}
		})
	}
}

func TestKeepaliveDetectsDeadPeer(t *testing.T) {
	a, b := net.Pipe()
	// Peer reads and discards everything: alive at TCP level, dead at
	// protocol level — the case keepalive exists for.
	go func() {
		conn := NewConn(b)
		for {
			if _, _, err := conn.ReadMessage(); err != nil {
				return
			}
		}
	}()
	cl := NewClientKeepalive(a, ProgramRemote, nil, KeepaliveConfig{
		Interval: 10 * time.Millisecond, Count: 2,
	})
	defer cl.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := cl.Call(1, nil, nil); err != nil {
			return // connection declared dead
		}
		if time.Now().After(deadline) {
			t.Fatal("dead peer never detected")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestKeepaliveClientAnswersServerProbes(t *testing.T) {
	a, b := net.Pipe()
	cl := NewClient(a, ProgramRemote, nil)
	defer cl.Close()
	conn := NewConn(b)
	if err := conn.WriteMessage(Header{Program: ProgramRemote, Type: uint32(TypePing)}, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan Header, 1)
	go func() {
		h, _, err := conn.ReadMessage()
		if err == nil {
			done <- h
		}
	}()
	select {
	case h := <-done:
		if MsgType(h.Type) != TypePong {
			t.Fatalf("got type %d, want pong", h.Type)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("client never answered ping")
	}
}

func TestKeepaliveConfigValid(t *testing.T) {
	if (KeepaliveConfig{}).Valid() {
		t.Fatal("zero config valid")
	}
	if (KeepaliveConfig{Interval: time.Second}).Valid() {
		t.Fatal("count-less config valid")
	}
	if !(KeepaliveConfig{Interval: time.Second, Count: 1}).Valid() {
		t.Fatal("proper config invalid")
	}
}
