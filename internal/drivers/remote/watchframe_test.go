package remote

import (
	"net"
	"testing"

	"repro/internal/events"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// frameRec is one delivery the watch handler saw.
type frameRec struct {
	ev  events.Event
	gap bool
}

// watchFrameConn builds a client connection, its rpc client on an idle
// pipe, with one registered watch stream and returns the delivery log
// the handler appends to.
func watchFrameConn(t *testing.T, subID int32) (*Conn, *[]frameRec) {
	t.Helper()
	var log []frameRec
	a, b := net.Pipe()
	client := rpc.NewClient(a, rpc.ProgramRemote, nil)
	t.Cleanup(func() { client.Close(); b.Close() })
	c := &Conn{client: client, watches: map[int32]*watchSub{}}
	ws := &watchSub{conn: c, id: subID}
	ws.handler = func(ev events.Event, gap bool) {
		log = append(log, frameRec{ev, gap})
	}
	c.watches[subID] = ws
	return c, &log
}

func watchFrame(t *testing.T, ev wire.WatchEvent) []byte {
	t.Helper()
	payload, err := rpc.Marshal(&ev)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestWatchFrameMalformed feeds undecodable and misrouted payloads
// through the client-side event dispatcher: nothing may panic, nothing
// may reach a handler, and a subsequent valid frame must still be
// tracked correctly (the junk leaves no sequence damage of its own).
func TestWatchFrameMalformed(t *testing.T) {
	c, log := watchFrameConn(t, 1)
	for _, payload := range [][]byte{
		nil,
		{0x01},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		make([]byte, 512), // zero spray: decodes id 0, no such stream
	} {
		c.handleEvent(wire.ProcEventWatch, payload)
	}
	// Frame for a subscription that does not exist: dropped silently.
	c.handleEvent(wire.ProcEventWatch, watchFrame(t, wire.WatchEvent{
		SubscriptionID: 99, Seq: 1, Type: uint32(events.EventStarted), Domain: "x",
	}))
	if len(*log) != 0 {
		t.Fatalf("junk frames reached the handler: %+v", *log)
	}
	// The stream itself is undamaged: seq 1 arrives as a clean first
	// frame, no gap.
	c.handleEvent(wire.ProcEventWatch, watchFrame(t, wire.WatchEvent{
		SubscriptionID: 1, Seq: 1, Type: uint32(events.EventStarted), Domain: "web",
	}))
	if len(*log) != 1 || (*log)[0].gap || (*log)[0].ev.Domain != "web" {
		t.Fatalf("valid frame after junk mishandled: %+v", *log)
	}
}

// TestWatchFrameGapDetection walks the sequence rules: contiguous
// frames deliver without gap, a jump flags one, a first frame above 1
// is already a gap (events lost before the client saw any), heartbeats
// confirming the last sequence are absorbed, and heartbeats revealing a
// lost tail deliver with gap set and no event payload.
func TestWatchFrameGapDetection(t *testing.T) {
	c, log := watchFrameConn(t, 7)
	send := func(seq uint64, typ events.Type) {
		c.handleEvent(wire.ProcEventWatch, watchFrame(t, wire.WatchEvent{
			SubscriptionID: 7, Seq: seq, Type: uint32(typ), Domain: "d",
		}))
	}
	hb := func(seq uint64) {
		c.handleEvent(wire.ProcEventWatch, watchFrame(t, wire.WatchEvent{
			SubscriptionID: 7, Seq: seq,
		}))
	}

	send(1, events.EventDefined) // first frame, contiguous
	send(2, events.EventStarted) // contiguous
	hb(2)                        // heartbeat confirms seq 2: absorbed
	send(5, events.EventStopped) // 3,4 lost: gap
	hb(6)                        // heartbeat past last seen: tail lost, gap
	hb(6)                        // now confirmed: absorbed
	send(7, events.EventResumed) // contiguous again after the heartbeat advance

	want := []struct {
		seq uint64
		gap bool
		ev  bool
	}{
		{1, false, true},
		{2, false, true},
		{5, true, true},
		{6, true, false}, // heartbeat delivery: gap flagged, Type zero
		{7, false, true},
	}
	if len(*log) != len(want) {
		t.Fatalf("delivered %d frames, want %d: %+v", len(*log), len(want), *log)
	}
	for i, w := range want {
		got := (*log)[i]
		if got.ev.Seq != w.seq || got.gap != w.gap || (got.ev.Type != 0) != w.ev {
			t.Errorf("frame %d: seq=%d gap=%v type=%v, want seq=%d gap=%v event=%v",
				i, got.ev.Seq, got.gap, got.ev.Type, w.seq, w.gap, w.ev)
		}
	}

	// Fresh stream whose first frame is already past 1: the events that
	// never arrived must not be silently forgotten.
	c2, log2 := watchFrameConn(t, 3)
	c2.handleEvent(wire.ProcEventWatch, watchFrame(t, wire.WatchEvent{
		SubscriptionID: 3, Seq: 4, Type: uint32(events.EventStarted), Domain: "late",
	}))
	if len(*log2) != 1 || !(*log2)[0].gap {
		t.Fatalf("first frame at seq 4 not flagged as gap: %+v", *log2)
	}
}
