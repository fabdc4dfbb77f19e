package rpc_test

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/rpc"
	"repro/internal/wire"
)

func mustMarshal(t *testing.T, v interface{}) []byte {
	t.Helper()
	data, err := rpc.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestConnUnmarshalRecurringStrings pins the point of the per-connection
// string table: a name, UUID or event detail the peer sends again is
// handed back, so decoding it into a fresh destination allocates
// nothing. Package Unmarshal, which has no table, still copies.
func TestConnUnmarshalRecurringStrings(t *testing.T) {
	conn := new(rpc.Conn)
	nameMsg := mustMarshal(t, &wire.NameArgs{Name: "s0001-vm00042"})
	evWant := wire.WatchEvent{
		SubscriptionID: 3, Seq: 9, Type: 3, Domain: "s0001-vm00042",
		UUID: "8c2d6f0e-4b7a-4f51-9d3e-2a61c0b7e915", Detail: "booted", BusSeq: 17,
	}
	evMsg := mustMarshal(t, &evWant)
	var name wire.NameArgs
	var ev wire.WatchEvent
	decode := func() {
		// Zeroed destinations: no retained value can absorb the strings.
		name, ev = wire.NameArgs{}, wire.WatchEvent{}
		if err := conn.Unmarshal(nameMsg, &name); err != nil {
			t.Fatal(err)
		}
		if err := conn.Unmarshal(evMsg, &ev); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if got := testing.AllocsPerRun(100, decode); got != 0 {
		t.Errorf("recurring strings through one Conn: %.1f allocs per decode pair, want 0", got)
	}
	if name.Name != "s0001-vm00042" || ev != evWant {
		t.Fatalf("decoded %+v / %+v", name, ev)
	}
	if unsafe.StringData(name.Name) != unsafe.StringData(ev.Domain) {
		t.Error("the same name in two messages was not handed back shared")
	}
	if got := testing.AllocsPerRun(100, func() {
		ev = wire.WatchEvent{}
		if err := rpc.Unmarshal(evMsg, &ev); err != nil {
			t.Fatal(err)
		}
	}); got == 0 {
		t.Error("package Unmarshal shared strings; it must stay table-less")
	}
}

// TestConnUnmarshalSurvivesFrameReuse decodes a seeded stream of watch
// events the way the daemon and client do: one goroutine reads frames
// into pooled buffers, two decode them through the connection and
// release them, so the next frame is read into a buffer a decoded
// string would alias if the table ever held a view. Names come from a
// pool smaller than the table (hits, some slot collisions) and from one
// many times larger (collisions and evictions). Every string must still
// read as sent once the whole stream is through.
func TestConnUnmarshalSurvivesFrameReuse(t *testing.T) {
	for _, pool := range []int{24, 640} {
		t.Run(fmt.Sprint("pool", pool), func(t *testing.T) {
			const frames = 3000
			rng := rand.New(rand.NewSource(int64(pool)))
			sent := make([]wire.WatchEvent, frames)
			for i := range sent {
				n := rng.Intn(pool)
				sent[i] = wire.WatchEvent{
					Seq:    uint64(i),
					Domain: fmt.Sprintf("s%04x-vm%05d", pool, n),
					UUID:   fmt.Sprintf("00000000-0000-4000-8000-%012d", n),
					Detail: []string{"booted", "destroyed", "migrated"}[rng.Intn(3)],
				}
			}
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			w, r := rpc.NewConn(a), rpc.NewConn(b)
			go func() {
				for i := range sent {
					if err := w.WriteMarshal(rpc.Header{Type: uint32(rpc.TypeEvent)}, &sent[i]); err != nil {
						return
					}
				}
			}()
			got := make([]wire.WatchEvent, frames)
			work := make(chan *rpc.Frame)
			var wg sync.WaitGroup
			var failed sync.Once
			for k := 0; k < 2; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for f := range work {
						var ev wire.WatchEvent
						err := r.Unmarshal(f.Payload, &ev)
						f.Release()
						if err != nil || ev.Seq >= frames {
							failed.Do(func() { t.Errorf("decode: %v (seq %d)", err, ev.Seq) })
							continue
						}
						got[ev.Seq] = ev
					}
				}()
			}
			for i := 0; i < frames; i++ {
				f, err := r.ReadFrame()
				if err != nil {
					t.Fatal(err)
				}
				work <- f
			}
			close(work)
			wg.Wait()

			shared, fresh := 0, 0
			first := map[string]*byte{}
			for i := range sent {
				if got[i] != sent[i] {
					t.Fatalf("frame %d reads %+v, sent %+v", i, got[i], sent[i])
				}
				p := unsafe.StringData(got[i].Domain)
				if q, seen := first[got[i].Domain]; !seen {
					first[got[i].Domain] = p
				} else if p == q {
					shared++
				} else {
					fresh++
				}
			}
			t.Logf("%d names: %d repeats handed back, %d copied again", pool, shared, fresh)
			if shared == 0 || fresh == 0 {
				t.Errorf("want both hits and re-copies after collisions or evictions, got %d / %d", shared, fresh)
			}
		})
	}
}
