package fleet

import (
	"math/rand"
	"testing"
	"time"
)

// TestFleetBackoffDeterministic pins down the reconnect pacing without
// a single sleep: the backoff timer is pure, so a fake clock plus a
// seeded PRNG determine the entire attempt trajectory exactly.
func TestFleetBackoffDeterministic(t *testing.T) {
	t.Run("doubling-no-jitter", func(t *testing.T) {
		bo := newBackoffTimer(100*time.Millisecond, time.Second, 0)
		want := []time.Duration{
			100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
			800 * time.Millisecond, time.Second, time.Second, // capped
		}
		for i, w := range want {
			if got := bo.next(0.5); got != w { // rnd ignored at jitter 0
				t.Fatalf("attempt %d: delay = %v, want %v", i, got, w)
			}
		}
		bo.reset()
		if got := bo.next(0); got != 100*time.Millisecond {
			t.Fatalf("after reset: delay = %v, want 100ms", got)
		}
	})

	t.Run("jitter-stretch-bounds", func(t *testing.T) {
		bo := newBackoffTimer(100*time.Millisecond, time.Second, 0.2)
		// rnd = 0 leaves the base delay; rnd -> 1 stretches by up to 20%.
		if got := bo.next(0); got != 100*time.Millisecond {
			t.Fatalf("rnd=0: delay = %v, want base 100ms", got)
		}
		if got, want := bo.next(1), 240*time.Millisecond; got != want {
			t.Fatalf("rnd=1: delay = %v, want %v (200ms + 20%%)", got, want)
		}
	})

	t.Run("seeded-schedule-exact", func(t *testing.T) {
		// The materialized schedule is a pure function of (clock, seed):
		// replay the same uniform samples through the stretch formula and
		// the attempt times must match to the nanosecond.
		now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
		const n = 8
		samples := make([]float64, n)
		rnd := rand.New(rand.NewSource(42)) //nolint:gosec // deterministic test
		for i := range samples {
			samples[i] = rnd.Float64()
		}

		bo := newBackoffTimer(100*time.Millisecond, 2*time.Second, 0.2)
		replay := rand.New(rand.NewSource(42)) //nolint:gosec // deterministic test
		got := bo.schedule(now, n, replay.Float64)

		want := make([]time.Time, 0, n)
		cur, tcur := 100*time.Millisecond, now
		for i := 0; i < n; i++ {
			d := cur + time.Duration(float64(cur)*0.2*samples[i])
			tcur = tcur.Add(d)
			want = append(want, tcur)
			if cur *= 2; cur > 2*time.Second {
				cur = 2 * time.Second
			}
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("attempt %d at %v, want %v", i, got[i], want[i])
			}
		}
		// Same seed, same clock: the whole trajectory reproduces.
		bo2 := newBackoffTimer(100*time.Millisecond, 2*time.Second, 0.2)
		again := bo2.schedule(now, n, rand.New(rand.NewSource(42)).Float64) //nolint:gosec
		for i := range got {
			if !got[i].Equal(again[i]) {
				t.Fatalf("attempt %d not reproducible: %v vs %v", i, got[i], again[i])
			}
		}
	})

	t.Run("degenerate-config-clamped", func(t *testing.T) {
		bo := newBackoffTimer(-5, -10, -1)
		if d := bo.next(0.9); d <= 0 {
			t.Fatalf("clamped timer produced non-positive delay %v", d)
		}
	})
}

// TestFleetRegistryBackoffSchedule checks the registry wires its config
// into the same timer the deterministic test exercises: a registry host
// created from Config carries min/max/jitter as configured.
func TestFleetRegistryBackoffSchedule(t *testing.T) {
	cfg := fastConfig("test+tcp://10.0.0.1:16509/")
	cfg.BackoffJitter = 0 // exact doubling
	reg, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := reg.order[0]
	if h == nil {
		t.Fatal("host not found")
	}
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	got := h.bo.schedule(now, 5, func() float64 { return 0 })
	want := []time.Duration{10, 30, 70, 150, 250} // cumulative 10,20,40,80,100ms
	for i, w := range want {
		if exp := now.Add(w * time.Millisecond); !got[i].Equal(exp) {
			t.Fatalf("attempt %d at %v, want %v", i, got[i], exp)
		}
	}
}
