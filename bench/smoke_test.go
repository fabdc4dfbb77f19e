package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// smokeSizes shrink every workload so the whole file adds a few seconds
// to `go test ./...`, also under -race.
var smokeSizes = sizes{RPCDomains: 8, MonitorDomains: 40, FleetHosts: 4, FleetDomains: 5, PlanEvery: 5}

func smokeConfig(t *testing.T, workload string, seed int64, trace bool) *runConfig {
	return &runConfig{
		Workload: workload, Seed: seed, Trace: trace, Sizes: smokeSizes, Quick: true,
		Warmup: 50 * time.Millisecond, Window: 200 * time.Millisecond, OutDir: t.TempDir(),
	}
}

func mustSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecWithinContract checks BENCHMARK.json against the limits the
// benchmark driver enforces before it runs anything.
func TestSpecWithinContract(t *testing.T) {
	spec := mustSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if spec.RunSeconds < 10 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 10 to 60", spec.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1 to 200", w.Name, len(w.Why))
		}
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	setup := false
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", m.Name, m.Unit, unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g, want within (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range spec.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}
	if !setup {
		t.Error("no end-to-end metric setup_s in s, lower is better")
	}
}

// TestSmoke runs every workload briefly on two seeds, and one traced
// run: the emitted names are exactly the declared ones, every operation
// passes its correctness check, the end-of-run invariants hold and no
// goroutine outlives a teardown (runWorkload fails on any of these).
func TestSmoke(t *testing.T) {
	spec := mustSpec(t)
	for _, w := range spec.Workloads {
		for seed := int64(1); seed <= 2; seed++ {
			res, err := runWorkload(smokeConfig(t, w.Name, seed, false))
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
			if err := res.conform(spec); err != nil {
				t.Error(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s seed %d: %d of %d operations failed", w.Name, seed, res.Failed, res.Attempted)
			}
		}
	}
	// The traced run on the workload with the most moving parts: journal
	// on, three back ends, a watch stream per connection.
	cfg := smokeConfig(t, "lifecycle-churn", 3, true)
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.conform(spec); err != nil {
		t.Error(err)
	}
	if res.Failed != 0 {
		t.Errorf("traced run: %d of %d operations failed", res.Failed, res.Attempted)
	}
	if res.PerLayer["runtime.goroutines_delta"].Value != 0 {
		t.Errorf("traced run left %v goroutines behind", res.PerLayer["runtime.goroutines_delta"].Value)
	}
	if _, err := os.Stat(filepath.Join(cfg.OutDir, "lifecycle-churn.trace.json")); err != nil {
		t.Errorf("traced run wrote no trace: %v", err)
	}
}

// TestBrokenCheckFailsTheCommand feeds monitor-sweep a wrong expected
// row count, which must fail every cycle, and runs the command itself
// with a wrong expected answer on the workload that sets up fastest: it
// must exit non-zero.
func TestBrokenCheckFailsTheCommand(t *testing.T) {
	cfg := smokeConfig(t, "monitor-sweep", 1, false)
	cfg.BreakCheck = true
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != res.Attempted || res.failRatio() != 1 {
		t.Fatalf("a wrong expected row count failed %d of %d cycles, want all", res.Failed, res.Attempted)
	}
	out := filepath.Join(t.TempDir(), "result.json")
	if code := realMain([]string{"-workload", "rpc-small", "-duration", "0.2", "-trace", "0", "-break-check", "-out", out}); code == 0 {
		t.Fatal("the command exited 0 with every correctness check failing")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q3 != 5.25 {
		t.Errorf("quartiles = %v, %v, want 1.75, 5.25", q1, q3)
	}
}

func TestWindowedP99IgnoresOneBadSecond(t *testing.T) {
	var ns, at []uint32
	for sec := 0; sec < 5; sec++ {
		for i := 0; i < 2000; i++ {
			v := uint32(1000 + i%100)
			if sec == 2 && i%10 == 0 {
				v = 1_000_000 // a hiccup confined to one second
			}
			ns, at = append(ns, v), append(at, uint32(sec*1_000_000+i*500))
		}
	}
	got, slices := windowedP99(ns, at, 5*time.Second)
	if slices != 5 || got > 1100 {
		t.Errorf("windowedP99 = %v over %d slices, want about 1099 over 5", got, slices)
	}
}

func summaryOf(values ...float64) *summary {
	s := &summary{}
	for _, v := range values {
		s.add(metric{Value: v})
	}
	return s
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "op_mid_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := summaryOf(100, 101, 99, 100, 100)
	cases := []struct {
		name string
		m    metricSpec
		a, b *summary
		want verdict
	}{
		{"same", lower, steady, summaryOf(101, 100, 102, 101, 100), unchanged},
		{"slower", lower, steady, summaryOf(120, 121, 119, 120, 122), regression},
		{"faster", lower, steady, summaryOf(80, 81, 79, 80, 80), improved},
		{"lower throughput", higher, steady, summaryOf(80, 81, 79, 80, 80), regression},
		{"noisy", lower, steady, summaryOf(80, 130, 100, 95, 120), unresolved},
		{"noisy but every run worse", lower, steady, summaryOf(150, 190, 230, 160, 210), regression},
	}
	for _, c := range cases {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExitsNonZeroOnMoreFailures(t *testing.T) {
	spec := mustSpec(t)
	build := func(failed int) *report {
		r := newReport(spec, 1, 1, 1)
		for _, w := range spec.Workloads {
			res := &runResult{Workload: w.Name, Attempted: 100, Failed: failed, EndToEnd: metricSet{}}
			for _, m := range spec.EndToEnd {
				res.EndToEnd[m.Name] = metric{Value: 10, Unit: m.Unit}
			}
			r.add(res)
		}
		return r
	}
	if code := compareReports(spec, build(0), build(0)); code != 0 {
		t.Errorf("identical reports compare with exit code %d", code)
	}
	if code := compareReports(spec, build(0), build(1)); code == 0 {
		t.Error("a higher fail_ratio compared with exit code 0")
	}
}
