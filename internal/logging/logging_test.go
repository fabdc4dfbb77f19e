package logging

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestParsePriority(t *testing.T) {
	cases := []struct {
		in   string
		want Priority
		ok   bool
	}{
		{"1", Debug, true},
		{"2", Info, true},
		{"3", Warn, true},
		{"4", Error, true},
		{"debug", Debug, true},
		{"INFO", Info, true},
		{"warning", Warn, true},
		{"warn", Warn, true},
		{"error", Error, true},
		{" error ", Error, true},
		{"0", 0, false},
		{"5", 0, false},
		{"-1", 0, false},
		{"", 0, false},
		{"verbose", 0, false},
	}
	for _, c := range cases {
		got, err := ParsePriority(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParsePriority(%q) err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParsePriority(%q)=%v, want %v", c.in, got, c.want)
		}
	}
}

func TestPriorityString(t *testing.T) {
	if Debug.String() != "debug" || Error.String() != "error" {
		t.Fatalf("unexpected priority names: %v %v", Debug, Error)
	}
	if got := Priority(9).String(); got != "priority(9)" {
		t.Fatalf("unknown priority rendered as %q", got)
	}
	if Priority(0).Valid() || Priority(5).Valid() {
		t.Fatal("out-of-range priorities must not be valid")
	}
}

func TestParseFilter(t *testing.T) {
	f, err := ParseFilter("3:util.object")
	if err != nil {
		t.Fatal(err)
	}
	if f.Priority != Warn || f.Match != "util.object" {
		t.Fatalf("got %+v", f)
	}
	for _, bad := range []string{"", "3", "util.object", "0:util", "5:util", "3:", "3:a b"} {
		if _, err := ParseFilter(bad); err == nil {
			t.Errorf("ParseFilter(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestFilterMatching(t *testing.T) {
	f := Filter{Priority: Warn, Match: "util"}
	cases := map[string]bool{
		"util":          true,
		"util.object":   true,
		"util.object.x": true,
		"utility":       false,
		"rpc":           false,
		"":              false,
	}
	for mod, want := range cases {
		if got := f.matches(mod); got != want {
			t.Errorf("filter %v matches(%q)=%v, want %v", f, mod, got, want)
		}
	}
}

func TestParseFiltersListAndDuplicates(t *testing.T) {
	fs, err := ParseFilters("3:util.object 4:rpc 1:event")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 3 {
		t.Fatalf("want 3 filters, got %d", len(fs))
	}
	if _, err := ParseFilters("3:rpc 4:rpc"); err == nil {
		t.Fatal("duplicate module filter must be rejected")
	}
	fs, err = ParseFilters("   ")
	if err != nil || len(fs) != 0 {
		t.Fatalf("empty filter list: %v %v", fs, err)
	}
}

func TestFormatFiltersRoundTrip(t *testing.T) {
	in := "3:util.object 4:rpc"
	fs, err := ParseFilters(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatFilters(fs); got != in {
		t.Fatalf("round trip %q -> %q", in, got)
	}
}

func TestParseOutput(t *testing.T) {
	cases := []struct {
		in   string
		kind string
		dest string
		ok   bool
	}{
		{"1:stderr", "stderr", "", true},
		{"1:file:/var/log/virtd.log", "file", "/var/log/virtd.log", true},
		{"3:journald", "", "", false}, // removed: it only kept records in memory
		{"2:buffer", "", "", false},   // removed, likewise
		{"3:syslog:virtd", "", "", false},
		{"1:file", "", "", false},
		{"1:file:", "", "", false},
		{"1:file:relative/path", "", "", false},
		{"1:syslog", "", "", false},
		{"1:stderr:extra", "", "", false},
		{"5:stderr", "", "", false},
		{"x:stderr", "", "", false},
		{"1:pipe:/x", "", "", false},
		{"", "", "", false},
		{"stderr", "", "", false},
	}
	for _, c := range cases {
		o, err := ParseOutput(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseOutput(%q) err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && (o.Kind != c.kind || o.Dest != c.dest) {
			t.Errorf("ParseOutput(%q)=%+v", c.in, o)
		}
	}
}

func TestOutputStringRoundTrip(t *testing.T) {
	for _, in := range []string{"1:stderr", "4:stderr", "1:file:/tmp/x.log"} {
		o, err := ParseOutput(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := o.String(); got != in {
			t.Errorf("round trip %q -> %q", in, got)
		}
	}
}

// fileOutput points l's outputs at one file in a temporary directory, at
// priority p, and returns a reader of what has been written to it.
func fileOutput(t *testing.T, l *Logger, p Priority) func() string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "virtd.log")
	if err := l.DefineOutputs(fmt.Sprintf("%d:file:%s", int(p), path)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return func() string {
		data, _ := os.ReadFile(path)
		return string(data)
	}
}

// enabled reports whether a record at p from module would be logged.
func enabled(l *Logger, module string, p Priority) bool {
	return l.For(module).Enabled(context.Background(), p.Level())
}

func TestLoggerLevelGate(t *testing.T) {
	l := NewQuiet(Warn)
	read := fileOutput(t, l, Debug)
	log := l.For("mod")
	log.Debug("dropped")
	log.Info("dropped")
	log.Warn("kept")
	log.Error("kept")
	if got := read(); strings.Count(got, "kept") != 2 || strings.Contains(got, "dropped") {
		t.Fatalf("records:\n%s", got)
	}
}

func TestLoggerSetLevel(t *testing.T) {
	l := NewQuiet(Error)
	if err := l.SetLevel(Debug); err != nil {
		t.Fatal(err)
	}
	if l.Level() != Debug {
		t.Fatalf("level=%v", l.Level())
	}
	if err := l.SetLevel(Priority(0)); err == nil {
		t.Fatal("invalid level accepted")
	}
	if err := l.SetLevel(Priority(5)); err == nil {
		t.Fatal("invalid level accepted")
	}
}

func TestLoggerFiltersOverrideGlobal(t *testing.T) {
	l := NewQuiet(Error)
	if err := l.DefineFilters("1:noisy 3:util"); err != nil {
		t.Fatal(err)
	}
	if !enabled(l, "noisy", Debug) {
		t.Fatal("filter should open noisy at debug")
	}
	if !enabled(l, "noisy.sub", Debug) {
		t.Fatal("filter should match submodule")
	}
	if enabled(l, "util", Info) {
		t.Fatal("util filter is warning; info must be dropped")
	}
	if enabled(l, "other", Warn) {
		t.Fatal("unfiltered module follows global error level")
	}
}

func TestLoggerMostSpecificFilterWins(t *testing.T) {
	l := NewQuiet(Error)
	if err := l.DefineFilters("4:util 1:util.object"); err != nil {
		t.Fatal(err)
	}
	if !enabled(l, "util.object", Debug) {
		t.Fatal("longer match must win regardless of definition order")
	}
	if enabled(l, "util.other", Debug) {
		t.Fatal("short match applies to sibling")
	}
}

func TestLoggerDefineFiltersClears(t *testing.T) {
	l := NewQuiet(Error)
	if err := l.DefineFilters("1:mod"); err != nil {
		t.Fatal(err)
	}
	if err := l.DefineFilters(""); err != nil {
		t.Fatal(err)
	}
	if l.FiltersString() != "" {
		t.Fatal("filters not cleared")
	}
	if enabled(l, "mod", Debug) {
		t.Fatal("cleared filter still effective")
	}
}

func TestLoggerDefineFiltersRejectsBadInputAtomically(t *testing.T) {
	l := NewQuiet(Error)
	if err := l.DefineFilters("1:good"); err != nil {
		t.Fatal(err)
	}
	if err := l.DefineFilters("1:new 9:bad"); err == nil {
		t.Fatal("bad filter accepted")
	}
	if got := l.FiltersString(); got != "1:good" {
		t.Fatalf("failed define mutated state: %q", got)
	}
}

func TestLoggerOutputRecord(t *testing.T) {
	l := NewQuiet(Debug)
	read := fileOutput(t, l, Error)
	log := l.For("m")
	log.Debug("below output threshold")
	log.LogAttrs(context.Background(), slog.LevelError, "written", slog.Int("n", 42), slog.String("domain", "web 1"))
	got := read()
	if strings.Count(got, "\n") != 1 || !strings.HasPrefix(got, "time=") ||
		!strings.HasSuffix(got, ` level=ERROR msg=written module=m n=42 domain="web 1"`+"\n") {
		t.Fatalf("record: %q", got)
	}
}

func TestLoggerFileOutput(t *testing.T) {
	l := NewQuiet(Debug)
	read := fileOutput(t, l, Debug)
	l.For("core").Info("hello file")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := read(); !strings.Contains(got, "hello file") {
		t.Fatalf("file contents: %q", got)
	}
}

func TestLoggerDefineOutputsFailureLeavesOldConfig(t *testing.T) {
	l := NewQuiet(Debug)
	read := fileOutput(t, l, Info)
	old := l.OutputsString()
	// Second output is a file inside a nonexistent directory: open fails.
	err := l.DefineOutputs("1:stderr 1:file:/nonexistent-dir-xyz/sub/file.log")
	if err == nil {
		t.Fatal("expected open failure")
	}
	if got := l.OutputsString(); got != old {
		t.Fatalf("old config lost: %q, want %q", got, old)
	}
	// The old output must still accept writes.
	l.For("m").Error("still alive")
	if !strings.Contains(read(), "still alive") {
		t.Fatal("old output not functional after failed redefine")
	}
}

func TestLoggerConcurrentLogAndRedefine(t *testing.T) {
	l := NewQuiet(Debug)
	fileOutput(t, l, Debug)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			log := l.For("worker")
			for {
				select {
				case <-stop:
					return
				default:
					log.LogAttrs(context.Background(), slog.LevelDebug, "msg", slog.Int("from", id))
				}
			}
		}(i)
	}
	for i := 0; i < 200; i++ {
		var err error
		if i%2 == 0 {
			err = l.DefineFilters(fmt.Sprintf("%d:worker", i%4+1))
		} else {
			err = l.DefineOutputs(l.OutputsString())
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	// The test passes if the race detector finds nothing and the logger is
	// still coherent.
	if err := l.DefineFilters(""); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFilterRoundTrip(t *testing.T) {
	// Property: any filter list we can format is re-parsed identically.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6)
		filters := make([]Filter, 0, n)
		seen := map[string]bool{}
		for len(filters) < n {
			mod := fmt.Sprintf("mod%c.%c", 'a'+rng.Intn(20), 'a'+rng.Intn(20))
			if seen[mod] {
				continue
			}
			seen[mod] = true
			filters = append(filters, Filter{Priority: Priority(1 + rng.Intn(4)), Match: mod})
		}
		got, err := ParseFilters(FormatFilters(filters))
		if err != nil || len(got) != len(filters) {
			return false
		}
		for i := range got {
			if got[i] != filters[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEffectiveLevelNeverBelowMostSpecific(t *testing.T) {
	// Property: with filters sorted by DefineFilters, the effective level of
	// a module exactly matching a filter equals that filter's priority.
	f := func(prio uint8, sub uint8) bool {
		p := Priority(1 + int(prio)%4)
		l := NewQuiet(Error)
		mod := fmt.Sprintf("base.sub%d", sub%8)
		if err := l.DefineFilters(fmt.Sprintf("4:base %d:%s", int(p), mod)); err != nil {
			return false
		}
		return l.cur.Load().effectiveLevel(mod) == p &&
			l.cur.Load().effectiveLevel("base.other") == Error
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestLogFilteredAllocatesNothing: a record below its module's threshold,
// logged with attributes through a module-bound logger, costs no
// allocation, with no filters and with a filter for another module.
func TestLogFilteredAllocatesNothing(t *testing.T) {
	l := NewQuiet(Error)
	log, ctx, domain := l.For("hot.module"), context.Background(), "web1"
	for _, filters := range []string{"", "1:other.module"} {
		l.DefineFilters(filters) //nolint:errcheck
		allocs := testing.AllocsPerRun(1000, func() {
			log.LogAttrs(ctx, slog.LevelInfo, "domain defined", slog.String("domain", domain), slog.String("client", "c7"))
		})
		if allocs != 0 {
			t.Errorf("filters %q: a filtered record allocates %.1f objects, want 0", filters, allocs)
		}
	}
}

func BenchmarkLogFiltered(b *testing.B) {
	log := NewQuiet(Error).For("hot.module")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		log.LogAttrs(context.Background(), slog.LevelDebug, "dropped", slog.Int("i", i), slog.String("domain", "web1"))
	}
}

func BenchmarkLogEmitted(b *testing.B) {
	l := NewQuiet(Debug)
	if err := l.DefineOutputs("1:file:/dev/null"); err != nil {
		b.Fatal(err)
	}
	log := l.For("hot.module")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		log.LogAttrs(context.Background(), slog.LevelDebug, "kept", slog.Int("i", i))
	}
}
