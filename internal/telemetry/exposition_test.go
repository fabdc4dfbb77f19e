package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/faultpoint"
)

// Exposition-format grammar, per the text format 0.0.4 spec: sample
// lines are name{labels} value, comment lines are # HELP / # TYPE.
var (
	sampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? -?[0-9+][^ ]*$`)
	helpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)
	typeRe   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)$`)
)

// lintExposition enforces the format invariants the satellite fixes:
// every line parses, and every sample's family was introduced by a
// # HELP and a # TYPE line exactly once, before its first sample.
func lintExposition(t *testing.T, text string) {
	t.Helper()
	helpSeen := map[string]bool{}
	typeSeen := map[string]bool{}
	sampled := map[string]bool{}
	for n, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if !helpRe.MatchString(line) {
				t.Fatalf("line %d: malformed HELP: %q", n+1, line)
			}
			fam := strings.Fields(line)[2]
			if helpSeen[fam] {
				t.Fatalf("line %d: duplicate HELP for %s", n+1, fam)
			}
			if sampled[fam] {
				t.Fatalf("line %d: HELP for %s after its samples", n+1, fam)
			}
			helpSeen[fam] = true
		case strings.HasPrefix(line, "# TYPE "):
			if !typeRe.MatchString(line) {
				t.Fatalf("line %d: malformed TYPE: %q", n+1, line)
			}
			fam := strings.Fields(line)[2]
			if typeSeen[fam] {
				t.Fatalf("line %d: duplicate TYPE for %s", n+1, fam)
			}
			if sampled[fam] {
				t.Fatalf("line %d: TYPE for %s after its samples", n+1, fam)
			}
			typeSeen[fam] = true
		case strings.HasPrefix(line, "#"):
			// other comments are legal, nothing to check
		default:
			if !sampleRe.MatchString(line) {
				t.Fatalf("line %d: malformed sample: %q", n+1, line)
			}
			base := line
			if i := strings.IndexAny(base, "{ "); i >= 0 {
				base = base[:i]
			}
			// Histogram child series belong to the parent family.
			fam := base
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				parent := strings.TrimSuffix(base, suffix)
				if parent != base && typeSeen[parent] {
					fam = parent
					break
				}
			}
			if !typeSeen[fam] {
				t.Fatalf("line %d: sample for %s without TYPE", n+1, fam)
			}
			if !helpSeen[fam] {
				t.Fatalf("line %d: sample for %s without HELP", n+1, fam)
			}
			sampled[fam] = true
		}
	}
}

// TestExpositionRegistryFormat lints the registry render, including a
// label value that needs every escape.
func TestExpositionRegistryFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("calls_total{" + Labels("proc", `we"ird\name`+"\n") + "}").Add(3)
	r.Counter("calls_total{" + Labels("proc", "plain") + "}").Inc()
	r.Gauge("clients").Set(-2)
	r.Histogram("lat_seconds").Observe(time.Millisecond)
	text := string(r.AppendPrometheus(nil))
	lintExposition(t, text)
	if !strings.Contains(text, `proc="we\"ird\\name\n"`) {
		t.Fatalf("label escaping wrong:\n%s", text)
	}
	if !strings.Contains(text, "# HELP calls_total ") {
		t.Fatalf("HELP line missing:\n%s", text)
	}
}

// TestExpositionDomainFormat lints the domain collector's render, with
// names that need escaping and both optional labels on.
func TestExpositionDomainFormat(t *testing.T) {
	rows := fakeRows(3)
	rows[1].Name = `dom"quote\slash` + "\n"
	src := &fakeSource{rows: rows, uuids: map[string]string{"vm00000": "u-0"}}
	c, err := NewDomainCollector(src, DomainCollectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := scrape(c)
	if err != nil {
		t.Fatal(err)
	}
	lintExposition(t, string(out))
	if !strings.Contains(string(out), `domain="dom\"quote\\slash\n"`) {
		t.Fatalf("domain label escaping wrong:\n%s", out)
	}
}

// TestExpositionCombinedEndpoint lints what the daemon actually serves:
// registry families followed by domain families on one endpoint, with
// the spec content type.
func TestExpositionCombinedEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("daemon_dispatch_total{" + Labels("program", "remote", "proc", "GetHostname") + "}").Inc()
	r.GaugeFunc("daemon_pool_workers", func() int64 { return 2 })
	r.Gauge("daemon_pool_queue_depth{" + Labels("lane", "prio") + "}").Set(-1)
	r.Histogram("daemon_queue_wait_seconds").Observe(time.Millisecond)
	r.Histogram("daemon_dispatch_seconds{" + Labels("proc", "GetHostname") + "}").Observe(time.Second)
	src := &fakeSource{rows: fakeRows(2)}
	dc, err := NewDomainCollector(src, DomainCollectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(HandlerWith(r, dc))
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type %q, want %q", ct, ContentType)
	}
	lintExposition(t, string(body))
	for _, want := range []string{"daemon_dispatch_total", "govirt_domain_info", "govirt_domain_sweeps_total"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("combined output missing %s:\n%.400s", want, body)
		}
	}
}

// TestHandlerSweepFailure: a failed sweep is a clean 503, not a partial
// body.
func TestHandlerSweepFailure(t *testing.T) {
	src := &fakeSource{}
	src.setErr(errTest)
	dc, err := NewDomainCollector(src, DomainCollectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	HandlerWith(NewRegistry(), dc).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
}

var errTest = errorString("sweep exploded")

type errorString string

func (e errorString) Error() string { return string(e) }

// TestEscapeLabelValue covers the escape table and the fast path.
func TestEscapeLabelValue(t *testing.T) {
	cases := map[string]string{
		"plain":        "plain",
		`back\slash`:   `back\\slash`,
		`quo"te`:       `quo\"te`,
		"new\nline":    `new\nline`,
		`all\"` + "\n": `all\\\"\n`,
		// Escapes at the start, at the end, and nothing but escapes: the
		// bulk-appended runs between them are empty.
		`"lead`:           `\"lead`,
		"\nlead":          `\nlead`,
		`trail\`:          `trail\\`,
		"trail\n":         `trail\n`,
		`\`:               `\\`,
		`\"` + "\n" + `\`: `\\\"\n\\`,
		`""`:              `\"\"`,
		`a"b\c` + "\nd":   `a\"b\\c\nd`,
		"":                "",
	}
	for in, want := range cases {
		if got := EscapeLabelValue(in); got != want {
			t.Fatalf("EscapeLabelValue(%q) = %q, want %q", in, got, want)
		}
	}
	if got := Labels("a", "1", "b", `x"y`); got != `a="1",b="x\"y"` {
		t.Fatalf("Labels = %q", got)
	}
}

// TestMetricsServerShutdown: the listener binds, serves, and drains
// within the grace budget.
func TestMetricsServerShutdown(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total").Inc()
	srv, err := ServeMetrics("127.0.0.1:0", Handler(r))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()              //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := srv.Shutdown(2 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestInstrumentFaultpoints: fired injections land on the registry as
// fault_injected_total{site,kind}.
func TestInstrumentFaultpoints(t *testing.T) {
	fr := faultpoint.New()
	reg := NewRegistry()
	InstrumentFaultpoints(reg, fr)
	fr.Set("rpc.recv", faultpoint.Spec{Mode: faultpoint.ModeDrop, Prob: 1})
	fr.Arm(42)
	defer fr.Disarm()
	for i := 0; i < 3; i++ {
		if _, fired := fr.Eval("rpc.recv"); !fired {
			t.Fatal("prob 1 point did not fire")
		}
	}
	name := "fault_injected_total{" + Labels("site", "rpc.recv", "kind", "drop") + "}"
	if got := reg.Counter(name).Value(); got != 3 {
		t.Fatalf("%s = %d, want 3", name, got)
	}
	lintExposition(t, string(reg.AppendPrometheus(nil)))
}
