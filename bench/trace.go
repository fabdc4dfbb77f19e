package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spanName identifies the public API call a span wraps. The op span is
// the parent of every call span recorded while it was open.
type spanName uint8

const (
	spanOp spanName = iota
	spanHostname
	spanDomainInfo
	spanLookup
	spanInventory
	spanScrape
	spanDefine
	spanCreate
	spanSuspend
	spanResume
	spanDestroy
	spanUndefine
	spanSchedule
	spanPlan
	spanEventWait
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "core.Hostname", "core.Domain.Info", "core.LookupDomain",
	"core.NodeInventoryInto", "telemetry.Handler", "core.DefineDomain",
	"core.Domain.Create", "core.Domain.Suspend", "core.Domain.Resume",
	"core.Domain.Destroy", "core.Domain.Undefine", "fleet.Schedule",
	"fleet.PlanRebalance", "watch.event_wait",
}

// span is one recorded interval. Call spans share Op with the op span
// that caused them; times are ns since the traced window began.
type span struct {
	Op    uint32
	Name  spanName
	Start int64
	End   int64
}

// tracer records one client's spans in memory. A nil tracer records
// nothing, which is how the untraced windows run: the call sites stay
// the same and cost one nil check.
type tracer struct {
	base    time.Time
	client  int
	op      uint32
	spans   []span
	dropped int
}

// maxSpans bounds one client's span buffer (24 B each).
const maxSpans = 1 << 20

func newTracer(client int) *tracer {
	return &tracer{client: client, spans: make([]span, 0, maxSpans)}
}

func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

func (t *tracer) record(name spanName, start int64) {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{Op: t.op, Name: name, Start: start, End: int64(time.Since(t.base))})
}

// end closes a call span opened with begin.
func (t *tracer) end(name spanName, start int64) {
	if t != nil {
		t.record(name, start)
	}
}

// endOp closes the op span and moves to the next op id.
func (t *tracer) endOp(start int64) {
	if t != nil {
		t.record(spanOp, start)
		t.op++
	}
}

// maxSpansWritten caps the trace file; the summary covers every span.
const maxSpansWritten = 20000

type spanJSON struct {
	Client  int    `json:"client"`
	Op      uint32 `json:"op"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type spanSummary struct {
	Count  int     `json:"count"`
	P50Ns  float64 `json:"p50_ns"`
	SelfNs float64 `json:"self_p50_ns,omitempty"` // op spans: duration minus the calls it covers
}

type traceFile struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Recorded int                    `json:"spans_recorded"`
	Dropped  int                    `json:"spans_dropped"`
	Written  int                    `json:"spans_written"`
	Summary  map[string]spanSummary `json:"summary"`
	Spans    []spanJSON             `json:"spans"`
}

// writeTrace summarises every recorded span and writes the first
// maxSpansWritten of them to <out>/<workload>.trace.json.
func writeTrace(cfg *runConfig, tracers []*tracer) (string, error) {
	tf := traceFile{Workload: cfg.Workload, Seed: cfg.Seed, Summary: map[string]spanSummary{}}
	durs := make([][]uint32, numSpanNames)
	var self []uint32
	for _, t := range tracers {
		tf.Recorded += len(t.spans)
		tf.Dropped += t.dropped
		// A client's spans are in completion order: an op's calls
		// directly precede its own span.
		var covered int64
		for _, s := range t.spans {
			d := s.End - s.Start
			durs[s.Name] = append(durs[s.Name], clampNs(time.Duration(d)))
			if s.Name == spanOp {
				self = append(self, clampNs(time.Duration(d-covered)))
				covered = 0
			} else {
				covered += d
			}
			if len(tf.Spans) < maxSpansWritten {
				j := spanJSON{Client: t.client, Op: s.Op, Name: spanNames[s.Name], StartNs: s.Start, EndNs: s.End}
				if s.Name != spanOp {
					j.Parent = spanNames[spanOp]
				}
				tf.Spans = append(tf.Spans, j)
			}
		}
	}
	tf.Written = len(tf.Spans)
	sort.SliceStable(tf.Spans, func(i, j int) bool { return tf.Spans[i].StartNs < tf.Spans[j].StartNs })
	for n, d := range durs {
		if len(d) == 0 {
			continue
		}
		sum := spanSummary{Count: len(d), P50Ns: p50(d)}
		if spanName(n) == spanOp {
			sum.SelfNs = p50(self)
		}
		tf.Summary[spanNames[n]] = sum
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(cfg.OutDir, cfg.Workload+".trace.json")
	data, err := json.Marshal(&tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
