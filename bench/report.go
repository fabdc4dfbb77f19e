package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// conform checks the run against BENCHMARK.json: an untraced run carries
// every end-to-end metric, a traced run every per-layer metric, nothing
// else, with the declared units.
func (r *runResult) conform(spec *benchSpec) error {
	if err := conform(r.EndToEnd, spec.EndToEnd, "end-to-end"); err != nil {
		return fmt.Errorf("%s: %w", r.Workload, err)
	}
	if r.PerLayer != nil {
		if err := conform(r.PerLayer, spec.PerLayer, "per-layer"); err != nil {
			return fmt.Errorf("%s: %w", r.Workload, err)
		}
	}
	return nil
}

// driverLine is the JSON object the benchmark driver reads: exactly the
// keys correct, attempted, failed and metrics, the metrics being the
// end-to-end set of an untraced run or the per-layer set of a traced one.
func (r *runResult) driverLine() map[string]interface{} {
	set := r.EndToEnd
	if r.PerLayer != nil {
		set = r.PerLayer
	}
	metrics := map[string]interface{}{}
	for name, m := range set {
		metrics[name] = map[string]interface{}{"value": m.Value, "unit": m.Unit}
	}
	return map[string]interface{}{
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	}
}

// environment records where the numbers were taken; results from
// different environments are not comparable.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	JournalFS  string `json:"journal_filesystem"`
	Network    string `json:"network"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitCommit(dir string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// fsName names the filesystem holding dir, where lifecycle-churn's
// journal goes: an fsync there is a disk flush on ext4 and a no-op on
// tmpfs, which decides what statestore.save_ns means.
func fsName(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func currentEnvironment(spec *benchSpec) environment {
	return environment{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), Commit: gitCommit(spec.root), JournalFS: fsName(spec.outDir()),
		Network: "loopback and memnet only: no wire latency",
	}
}

// summary is one metric over the repeated runs.
type summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples int       `json:"samples"` // of the last run
	Values  []float64 `json:"values"`
}

// quartiles matches Python's statistics.quantiles(values, n=4), which is
// how the benchmark driver computes its spreads.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.75)
}

func (s *summary) add(m metric) {
	s.Unit, s.Samples = m.Unit, m.Samples
	s.Values = append(s.Values, m.Value)
	s.Median = medianOf(s.Values)
	s.Q1, s.Q3 = quartiles(s.Values)
}

// workloadReport aggregates the runs of one workload.
type workloadReport struct {
	Why       string              `json:"why"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	FailRatio float64             `json:"fail_ratio"`
	EndToEnd  map[string]*summary `json:"end_to_end"`
	PerLayer  map[string]*summary `json:"per_layer,omitempty"`
	Traces    []string            `json:"traces,omitempty"`
}

// report is bench/out/result.json.
type report struct {
	Env       environment                `json:"environment"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"duration_s"`
	Runs      int                        `json:"runs"`
	Workloads map[string]*workloadReport `json:"workloads"`

	spec *benchSpec
}

func newReport(spec *benchSpec, seed int64, seconds float64, runs int) *report {
	return &report{
		Env: currentEnvironment(spec), Seed: seed, Seconds: seconds, Runs: runs,
		Workloads: map[string]*workloadReport{}, spec: spec,
	}
}

func (r *report) add(res *runResult) {
	w := r.Workloads[res.Workload]
	if w == nil {
		w = &workloadReport{EndToEnd: map[string]*summary{}}
		for _, ws := range r.spec.Workloads {
			if ws.Name == res.Workload {
				w.Why = ws.Why
			}
		}
		r.Workloads[res.Workload] = w
	}
	w.Attempted += res.Attempted
	w.Failed += res.Failed
	w.FailRatio = float64(w.Failed) / float64(max(w.Attempted, 1))
	into := func(dst map[string]*summary, set metricSet) {
		for name, m := range set {
			if dst[name] == nil {
				dst[name] = &summary{}
			}
			dst[name].add(m)
		}
	}
	if res.PerLayer == nil {
		into(w.EndToEnd, res.EndToEnd)
		return
	}
	if w.PerLayer == nil {
		w.PerLayer = map[string]*summary{}
	}
	into(w.PerLayer, res.PerLayer)
	w.Traces = append(w.Traces, res.TracePath)
}

func (r *report) failed() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

func (r *report) print(out io.Writer) {
	e := r.Env
	fmt.Fprintf(out, "govirt bench: %s, GOMAXPROCS %d of %d cpus (%s), commit %s, seed %d, %gs window, %d run(s), journal on %s, %s\n",
		e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.Commit, r.Seed, r.Seconds, r.Runs, e.JournalFS, e.Network)
	for _, ws := range r.spec.Workloads {
		w := r.Workloads[ws.Name]
		if w == nil {
			continue
		}
		fmt.Fprintf(out, "\n== %s: %d attempted, %d failed, fail_ratio %g\n", ws.Name, w.Attempted, w.Failed, w.FailRatio)
		printSet := func(title string, specs []metricSpec, set map[string]*summary) {
			if len(set) == 0 {
				return
			}
			fmt.Fprintf(out, "  %s\n", title)
			for _, ms := range specs {
				s := set[ms.Name]
				if s == nil {
					continue
				}
				fmt.Fprintf(out, "    %-36s %16.6g %-6s", ms.Name, s.Median, s.Unit)
				if len(s.Values) > 1 {
					fmt.Fprintf(out, " [q1 %.6g, q3 %.6g, spread %.1f%%]", s.Q1, s.Q3, 100*spread(s))
				}
				fmt.Fprintf(out, " n=%d\n", s.Samples)
			}
		}
		printSet("end to end (untraced run)", r.spec.EndToEnd, w.EndToEnd)
		printSet("per layer (traced run)", r.spec.PerLayer, w.PerLayer)
	}
}

// spread is the interquartile range as a share of the median.
func spread(s *summary) float64 {
	if s.Median == 0 {
		return 0
	}
	d := (s.Q3 - s.Q1) / s.Median
	if d < 0 {
		d = -d
	}
	return d
}

func (r *report) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
