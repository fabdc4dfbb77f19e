package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricSpec is one metric declaration in BENCHMARK.json. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before it counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec mirrors BENCHMARK.json: the single declaration of workload
// and metric names that the program, the smoke test and `compare` share.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`

	root string // directory holding BENCHMARK.json
}

// loadSpec finds BENCHMARK.json in the working directory (the repo root
// under `go run ./bench`) or its parent (the package directory under
// `go test`).
func loadSpec() (*benchSpec, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		s.root = dir
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in the working directory or its parent")
}

// outDir is where traces, results and the journal scratch go; the root
// .gitignore names it.
func (s *benchSpec) outDir() string { return filepath.Join(s.root, "bench", "out") }

// metric is one measured value with the number of samples behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type metricSet map[string]metric

// conform checks that a metric set carries exactly the declared names
// and stamps the declared units on it.
func conform(got metricSet, want []metricSpec, kind string) error {
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("%s metric %s was not measured", kind, m.Name)
		}
		v.Unit = m.Unit
		got[m.Name] = v
	}
	if len(got) != len(want) {
		for name := range got {
			found := false
			for _, m := range want {
				found = found || m.Name == name
			}
			if !found {
				return fmt.Errorf("%s metric %s is not declared in BENCHMARK.json", kind, name)
			}
		}
	}
	return nil
}
