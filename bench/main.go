// Command bench is the one benchmark of the repository: four closed-loop
// workloads driven through the real stack (core → drivers/remote → rpc →
// daemon → drivers/common → hyper sims, with fleet, watch and scale on
// top) in one process, from outside, through public functions only.
// BENCHMARK.json at the repository root declares its workloads and
// metrics; README.md in this directory explains them.
//
//	go run ./bench                          every workload, untraced then traced
//	go run ./bench -workload rpc-small -runs 5
//	go run ./bench compare A.json B.json
//
// The benchmark driver calls it as
// `go run ./bench --workload W --seed N --seconds S --trace 0|1` and reads
// the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(spec, args[1:])
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadFlag := fs.String("workload", "", "run only this workload (default: all in BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "workload seed: domain names and operation order")
	duration := fs.Float64("duration", 30, "measured window in seconds")
	fs.Float64Var(duration, "seconds", 30, "alias of -duration")
	trace := fs.String("trace", "both", "0: untraced run only; 1: traced run (per-layer metrics) only; both")
	runs := fs.Int("runs", 1, "repeat every run N times (seed, seed+1, …) and report median and quartiles")
	out := fs.String("out", "", "result file (default bench/out/result.json)")
	breakCheck := fs.Bool("break-check", false, "expect a wrong answer, to show that a failed correctness check fails the command")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *duration <= 0 || *runs < 1 || (*trace != "0" && *trace != "1" && *trace != "both") {
		fmt.Fprintln(os.Stderr, "bench: -duration and -runs must be positive, -trace one of 0, 1, both")
		return 2
	}
	var names []string
	for _, w := range spec.Workloads {
		if *workloadFlag == "" || *workloadFlag == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "bench: workload %q is not declared in BENCHMARK.json\n", *workloadFlag)
		return 2
	}
	modes := map[string][]bool{"0": {false}, "1": {true}, "both": {false, true}}[*trace]

	rep := newReport(spec, *seed, *duration, *runs)
	// One workload in one mode is how the benchmark driver calls the
	// program, and it is run here. Anything more is run the same way, a
	// fresh process per run: the telemetry registry, the driver registry
	// and the heap are process-wide, and a workload that follows another
	// in one process renders the other's metric series and inherits its
	// heap (monitor-sweep allocates half as much again after rpc-small).
	inProcess := len(names) == 1 && len(modes) == 1 && *runs == 1
	code := 0
	var last *runResult
	for _, name := range names {
		for _, traced := range modes {
			for i := 0; i < *runs; i++ {
				cfg := &runConfig{
					Workload: name, Seed: *seed + int64(i), Trace: traced, Sizes: defaultSizes,
					OutDir: spec.outDir(), BreakCheck: *breakCheck,
				}
				cfg.Warmup, cfg.Window = windows(*duration, traced)
				var res *runResult
				var err error
				if inProcess {
					if res, err = runWorkload(cfg); err == nil {
						err = res.conform(spec)
					}
				} else {
					res, err = runChild(cfg, *duration)
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
					code = 1
				}
				if res != nil {
					rep.add(res)
					last = res
				}
			}
		}
	}
	rep.print(os.Stdout)
	path := *out
	if path == "" {
		path = filepath.Join(spec.outDir(), "result.json")
	}
	if err := rep.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("\nresult written to %s\n", path)
	// The benchmark driver reads the last line. A broken invariant
	// prints none.
	if code == 0 && inProcess {
		line, err := json.Marshal(last.driverLine())
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if code == 0 && rep.failed() > 0 {
		fmt.Fprintf(os.Stderr, "bench: FAILED: %d operations failed or answered wrongly\n", rep.failed())
		code = 1
	}
	return code
}

// runChild performs one run in a process of its own and reads its result
// file back.
func runChild(cfg *runConfig, duration float64) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	out := filepath.Join(cfg.OutDir, fmt.Sprintf("run-%d.json", os.Getpid()))
	defer os.Remove(out) //nolint:errcheck // scratch
	args := []string{
		"-workload", cfg.Workload, "-seed", strconv.FormatInt(cfg.Seed, 10),
		"-duration", strconv.FormatFloat(duration, 'g', -1, 64), "-trace", map[bool]string{false: "0", true: "1"}[cfg.Trace], "-out", out,
	}
	if cfg.BreakCheck {
		args = append(args, "-break-check")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr // its table is dropped, its complaints are not
	runErr := cmd.Run()
	rep, err := loadReport(out)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", cfg.Workload, runErr)
		}
		return nil, err
	}
	w := rep.Workloads[cfg.Workload]
	if w == nil {
		return nil, fmt.Errorf("%s: the run reported nothing", cfg.Workload)
	}
	res := &runResult{Workload: cfg.Workload, Seed: cfg.Seed, Attempted: w.Attempted, Failed: w.Failed, EndToEnd: metricSet{}}
	from := func(set map[string]*summary) metricSet {
		m := metricSet{}
		for name, s := range set {
			m[name] = metric{Value: s.Median, Unit: s.Unit, Samples: s.Samples}
		}
		return m
	}
	res.EndToEnd = from(w.EndToEnd)
	if cfg.Trace {
		res.PerLayer = from(w.PerLayer)
		res.TracePath = w.Traces[0]
	}
	if runErr != nil {
		return res, fmt.Errorf("%s: %w", cfg.Workload, runErr)
	}
	return res, nil
}

// windows derives the warm-up and the measured window from the requested
// duration. The traced run exists for the per-layer numbers, not for
// end-to-end timings, so its untraced and traced windows are shorter.
func windows(seconds float64, traced bool) (warmup, window time.Duration) {
	window = time.Duration(seconds * float64(time.Second))
	warmup = 3 * time.Second
	if traced {
		window = window * 3 / 10
		if window < time.Second {
			window = time.Duration(seconds * float64(time.Second))
		}
	}
	if warmup > window {
		warmup = window
	}
	return warmup, window
}
