package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// verdict is compare's reading of one workload × end-to-end metric.
type verdict string

const (
	unchanged  verdict = "unchanged"
	improved   verdict = "improved"
	regression verdict = "REGRESSION"
	unresolved verdict = "unresolved"
)

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// judge compares the change (b) with the parent (a) on one metric. The
// change's median may be worse than the parent's by at most the bound.
// Where either side's run-to-run spread is wider than the bound the
// medians prove nothing: the metric is unresolved, unless every run of
// one side beats every run of the other.
func judge(m metricSpec, a, b *summary) (verdict, float64) {
	worse := func(x, y float64) bool { // x worse than y
		if m.Better == "higher" {
			return x < y
		}
		return x > y
	}
	delta := 0.0
	if a.Median != 0 {
		delta = (b.Median - a.Median) / a.Median
	}
	worsening := delta
	if m.Better == "higher" {
		worsening = -delta
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		allBetter, allWorse := true, true
		for _, x := range b.Values {
			for _, y := range a.Values {
				allBetter = allBetter && worse(y, x)
				allWorse = allWorse && worse(x, y)
			}
		}
		switch {
		case allWorse && worsening > m.Bound:
			return regression, delta
		case allBetter:
			return improved, delta
		}
		return unresolved, delta
	}
	switch {
	case worsening > m.Bound:
		return regression, delta
	case worsening < -m.Bound:
		return improved, delta
	}
	return unchanged, delta
}

// compareMain prints one row per workload × end-to-end metric and exits
// non-zero on a regression or a higher failure ratio.
func compareMain(spec *benchSpec, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare PARENT.json CHANGE.json")
		return 2
	}
	a, err := loadReport(args[0])
	if err == nil {
		var b *report
		if b, err = loadReport(args[1]); err == nil {
			return compareReports(spec, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

func compareReports(spec *benchSpec, a, b *report) int {
	if a.Env != b.Env {
		fmt.Printf("note: environments differ\n  parent: %+v\n  change: %+v\n", a.Env, b.Env)
	}
	fmt.Printf("%-16s %-16s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "parent", "change", "delta", "bound", "spread", "verdict")
	code, unresolvedN := 0, 0
	for _, ws := range spec.Workloads {
		wa, wb := a.Workloads[ws.Name], b.Workloads[ws.Name]
		if wa == nil || wb == nil {
			fmt.Printf("%-16s missing from one side\n", ws.Name)
			code = 1
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if sa == nil || sb == nil {
				fmt.Printf("%-16s %-16s missing from one side\n", ws.Name, m.Name)
				code = 1
				continue
			}
			v, delta := judge(m, sa, sb)
			wide := spread(sa)
			if s := spread(sb); s > wide {
				wide = s
			}
			fmt.Printf("%-16s %-16s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				ws.Name, m.Name, sa.Median, sb.Median, 100*delta, 100*m.Bound, 100*wide, v)
			switch v {
			case regression:
				code = 1
			case unresolved:
				unresolvedN++
			}
		}
		if wb.FailRatio > wa.FailRatio {
			fmt.Printf("%-16s %-16s %14g %14g  REGRESSION: more operations failed\n", ws.Name, "fail_ratio", wa.FailRatio, wb.FailRatio)
			code = 1
		} else {
			fmt.Printf("%-16s %-16s %14g %14g\n", ws.Name, "fail_ratio", wa.FailRatio, wb.FailRatio)
		}
	}
	if unresolvedN > 0 {
		fmt.Printf("%d metric(s) unresolved: the run-to-run spread exceeds the bound; run more or longer before claiming anything\n", unresolvedN)
	}
	return code
}
