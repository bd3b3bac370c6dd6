package main

// -compare: the tool the two-set agreement criterion is checked with. Each
// result file holds one or more untraced runs per workload (append with
// -o); the comparison is between their medians, read against the bound
// BENCHMARK.json stores for the metric.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// spread is the distance between the quartiles as a share of the median:
// 0 with fewer than two runs.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 { // linear interpolation, exclusive method
		pos := p*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	med := q(0.5)
	if med == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / med
}

func loadRuns(path string) (map[string]map[string][]float64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(buf, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string][]float64{}
	for _, r := range rf.Runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out, nil
}

// verdict judges b against base a for one metric. worse is how much worse
// b's median is, as a share of a's. When the runs of either side spread
// wider than the bound the metric is unresolved, unless every run of b
// reads better than every run of a.
func verdict(d metricDef, a, b []float64) (ratio float64, v string) {
	ma, mb := medianFloat(a), medianFloat(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	ratio = mb / ma
	worse := ratio - 1
	if d.Better == "higher" {
		worse = 1 - ratio
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
		sort.Float64s(sa)
		sort.Float64s(sb)
		allBetter := sb[len(sb)-1] < sa[0]
		if d.Better == "higher" {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if !allBetter {
			return ratio, "unresolved"
		}
	}
	if worse > d.Bound {
		return ratio, "regressed"
	}
	return ratio, "ok"
}

func compareFiles(manifestPath, pathA, pathB string) error {
	buf, err := os.ReadFile(manifestPath)
	if err != nil {
		return err
	}
	var man manifest
	if err := json.Unmarshal(buf, &man); err != nil {
		return fmt.Errorf("%s: %w", manifestPath, err)
	}
	a, err := loadRuns(pathA)
	if err != nil {
		return err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-20s %14s %14s %22s %6s  %s\n", "workload", "metric", "a (base)", "b", "b/a (base a)", "bound", "verdict")
	bad := 0
	for _, w := range man.Workloads {
		for _, d := range man.EndToEnd {
			va, vb := a[w.Name][d.Name], b[w.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-14s %-20s %14s %14s %22s %6.2f  missing\n", w.Name, d.Name, "-", "-", "-", d.Bound)
				bad++
				continue
			}
			ratio, v := verdict(d, va, vb)
			if v != "ok" {
				bad++
			}
			fmt.Printf("%-14s %-20s %14.6g %14.6g %12.4f of %-8.4g %5.2f  %s (n=%d/%d, spread %.3f/%.3f)\n",
				w.Name, d.Name, medianFloat(va), medianFloat(vb), ratio, medianFloat(va), d.Bound, v, len(va), len(vb), spread(va), spread(vb))
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload x metric pairs are not ok", bad)
	}
	return nil
}
