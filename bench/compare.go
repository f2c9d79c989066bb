package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// -compare a.json b.json: one row per workload x end-to-end metric with
// both medians, the ratio and its base, and a verdict against that
// metric's bound. It is the tool the A/A check and every later PR use:
// a is the base (the parent commit), b the change.

// Verdicts. A pairing is unresolved, not unchanged, when the base's own
// run-to-run spread is wider than the bound.
const (
	verdictWithin     = "within"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
)

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives. It needs four values; with
// fewer the spread is unknown and reported as 0.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 4 {
		return 0
	}
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	quantile := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	med := median(x)
	if med == 0 {
		return 0
	}
	return (quantile(3) - quantile(1)) / med
}

// compareRow is one workload x metric comparison.
type compareRow struct {
	Workload, Metric, Unit string
	Base, Change           float64 // medians
	NBase, NChange         int
	Ratio                  float64 // Change / Base
	Worse                  float64 // share of Base by which Change is worse (negative = better)
	Spread                 float64 // Base's quartile spread
	Bound                  float64
	Verdict                string
}

// judge fills the derived fields of a row from the two samples.
func judge(m metricDef, base, change []float64) compareRow {
	row := compareRow{Metric: m.Name, Unit: m.Unit, Bound: m.Bound, NBase: len(base), NChange: len(change)}
	if len(base) == 0 || len(change) == 0 {
		row.Verdict = verdictMissing
		return row
	}
	row.Base, row.Change = median(base), median(change)
	row.Ratio = row.Change / row.Base
	row.Worse = row.Ratio - 1
	if m.Better == "higher" {
		row.Worse = 1 - row.Ratio
	}
	row.Spread = quartileSpread(base)
	switch {
	case row.Spread > m.Bound:
		row.Verdict = verdictUnresolved
	case row.Worse > m.Bound:
		row.Verdict = verdictRegressed
	default:
		row.Verdict = verdictWithin
	}
	return row
}

// endToEndSamples groups a results file's correct untraced runs by
// workload and metric.
func endToEndSamples(rf resultsFile) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, run := range rf.Runs {
		if run.Trace || !run.Correct {
			continue
		}
		if out[run.Workload] == nil {
			out[run.Workload] = map[string][]float64{}
		}
		for name, v := range run.Metrics {
			out[run.Workload][name] = append(out[run.Workload][name], v.Value)
		}
	}
	return out
}

// compareResults judges every workload x end-to-end metric pairing.
func compareResults(a, b resultsFile) []compareRow {
	sa, sb := endToEndSamples(a), endToEndSamples(b)
	var rows []compareRow
	for _, w := range workloads {
		if sa[w.Name] == nil && sb[w.Name] == nil {
			continue // a results file may cover some workloads only
		}
		for _, m := range endToEnd {
			row := judge(m, sa[w.Name][m.Name], sb[w.Name][m.Name])
			row.Workload = w.Name
			rows = append(rows, row)
		}
	}
	return rows
}

// compareFiles prints the comparison table and returns the exit code: 0
// when every pairing is within its bound.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(w, "bench: compare:", err)
		return 1
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(w, "bench: compare:", err)
		return 1
	}
	rows := compareResults(a, b)
	if len(rows) == 0 {
		fmt.Fprintln(w, "bench: compare: no end-to-end runs in either file")
		return 1
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase (n)\tchange (n)\tchange/base\tworse by\tbase spread\tbound\tverdict\t")
	code := 0
	for _, r := range rows {
		if r.Verdict != verdictWithin {
			code = 1
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f (%d)\t%.4f (%d)\t%.3f\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\t\n",
			r.Workload, r.Metric, r.Unit, r.Base, r.NBase, r.Change, r.NChange,
			r.Ratio, 100*r.Worse, 100*r.Spread, 100*r.Bound, r.Verdict)
	}
	if err := tw.Flush(); err != nil {
		return 1
	}
	return code
}
