package main

import (
	"fmt"
	"io"
	"math"
	"os"
)

// Row statuses of -compare.
const (
	statusImproved   = "improved"
	statusUnchanged  = "unchanged"
	statusRegressed  = "regressed"
	statusUnresolved = "unresolved" // run-to-run spread wider than the bound
)

type compareRow struct {
	Metric, Workload string
	Base, New        float64
	Spread           float64 // larger of the two documents' relative spreads
	Status           string
	Rule             string
}

// pooled gathers one workload's values of one metric over a document's
// runs. The value is the median over runs. The samples the spread is
// read from are the runs' values when there are at least three of them
// (bench -runs 3); with fewer, the samples inside the runs stand in.
func pooled(d *document, workload, metric string) (value float64, samples []float64, ok bool) {
	var vals []float64
	for _, r := range d.Runs {
		if r.Workload != workload {
			continue
		}
		if m, has := r.Metrics[metric]; has {
			vals = append(vals, m.Value)
			if len(m.Samples) > 0 {
				samples = append(samples, m.Samples...)
			} else {
				samples = append(samples, m.Value)
			}
		}
	}
	if len(vals) == 0 {
		return 0, nil, false
	}
	if len(vals) >= 3 {
		samples = vals
	}
	return median(vals), samples, true
}

// relSpread is the distance between the first and third quartile as a
// share of the median; with fewer than four samples, the full range.
func relSpread(samples []float64) float64 {
	med := median(samples)
	if len(samples) < 2 || med == 0 {
		return 0
	}
	lo, hi := quantile(samples, 0.25), quantile(samples, 0.75)
	if len(samples) < 4 {
		lo, hi = quantile(samples, 0), quantile(samples, 1)
	}
	return (hi - lo) / math.Abs(med)
}

// judge applies one metric's direction and bound to a base and a new value.
func judge(def *metricDef, base, new, spread float64) string {
	worse := new - base // positive = worse, in the metric's own unit
	if def.Better == "higher" {
		worse = -worse
	}
	switch {
	case def.Exact, def.Step:
		// Simulated statistics repeat exactly, and the rate ladder has
		// discrete rungs: any change is a reported change.
		switch {
		case worse > 0:
			return statusRegressed
		case worse < 0:
			return statusImproved
		}
		return statusUnchanged
	case def.Abs > 0:
		switch {
		case worse > def.Abs:
			return statusRegressed
		case worse < -def.Abs:
			return statusImproved
		}
		return statusUnchanged
	}
	if math.Abs(worse) < def.Floor || base == 0 {
		return statusUnchanged
	}
	rel := worse / math.Abs(base)
	switch {
	case rel > def.Bound:
		return statusRegressed
	case spread > def.Bound:
		return statusUnresolved
	case rel < -def.Bound && -rel > spread:
		return statusImproved
	}
	return statusUnchanged
}

// compareDocs produces one row per (metric, workload) that carries a
// compare rule and appears in both documents.
func compareDocs(a, b *document) []compareRow {
	var rows []compareRow
	for i := range metricDefs {
		def := &metricDefs[i]
		if def.Bound == 0 && !def.Exact && !def.Step && def.Abs == 0 {
			continue
		}
		for _, w := range workloadNames() {
			if !def.definedOn(w) {
				continue
			}
			av, as, okA := pooled(a, w, def.Name)
			bv, bs, okB := pooled(b, w, def.Name)
			if !okA || !okB {
				continue
			}
			spread := math.Max(relSpread(as), relSpread(bs))
			rows = append(rows, compareRow{Metric: def.Name, Workload: w, Base: av, New: bv,
				Spread: spread, Status: judge(def, av, bv, spread), Rule: def.boundText()})
		}
	}
	return rows
}

// compareFiles prints the comparison and returns the exit code: non-zero
// on any regressed row or any higher fail_frac.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readDocument(pathA)
	if err == nil {
		var b *document
		if b, err = readDocument(pathB); err == nil {
			return printComparison(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func printComparison(w io.Writer, a, b *document) int {
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "note: documents differ in seed (%d, %d) or seconds (%d, %d); exact metrics are only comparable at one seed\n",
			a.Seed, b.Seed, a.Seconds, b.Seconds)
	}
	rows := compareDocs(a, b)
	code := 0
	fmt.Fprintf(w, "%-28s %-16s %14s %14s %9s %8s  %-10s %s\n", "metric", "workload", "base", "new", "new/base", "spread", "status", "bound")
	for _, r := range rows {
		ratio := "-" // every ratio is printed next to its base
		if r.Base != 0 {
			ratio = fmt.Sprintf("%.4f", r.New/r.Base)
		}
		fmt.Fprintf(w, "%-28s %-16s %14.6g %14.6g %9s %7.2f%%  %-10s %s\n",
			r.Metric, r.Workload, r.Base, r.New, ratio, 100*r.Spread, r.Status, r.Rule)
		if r.Status == statusRegressed || (r.Metric == "fail_frac" && r.New > r.Base) {
			code = 1
		}
	}
	if len(rows) == 0 {
		fmt.Fprintln(w, "no metric appears in both documents")
		return 2
	}
	return code
}
