package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json a comparison needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
)

// compareRow is one (workload, metric) pairing of two result sets.
type compareRow struct {
	workload, metric string
	a, b             float64 // medians
	spreadA, spreadB float64
	worse            float64 // relative change in the bad direction
	bound            float64
	verdict          string
}

// judge applies the benchmark's rule to one pairing: unresolved when either
// side's own run-to-run spread exceeds the bound (the data cannot tell),
// otherwise a regression when b's median is worse than a's by more than the
// bound.
func judge(a, b []float64, lowerIsBetter bool, bound float64) compareRow {
	row := compareRow{bound: bound, verdict: verdictOK}
	if len(a) == 0 || len(b) == 0 {
		row.verdict = verdictMissing
		return row
	}
	row.a, row.b = median(a), median(b)
	row.spreadA, row.spreadB = quartileSpread(a), quartileSpread(b)
	row.worse = ratio(row.b-row.a, row.a)
	if !lowerIsBetter {
		row.worse = -row.worse
	}
	switch {
	case row.spreadA > bound || row.spreadB > bound:
		row.verdict = verdictUnresolved
	case row.worse > bound:
		row.verdict = verdictRegression
	}
	return row
}

func metricValues(set *resultSet, workload, name string) []float64 {
	var vals []float64
	for _, r := range set.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// compareFiles prints, per workload and end-to-end metric, how set b moved
// against set a relative to the bound in BENCHMARK.json, and reports whether
// any row is a regression, unresolved or missing.
func compareFiles(out io.Writer, benchPath, pathA, pathB string) (bool, error) {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := readResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-16s %-9s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median a", "median b", "worse", "spread a", "spread b", "bound", "verdict")
	bad := false
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			row := judge(metricValues(a, w.Name, m.Name), metricValues(b, w.Name, m.Name), m.Better == "lower", m.Bound)
			fmt.Fprintf(out, "%-16s %-9s %12.3f %12.3f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, row.a, row.b, 100*row.worse, 100*row.spreadA, 100*row.spreadB, 100*row.bound, row.verdict)
			bad = bad || row.verdict != verdictOK
		}
	}
	return bad, nil
}
