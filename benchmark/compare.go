package main

import (
	"fmt"
	"io"
	"strings"
)

// compareSets prints one row per (workload, end-to-end metric): both
// medians, the ratio and what it is a ratio of, the bound BENCHMARK.json
// fixes, and a verdict. A metric whose own run-to-run spread (distance
// between the quartiles over the median, in either set) is wider than its
// bound is unresolved, not unchanged. Exact-count per-layer metrics are
// held to equality. The error is non-nil when any row regressed.
func compareSets(w io.Writer, spec *benchSpec, pathA, pathB string) error {
	a, err := readResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return err
	}
	var rows [][]string
	row := func(format string, args ...interface{}) {
		rows = append(rows, strings.Split(fmt.Sprintf(format, args...), "\t"))
	}
	row("workload\tmetric\tA median\tB median\tB/A\tbase\tspread A\tspread B\tbound\tverdict")
	regressed := 0
	for _, name := range workloadNames() {
		for _, d := range endToEnd {
			va, vb := a.values(name, d.Name, false), b.values(name, d.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			bound, ok := spec.bound(d.Name)
			if !ok {
				return fmt.Errorf("BENCHMARK.json has no bound for %s", d.Name)
			}
			ma, mb := median(va), median(vb)
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case sa > bound || sb > bound:
				verdict = "unresolved"
			case mb > ma*(1+bound):
				verdict = "regressed"
				regressed++
			}
			row("%s\t%s\t%.6g %s\t%.6g %s\t%.4f\tA=%.6g (n=%d,%d)\t%.4f\t%.4f\t%.2f\t%s",
				name, d.Name, ma, d.Unit, mb, d.Unit, mb/ma, ma, len(va), len(vb), sa, sb, bound, verdict)
		}
	}
	for _, name := range workloadNames() {
		for _, d := range perLayer {
			if !d.Exact {
				continue
			}
			va, vb := a.values(name, d.Name, true), b.values(name, d.Name, true)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict := "ok"
			if !allEqual(append(append([]float64(nil), va...), vb...)) {
				verdict = "regressed"
				regressed++
			}
			row("%s\t%s\t%.0f %s\t%.0f %s\t-\texact count\t-\t-\t0\t%s",
				name, d.Name, va[0], d.Unit, vb[0], d.Unit, verdict)
		}
	}
	if _, err := io.WriteString(w, renderTable(rows)); err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%d rows regressed", regressed)
	}
	return nil
}

// values collects one metric of one workload across the set's runs of
// the given mode.
func (s *resultSet) values(workload, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload != workload || r.Traced != traced || r.Smoke {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// spread is the distance between the first and third quartiles as a
// share of the median - the driver's measure, computed the way Python's
// statistics.quantiles(values, n=4) computes quartiles (exclusive
// method). Fewer than two values have no spread.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := exclusiveQuantile(xs, 0.25), exclusiveQuantile(xs, 0.75)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / m
}

// exclusiveQuantile interpolates at position q*(n+1) of the 1-indexed
// sorted sample, clamped to its ends.
func exclusiveQuantile(xs []float64, q float64) float64 {
	c := sortedCopy(xs)
	pos := q*float64(len(c)+1) - 1
	switch {
	case pos <= 0:
		return c[0]
	case pos >= float64(len(c)-1):
		return c[len(c)-1]
	}
	lo := int(pos)
	frac := pos - float64(lo)
	return c[lo] + frac*(c[lo+1]-c[lo])
}

func allEqual(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// renderTable left-aligns the rows' cells in columns two spaces apart.
func renderTable(rows [][]string) string {
	var width []int
	for _, r := range rows {
		for i, cell := range r {
			if i == len(width) {
				width = append(width, 0)
			}
			if len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	for _, r := range rows {
		for i, cell := range r {
			if i == len(r)-1 {
				b.WriteString(cell)
				break
			}
			fmt.Fprintf(&b, "%-*s", width[i]+2, cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
