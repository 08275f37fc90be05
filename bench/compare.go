package main

import (
	"fmt"
	"io"
	"sort"
)

// compareFiles prints, for every (end-to-end metric, workload) pair that both
// files hold untraced runs of, whether B against A is regressed, improved,
// unchanged, or unresolved — the last when either side's own run-to-run
// spread exceeds the metric's bound, so a difference of that size cannot be
// told from noise. It reports whether any row regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	va, vb := valuesOf(a), valuesOf(b)
	fmt.Fprintf(w, "%-16s %-16s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			k := [2]string{wl.name, d.Name}
			if len(va[k]) == 0 || len(vb[k]) == 0 {
				continue
			}
			v := judge(d, va[k], vb[k])
			regressed = regressed || v.verdict == "regressed"
			fmt.Fprintf(w, "%-16s %-16s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%%  %s\n",
				wl.name, d.Name, v.a, v.b, 100*v.worse, 100*v.spread, 100*d.Bound, v.verdict)
		}
	}
	return regressed, nil
}

func valuesOf(f runFile) map[[2]string][]float64 {
	out := map[[2]string][]float64{}
	for _, r := range f.Runs {
		if r.Trace {
			continue
		}
		names := make([]string, 0, len(r.Metrics))
		for name := range r.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			k := [2]string{r.Workload, name}
			out[k] = append(out[k], r.Metrics[name].Value)
		}
	}
	return out
}

type judgement struct {
	a, b    float64 // medians
	worse   float64 // B's worsening as a share of A's median; negative is better
	spread  float64 // the larger of the two sides' interquartile spreads
	verdict string
}

func judge(d metricDef, a, b []float64) judgement {
	j := judgement{a: median(a), b: median(b), spread: max(spread(a), spread(b))}
	j.worse = ratio(j.b-j.a, j.a)
	if d.Better == higher {
		j.worse = -j.worse
	}
	switch {
	case j.spread > d.Bound:
		j.verdict = "unresolved"
	case j.worse > d.Bound:
		j.verdict = "regressed"
	case j.worse < -d.Bound:
		j.verdict = "improved"
	default:
		j.verdict = "unchanged"
	}
	return j
}
