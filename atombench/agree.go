package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// Verdicts of the agreement check.
const (
	statusOK         = "ok"
	statusRegressed  = "regressed"
	statusUnresolved = "unresolved" // the runs' own spread is wider than the bound
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// agreeFiles compares result file b against a and prints one row per
// (workload, metric). It reports whether any row regressed.
func agreeFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-10s %-34s %14s %14s %9s  %s\n", "workload", "metric", "a", "b", "change", "status")
	for _, ra := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(r *result) bool { return r.Workload == ra.Workload })
		if i < 0 {
			return false, fmt.Errorf("%s has no workload %s", pathB, ra.Workload)
		}
		rb := b.Workloads[i]
		status := statusOK
		if ra.Digest != rb.Digest {
			status, regressed = statusRegressed, true
		}
		fmt.Fprintf(w, "%-10s %-34s %14.12s %14.12s %9s  %s\n", ra.Workload, "virtual_digest", ra.Digest, rb.Digest, "", status)
		// A busy host slows every probe at once. The timing rows are judged
		// after dividing out that common shift, so that they show which
		// layer moved against the others; wall_s is judged as measured.
		drift := hostDrift(ra, rb)
		fmt.Fprintf(w, "%-10s %-34s %14s %14s %9s  %s\n", ra.Workload, "(common shift of the timing rows)", "", "", fmt.Sprintf("%+.2f%%", 100*(drift-1)), "")
		// The tracing overhead is a difference of two wall times and is
		// resolved no better than those spread.
		slack := relSpread(ra.Metrics["wall_s"]) + relSpread(rb.Metrics["wall_s"])
		for _, d := range slices.Concat(endToEnd, []def{failedShare}, perLayer) {
			va, okA := ra.Metrics[d.Name]
			vb, okB := rb.Metrics[d.Name]
			if !okA && !okB {
				continue
			}
			if okA != okB {
				return false, fmt.Errorf("%s %s is in only one of the files", ra.Workload, d.Name)
			}
			change := ""
			if va.Value != 0 {
				change = fmt.Sprintf("%+.2f%%", 100*(vb.Value-va.Value)/va.Value)
			}
			status := compare(d, va, vb, drift, slack)
			regressed = regressed || status == statusRegressed
			fmt.Fprintf(w, "%-10s %-34s %14.6g %14.6g %9s  %s\n", ra.Workload, d.Name, va.Value, vb.Value, change, status)
		}
	}
	return regressed, nil
}

// hostDrift is the median of b/a over the workload's timing rows.
func hostDrift(a, b *result) float64 {
	var ratios []float64
	for _, d := range perLayer {
		va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
		if d.Kind == timing && va > 0 && vb > 0 {
			ratios = append(ratios, vb/va)
		}
	}
	if len(ratios) == 0 {
		return 1
	}
	return median(ratios)
}

// relSpread is the spread of a metric's readings as a share of its value.
func relSpread(v value) float64 {
	if v.Value == 0 {
		return 0
	}
	return spread(v.Samples) / abs(v.Value)
}

// compare judges b against a by the rule of the metric's kind. drift is the
// common shift divided out of a timing row, slack the extra tolerance of the
// tracing overhead.
func compare(d def, a, b value, drift, slack float64) string {
	worse := b.Value - a.Value // by how much b is worse than a
	if d.Better == "higher" {
		worse = -worse
	}
	switch d.Kind {
	case exact:
		if a.Value != b.Value {
			return statusRegressed
		}
	case share:
		tolerance := shareTolerance
		if d.Name == "obs.overhead_share" {
			tolerance += slack
		}
		if abs(worse) > tolerance {
			return statusRegressed
		}
	case timing:
		if b.Value/drift-a.Value > timingTolerance*abs(a.Value) {
			return statusRegressed
		}
	case gated:
		allowed := d.Bound * abs(a.Value)
		if d.Name == "setup_s" {
			allowed = max(allowed, setupFloor)
		}
		// A spread wider than the bound cannot show "unchanged" — unless
		// every reading of b is better than every reading of a.
		if spread(a.Samples) > allowed && !allBetter(d, a.Samples, b.Samples) {
			return statusUnresolved
		}
		if worse > allowed {
			return statusRegressed
		}
	}
	return statusOK
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// spread is the distance between the extremes of a run's own readings:
// with three passes there are no quartiles to take.
func spread(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	return slices.Max(samples) - slices.Min(samples)
}

func allBetter(d def, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if d.Better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}
