package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return &r, nil
}

// worseBy is how much b is worse than a as a share of a, given the
// metric's direction; negative when b is better.
func worseBy(m metricDef, a, b float64) float64 {
	if m.Better == higher {
		a, b = b, a
	}
	return ratio(b-a, a)
}

// verdict applies one metric's bound to two results. A metric whose
// own noise (the range of its leave-one-block-out values) is wider than
// its bound cannot be resolved unless the two ranges do not even
// overlap.
func verdict(m metricDef, a, b summary) string {
	aLo, aHi, aNoise := a.noise()
	bLo, bHi, bNoise := b.noise()
	overlap := aLo <= bHi && bLo <= aHi
	switch d := worseBy(m, a.Value, b.Value); {
	case (aNoise > m.Bound || bNoise > m.Bound) && overlap:
		return "unresolved"
	case d > m.Bound:
		return "worse"
	}
	return "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files and returns non-zero if any row is worse. It is the
// tool the benchmark's own "two sets of runs agree" criterion is
// checked with.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return compareResults(a, b, stdout)
}

func compareResults(a, b *result, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-22s %-20s %14s %14s %8s %7s  %s\n", "workload", "metric", "A", "B", "B worse", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			continue
		}
		for _, m := range endToEnd {
			sa, sb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			v := verdict(m, sa, sb)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-22s %-20s %14.6g %14.6g %+7.1f%% %6.0f%%  %s\n",
				wa.Name, m.Name, sa.Value, sb.Value, 100*worseBy(m, sa.Value, sb.Value), 100*m.Bound, v)
		}
		digest := "equal"
		if wa.Digest != wb.Digest || !wa.DigestsEqual || !wb.DigestsEqual {
			digest = "DIFFERENT"
		}
		fmt.Fprintf(w, "%-22s sim_digest %s; failed share %.3g -> %.3g\n\n", wa.Name, digest,
			ratio(float64(wa.Failed), float64(wa.Ops)), ratio(float64(wb.Failed), float64(wb.Ops)))
	}
	if a.Layers != nil && b.Layers != nil {
		differ := 0
		for _, m := range perLayer {
			if m.Exact && a.Layers[m.Name] != b.Layers[m.Name] {
				differ++
				fmt.Fprintf(w, "exact count %s differs: %v -> %v\n", m.Name, a.Layers[m.Name], b.Layers[m.Name])
			}
		}
		fmt.Fprintf(w, "exact per-layer counts differing: %d\n", differ)
	}
	return code
}
