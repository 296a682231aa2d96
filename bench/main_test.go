package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// smokeBoth is one smoke run of both passes at seed 1, shared by the
// tests that only read it.
var smokeBoth = sync.OnceValue(func() *result {
	return measure(config{seed: 1, smoke: true, names: allNames()}, io.Discard)
})

// smokeUntraced runs only the untraced pass, which is all a digest needs.
func smokeUntraced(seed uint64, names []string, noLateness bool) *result {
	return measure(config{seed: seed, smoke: true, names: names, single: true, noLateness: noLateness}, io.Discard)
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestSmokeResultMatchesSchema(t *testing.T) {
	res := smokeBoth()
	if len(res.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads reported, %d defined; the contract allows 2 to 8", len(res.Workloads), len(workloads))
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics exceed the 16/128 limits", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, name := range append(allNames(), metricNames(endToEnd, perLayer)...) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for _, w := range res.Workloads {
		if w.Failed != 0 || !w.DigestsEqual || w.Ops < 1 {
			t.Errorf("%s: ops %d failed %d digests equal %v", w.Name, w.Ops, w.Failed, w.DigestsEqual)
		}
		for _, m := range endToEnd {
			if v := w.Metrics[m.Name].Value; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.Name, m.Name, v)
			}
		}
	}
	for _, m := range perLayer {
		v, ok := res.Layers[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Errorf("per-layer metric %s = %v (present %v)", m.Name, v, ok)
		}
	}
	for name := range res.Layers {
		if !seen[name] {
			t.Errorf("the traced pass produced %s, which no definition names", name)
		}
	}
	// The result file must survive the round trip -compare depends on.
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := compareResults(res, &back, &out); code != 0 || strings.Contains(out.String(), "DIFFERENT") {
		t.Errorf("a result compared with itself: exit %d\n%s", code, out.String())
	}
}

func metricNames(lists ...[]metricDef) []string {
	var names []string
	for _, l := range lists {
		for _, m := range l {
			names = append(names, m.Name)
		}
	}
	return names
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the driver
// reads, equal to the definitions the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string            `json:"command"`
		Paths      []string            `json:"paths"`
		RunSeconds int                 `json:"run_seconds"`
		Workloads  []map[string]string `json:"workloads"`
		EndToEnd   []map[string]any    `json:"end_to_end"`
		PerLayer   []map[string]any    `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	if !reflect.DeepEqual(file.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", file.Command, file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d", file.RunSeconds)
	}
	var wantW []map[string]string
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
		wantW = append(wantW, map[string]string{"name": w.name, "why": w.why})
	}
	if !reflect.DeepEqual(file.Workloads, wantW) {
		t.Errorf("workloads differ:\n file %v\n code %v", file.Workloads, wantW)
	}
	var wantE, wantL []map[string]any
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		wantE = append(wantE, map[string]any{"name": m.Name, "unit": m.Unit, "better": m.Better, "bound": m.Bound})
	}
	for _, m := range perLayer {
		wantL = append(wantL, map[string]any{"name": m.Name, "unit": m.Unit, "better": m.Better})
	}
	if !reflect.DeepEqual(file.EndToEnd, wantE) {
		t.Errorf("end_to_end differs:\n file %v\n code %v", file.EndToEnd, wantE)
	}
	if !reflect.DeepEqual(file.PerLayer, wantL) {
		t.Errorf("per_layer differs from the definitions in metrics.go")
	}
}

func digests(r *result) map[string]string {
	out := map[string]string{}
	for _, w := range r.Workloads {
		out[w.Name] = w.Digest
	}
	return out
}

// inputFree are the workloads -seed has nothing to generate for: the
// flood pattern is fixed and overlay_steady applies no churn or attack
// to its fixed-seed networks.
var inputFree = map[string]bool{"kernel_flood": true, "overlay_steady": true}

// TestDigestsArePureFunctionsOfTheSeed: equal across runs and across
// GOMAXPROCS, different across seeds wherever the seed generates any
// input, and no failures at either seed.
func TestDigestsArePureFunctionsOfTheSeed(t *testing.T) {
	want := digests(smokeBoth())
	prev := runtime.GOMAXPROCS(1)
	again := smokeUntraced(1, allNames(), false)
	runtime.GOMAXPROCS(prev)
	if got := digests(again); !reflect.DeepEqual(got, want) {
		t.Errorf("digests at GOMAXPROCS 1 differ:\n got %v\nwant %v", got, want)
	}
	other := smokeUntraced(2, allNames(), false)
	for _, w := range other.Workloads {
		if same := w.Digest == want[w.Name]; same != inputFree[w.Name] {
			t.Errorf("%s: seeds 1 and 2 give digests %s and %s", w.Name, want[w.Name], w.Digest)
		}
		if w.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed at seed 2", w.Name, w.Failed, w.Ops)
		}
	}
}

// TestNegativeControl proves the failure counter is live: against E8's
// 0-late adversary, who sees the topology in real time, the non-blocked
// nodes must get disconnected.
func TestNegativeControl(t *testing.T) {
	res := smokeUntraced(1, []string{"overlay_dos_measured"}, true)
	if w := res.Workloads[0]; w.Failed == 0 {
		t.Fatalf("0 of %d rounds failed with Lateness 0", w.Ops)
	}
}

func TestContractLine(t *testing.T) {
	var stdout bytes.Buffer
	args := []string{"--workload", "kernel_flood", "--seed", "3", "--seconds", "1", "--trace", "0", "-smoke"}
	if code := run(args, &stdout, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	checkLine := func(out []byte, defs []metricDef) {
		t.Helper()
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var line map[string]json.RawMessage
		if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 {
			t.Errorf("keys of the last line: %v", line)
		}
		var metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(defs) {
			t.Errorf("%d metrics printed, %d defined", len(metrics), len(defs))
		}
		for _, m := range defs {
			if got := metrics[m.Name]; got.Value == nil || got.Unit != m.Unit {
				t.Errorf("%s: printed %+v, want unit %s", m.Name, got, m.Unit)
			}
		}
		if string(line["correct"]) != "true" || string(line["failed"]) != "0" {
			t.Errorf("correct %s failed %s", line["correct"], line["failed"])
		}
	}
	checkLine(stdout.Bytes(), endToEnd)
	stdout.Reset()
	printContractLine(&stdout, smokeBoth(), config{traced: true})
	checkLine(stdout.Bytes(), perLayer)

	if code := run([]string{"--workload", "no_such", "--trace", "0"}, io.Discard, io.Discard); code == 0 {
		t.Error("an unknown workload must not exit 0")
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := metricDef{Name: "node_rounds_per_s", Better: higher, Bound: 0.10}
	tight := func(v float64) summary { return summary{Value: v, LeaveOneOut: []float64{v * 0.99, v}} }
	loose := func(v float64) summary { return summary{Value: v, LeaveOneOut: []float64{v * 0.8, v}} }
	for _, c := range []struct {
		a, b summary
		want string
	}{
		{tight(100), tight(95), "ok"},
		{tight(100), tight(85), "worse"},
		{tight(100), tight(130), "ok"},
		{loose(100), tight(85), "unresolved"},
		{loose(100), tight(50), "worse"}, // ranges do not overlap
	} {
		if got := verdict(m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", c.a.Value, c.b.Value, got, c.want)
		}
	}
}

func TestStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs); v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90 (ten samples beyond)", v, pct)
	}
	spans := []span{{Name: "op", Start: 0, End: 10e6, Parent: -1}, {Name: "in", Start: 1e6, End: 4e6, Parent: 0}}
	if self := selfTimes(spans); self["op"] != 7 || self["in"] != 3 {
		t.Errorf("self times %v", self)
	}
	blocks := []*block{{WallS: 0.011, OpMS: []float64{5, 5}}, {WallS: 0.009, OpMS: []float64{2, 6}}}
	if got := bestWall(blocks); math.Abs(got-0.008) > 1e-12 {
		t.Errorf("bestWall = %v, want 0.002+0.005+0.001", got)
	}
}
