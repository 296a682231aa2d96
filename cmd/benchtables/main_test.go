package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"overlaynet/internal/exp"
)

// mainArg makes the test binary run the command itself, on the
// arguments after it, so a test can check its exit status and stderr.
const mainArg = "-run-benchtables"

func TestMain(m *testing.M) {
	if i := slices.Index(os.Args, mainArg); i >= 0 {
		os.Args = append([]string{"benchtables"}, os.Args[i+1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchtables runs the command on args and returns its stdout; a
// non-zero exit fails the test with its stderr.
func benchtables(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{mainArg}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("benchtables %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}

// readJSON decodes the JSON file at path into v.
func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, v)
	}
	if err != nil {
		t.Fatalf("%s: %v", filepath.Base(path), err)
	}
}

// event is one line of an -events file.
type event struct {
	Type    string             `json:"type"`
	Kind    string             `json:"kind"`
	Metrics map[string]float64 `json:"metrics"`
}

// eventKinds counts the event lines of an -events file by kind.
func eventKinds(evs []event) map[string]int {
	kinds := map[string]int{}
	for _, e := range evs {
		if e.Type == "event" {
			kinds[e.Kind]++
		}
	}
	return kinds
}

// readEvents decodes an -events file, one JSON object per line.
func readEvents(t *testing.T, path string) []event {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var evs []event
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var e event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("%s: %v in %q", filepath.Base(path), err, line)
		}
		evs = append(evs, e)
	}
	return evs
}

// TestArtifacts checks what the telemetry flags write, as the command
// writes it. The tables on stdout are the same at -procs 1 and at
// -procs 8 with every telemetry flag on, which covers the concurrency
// of whole experiments that only the command has. The -trace file is a
// Perfetto timeline without metrics; the -events file ends in the one
// metrics snapshot and carries R1's recovery reports as its only
// events; the manifest records the run and one entry per selected
// experiment. An audited, faulted run exports its violations, and its
// manifest records the -faults value with its seed.
func TestArtifacts(t *testing.T) {
	dir := t.TempDir()
	tracePath, eventsPath, manifestPath := filepath.Join(dir, "trace.json"), filepath.Join(dir, "events.jsonl"), filepath.Join(dir, "manifest.json")
	sel := []string{"-quick", "-maskwall", "-only", "E1,E6,E8,R1"}
	serial := benchtables(t, append(sel, "-procs", "1")...)
	traced := benchtables(t, append(sel, "-procs", "8", "-progress",
		"-trace", tracePath, "-events", eventsPath, "-manifest", manifestPath)...)
	if serial != traced {
		t.Errorf("tables differ with -procs 8 and telemetry:\n--- -procs 1\n%s\n--- -procs 8\n%s", serial, traced)
	}

	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Metrics     json.RawMessage  `json:"metrics"`
	}
	readJSON(t, tracePath, &tr)
	if len(tr.TraceEvents) == 0 || tr.Metrics != nil {
		t.Errorf("trace.json has %d traceEvents and metrics %s; want some and none", len(tr.TraceEvents), tr.Metrics)
	}
	for _, s := range tr.TraceEvents {
		if s["ph"] == nil || s["ts"] == nil {
			t.Fatalf("trace event without ph or ts: %v", s)
		}
	}

	evs := readEvents(t, eventsPath)
	last := evs[len(evs)-1]
	if last.Type != "metrics" || last.Metrics["overlaynet_rounds_total"] == 0 || last.Metrics["overlaynet_cells_total"] == 0 {
		t.Errorf("events.jsonl ends in %+v, want a metrics line with rounds and cells", last)
	}
	if slices.ContainsFunc(evs, func(e event) bool { return e.Type == "counters" }) {
		t.Error("events.jsonl has a counters line")
	}
	if kinds := eventKinds(evs); kinds["recovery"] == 0 || len(kinds) != 1 {
		t.Errorf("events.jsonl has events %v, want R1's recoveries and nothing else", kinds)
	}

	var m map[string]json.RawMessage
	readJSON(t, manifestPath, &m)
	for _, key := range []string{"generated_at", "go_version", "git_rev", "seed", "procs", "gomaxprocs", "experiments"} {
		if m[key] == nil {
			t.Errorf("manifest has no %s", key)
		}
	}
	for _, key := range []string{"counters", "scale_points", "metrics"} {
		if m[key] != nil {
			t.Errorf("manifest carries %s", key)
		}
	}
	var exps []any
	if err := json.Unmarshal(m["experiments"], &exps); err != nil || len(exps) != 4 {
		t.Errorf("manifest lists %d experiments (%v), want the 4 selected", len(exps), err)
	}

	benchtables(t, "-quick", "-only", "E6", "-audit", "-faults", "drop=0.01,seed=5",
		"-events", eventsPath, "-manifest", manifestPath)
	kinds := eventKinds(readEvents(t, eventsPath))
	delete(kinds, "recovery")
	if kinds["violation"] == 0 || len(kinds) != 1 {
		t.Errorf("audited faulted run exported events %v, want violations and no kind but violation or recovery", kinds)
	}
	var faulted struct{ Faults string }
	if readJSON(t, manifestPath, &faulted); faulted.Faults != "drop=0.01,seed=5" {
		t.Errorf("manifest records -faults as %q, want drop=0.01,seed=5", faulted.Faults)
	}
}

// TestDocsNameRealFlags keeps the docs from naming flags the command
// no longer has. On every line of the docs that invokes benchtables (as
// benchtables or /tmp/bt), each -flag token must be one -h lists.
// Tokens between a go command and the next invocation are the go
// tool's own flags (go build -race -o /tmp/bt) and are skipped.
func TestDocsNameRealFlags(t *testing.T) {
	cmd := exec.Command(os.Args[0], mainArg, "-h")
	usage, _ := cmd.CombinedOutput()
	defined := map[string]bool{"h": true, "help": true}
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllSubmatch(usage, -1) {
		defined[string(m[1])] = true
	}
	if !defined["quick"] {
		t.Fatalf("-h output lists no -quick:\n%s", usage)
	}
	invocation := regexp.MustCompile(`benchtables|/tmp/bt\b`)
	token := regexp.MustCompile("(?:^|[`(\"'/])-([a-z][a-z-]*)")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			if !invocation.MatchString(line) {
				continue
			}
			goFlags := false
			for _, word := range strings.Fields(line) {
				switch {
				case strings.Trim(word, "`(") == "go":
					goFlags = true
				case invocation.MatchString(word):
					goFlags = false
				case !goFlags:
					for _, m := range token.FindAllStringSubmatch(word, -1) {
						if !defined[m[1]] {
							t.Errorf("%s:%d names -%s, which benchtables does not define", doc, i+1, m[1])
						}
					}
				}
			}
		}
	}
}

// TestFaultsUsageExit runs the command on -faults values that parse key
// by key but are no usable spec — a NaN rate, a repeated key, a key that
// changes nothing without its partner — and requires exit status 1 with
// one benchtables: line on stderr. -list keeps a wrongly accepted spec
// from starting the sweep.
func TestFaultsUsageExit(t *testing.T) {
	for _, spec := range []string{"drop=NaN", "drop=0.1,drop=0.2", "partk=3", "restart=3", "partfrom=4", "seed=5"} {
		cmd := exec.Command(os.Args[0], mainArg, "-faults", spec, "-list")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		if ee := (*exec.ExitError)(nil); !errors.As(err, &ee) || ee.ExitCode() != 1 {
			t.Errorf("-faults %s: %v, want exit status 1", spec, err)
		}
		if lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n"); len(lines) != 1 || !strings.HasPrefix(lines[0], "benchtables: ") {
			t.Errorf("-faults %s: stderr %q, want one benchtables: line", spec, stderr.String())
		}
	}
}

// TestReliableUsageExit: a -reliable value other than on, off or none is
// a usage error, exit status 1 with one benchtables: line naming the
// flag, as for -faults.
func TestReliableUsageExit(t *testing.T) {
	cmd := exec.Command(os.Args[0], mainArg, "-reliable", "rto=4", "-list")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee := (*exec.ExitError)(nil); !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Errorf("-reliable rto=4: %v, want exit status 1", err)
	}
	if lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n"); len(lines) != 1 || !strings.HasPrefix(lines[0], "benchtables: -reliable: ") {
		t.Errorf("-reliable rto=4: stderr %q, want one benchtables: -reliable: line", stderr.String())
	}
}

// TestParseSpecs covers the structured-model flag triple: well-formed
// values parse, and every malformed value fails with one error that
// names the flag and the offending token — the single usage line the
// user sees instead of a stack of Go error wrapping.
func TestParseSpecs(t *testing.T) {
	cases := []struct {
		name                        string
		faults, latency, rel        string
		wantErr                     bool
		wantFlag, wantToken         string
		wantFault, wantLat, wantRel bool // Active()/Enabled() after a good parse
	}{
		{name: "all empty"},
		{name: "good faults", faults: "drop=0.01,dup=0.001", wantFault: true},
		{name: "good latency", latency: "uniform:0.5,2.5", wantLat: true},
		{name: "good reliable on", rel: "on", wantRel: true},
		{name: "reliable off", rel: "off"},
		{name: "everything", faults: "drop=0.05", latency: "lognorm:0,0.6", rel: "on",
			wantFault: true, wantLat: true, wantRel: true},

		{name: "faults bad key", faults: "drip=0.01",
			wantErr: true, wantFlag: "-faults:", wantToken: "drip"},
		{name: "faults bad value", faults: "drop=lots",
			wantErr: true, wantFlag: "-faults:", wantToken: "lots"},
		{name: "latency bad kind", latency: "gamma:1,2",
			wantErr: true, wantFlag: "-latency:", wantToken: "gamma"},
		{name: "latency bad param", latency: "const:fast",
			wantErr: true, wantFlag: "-latency:", wantToken: "fast"},
		{name: "reliable bad key", rel: "rot=3",
			wantErr: true, wantFlag: "-reliable:", wantToken: "rot"},
		{name: "reliable not kv", rel: "rto",
			wantErr: true, wantFlag: "-reliable:", wantToken: "rto"},
		{name: "reliable bad value", rel: "budget=many",
			wantErr: true, wantFlag: "-reliable:", wantToken: "budget"},
		{name: "reliable invalid rto", rel: "rto=1",
			wantErr: true, wantFlag: "-reliable:", wantToken: "rto=1"},
		{name: "reliable kv rejected", rel: "rto=4,budget=6",
			wantErr: true, wantFlag: "-reliable:", wantToken: "rto=4,budget=6"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, lat, cfg, err := parseSpecs(tc.faults, tc.latency, tc.rel)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("parseSpecs(%q, %q, %q) = nil error, want failure",
						tc.faults, tc.latency, tc.rel)
				}
				msg := err.Error()
				if !strings.HasPrefix(msg, tc.wantFlag) {
					t.Errorf("error %q does not name the flag %q", msg, tc.wantFlag)
				}
				if !strings.Contains(msg, tc.wantToken) {
					t.Errorf("error %q does not name the bad token %q", msg, tc.wantToken)
				}
				if strings.ContainsRune(msg, '\n') {
					t.Errorf("error %q spans multiple lines; want a single usage line", msg)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseSpecs(%q, %q, %q): %v", tc.faults, tc.latency, tc.rel, err)
			}
			if fs.Active() != tc.wantFault || lat.Enabled() != tc.wantLat || cfg.Enabled() != tc.wantRel {
				t.Errorf("parsed activity = faults %v latency %v reliable %v, want %v/%v/%v",
					fs.Active(), lat.Enabled(), cfg.Enabled(), tc.wantFault, tc.wantLat, tc.wantRel)
			}
		})
	}
}

// TestReliableStringRoundTrip pins the manifest rendering: the flag
// value the user passed comes back out of the manifest in canonical
// form, and a disabled config renders empty so the field is omitted.
func TestReliableStringRoundTrip(t *testing.T) {
	for spec, want := range map[string]string{
		"":     "",
		"off":  "",
		"none": "",
		"on":   "on",
	} {
		fs, lat, cfg, err := parseSpecs("", "", spec)
		if err != nil {
			t.Fatalf("parseSpecs reliable=%q: %v", spec, err)
		}
		_, _ = fs, lat
		if got := reliableString(cfg); got != want {
			t.Errorf("reliableString(%q) = %q, want %q", spec, got, want)
		}
	}
}

// TestCheckCounts covers the numeric flags: the defaults pass, and each
// bad value fails with one line naming the flag and the value, however
// many are bad at once. A negative -procs used to end in a driver panic.
func TestCheckCounts(t *testing.T) {
	type counts struct {
		procs   int
		timeout time.Duration
	}
	good := counts{procs: 2}
	cases := []struct {
		name  string
		edit  func(*counts)
		lines []string // wanted error lines, in flag order; nil means valid
	}{
		{name: "defaults", edit: func(*counts) {}},
		{name: "all set", edit: func(c *counts) { *c = counts{1, time.Minute} }},
		{name: "procs zero", edit: func(c *counts) { c.procs = 0 }, lines: []string{"-procs: 0"}},
		{name: "procs negative", edit: func(c *counts) { c.procs = -1 }, lines: []string{"-procs: -1"}},
		{name: "cell-timeout negative", edit: func(c *counts) { c.timeout = -time.Second }, lines: []string{"-cell-timeout: -1s"}},
		{name: "two bad", edit: func(c *counts) { c.procs, c.timeout = -1, -time.Minute },
			lines: []string{"-procs: -1", "-cell-timeout: -1m0s"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := good
			tc.edit(&c)
			err := checkCounts(c.procs, c.timeout)
			if tc.lines == nil {
				if err != nil {
					t.Fatalf("checkCounts(%+v) = %v, want nil", c, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("checkCounts(%+v) = nil, want %q", c, tc.lines)
			}
			got := strings.Split(err.Error(), "\n")
			if len(got) != len(tc.lines) {
				t.Fatalf("error %q has %d lines, want %d", err, len(got), len(tc.lines))
			}
			for i, want := range tc.lines {
				if !strings.HasPrefix(got[i], want+" ") {
					t.Errorf("line %d = %q, want prefix %q", i, got[i], want)
				}
			}
		})
	}
}

// TestSelectExperiments covers -only: ids select in canonical order,
// whatever their case, spacing or repetition, and any id that names no
// experiment fails the selection on one line naming every such id —
// -only E8,E99 used to run E8 and say nothing about E99.
func TestSelectExperiments(t *testing.T) {
	all := exp.All()
	ids := func(es []exp.Experiment) []string {
		var out []string
		for _, e := range es {
			out = append(out, e.ID)
		}
		return out
	}
	cases := []struct {
		name, only string
		want       []string // selected ids; nil means an error
		unknown    []string // the ids the error must name
	}{
		{name: "empty", only: "", want: ids(all)},
		{name: "one", only: "E8", want: []string{"E8"}},
		{name: "canonical order", only: "R1, e8,E1,E8", want: []string{"E1", "E8", "R1"}},
		{name: "one unknown", only: "E8,E99", unknown: []string{`"E99"`}},
		{name: "all unknown", only: "E99,x9", unknown: []string{`"E99"`, `"X9"`}},
		{name: "empty id", only: "E8,", unknown: []string{`""`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := selectExperiments(all, tc.only)
			if tc.want != nil {
				if err != nil || !slices.Equal(ids(got), tc.want) {
					t.Fatalf("selectExperiments(%q) = %v, %v; want %v", tc.only, ids(got), err, tc.want)
				}
				return
			}
			if err == nil {
				t.Fatalf("selectExperiments(%q) = %v, want an error naming %v", tc.only, ids(got), tc.unknown)
			}
			msg := err.Error()
			if !strings.HasPrefix(msg, "-only: ") || strings.ContainsRune(msg, '\n') {
				t.Errorf("error %q is not one -only usage line", msg)
			}
			for _, id := range tc.unknown {
				if !strings.Contains(msg, id) {
					t.Errorf("error %q does not name %s", msg, id)
				}
			}
			if strings.Contains(msg, `"E8"`) {
				t.Errorf("error %q names the known id E8", msg)
			}
		})
	}
}
