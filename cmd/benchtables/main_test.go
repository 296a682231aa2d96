package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
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

// TestFaultsUsageExit runs the command on -faults values that parse key
// by key but are no usable spec — a NaN rate, a repeated key — and
// requires exit status 1 with one benchtables: line on stderr. -list
// keeps a wrongly accepted spec from starting the sweep.
func TestFaultsUsageExit(t *testing.T) {
	for _, spec := range []string{"drop=NaN", "drop=0.1,drop=0.2"} {
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
		{name: "good reliable kv", rel: "rto=4,budget=6", wantRel: true},
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
		"":                 "",
		"off":              "",
		"on":               "on",
		"rto=3,backoff=2":  "on", // defaults collapse
		"rto=4,stretch=16": "rto=4,stretch=16",
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
// many are bad at once. A negative -procs used to end in a driver panic,
// and a -flight ring with neither -events nor -trace was filled and
// never written.
func TestCheckCounts(t *testing.T) {
	type counts struct {
		procs, flight int
		timeout       time.Duration
		exported      bool
	}
	good := counts{procs: 2}
	cases := []struct {
		name  string
		edit  func(*counts)
		lines []string // wanted error lines, in flag order; nil means valid
	}{
		{name: "defaults", edit: func(*counts) {}},
		{name: "all set", edit: func(c *counts) { *c = counts{1, 4096, time.Minute, true} }},
		{name: "procs zero", edit: func(c *counts) { c.procs = 0 }, lines: []string{"-procs: 0"}},
		{name: "procs negative", edit: func(c *counts) { c.procs = -1 }, lines: []string{"-procs: -1"}},
		{name: "flight negative", edit: func(c *counts) { c.flight = -1 }, lines: []string{"-flight: -1"}},
		{name: "flight without exporter", edit: func(c *counts) { c.flight = 4096 }, lines: []string{"-flight: 4096"}},
		{name: "cell-timeout negative", edit: func(c *counts) { c.timeout = -time.Second }, lines: []string{"-cell-timeout: -1s"}},
		{name: "two bad", edit: func(c *counts) { c.procs, c.flight = -1, 64 },
			lines: []string{"-procs: -1", "-flight: 64"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := good
			tc.edit(&c)
			err := checkCounts(c.procs, c.flight, c.timeout, c.exported)
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
