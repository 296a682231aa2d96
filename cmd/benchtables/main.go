// Command benchtables regenerates every experiment table of the
// reproduction (DESIGN.md §3, recorded in EXPERIMENTS.md).
//
// Usage:
//
//	benchtables [-quick] [-seed N] [-only E8[,E9,…]] [-procs N] [-list]
//	           [-audit] [-faults drop=0.01,dup=0.001,crash=0.05,restart=2]
//	           [-latency uniform:0.5,2.5] [-reliable on|off]
//	           [-cell-timeout D] [-cpuprofile F] [-trace F] [-events F]
//	           [-manifest F] [-progress] [-maskwall]
//
// Sweep cells run on -procs workers (default: all CPUs), and each §5/§6
// overlay network runs its rounds on $OVERLAYNET_SHARDS intra-round
// workers (default 1; see internal/committee); the sim kernel is serial.
// Neither count, nor any telemetry flag, changes a table: the contract
// exp.Options states and internal/exp's invariant_test.go checks.
// -only names experiments by id (-list prints them); an id that names
// none is a usage error.
//
// Telemetry:
//
//	-trace F     write a Chrome/Perfetto trace_events JSON file with a
//	             span per experiment, per sweep cell (worker id, seed)
//	             and per reconfiguration epoch: a timeline view for
//	             https://ui.perfetto.dev, without the metrics.
//	-events F    write the raw event/span stream as JSONL, the complete
//	             record; summarize it with cmd/tracestats.
//	-manifest F  write a run manifest (seed, go version, GOMAXPROCS,
//	             -procs, git revision, per-experiment wall time) so
//	             every recorded table is attributable to the run that
//	             produced it.
//	-progress    print a live cells-done/total + ETA line to stderr.
//
// With -trace or -events, one metrics registry (internal/obs) holds the
// run's kernel, cell, epoch and audit counts as named counters and
// streaming histograms, exported on the -events file's last line. Both
// files carry every audit violation and recovery as an event; a
// round's facts are counts, never events. The protocol stacks' own
// counts are the tables' columns.
//
// Robustness:
//
//	-cell-timeout D arm the per-cell stall watchdog: a sweep cell that
//	                makes no progress for D wall-clock time (e.g. 5m)
//	                fails the run with a diagnostic naming the cell
//	                instead of hanging the sweep. 0 disables. Purely
//	                wall-clock — it never changes table contents of
//	                cells that do finish.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"overlaynet/internal/exp"
	"overlaynet/internal/fault"
	"overlaynet/internal/reliable"
	"overlaynet/internal/sim"
	"overlaynet/internal/trace"
)

// manifest records everything needed to attribute a set of regenerated
// tables to the run that produced them.
type manifest struct {
	GeneratedAt  string               `json:"generated_at"`
	GoVersion    string               `json:"go_version"`
	OSArch       string               `json:"os_arch"`
	GitRev       string               `json:"git_rev"`
	Seed         uint64               `json:"seed"`
	Quick        bool                 `json:"quick"`
	Procs        int                  `json:"procs"`
	Audit        bool                 `json:"audit,omitempty"`
	Faults       string               `json:"faults,omitempty"`
	Latency      string               `json:"latency,omitempty"`
	Reliable     string               `json:"reliable,omitempty"`
	GOMAXPROCS   int                  `json:"gomaxprocs"`
	NumCPU       int                  `json:"num_cpu"`
	TotalSeconds float64              `json:"total_seconds"`
	Experiments  []manifestExperiment `json:"experiments"`
}

type manifestExperiment struct {
	ID      string  `json:"id"`
	Claim   string  `json:"claim"`
	Rows    int     `json:"rows"`
	Seconds float64 `json:"seconds"`
}

// gitRev resolves the source revision: the VCS stamp the Go toolchain
// embeds at build time if present, else a live `git rev-parse HEAD`,
// else "unknown".
func gitRev() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				return rev + "-dirty"
			}
			return rev
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// faultsString renders the spec for the manifest, seed included so the
// run can be repeated ("" when inactive, so the field is omitted).
func faultsString(s fault.Spec) string {
	if !s.Active() {
		return ""
	}
	return s.String()
}

// latencyString renders the latency model for the manifest ("" for the
// synchronous default, so the field is omitted).
func latencyString(l sim.Latency) string {
	if !l.Enabled() {
		return ""
	}
	return l.String()
}

// reliableString renders the reliable-delivery config for the manifest
// ("" when disabled, so the field is omitted).
func reliableString(c reliable.Config) string {
	if !c.Enabled() {
		return ""
	}
	return c.String()
}

// parseSpecs validates the three structured-model flags. A malformed
// value yields one error naming the flag and the offending token — the
// caller turns it into a single usage line on stderr.
func parseSpecs(faults, latency, rel string) (fault.Spec, sim.Latency, reliable.Config, error) {
	fs, err := fault.ParseSpec(faults)
	if err != nil {
		return fault.Spec{}, sim.Latency{}, reliable.Config{}, fmt.Errorf("-faults: %v", err)
	}
	lat, err := sim.ParseLatency(latency)
	if err != nil {
		return fault.Spec{}, sim.Latency{}, reliable.Config{}, fmt.Errorf("-latency: %v", err)
	}
	cfg, err := reliable.ParseConfig(rel)
	if err != nil {
		return fault.Spec{}, sim.Latency{}, reliable.Config{}, fmt.Errorf("-reliable: %v", err)
	}
	return fs, lat, cfg, nil
}

// checkCounts validates the numeric flags. Each bad value yields one
// line naming the flag and the value, so a negative -procs is a usage
// error rather than a driver panic.
func checkCounts(procs int, cellTimeout time.Duration) error {
	var errs []error
	check := func(ok bool, flag string, v any, want string) {
		if !ok {
			errs = append(errs, fmt.Errorf("%s: %v is not %s", flag, v, want))
		}
	}
	check(procs >= 1, "-procs", procs, "a worker count of at least 1")
	check(cellTimeout >= 0, "-cell-timeout", cellTimeout, "a duration of at least 0")
	return errors.Join(errs...)
}

// selectExperiments resolves -only against all: every experiment when
// only is empty, else the named ones in canonical order. Ids are
// case-insensitive; an id that names no experiment is an error, one line
// naming each such id.
func selectExperiments(all []exp.Experiment, only string) ([]exp.Experiment, error) {
	if only == "" {
		return all, nil
	}
	want := map[string]bool{}
	var unknown []string
	for _, id := range strings.Split(only, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if !slices.ContainsFunc(all, func(e exp.Experiment) bool { return e.ID == id }) {
			unknown = append(unknown, fmt.Sprintf("%q", id))
		}
		want[id] = true
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("-only: not an experiment id: %s (-list prints them)", strings.Join(unknown, ", "))
	}
	var selected []exp.Experiment
	for _, e := range all {
		if want[e.ID] {
			selected = append(selected, e)
		}
	}
	return selected, nil
}

// fatalf prints each line of the message as one usage line and exits 1.
func fatalf(format string, args ...any) {
	for _, line := range strings.Split(fmt.Sprintf(format, args...), "\n") {
		fmt.Fprintln(os.Stderr, "benchtables: "+line)
	}
	os.Exit(1)
}

func main() {
	quick := flag.Bool("quick", false, "run reduced sweeps")
	seed := flag.Uint64("seed", 42, "random seed")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	procs := flag.Int("procs", runtime.GOMAXPROCS(0), "worker goroutines for sweep cells (tables are identical for any value)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	traceOut := flag.String("trace", "", "write a Chrome/Perfetto trace_events JSON file")
	eventsOut := flag.String("events", "", "write the raw telemetry stream as JSONL")
	manifestOut := flag.String("manifest", "", "write a run manifest JSON file")
	progress := flag.Bool("progress", false, "print live sweep progress to stderr")
	auditOn := flag.Bool("audit", false, "attach the runtime invariant-audit engine to the reconfiguration experiments")
	faultsFlag := flag.String("faults", "", "deterministic fault injection, e.g. drop=0.01,dup=0.001,crash=0.05,restart=2")
	cellTimeout := flag.Duration("cell-timeout", 0, "per-cell stall watchdog (e.g. 5m); 0 disables")
	maskWall := flag.Bool("maskwall", false, "blank wall-clock table columns (rounds/sec) and omit the per-experiment seconds so output can be diffed across runs and machines")
	// -latency runs every sim-kernel network under the discrete-event
	// scheduler (the §5/§6 overlay stacks translate the model into a
	// per-virtual-round delivery deadline only inside AS1, which sweeps
	// its own specs).
	latencyFlag := flag.String("latency", "", "per-edge latency model for sim-kernel networks: sync, const:D, uniform:LO,HI, lognorm:MU,SIGMA (rounds)")
	// -reliable wraps every sim-kernel protocol handler in the
	// ack/retransmit endpoints of internal/reliable. AS2 sweeps its own
	// configs and ignores the global flag, like AS1 does for -latency.
	reliableFlag := flag.String("reliable", "", "reliable delivery for sim-kernel networks: off or on (rto 3, backoff 2, budget 5, automatic stretch)")
	flag.Parse()

	faultSpec, latency, reliableCfg, err := parseSpecs(*faultsFlag, *latencyFlag, *reliableFlag)
	if err != nil {
		fatalf("%v", err)
	}
	if err := checkCounts(*procs, *cellTimeout); err != nil {
		fatalf("%v", err)
	}

	experiments := exp.All()
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.ID, e.Claim)
		}
		return
	}
	selected, err := selectExperiments(experiments, *only)
	if err != nil {
		fatalf("%v", err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("%v", err)
		}
		defer pprof.StopCPUProfile()
	}

	opts := exp.Options{Seed: *seed, Quick: *quick, Procs: *procs, Audit: *auditOn,
		Faults: faultSpec, Latency: latency, Reliable: reliableCfg, CellTimeout: *cellTimeout}

	// Telemetry wiring. A single recorder spans every experiment; it
	// aggregates counters and spans and keeps violation and recovery
	// reports. Its registry holds every count of the run: counters and
	// streaming histograms cost O(1) per round and never perturb tables.
	var rec *trace.Recorder
	if *traceOut != "" || *eventsOut != "" {
		rec = trace.New()
		opts.Trace = rec
	}
	var prog *trace.Progress
	if *progress {
		prog = trace.NewProgress(os.Stderr, 2*time.Second)
		opts.Progress = prog
	}

	// Experiments are independent, so they run concurrently on the same
	// worker budget that each driver's sweep cells use; tables stream
	// out in canonical order as their experiments finish.
	type result struct {
		table   string
		rows    int
		elapsed time.Duration
	}
	runStart := time.Now()
	results := make([]result, len(selected))
	done := make([]chan struct{}, len(selected))
	for i := range done {
		done[i] = make(chan struct{})
	}
	sem := make(chan struct{}, *procs)
	for i, e := range selected {
		go func(i int, e exp.Experiment) {
			sem <- struct{}{}
			defer func() { <-sem }()
			// An invariant panic inside a driver (reachable under fault
			// injection) must fail the whole run distinguishably, not
			// hang the table loop on a dead channel.
			defer func() {
				if r := recover(); r != nil {
					fmt.Fprintf(os.Stderr, "benchtables: %s: invariant panic: %v\n%s", e.ID, r, debug.Stack())
					os.Exit(2)
				}
			}()
			o := opts
			o.Exp = e.ID
			start := time.Now()
			tbl := e.Run(o)
			if *maskWall {
				exp.MaskWallClock(tbl)
			}
			results[i] = result{table: tbl.String(), rows: tbl.NumRows(), elapsed: time.Since(start)}
			if rec != nil {
				rec.ExperimentSpan(e.ID, o.Seed, tbl.NumRows(), start)
			}
			close(done[i])
		}(i, e)
	}
	for i, e := range selected {
		<-done[i]
		fmt.Println(results[i].table)
		if *maskWall {
			fmt.Printf("(%s: %s)\n\n", e.ID, e.Claim)
		} else {
			fmt.Printf("(%s: %s, %.1fs)\n\n", e.ID, e.Claim, results[i].elapsed.Seconds())
		}
	}
	total := time.Since(runStart)
	if prog != nil {
		prog.Close()
	}

	if *traceOut != "" {
		if err := rec.WriteChromeTraceFile(*traceOut); err != nil {
			fatalf("-trace: %v", err)
		}
	}
	if *eventsOut != "" {
		if err := rec.WriteJSONLFile(*eventsOut); err != nil {
			fatalf("-events: %v", err)
		}
	}
	if *manifestOut != "" {
		m := manifest{
			GeneratedAt: time.Now().UTC().Format(time.RFC3339),
			GoVersion:   runtime.Version(),
			OSArch:      runtime.GOOS + "/" + runtime.GOARCH,
			GitRev:      gitRev(),
			Seed:        *seed,
			Quick:       *quick,
			Procs:       *procs,
			Audit:       *auditOn,
			Faults:      faultsString(faultSpec),
			Latency:     latencyString(latency),
			Reliable:    reliableString(reliableCfg),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			NumCPU:      runtime.NumCPU(),
		}
		m.TotalSeconds = total.Seconds()
		for i, e := range selected {
			m.Experiments = append(m.Experiments, manifestExperiment{
				ID:      e.ID,
				Claim:   e.Claim,
				Rows:    results[i].rows,
				Seconds: results[i].elapsed.Seconds(),
			})
		}
		f, err := os.Create(*manifestOut)
		if err != nil {
			fatalf("-manifest: %v", err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(m); err != nil {
			fatalf("-manifest: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("-manifest: %v", err)
		}
	}
}
