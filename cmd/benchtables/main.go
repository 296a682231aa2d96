// Command benchtables regenerates every experiment table of the
// reproduction (DESIGN.md §3, recorded in EXPERIMENTS.md).
//
// Usage:
//
//	benchtables [-quick] [-seed N] [-only E8[,E9,…]] [-recover] [-procs N]
//	           [-shards N] [-list] [-audit] [-audit-every N]
//	           [-faults drop=0.01,dup=0.001,crash=0.05,restart=2]
//	           [-latency uniform:0.5,2.5] [-reliable on]
//	           [-cell-timeout D] [-cpuprofile F] [-trace F] [-events F]
//	           [-manifest F] [-progress] [-http ADDR]
//
// Sweep cells run on -procs workers (default: all CPUs), and each §5/§6
// overlay network runs its rounds on -shards intra-round workers
// (default 1; see internal/committee); the sim kernel is serial. The
// rendered tables are identical for every -procs and -shards
// combination at a fixed seed, and for every combination of the
// telemetry flags — tracing is observation only.
//
// Telemetry:
//
//	-trace F     write a Chrome/Perfetto trace_events JSON file with a
//	             span per experiment, per sweep cell (worker id, seed)
//	             and per reconfiguration epoch; load it at
//	             https://ui.perfetto.dev, or summarize with
//	             cmd/tracestats.
//	-events F    write the raw event/span stream as JSONL.
//	-manifest F  write a run manifest (seed, go version, GOMAXPROCS,
//	             -procs, git revision, per-experiment wall time) so
//	             every recorded table is attributable to the run that
//	             produced it.
//	-progress    print a live cells-done/total + ETA line to stderr.
//	-http ADDR   serve the observability endpoints on this address:
//	             Prometheus text metrics at /metrics, liveness at
//	             /healthz, the runtime's expvar at /debug/vars, and
//	             net/http/pprof at /debug/pprof/. The listener binds
//	             before the sweep
//	             starts — a bad address fails immediately — and the
//	             actually-bound address is printed to stderr, so ":0"
//	             works in tests and scripts. Attach the live dashboard
//	             with: overlaymon -addr <printed address>.
//	-linger D    keep the -http server (and the process) up for D
//	             after the sweep finishes, so dashboards and scrapes
//	             can read the final state.
//	-flight N    flight recorder: retain a deterministic sample of
//	             telemetry events in a bounded ring of N entries
//	             (0 disables). Exported by -events when full event
//	             retention is off. Sampling is a pure function of the
//	             seed and event identity — byte-identical at any
//	             -procs/-shards setting.
//	-flight-rate P  flight sampling probability (default 0.01).
//
// Whenever any telemetry flag is on, one metrics registry (internal/obs)
// holds every count of the run: named counters and streaming histograms
// for the kernel and all three protocol stacks, exported under "metrics"
// in the manifest, the -events file's last line and the -trace file, and
// served at /metrics. Metrics are observation only — tables are
// byte-identical with the pipeline attached or detached.
//
// Robustness:
//
//	-recover        run the self-healing recovery experiment (R1):
//	                shorthand for adding R1 to the -only selection.
//	-cell-timeout D arm the per-cell stall watchdog: a sweep cell that
//	                makes no progress for D wall-clock time (e.g. 5m)
//	                fails the run with a diagnostic naming the cell
//	                instead of hanging the sweep. 0 disables. Purely
//	                wall-clock — it never changes table contents of
//	                cells that do finish.
package main

import (
	"encoding/json"
	_ "expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"overlaynet/internal/exp"
	"overlaynet/internal/fault"
	"overlaynet/internal/obs"
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
	Shards       int                  `json:"shards"`
	Audit        bool                 `json:"audit,omitempty"`
	Faults       string               `json:"faults,omitempty"`
	Latency      string               `json:"latency,omitempty"`
	Reliable     string               `json:"reliable,omitempty"`
	GOMAXPROCS   int                  `json:"gomaxprocs"`
	NumCPU       int                  `json:"num_cpu"`
	TotalSeconds float64              `json:"total_seconds"`
	Experiments  []manifestExperiment `json:"experiments"`
	ScalePoints  []manifestScalePoint `json:"scale_points,omitempty"`
	// Metrics is the recorder's Snapshot at the end of the run: every
	// named counter, plus _count/_sum/_p50/_p95/_max per histogram.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type manifestExperiment struct {
	ID      string  `json:"id"`
	Claim   string  `json:"claim"`
	Rows    int     `json:"rows"`
	Seconds float64 `json:"seconds"`
}

// manifestScalePoint is one size point of a scale experiment, from the
// recorder's kind-"scale" spans: the measured round throughput and the
// per-node communication footprint at one network size, so the perf
// trajectory of every recorded run is attributable alongside its
// tables.
type manifestScalePoint struct {
	Exp          string  `json:"exp"`
	N            int     `json:"n"`
	Rounds       int     `json:"rounds"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
	BytesPerNode float64 `json:"bytes_per_node"`
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

// faultsString renders the spec for the manifest ("" when inactive, so
// the field is omitted).
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

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchtables: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	quick := flag.Bool("quick", false, "run reduced sweeps")
	seed := flag.Uint64("seed", 42, "random seed")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	procs := flag.Int("procs", runtime.GOMAXPROCS(0), "worker goroutines for sweep cells (tables are identical for any value)")
	shards := flag.Int("shards", 0, "intra-round workers per §5/§6 network; 0 = $OVERLAYNET_SHARDS or 1 (tables are identical for any value)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	traceOut := flag.String("trace", "", "write a Chrome/Perfetto trace_events JSON file")
	eventsOut := flag.String("events", "", "write the raw telemetry stream as JSONL")
	manifestOut := flag.String("manifest", "", "write a run manifest JSON file")
	progress := flag.Bool("progress", false, "print live sweep progress to stderr")
	httpAddr := flag.String("http", "", "serve /metrics, /healthz, expvar and net/http/pprof on this address (e.g. :6060, :0 for any free port)")
	linger := flag.Duration("linger", 0, "keep the -http server up this long after the sweep (e.g. 30s)")
	flightCap := flag.Int("flight", 0, "flight-recorder ring capacity in events (0 disables)")
	flightRate := flag.Float64("flight-rate", 0.01, "flight-recorder sampling probability")
	auditOn := flag.Bool("audit", false, "attach the runtime invariant-audit engine to the reconfiguration experiments")
	faultsFlag := flag.String("faults", "", "deterministic fault injection, e.g. drop=0.01,dup=0.001,crash=0.05,restart=2")
	auditEvery := flag.Int("audit-every", 0, "invariant check cadence in engine ticks (0 = every tick)")
	recoverOnly := flag.Bool("recover", false, "run the self-healing recovery experiment (adds R1 to -only)")
	cellTimeout := flag.Duration("cell-timeout", 0, "per-cell stall watchdog (e.g. 5m); 0 disables")
	maskWall := flag.Bool("maskwall", false, "blank wall-clock table columns (rounds/sec) and omit the per-experiment seconds so output can be diffed across runs and machines")
	// -latency runs every sim-kernel network under the discrete-event
	// scheduler (the §5/§6 overlay stacks translate the model into a
	// per-virtual-round delivery deadline only inside AS1, which sweeps
	// its own specs). Zero-spread specs ("const:1") produce tables
	// byte-identical to the synchronous run — CI diffs exactly that.
	latencyFlag := flag.String("latency", "", "per-edge latency model for sim-kernel networks: sync, const:D, uniform:LO,HI, lognorm:MU,SIGMA (rounds)")
	// -reliable wraps every sim-kernel protocol handler in the
	// ack/retransmit endpoints of internal/reliable. With a zero-spread
	// model ("-latency const:1 -reliable on") the layer is provably
	// silent and the tables stay byte-identical to the synchronous run —
	// CI diffs exactly that. AS2 sweeps its own configs and ignores the
	// global flag, like AS1 does for -latency.
	reliableFlag := flag.String("reliable", "", "reliable delivery for sim-kernel networks: off, on, or rto=3,backoff=2,budget=5,stretch=0")
	flag.Parse()

	faultSpec, latency, reliableCfg, err := parseSpecs(*faultsFlag, *latencyFlag, *reliableFlag)
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

	experiments := exp.All()
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.ID, e.Claim)
		}
		return
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	if *recoverOnly {
		want["R1"] = true
	}

	opts := exp.Options{Seed: *seed, Quick: *quick, Procs: *procs, Shards: *shards,
		Audit: *auditOn, AuditEvery: *auditEvery, Faults: faultSpec, Latency: latency,
		Reliable: reliableCfg, CellTimeout: *cellTimeout}

	// Telemetry wiring. A single recorder spans every experiment; it
	// aggregates counters and spans (full event retention stays off — a
	// sweep would retain millions; -flight keeps a bounded deterministic
	// sample instead). Its registry holds every count of the run:
	// counters and streaming histograms cost O(1) per event and never
	// perturb tables.
	var rec *trace.Recorder
	if *traceOut != "" || *eventsOut != "" || *manifestOut != "" || *httpAddr != "" || *flightCap > 0 {
		rec = trace.New()
		if *flightCap > 0 {
			rec.FlightRecorder(*seed, *flightRate, *flightCap)
		}
		opts.Trace = rec
	}
	var prog *trace.Progress
	if *progress {
		prog = trace.NewProgress(os.Stderr, 2*time.Second)
		opts.Progress = prog
	}
	// -http binds before the sweep starts: a bad address is a synchronous
	// startup error, and with ":0" the actually-bound address printed
	// here is what tests and overlaymon attach to.
	var srv *http.Server
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fatalf("-http: %v", err)
		}
		fmt.Fprintf(os.Stderr, "benchtables: serving observability endpoints on http://%s (/metrics /healthz /debug/vars /debug/pprof/)\n", ln.Addr())
		// expvar and net/http/pprof register themselves on the default
		// mux; the obs endpoints join them there.
		http.Handle("/metrics", rec.Registry().MetricsHandler())
		http.Handle("/healthz", obs.HealthzHandler(rec.Registry()))
		srv = &http.Server{}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "benchtables: -http: %v\n", err)
			}
		}()
	}

	var selected []exp.Experiment
	for _, e := range experiments {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		selected = append(selected, e)
	}
	if len(selected) == 0 {
		fmt.Fprintln(os.Stderr, "no experiments matched; use -list")
		os.Exit(1)
	}

	// Experiments are independent, so they run concurrently on the same
	// worker budget that each driver's sweep cells use; tables stream
	// out in canonical order as their experiments finish.
	workers := *procs
	if workers < 1 {
		workers = 1
	}
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
	sem := make(chan struct{}, workers)
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
			Shards:      *shards,
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
		if rec != nil {
			for _, s := range rec.Spans() {
				if s.Kind != "scale" {
					continue
				}
				m.ScalePoints = append(m.ScalePoints, manifestScalePoint{
					Exp:          s.Scope,
					N:            s.N,
					Rounds:       s.Rounds,
					RoundsPerSec: s.RoundsPerSec,
					BytesPerNode: s.BytesPerNode,
				})
			}
			m.Metrics = rec.Snapshot()
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

	// Keep the observability endpoints readable after the sweep if
	// asked, then shut the server down cleanly so the listener is
	// released before exit.
	if srv != nil {
		if *linger > 0 {
			fmt.Fprintf(os.Stderr, "benchtables: sweep done; -http lingering %s\n", *linger)
			time.Sleep(*linger)
		}
		srv.Close()
	}
}
