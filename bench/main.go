// Command bench is this repository's benchmark: six workloads, four
// end-to-end metrics, and a traced pass that attributes the same runs
// to the layers (the internal packages), all measured from outside by
// timing calls into the layers' public functions. See README.md.
//
//	go run ./bench                                  both passes, every workload
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//	go run ./bench -compare A.json B.json
//	go run ./bench -smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

type config struct {
	seed    uint64
	seconds float64
	blocks  int // 0: derived from seconds
	names   []string
	smoke   bool
	// single is the builder's contract: one workload, one pass, and the
	// last line of standard output is the contract's JSON object.
	single     bool
	traced     bool
	noLateness bool
	out        string
	traceOut   string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var names string
	fs.Uint64Var(&cfg.seed, "seed", 1, "the only input to workload generation")
	fs.Float64Var(&cfg.seconds, "seconds", runSeconds, "timed seconds per workload and pass; sets the block count")
	fs.IntVar(&cfg.blocks, "blocks", 0, "fresh blocks per workload (default: from -seconds, 3 to 16)")
	fs.StringVar(&names, "workloads", "", "comma-separated workloads (default all)")
	fs.StringVar(&names, "workload", "", "alias of -workloads")
	traceFlag := fs.Int("trace", -1, "run one pass only and end with the contract's JSON line: 0 untraced, 1 traced")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny sizing (n <= 2048, 1 block) for tests and CI")
	fs.StringVar(&cfg.out, "out", "", "write the result JSON here (default bench-result.json when both passes run)")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "write the traced pass's spans here as JSON")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	defs := fs.Bool("defs", false, "print the definitions as BENCHMARK.json carries them and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *defs {
		printDefs(stdout)
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	cfg.names = allNames()
	if names != "" {
		cfg.names = strings.Split(names, ",")
	}
	for _, name := range cfg.names {
		if findWorkload(name) == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", name)
			return 2
		}
	}
	cfg.single, cfg.traced = *traceFlag >= 0, *traceFlag == 1
	if cfg.single && len(cfg.names) != 1 {
		fmt.Fprintln(stderr, "bench: -trace needs exactly one -workload")
		return 2
	}
	if !cfg.single && cfg.out == "" && !cfg.smoke {
		cfg.out = "bench-result.json"
	}

	// One generator goroutine, explicit Procs/Shards 1 everywhere; the
	// second P only keeps the collector off the measured goroutine.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	os.Unsetenv("OVERLAYNET_SHARDS")

	res := measure(cfg, stderr)
	if cfg.out != "" {
		if err := writeJSON(cfg.out, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if cfg.traceOut != "" {
		if err := writeJSON(cfg.traceOut, res.spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if cfg.single {
		printContractLine(stdout, res, cfg)
	} else {
		printReport(stdout, res)
	}
	if !res.correct() {
		fmt.Fprintln(stderr, "bench: sim_digest differs across blocks of one workload")
		return 1
	}
	return 0
}

// ---- results ----

type env struct {
	Go         string         `json:"go"`
	OS         string         `json:"os"`
	Arch       string         `json:"arch"`
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Revision   string         `json:"revision"`
	Seed       uint64         `json:"seed"`
	Smoke      bool           `json:"smoke"`
	Blocks     map[string]int `json:"blocks"`
	LoadAvg    string         `json:"loadavg_start"`
}

type workloadResult struct {
	Name         string             `json:"name"`
	Ops          int                `json:"ops"`
	Failed       int                `json:"failed"`
	Digest       string             `json:"sim_digest"`
	DigestsEqual bool               `json:"digests_equal"`
	Metrics      map[string]summary `json:"metrics"`
	// Per-operation latency of the untraced pass: the median, and the
	// highest percentile with at least ten samples beyond it.
	OpP50MS   float64  `json:"op_ms_p50"`
	OpTailMS  float64  `json:"op_ms_tail"`
	OpTailPct float64  `json:"op_ms_tail_pct"`
	OpSamples int      `json:"op_samples"`
	Blocks    []*block `json:"blocks"`
}

type result struct {
	Env       env                `json:"env"`
	EndToEnd  []metricDef        `json:"end_to_end"`
	Workloads []workloadResult   `json:"workloads"`
	PerLayer  []metricDef        `json:"per_layer"`
	Layers    map[string]float64 `json:"layers,omitempty"`

	spans map[string][][]span
}

func (r *result) workload(name string) *workloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

func (r *result) correct() bool {
	for _, w := range r.Workloads {
		if !w.DigestsEqual {
			return false
		}
	}
	return true
}

func readEnv(cfg config) env {
	e := env{Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Revision: "unknown", Seed: cfg.seed, Smoke: cfg.smoke,
		Blocks: map[string]int{}, LoadAvg: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Revision = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		e.LoadAvg = strings.TrimSpace(string(b))
	}
	return e
}

// load1 is the 1-minute load average at start, 0 when unknown.
func (e env) load1() float64 {
	f, _ := strconv.ParseFloat(strings.SplitN(e.LoadAvg, " ", 2)[0], 64)
	return f
}

// ---- running ----

// plan is one workload's share of a pass.
type plan struct {
	w      *workload
	sc     scale
	blocks int
}

func (cfg config) scale() scale {
	if cfg.smoke {
		return smoke
	}
	return full
}

// blocksFor turns -seconds into a block count from the workload's
// nominal block length, never below 3: the noise is between fresh
// instances, so blocks are dropped last.
func (cfg config) blocksFor(w *workload) int {
	switch {
	case cfg.smoke:
		return 1
	case cfg.blocks > 0:
		return cfg.blocks
	}
	return max(3, min(16, int(math.Round(cfg.seconds/w.blockS))))
}

// runPass runs the plans' blocks round-robin, so machine drift hits
// all workloads alike.
func runPass(cfg config, plans []plan, traced bool, log io.Writer) map[string][]*block {
	out := map[string][]*block{}
	for b, ran := 0, true; ran; b++ {
		ran = false
		for _, p := range plans {
			if b >= p.blocks {
				continue
			}
			ran = true
			c := newBlockCtx(cfg.seed, p.sc, traced, cfg.noLateness)
			p.w.run(c)
			blk := c.finish()
			out[p.w.name] = append(out[p.w.name], blk)
			fmt.Fprintf(log, "bench: %-22s traced=%-5v block %d  setup %.3fs  timed %.3fs  ops %d  failed %d\n",
				p.w.name, traced, b+1, blk.SetupS, blk.WallS, blk.Ops, blk.Failed)
		}
	}
	return out
}

func measure(cfg config, log io.Writer) *result {
	res := &result{Env: readEnv(cfg), EndToEnd: endToEnd, PerLayer: perLayer}
	if l := res.Env.load1(); l > 1.0 {
		fmt.Fprintf(log, "bench: warning: 1-minute load average is %.2f; a busy machine is the usual cause of a broken bound\n", l)
	}
	var untracedPlans, tracedPlans []plan
	for _, name := range cfg.names {
		w := findWorkload(name)
		untracedPlans = append(untracedPlans, plan{w, cfg.scale(), cfg.blocksFor(w)})
		res.Env.Blocks[name] = cfg.blocksFor(w)
	}
	probeScale := cfg.scale()
	switch {
	case !cfg.single:
		for _, p := range untracedPlans {
			p.blocks = (p.blocks + 1) / 2
			tracedPlans = append(tracedPlans, p)
		}
	case cfg.traced:
		// The contract's traced run prints every per-layer metric, so it
		// runs every workload: the named one at full size, once untraced
		// and once traced for its tracing overhead, the others once at
		// lite size, and the probes at lite size too.
		named := &untracedPlans[0]
		named.blocks = 1
		if !cfg.smoke {
			probeScale = lite
		}
		for i := range workloads {
			p := plan{&workloads[i], probeScale, 1}
			if p.w == named.w {
				p.sc = named.sc
			}
			tracedPlans = append(tracedPlans, p)
		}
	}
	untraced := runPass(cfg, untracedPlans, false, log)
	if len(tracedPlans) > 0 {
		traced := runPass(cfg, tracedPlans, true, log)
		res.Layers = map[string]float64{}
		for _, m := range perLayer {
			res.Layers[m.Name] = 0 // what a run cannot measure reads 0
		}
		runProbes(cfg.seed, probeScale, res.Layers)
		layerMetrics(traced, untraced, res.Layers)
		res.Layers["bench.loadavg_start"] = res.Env.load1()
		res.spans = map[string][][]span{}
		for name, blocks := range traced {
			for _, b := range blocks {
				res.spans[name] = append(res.spans[name], b.spans)
			}
		}
		if cfg.single {
			// The traced run reports the named workload's traced blocks.
			untraced = map[string][]*block{cfg.names[0]: traced[cfg.names[0]]}
		}
	}
	for _, name := range cfg.names {
		res.Workloads = append(res.Workloads, summarizeWorkload(name, untraced[name]))
	}
	return res
}

func summarizeWorkload(name string, blocks []*block) workloadResult {
	w := workloadResult{Name: name, Digest: blocks[0].Digest, DigestsEqual: true,
		Metrics: map[string]summary{}, Blocks: blocks}
	var opMS []float64
	for _, b := range blocks {
		w.Ops += b.Ops
		if b.Digest != w.Digest {
			// A block whose simulated statistics differ from the first
			// block's did different work: all of its operations fail.
			w.DigestsEqual = false
			w.Failed += b.Ops
		} else {
			w.Failed += b.Failed
		}
		opMS = append(opMS, b.OpMS...)
	}
	for _, m := range endToEnd {
		w.Metrics[m.Name] = summarize(blocks, func(bs []*block) float64 { return metricOf(m.Name, bs) })
	}
	w.OpP50MS, w.OpSamples = median(opMS), len(opMS)
	w.OpTailMS, w.OpTailPct = tail(opMS)
	return w
}

// ---- output ----

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runSeconds is BENCHMARK.json's run_seconds and the default -seconds.
const runSeconds = 10

// printDefs prints BENCHMARK.json from the definitions in this
// program, the only place they are written by hand.
func printDefs(w io.Writer) {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	file := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []named   `json:"workloads"`
		EndToEnd   []bounded `json:"end_to_end"`
		PerLayer   []layer   `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, wl := range workloads {
		file.Workloads = append(file.Workloads, named{wl.name, wl.why})
	}
	for _, m := range endToEnd {
		file.EndToEnd = append(file.EndToEnd, bounded{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		file.PerLayer = append(file.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", b)
}

// printContractLine prints the builder's contract: every end-to-end
// metric of an untraced run, every per-layer metric of a traced one.
func printContractLine(w io.Writer, res *result, cfg config) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	wl := res.Workloads[0]
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wl.DigestsEqual, wl.Ops, wl.Failed, map[string]value{}}
	if cfg.traced {
		for _, m := range perLayer {
			line.Metrics[m.Name] = value{res.Layers[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			line.Metrics[m.Name] = value{wl.Metrics[m.Name].Value, m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // only NaN/Inf can fail, and ratio() keeps them out
	}
	fmt.Fprintf(w, "%s\n", b)
}

func printReport(w io.Writer, res *result) {
	e := res.Env
	fmt.Fprintf(w, "bench: %s %s/%s cpus=%d gomaxprocs=%d rev=%s seed=%d loadavg=%s\n\n",
		e.Go, e.OS, e.Arch, e.NumCPU, e.GOMAXPROCS, e.Revision, e.Seed, e.LoadAvg)
	fmt.Fprintf(w, "%-22s %-20s %-7s %14s %8s %14s %14s\n", "workload", "metric", "unit", "value", "noise", "block min", "block max")
	for _, wl := range res.Workloads {
		for _, m := range endToEnd {
			s := wl.Metrics[m.Name]
			_, _, noise := s.noise()
			fmt.Fprintf(w, "%-22s %-20s %-7s %14.6g %7.1f%% %14.6g %14.6g\n",
				wl.Name, m.Name, m.Unit, s.Value, 100*noise, s.Min, s.Max)
		}
		fmt.Fprintf(w, "%-22s blocks=%d ops=%d failed=%d op_ms p50=%.4g p%.4g=%.4g (%d samples) sim_digest=%s equal=%v\n\n",
			wl.Name, len(wl.Blocks), wl.Ops, wl.Failed, wl.OpP50MS, wl.OpTailPct, wl.OpTailMS, wl.OpSamples, wl.Digest, wl.DigestsEqual)
	}
	if res.Layers == nil {
		return
	}
	fmt.Fprintf(w, "%-42s %-7s %14s  %s\n", "per-layer metric (traced pass)", "unit", "value", "should move")
	for _, m := range perLayer {
		fmt.Fprintf(w, "%-42s %-7s %14.6g  %s\n", m.Name, m.Unit, res.Layers[m.Name], m.Moves)
	}
}
