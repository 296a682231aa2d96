// Command tracestats summarizes a telemetry file produced by
// benchtables -trace (Chrome trace_events JSON) or -events (JSONL):
// per-experiment wall time, the slowest sweep cells, drop-reason
// totals, simulator round throughput, the async/reliability lane
// (deferred deliveries, retransmit and ack traffic, budget-exhausted
// delivery failures, stale discards), invariant-audit violations and
// recovery episodes (per-invariant MTTR), the metrics-registry
// snapshot (streaming-histogram quantiles).
//
// Usage:
//
//	tracestats [-top N] trace.json
//	tracestats [-top N] events.jsonl
//
// The format is sniffed from the content: a JSON object with a
// "traceEvents" key is treated as a Chrome trace, anything else as
// JSONL. The exit status is non-zero when the file is missing, empty,
// unparseable (e.g. truncated mid-line), or contains no telemetry
// records at all — so scripted pipelines fail loudly instead of
// printing an all-zero summary.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"overlaynet/internal/trace"
)

// cellStat is one summarized cell span.
type cellStat struct {
	name  string
	durUS int64
}

// summary is the normalized content of either input format. metrics is
// the run's registry snapshot, under the registry's own series names —
// the one vocabulary both files, the manifest and /metrics share.
type summary struct {
	records    int        // telemetry records successfully ingested
	spans      []cellStat // cell spans only
	epochs     int
	exps       map[string]*expAgg
	metrics    map[string]float64
	violations []trace.Event
	recoveries []trace.Event
	scales     []trace.Span // kind "scale": one size point of a scale experiment
	minTS      int64
	maxTS      int64
}

type expAgg struct {
	cells   int
	totalUS int64
	maxUS   int64
}

func newSummary() *summary {
	return &summary{exps: map[string]*expAgg{}, minTS: -1}
}

// count reads one counter series of the snapshot.
func (s *summary) count(series string) uint64 { return uint64(s.metrics[series]) }

func (s *summary) observeTS(start, dur int64) {
	if s.minTS < 0 || start < s.minTS {
		s.minTS = start
	}
	if end := start + dur; end > s.maxTS {
		s.maxTS = end
	}
}

func (s *summary) addSpan(sp trace.Span) {
	s.records++
	s.observeTS(sp.StartUS, sp.DurUS)
	switch sp.Kind {
	case "cell":
		s.spans = append(s.spans, cellStat{fmt.Sprintf("%s cell %d", sp.Scope, sp.Cell), sp.DurUS})
		a := s.exps[sp.Scope]
		if a == nil {
			a = &expAgg{}
			s.exps[sp.Scope] = a
		}
		a.cells++
		a.totalUS += sp.DurUS
		a.maxUS = max(a.maxUS, sp.DurUS)
	case "epoch":
		s.epochs++
	case "scale":
		s.scales = append(s.scales, sp)
	}
}

func (s *summary) addEvent(ev trace.Event) {
	s.records++
	s.observeTS(ev.TSMicros, 0)
	switch ev.Kind {
	case "violation":
		s.violations = append(s.violations, ev)
	case "recovery":
		s.recoveries = append(s.recoveries, ev)
	}
}

func (s *summary) setMetrics(m map[string]float64) {
	if len(m) > 0 {
		s.records++
		s.metrics = m
	}
}

// loadChrome ingests a Chrome trace_events file written by
// trace.WriteChromeTrace, reading back the span and event fields the
// export put into each entry's args.
func loadChrome(data []byte, s *summary) error {
	var f trace.ChromeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	s.setMetrics(f.Metrics)
	for _, ev := range f.TraceEvents {
		str := func(k string) string { v, _ := ev.Args[k].(string); return v }
		num := func(k string) float64 { v, _ := ev.Args[k].(float64); return v }
		if ev.Ph != "X" {
			s.addEvent(trace.Event{TSMicros: ev.TS, Kind: ev.Name, Scope: str("scope"), Round: int(num("round")),
				Reason: str("invariant"), Detail: str("detail"),
				CleanRound: int(num("clean_round")), MTTRRounds: int(num("mttr_rounds"))})
			continue
		}
		s.addSpan(trace.Span{Kind: ev.Cat, Scope: str("exp"), Cell: int(num("cell")), StartUS: ev.TS, DurUS: ev.Dur,
			N: int(num("n")), Rounds: int(num("rounds")),
			RoundsPerSec: num("rounds_per_sec"), BytesPerNode: num("bytes_per_node")})
	}
	return nil
}

// loadJSONL ingests a JSONL file written by trace.WriteJSONL.
func loadJSONL(data []byte, s *summary) error {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		var rec struct {
			Type    string             `json:"type"`
			Metrics map[string]float64 `json:"metrics"`
		}
		err := json.Unmarshal(text, &rec)
		switch rec.Type {
		case "span":
			var sp trace.Span
			err = json.Unmarshal(text, &sp)
			s.addSpan(sp)
		case "event":
			var ev trace.Event
			err = json.Unmarshal(text, &ev)
			s.addEvent(ev)
		case "metrics":
			s.setMetrics(rec.Metrics)
		}
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	return sc.Err()
}

func ms(us int64) float64 { return float64(us) / 1e3 }

// printRecoveries reports the self-healing verdict: closed break
// episodes from the recovery tracker, with per-invariant episode counts
// and MTTR (mean and worst, in protocol rounds). The first line works
// from the snapshot even when individual events were not retained.
func printRecoveries(w io.Writer, s *summary) {
	closed := s.count("overlaynet_recoveries_total")
	count := max(closed, uint64(len(s.recoveries)))
	if count == 0 {
		return
	}
	fmt.Fprintf(w, "  recoveries     %d closed break episodes", count)
	if closed > 0 {
		fmt.Fprintf(w, ", mean MTTR %.1f rounds", s.metrics["overlaynet_mttr_rounds_sum"]/float64(closed))
	}
	fmt.Fprintln(w)
	if len(s.recoveries) == 0 {
		return
	}
	type invAgg struct {
		episodes int
		total    int
		worst    int
	}
	byInv := map[string]*invAgg{}
	for _, rec := range s.recoveries {
		a := byInv[rec.Reason]
		if a == nil {
			a = &invAgg{}
			byInv[rec.Reason] = a
		}
		a.episodes++
		a.total += rec.MTTRRounds
		a.worst = max(a.worst, rec.MTTRRounds)
	}
	var invs []string
	for k := range byInv {
		invs = append(invs, k)
	}
	sort.Strings(invs)
	for _, k := range invs {
		a := byInv[k]
		fmt.Fprintf(w, "    %-33s %d episodes  mean MTTR %.1f rounds  worst %d\n",
			k, a.episodes, float64(a.total)/float64(a.episodes), a.worst)
	}
	show := min(len(s.recoveries), 5)
	for _, rec := range s.recoveries[:show] {
		fmt.Fprintf(w, "    e.g. %s [%s] broken@%d clean@%d (%d rounds)\n",
			rec.Scope, rec.Reason, rec.Round, rec.CleanRound, rec.MTTRRounds)
	}
}

// printScaleSpans reports the scale-experiment size points: at each n,
// the measured wall-clock round throughput and the per-node
// communication footprint of one network run.
func printScaleSpans(w io.Writer, s *summary) {
	if len(s.scales) == 0 {
		return
	}
	sort.SliceStable(s.scales, func(i, j int) bool {
		if s.scales[i].Scope != s.scales[j].Scope {
			return s.scales[i].Scope < s.scales[j].Scope
		}
		return s.scales[i].N < s.scales[j].N
	})
	fmt.Fprintf(w, "  scale points   %d\n", len(s.scales))
	for _, rec := range s.scales {
		label := rec.Scope
		if label == "" {
			label = "(unlabeled)"
		}
		fmt.Fprintf(w, "    %-6s n=%-9d %2d rounds  %8.1f rounds/sec  %8.1f bytes/node-round\n",
			label, rec.N, rec.Rounds, rec.RoundsPerSec, rec.BytesPerNode)
	}
}

// printMetrics reports the snapshot's distributions: one line per
// streaming histogram
// with its sample count and the p50/p95/max reconstructed from the
// log-scale buckets (≤19% relative error).
func printMetrics(w io.Writer, s *summary) {
	if len(s.metrics) == 0 {
		return
	}
	var fams []string
	for k := range s.metrics {
		if fam, ok := strings.CutSuffix(k, "_p50"); ok {
			fams = append(fams, fam)
		}
	}
	sort.Strings(fams)
	fmt.Fprintf(w, "  metrics        %d series in registry snapshot, %d histograms\n",
		len(s.metrics), len(fams))
	for _, fam := range fams {
		if s.metrics[fam+"_count"] == 0 {
			continue
		}
		fmt.Fprintf(w, "    %-33s n=%-10.0f p50 %-10.0f p95 %-10.0f max %.0f\n",
			fam, s.metrics[fam+"_count"], s.metrics[fam+"_p50"],
			s.metrics[fam+"_p95"], s.metrics[fam+"_max"])
	}
}

// run is the testable body of the command: it parses args, summarizes
// the named telemetry file onto stdout, and returns the process exit
// status (errors go to stderr).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracestats", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 10, "number of slowest cells to list")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: tracestats [-top N] <trace.json|events.jsonl>")
		return 2
	}
	path := fs.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "tracestats: %v\n", err)
		return 1
	}

	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		fmt.Fprintf(stderr, "tracestats: %s: empty telemetry file\n", path)
		return 1
	}
	s := newSummary()
	if bytes.HasPrefix(trimmed, []byte("{")) && bytes.Contains(trimmed[:min(len(trimmed), 4096)], []byte(`"traceEvents"`)) {
		err = loadChrome(data, s)
	} else {
		err = loadJSONL(data, s)
	}
	if err != nil {
		fmt.Fprintf(stderr, "tracestats: %s: %v (truncated or corrupt telemetry?)\n", path, err)
		return 1
	}
	if s.records == 0 {
		fmt.Fprintf(stderr, "tracestats: %s: no telemetry records found (wrong file, or a run that wrote nothing?)\n", path)
		return 1
	}

	wallUS := int64(0)
	if s.minTS >= 0 {
		wallUS = s.maxTS - s.minTS
	}
	fmt.Fprintf(stdout, "trace %s\n", path)
	fmt.Fprintf(stdout, "  wall span      %.1f ms\n", ms(wallUS))
	fmt.Fprintf(stdout, "  cell spans     %d across %d experiments\n", len(s.spans), len(s.exps))
	fmt.Fprintf(stdout, "  epoch spans    %d\n", s.epochs)

	if rounds := s.count("overlaynet_rounds_total"); rounds > 0 {
		fmt.Fprintf(stdout, "  sim rounds     %d", rounds)
		if wallUS > 0 {
			fmt.Fprintf(stdout, "  (%.0f rounds/sec over the traced span)", float64(rounds)/(float64(wallUS)/1e6))
		}
		fmt.Fprintln(stdout)
		fmt.Fprintf(stdout, "  messages       %d sent, %d delivered\n",
			s.count("overlaynet_messages_total"), s.count("overlaynet_delivered_total"))
		fmt.Fprintf(stdout, "  lifecycle      %d spawns, %d kills, %d node-round blocks\n",
			s.count("overlaynet_spawns_total"), s.count("overlaynet_kills_total"), s.count("overlaynet_blocks_total"))
	}

	// Drop-reason totals: every overlaynet_drops_<reason>_total series,
	// stable order.
	var dropKeys []string
	var dropTotal uint64
	for k := range s.metrics {
		if strings.HasPrefix(k, "overlaynet_drops_") && strings.HasSuffix(k, "_total") {
			dropKeys = append(dropKeys, k)
			dropTotal += s.count(k)
		}
	}
	sort.Strings(dropKeys)
	if len(dropKeys) > 0 {
		fmt.Fprintf(stdout, "  drops          %d total\n", dropTotal)
		for _, k := range dropKeys {
			reason := strings.TrimSuffix(strings.TrimPrefix(k, "overlaynet_drops_"), "_total")
			fmt.Fprintf(stdout, "    %-33s %d\n", strings.ReplaceAll(reason, "_", "-"), s.count(k))
		}
	}
	if dup := s.count("overlaynet_dup_extra_copies_total"); dup > 0 {
		fmt.Fprintf(stdout, "  dup extras     %d fault-injected extra copies\n", dup)
	}

	// Async/reliability lane: deferred deliveries from the event
	// scheduler plus the control-plane activity of reliable endpoints.
	if d := s.count("overlaynet_async_deferred_total"); d > 0 {
		fmt.Fprintf(stdout, "  async          %d deliveries deferred past round+1\n", d)
	}
	retx, acks := s.count("overlaynet_retransmits_total"), s.count("overlaynet_acks_total")
	lost, stale := s.count("overlaynet_delivery_failures_total"), s.count("overlaynet_stale_deliveries_total")
	if retx > 0 || acks > 0 || lost > 0 || stale > 0 {
		fmt.Fprintf(stdout, "  reliable       %d retransmits, %d acks\n", retx, acks)
		if lost > 0 || stale > 0 {
			fmt.Fprintf(stdout, "    %d budget-exhausted delivery failures, %d stale envelopes discarded\n", lost, stale)
		}
	}

	// Invariant-audit verdict: the counter totals violations even when
	// events were not recorded; individual reports appear when they were.
	if v := s.count("overlaynet_violations_total"); v > 0 || len(s.violations) > 0 {
		fmt.Fprintf(stdout, "  violations     %d reported by the invariant audit\n", max(v, uint64(len(s.violations))))
		byInv := map[string]int{}
		for _, rec := range s.violations {
			byInv[rec.Reason]++
		}
		var invs []string
		for k := range byInv {
			invs = append(invs, k)
		}
		sort.Strings(invs)
		for _, k := range invs {
			fmt.Fprintf(stdout, "    %-33s %d\n", k, byInv[k])
		}
		show := min(len(s.violations), 5)
		for _, rec := range s.violations[:show] {
			fmt.Fprintf(stdout, "    e.g. %s round %d [%s]: %s\n", rec.Scope, rec.Round, rec.Reason, rec.Detail)
		}
	}

	printRecoveries(stdout, s)
	printMetrics(stdout, s)

	if len(s.exps) > 0 {
		fmt.Fprintln(stdout, "  per experiment:")
		var ids []string
		for id := range s.exps {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			a := s.exps[id]
			label := id
			if label == "" {
				label = "(unlabeled)"
			}
			fmt.Fprintf(stdout, "    %-6s %3d cells  total %8.1f ms  mean %7.1f ms  max %8.1f ms\n",
				label, a.cells, ms(a.totalUS), ms(a.totalUS)/float64(a.cells), ms(a.maxUS))
		}
	}

	printScaleSpans(stdout, s)

	if len(s.spans) > 0 && *top > 0 {
		sort.Slice(s.spans, func(i, j int) bool { return s.spans[i].durUS > s.spans[j].durUS })
		n := min(*top, len(s.spans))
		fmt.Fprintf(stdout, "  slowest %d cells:\n", n)
		for _, c := range s.spans[:n] {
			fmt.Fprintf(stdout, "    %-16s %8.1f ms\n", c.name, ms(c.durUS))
		}
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
