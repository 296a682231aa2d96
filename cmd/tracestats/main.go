// Command tracestats summarizes the JSONL telemetry stream written by
// benchtables -events: per-experiment wall time, the slowest sweep
// cells, drop-reason totals, simulator round throughput, the
// async/reliability lane (deferred deliveries, retransmit and ack
// traffic, budget-exhausted delivery failures, stale discards),
// invariant-audit violations and recovery episodes (per-invariant
// MTTR), the metrics-registry snapshot (streaming-histogram quantiles).
//
// Usage:
//
//	tracestats [-top N] events.jsonl
//
// The JSONL stream is the complete record of a run; the -trace file is a
// Perfetto view without the metrics snapshot, and reads as zero records.
// The exit status is non-zero when the file is missing, empty,
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

// summary is the content of one JSONL stream. metrics is the run's
// registry snapshot, under the registry's own series names — the one
// vocabulary of the run's counts.
type summary struct {
	records    int        // telemetry records successfully ingested
	spans      []cellStat // cell spans only
	epochs     int
	exps       map[string]*expAgg
	metrics    map[string]float64
	violations []trace.Event
	recoveries []trace.Event
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
		fmt.Fprintln(stderr, "usage: tracestats [-top N] <events.jsonl>")
		return 2
	}
	path := fs.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "tracestats: %v\n", err)
		return 1
	}

	if len(bytes.TrimSpace(data)) == 0 {
		fmt.Fprintf(stderr, "tracestats: %s: empty telemetry file\n", path)
		return 1
	}
	s := newSummary()
	if err := loadJSONL(data, s); err != nil {
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
		fmt.Fprintf(stdout, "  lifecycle      %d spawns\n", s.count("overlaynet_spawns_total"))
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
