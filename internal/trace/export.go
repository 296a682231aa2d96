package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// The two export formats:
//
//   - JSONL: one JSON object per line — {"type":"event",...} lines for
//     violations and recoveries, {"type":"span",...} lines for timed
//     regions, and a final {"type":"metrics",...} line with the
//     recorder's Snapshot. It is the complete record of a run, and the
//     one format cmd/tracestats reads.
//
//   - Chrome trace_events JSON: {"traceEvents":[...]} with complete
//     ("X") events for spans and instant ("i") events for violations
//     and recoveries, a view for https://ui.perfetto.dev or
//     chrome://tracing. It carries no metrics, and its args omit what a
//     timeline does not draw (violation nodes, seeds, epochs).

type eventLine struct {
	Type string `json:"type"`
	Event
}

type spanLine struct {
	Type string `json:"type"`
	Span
}

type metricsLine struct {
	Type    string             `json:"type"`
	Metrics map[string]float64 `json:"metrics"`
}

// WriteJSONL writes the events and spans as JSON lines, then the
// metrics line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range r.Events() {
		if err := enc.Encode(eventLine{Type: "event", Event: ev}); err != nil {
			return err
		}
	}
	for _, s := range r.Spans() {
		if err := enc.Encode(spanLine{Type: "span", Span: s}); err != nil {
			return err
		}
	}
	return enc.Encode(metricsLine{Type: "metrics", Metrics: r.Snapshot()})
}

// chromeEvent is one entry of the trace_events array.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the on-disk shape of the Chrome/Perfetto export.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Track layout of the Chrome export: pid 1 holds the experiment
// harness (tid 0 = whole experiments, tid 1+w = runner worker w), pid 2
// holds epoch spans keyed by scope, pid 3 holds the audit's events.
const (
	chromePidHarness = 1
	chromePidEpochs  = 2
	chromePidAudit   = 3
)

// WriteChromeTrace writes the recorder's contents as Chrome
// trace_events JSON.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	spans := r.Spans()
	events := r.Events()

	out := chromeFile{
		TraceEvents:     make([]chromeEvent, 0, len(spans)+len(events)),
		DisplayTimeUnit: "ms",
	}

	epochTids := map[string]int{}
	for _, s := range spans {
		ev := chromeEvent{
			Ph:  "X",
			Cat: s.Kind,
			TS:  s.StartUS,
			Dur: max(s.DurUS, 1),
		}
		switch s.Kind {
		case "cell":
			ev.Name = fmt.Sprintf("%s cell %d", s.Name, s.Cell)
			ev.Pid = chromePidHarness
			ev.Tid = 1 + s.Worker
			ev.Args = map[string]any{"exp": s.Scope, "cell": s.Cell, "seed": s.Seed, "worker": s.Worker}
		case "epoch":
			ev.Name = fmt.Sprintf("%s epoch %d", s.Scope, s.Epoch)
			ev.Pid = chromePidEpochs
			tid, ok := epochTids[s.Scope]
			if !ok {
				tid = len(epochTids)
				epochTids[s.Scope] = tid
			}
			ev.Tid = tid
			ev.Args = map[string]any{"scope": s.Scope, "epoch": s.Epoch, "rounds": s.Rounds,
				"n_old": s.NOld, "n_new": s.NNew}
		default: // experiment
			ev.Name = s.Name
			ev.Pid = chromePidHarness
			ev.Tid = 0
			ev.Args = map[string]any{"exp": s.Name, "seed": s.Seed, "rows": s.Rows}
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}

	for _, e := range events {
		ev := chromeEvent{
			Name: e.Kind,
			Cat:  "audit",
			Ph:   "i",
			S:    "t",
			TS:   e.TSMicros,
			Pid:  chromePidAudit,
			Tid:  0,
			Args: map[string]any{"scope": e.Scope, "round": e.Round, "invariant": e.Reason},
		}
		if e.Kind == "recovery" {
			ev.Args["clean_round"] = e.CleanRound
			ev.Args["mttr_rounds"] = e.MTTRRounds
		} else {
			ev.Args["detail"] = e.Detail
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteChromeTraceFile is WriteChromeTrace to a freshly created file.
func (r *Recorder) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteJSONLFile is WriteJSONL to a freshly created file.
func (r *Recorder) WriteJSONLFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
