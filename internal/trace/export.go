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
//     simulator lifecycle events, {"type":"span",...} lines for timed
//     regions, and a final {"type":"metrics",...} line with the
//     recorder's Snapshot. Greppable.
//
//   - Chrome trace_events JSON: {"traceEvents":[...]} with complete
//     ("X") events for spans and instant ("i") events for lifecycle
//     events, loadable in https://ui.perfetto.dev or chrome://tracing.
//     The same Snapshot rides along under "metrics", which viewers
//     ignore but cmd/tracestats reads.

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

// exportEvents is the event list both formats carry: the retained
// events, or the flight recorder's sample when nothing was retained.
func (r *Recorder) exportEvents() []Event {
	if events := r.Events(); len(events) > 0 {
		return events
	}
	return r.FlightEvents()
}

// WriteJSONL writes the events and spans as JSON lines, then the
// metrics line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range r.exportEvents() {
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

// ChromeEvent is one entry of the trace_events array.
type ChromeEvent struct {
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

// ChromeFile is the on-disk shape of the Chrome/Perfetto export; it is
// exported so cmd/tracestats can decode traces with the same types.
type ChromeFile struct {
	TraceEvents     []ChromeEvent      `json:"traceEvents"`
	DisplayTimeUnit string             `json:"displayTimeUnit"`
	Metrics         map[string]float64 `json:"metrics"`
}

// Track layout of the Chrome export: pid 1 holds the experiment
// harness (tid 0 = whole experiments, tid 1+w = runner worker w), pid 2
// holds epoch spans keyed by scope, pid 3 holds raw simulator events.
const (
	chromePidHarness = 1
	chromePidEpochs  = 2
	chromePidSim     = 3
)

// WriteChromeTrace writes the recorder's contents as Chrome
// trace_events JSON.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	spans := r.Spans()
	events := r.exportEvents()

	out := ChromeFile{
		TraceEvents:     make([]ChromeEvent, 0, len(spans)+len(events)),
		DisplayTimeUnit: "ms",
		Metrics:         r.Snapshot(),
	}

	epochTids := map[string]int{}
	for _, s := range spans {
		ev := ChromeEvent{
			Ph:  "X",
			Cat: s.Kind,
			TS:  s.StartUS,
			Dur: max64(s.DurUS, 1),
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
		case "scale":
			ev.Name = fmt.Sprintf("%s n=%d", s.Scope, s.N)
			ev.Pid = chromePidHarness
			ev.Tid = 0
			ev.Args = map[string]any{"exp": s.Scope, "n": s.N, "rounds": s.Rounds,
				"rounds_per_sec": s.RoundsPerSec, "bytes_per_node": s.BytesPerNode}
		default: // experiment
			ev.Name = s.Name
			ev.Pid = chromePidHarness
			ev.Tid = 0
			ev.Args = map[string]any{"exp": s.Name, "seed": s.Seed, "rows": s.Rows}
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}

	for _, e := range events {
		ev := ChromeEvent{
			Name: e.Kind,
			Cat:  "sim",
			Ph:   "i",
			S:    "t",
			TS:   e.TSMicros,
			Pid:  chromePidSim,
			Tid:  0,
			Args: map[string]any{"scope": e.Scope, "round": e.Round},
		}
		switch e.Kind {
		case "drop":
			ev.Name = "drop:" + e.Reason
			ev.Args["from"] = e.From
			ev.Args["to"] = e.To
			ev.Args["bits"] = e.Bits
		case "round_end":
			if e.Stats != nil {
				ev.Args["messages"] = e.Stats.Work.Messages
				ev.Args["total_bits"] = e.Stats.Work.TotalBits
				ev.Args["max_node_bits"] = e.Stats.Work.MaxNodeBits
				ev.Args["inbox_p50"] = e.Stats.InboxP50
				ev.Args["inbox_p95"] = e.Stats.InboxP95
				ev.Args["inbox_max"] = e.Stats.InboxMax
				ev.Args["bits_p50"] = e.Stats.BitsP50
				ev.Args["bits_p95"] = e.Stats.BitsP95
				ev.Args["bits_max"] = e.Stats.BitsMax
			}
		case "spawn", "kill", "block":
			ev.Args["node"] = e.Node
		case "round_start":
			ev.Args["alive"] = e.Alive
			ev.Args["blocked"] = e.Blocked
		case "violation":
			ev.Args["invariant"] = e.Reason
			ev.Args["detail"] = e.Detail
		case "recovery":
			ev.Args["invariant"] = e.Reason
			ev.Args["clean_round"] = e.CleanRound
			ev.Args["mttr_rounds"] = e.MTTRRounds
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

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
