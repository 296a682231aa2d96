package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"time"
)

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4), sorted by name so output is
// deterministic for golden-file tests. Counters render as `counter`,
// histograms as cumulative `histogram` series with only the non-empty
// buckets plus the mandatory +Inf bucket.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	cs, hs := r.snapshotLists()
	for _, c := range cs {
		writeHeader(bw, c.name, c.help, "counter")
		fmt.Fprintf(bw, "%s %d\n", c.name, c.Value())
	}
	for _, h := range hs {
		s := h.Snapshot()
		writeHeader(bw, h.name, h.help, "histogram")
		var cum uint64
		for i, c := range s.Buckets {
			if c == 0 {
				continue
			}
			cum += c
			fmt.Fprintf(bw, "%s_bucket{le=\"%d\"} %d\n", h.name, bucketUpperBound(i), cum)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", h.name, s.Count)
		fmt.Fprintf(bw, "%s_sum %d\n", h.name, s.Sum)
		fmt.Fprintf(bw, "%s_count %d\n", h.name, s.Count)
	}
	return bw.Flush()
}

func writeHeader(w io.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// MetricsHandler serves the registry in Prometheus text format; mount
// it at /metrics. Works on a nil registry (serves an empty exposition)
// so the endpoint shape is stable whether or not metrics are attached.
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			// Connection-level failure; nothing more to do.
			return
		}
	})
}

// HealthzHandler reports process liveness as a small JSON document:
// status, uptime, and whether a metrics registry is attached. Mount at
// /healthz.
func HealthzHandler(reg *Registry) http.Handler {
	start := time.Now()
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"ok\",\"uptime_seconds\":%.1f,\"metrics\":%t}\n",
			time.Since(start).Seconds(), reg != nil)
	})
}
