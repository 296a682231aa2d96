// Command overlaymon is a live terminal dashboard for a running
// benchtables (or any process serving the overlaynet /metrics and
// /healthz endpoints).
//
// Usage:
//
//	overlaymon [-addr host:port] [-interval D] [-count N] [-once]
//
// Start a sweep with an observability server, then attach:
//
//	benchtables -http :0 -linger 10m ...   # prints the bound address
//	overlaymon -addr 127.0.0.1:PORT
//
// Each refresh scrapes /metrics (Prometheus text format), derives
// rates from the previous scrape, and redraws: rounds/sec, msgs/sec,
// drops by reason, the async/reliability lane (scheduler deferrals,
// retransmit and ack traffic, budget-exhausted losses), churn and DoS
// activity, audit violations, recoveries with mean MTTR, and histogram
// quantiles (round duration, inbox depth, ack delay) reconstructed
// from the scraped buckets.
//
// -once prints a single snapshot without ANSI redraw (no rates — they
// need two scrapes) and exits; the exit status is non-zero if either
// endpoint is unreachable or unparseable, which makes it a usable
// health probe in CI.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"overlaynet/internal/obs"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "overlaymon: "+format+"\n", args...)
	os.Exit(1)
}

// scrape fetches one endpoint body with a short timeout.
func scrape(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// rate is the per-second movement of one counter between scrapes.
func rate(cur, prev map[string]float64, key string, dt float64) float64 {
	if dt <= 0 {
		return 0
	}
	d := cur[key] - prev[key]
	if d < 0 {
		d = 0 // counter reset (new run on the same address)
	}
	return d / dt
}

// fmtCount renders large totals compactly (12345678 → "12.3M").
func fmtCount(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// quantLine renders p50/p95/max of one scraped histogram family, or ""
// when it has no samples.
func quantLine(m map[string]float64, name, label, unit string) string {
	les, cums, count, ok := obs.HistogramFromScrape(m, name)
	if !ok {
		return ""
	}
	p50 := obs.ScrapeQuantile(les, cums, count, 0.50)
	p95 := obs.ScrapeQuantile(les, cums, count, 0.95)
	mean := m[name+"_sum"] / count
	return fmt.Sprintf("  %-16s p50 %s  p95 %s  mean %s  (n=%s)",
		label,
		fmtCount(p50)+unit, fmtCount(p95)+unit, fmtCount(mean)+unit,
		fmtCount(count))
}

// render draws one dashboard frame into a builder; prev is nil on the
// first frame (totals only, no rates).
func render(w *strings.Builder, addr string, cur, prev map[string]float64, dt float64, health string) {
	now := time.Now().Format("15:04:05")
	fmt.Fprintf(w, "overlaynet monitor — %s — %s\n", addr, now)
	fmt.Fprintf(w, "health: %s\n\n", strings.TrimSpace(health))

	showRate := prev != nil
	line := func(label, totalKey string) {
		total := cur[totalKey]
		if showRate {
			fmt.Fprintf(w, "  %-16s %10s   %10s/s\n", label, fmtCount(total), fmtCount(rate(cur, prev, totalKey, dt)))
		} else {
			fmt.Fprintf(w, "  %-16s %10s\n", label, fmtCount(total))
		}
	}
	fmt.Fprintf(w, "kernel\n")
	line("rounds", "overlaynet_rounds_total")
	line("messages", "overlaynet_messages_total")
	line("spawns", "overlaynet_spawns_total")
	line("kills", "overlaynet_kills_total")
	line("blocks", "overlaynet_blocks_total")
	line("cells", "overlaynet_cells_total")
	line("epochs", "overlaynet_epochs_total")
	// Largest traced network so far, as the bound of the top occupied bucket of the
	// alive-at-round-start histogram.
	if les, _, _, ok := obs.HistogramFromScrape(cur, "overlaynet_alive_nodes"); ok {
		fmt.Fprintf(w, "  %-16s %10s\n", "alive nodes ≤", fmtCount(float64(les[len(les)-1])))
	}

	// Drops by reason: every overlaynet_drops_*_total series, sorted.
	var dropKeys []string
	for k := range cur {
		if strings.HasPrefix(k, "overlaynet_drops_") && strings.HasSuffix(k, "_total") {
			dropKeys = append(dropKeys, k)
		}
	}
	sort.Strings(dropKeys)
	if len(dropKeys) > 0 {
		fmt.Fprintf(w, "\ndrops by reason\n")
		for _, k := range dropKeys {
			label := strings.TrimSuffix(strings.TrimPrefix(k, "overlaynet_drops_"), "_total")
			line(strings.ReplaceAll(label, "_", "-"), k)
		}
	}

	// Async/reliability lane: scheduler deferrals plus the control-plane
	// traffic of reliable endpoints. Shown only once any of it moves, so
	// plain synchronous runs keep the compact frame.
	if cur["overlaynet_async_deferred_total"] > 0 || cur["overlaynet_retransmits_total"] > 0 ||
		cur["overlaynet_acks_total"] > 0 || cur["overlaynet_delivery_failures_total"] > 0 ||
		cur["overlaynet_stale_deliveries_total"] > 0 {
		fmt.Fprintf(w, "\nasync / reliability\n")
		line("deferred", "overlaynet_async_deferred_total")
		line("retransmits", "overlaynet_retransmits_total")
		line("acks", "overlaynet_acks_total")
		line("lost (budget)", "overlaynet_delivery_failures_total")
		line("stale discards", "overlaynet_stale_deliveries_total")
	}

	fmt.Fprintf(w, "\nhealth & recovery\n")
	line("violations", "overlaynet_violations_total")
	line("recoveries", "overlaynet_recoveries_total")
	if n := cur["overlaynet_mttr_rounds_count"]; n > 0 {
		fmt.Fprintf(w, "  %-16s %10.1f rounds\n", "mean MTTR", cur["overlaynet_mttr_rounds_sum"]/n)
	}
	for _, stack := range []string{"core", "supernode", "splitmerge"} {
		prefix := "overlaynet_" + stack + "_"
		if cur[prefix+"epochs_total"] == 0 && cur[prefix+"repairs_total"] == 0 &&
			cur[prefix+"stalls_total"] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-16s epochs %s  stalls %s  repairs %s\n", stack,
			fmtCount(cur[prefix+"epochs_total"]),
			fmtCount(cur[prefix+"stalls_total"]),
			fmtCount(cur[prefix+"repairs_total"]))
	}

	var hists []string
	for _, h := range []struct{ name, label, unit string }{
		{"overlaynet_round_duration_us", "round duration", "µs"},
		{"overlaynet_inbox_depth", "inbox depth", ""},
		{"overlaynet_node_bits", "node bits", "b"},
		{"overlaynet_epoch_rounds", "epoch length", "r"},
		{"overlaynet_ack_delay_rounds", "ack delay", "r"},
	} {
		if l := quantLine(cur, h.name, h.label, h.unit); l != "" {
			hists = append(hists, l)
		}
	}
	if len(hists) > 0 {
		fmt.Fprintf(w, "\ndistributions (streaming histograms)\n%s\n", strings.Join(hists, "\n"))
	}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:6060", "host:port of a benchtables -http server")
	interval := flag.Duration("interval", 2*time.Second, "refresh interval")
	count := flag.Int("count", 0, "exit after this many refreshes (0 = run until interrupted)")
	once := flag.Bool("once", false, "print a single snapshot (no ANSI redraw) and exit")
	flag.Parse()

	base := "http://" + *addr
	client := &http.Client{Timeout: 5 * time.Second}

	var prev map[string]float64
	var prevAt time.Time
	frames := 0
	for {
		healthBody, err := scrape(client, base+"/healthz")
		if err != nil {
			fatalf("healthz: %v", err)
		}
		if !strings.Contains(string(healthBody), `"status":"ok"`) {
			fatalf("healthz: unexpected body %q", healthBody)
		}
		metricsBody, err := scrape(client, base+"/metrics")
		if err != nil {
			fatalf("metrics: %v", err)
		}
		cur, err := obs.ParseText(strings.NewReader(string(metricsBody)))
		if err != nil {
			fatalf("metrics: %v", err)
		}

		now := time.Now()
		var b strings.Builder
		render(&b, *addr, cur, prev, now.Sub(prevAt).Seconds(), string(healthBody))

		if *once {
			fmt.Print(b.String())
			return
		}
		// ANSI full redraw: home + clear-to-end keeps the frame stable
		// without flicker.
		fmt.Print("\x1b[H\x1b[2J" + b.String())

		frames++
		if *count > 0 && frames >= *count {
			return
		}
		prev, prevAt = cur, now
		time.Sleep(*interval)
	}
}
