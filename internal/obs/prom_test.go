package obs

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a fixed registry whose exposition is pinned by
// testdata/metrics.golden: the wire-format contract overlaymon and any
// external scraper depend on.
func goldenRegistry() *Registry {
	r := NewRegistry(4)
	rounds := r.Counter("overlaynet_rounds_total", "simulation rounds executed")
	rounds.Add(0, 100)
	rounds.Add(1, 28)
	msgs := r.Counter("overlaynet_messages_total", "messages delivered")
	msgs.Add(2, 4096)
	h := r.Histogram("overlaynet_inbox_depth", "per-node inbox depth")
	for _, v := range []int64{1, 1, 2, 3, 4, 8, 8, 8, 100, 1000} {
		h.Observe(v)
	}
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s",
			buf.Bytes(), want)
	}
}

func TestExpositionRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	reg := goldenRegistry()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m["overlaynet_rounds_total"] != 128 {
		t.Fatalf("rounds = %v", m["overlaynet_rounds_total"])
	}
	if m["overlaynet_inbox_depth_count"] != 10 || m["overlaynet_inbox_depth_sum"] != 1135 {
		t.Fatalf("histogram scalars = %v %v",
			m["overlaynet_inbox_depth_count"], m["overlaynet_inbox_depth_sum"])
	}
	if m[`overlaynet_inbox_depth_bucket{le="+Inf"}`] != 10 {
		t.Fatalf("+Inf bucket = %v", m[`overlaynet_inbox_depth_bucket{le="+Inf"}`])
	}
	les, cums, count, ok := HistogramFromScrape(m, "overlaynet_inbox_depth")
	if !ok || count != 10 {
		t.Fatalf("HistogramFromScrape ok=%v count=%v", ok, count)
	}
	for i := 1; i < len(les); i++ {
		if les[i-1] >= les[i] || cums[i-1] > cums[i] {
			t.Fatalf("buckets not sorted/cumulative: %v %v", les, cums)
		}
	}
	if q := ScrapeQuantile(les, cums, count, 0.5); q < 3 || q > 8 {
		t.Fatalf("scraped p50 = %v, want within [3,8]", q)
	}
}

func TestParseTextErrors(t *testing.T) {
	if _, err := ParseText(strings.NewReader("novalue\n")); err == nil {
		t.Fatal("no error on line without value")
	}
	if _, err := ParseText(strings.NewReader("metric notanumber\n")); err == nil {
		t.Fatal("no error on non-numeric value")
	}
	m, err := ParseText(strings.NewReader("# comment only\n\n"))
	if err != nil || len(m) != 0 {
		t.Fatalf("comments/blank lines should parse empty: %v %v", m, err)
	}
}

func TestMetricsAndHealthzHandlers(t *testing.T) {
	reg := goldenRegistry()
	mrec := httptest.NewRecorder()
	reg.MetricsHandler().ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	if mrec.Code != 200 || !strings.Contains(mrec.Body.String(), "overlaynet_rounds_total 128") {
		t.Fatalf("metrics handler: code=%d body=%q", mrec.Code, mrec.Body.String())
	}
	if ct := mrec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}

	hrec := httptest.NewRecorder()
	HealthzHandler(reg).ServeHTTP(hrec, httptest.NewRequest("GET", "/healthz", nil))
	body := hrec.Body.String()
	if hrec.Code != 200 || !strings.Contains(body, `"status":"ok"`) || !strings.Contains(body, `"metrics":true`) {
		t.Fatalf("healthz: code=%d body=%q", hrec.Code, body)
	}

	// A nil registry still serves both endpoints.
	var nilReg *Registry
	nrec := httptest.NewRecorder()
	nilReg.MetricsHandler().ServeHTTP(nrec, httptest.NewRequest("GET", "/metrics", nil))
	if nrec.Code != 200 {
		t.Fatalf("nil metrics handler code %d", nrec.Code)
	}
	n2 := httptest.NewRecorder()
	HealthzHandler(nil).ServeHTTP(n2, httptest.NewRequest("GET", "/healthz", nil))
	if !strings.Contains(n2.Body.String(), `"metrics":false`) {
		t.Fatalf("nil healthz body %q", n2.Body.String())
	}
}
