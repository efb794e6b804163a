package obs

// Exposition-format conformance: the text rendering must be valid
// Prometheus text lines with stable metric/label naming and cumulative
// (monotone) histogram buckets — the contract any off-the-shelf scraper
// pointed at elasticd -obs.listen relies on.

import (
	"strconv"
	"strings"
	"testing"
)

// fullRegistry builds one of everything, with label edge cases.
func fullRegistry() *Registry {
	r := NewRegistry()
	r.Counter("tx_bytes_total", "bytes sent").Add(1234)
	r.Counter("peers_total", "peers", L("state", "alive")).Add(3)
	r.Counter("peers_total", "peers", L("state", "dead")).Inc()
	r.Gauge("queue_depth", "depth").Set(-2)
	r.GaugeFunc("pool_outstanding", "outstanding", func() float64 { return 4 })
	h := r.Histogram("op_seconds", "latency", []float64{0.001, 0.01, 0.1, 1}, L("algo", "ring"))
	for _, v := range []float64{0.0005, 0.002, 0.05, 0.5, 2, 3} {
		h.Observe(v)
	}
	h2 := r.Histogram("op_seconds", "latency", []float64{0.001, 0.01, 0.1, 1}, L("algo", "pipelined"))
	h2.Observe(0.02)
	r.Counter("escaped_total", `help with \ backslash and "quotes"`,
		L("path", `C:\tmp`), L("msg", "line\nbreak \"q\"")).Inc()
	return r
}

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return sb.String()
}

func TestExpositionConformance(t *testing.T) {
	out := render(t, fullRegistry())
	if err := ValidateText(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition not conformant: %v\n%s", err, out)
	}
}

func TestExpositionStableNaming(t *testing.T) {
	r := fullRegistry()
	first := render(t, r)
	for i := 0; i < 5; i++ {
		if again := render(t, r); again != first {
			t.Fatalf("exposition not stable across scrapes:\n--- first\n%s--- again\n%s", first, again)
		}
	}
	for _, want := range []string{
		"# TYPE tx_bytes_total counter",
		"tx_bytes_total 1234",
		`peers_total{state="alive"} 3`,
		`peers_total{state="dead"} 1`,
		"# TYPE queue_depth gauge",
		"queue_depth -2",
		"pool_outstanding 4",
		`op_seconds_bucket{algo="ring",le="0.001"} 1`,
		`op_seconds_bucket{algo="ring",le="+Inf"} 6`,
		`op_seconds_count{algo="ring"} 6`,
		`op_seconds_count{algo="pipelined"} 1`,
	} {
		if !strings.Contains(first, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, first)
		}
	}
}

func TestExpositionHistogramMonotone(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("m_seconds", "m", SecondsBuckets())
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i) * 1e-4)
	}
	out := render(t, r)
	if err := ValidateText(strings.NewReader(out)); err != nil {
		t.Fatalf("histogram exposition: %v\n%s", err, out)
	}
	// Cumulative counts must be non-decreasing and end at _count.
	var last uint64
	buckets := 0
	for _, ln := range strings.Split(out, "\n") {
		if !strings.HasPrefix(ln, "m_seconds_bucket") {
			continue
		}
		buckets++
		v, err := strconv.ParseUint(ln[strings.LastIndexByte(ln, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", ln, err)
		}
		if v < last {
			t.Fatalf("bucket counts decreased: %q after %d", ln, last)
		}
		last = v
	}
	if buckets != len(SecondsBuckets())+1 {
		t.Fatalf("%d bucket lines, want %d", buckets, len(SecondsBuckets())+1)
	}
	if last != 1000 {
		t.Fatalf("+Inf bucket = %d, want 1000", last)
	}
}

func TestValidateTextRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad sample":         "# HELP m x\n# TYPE m counter\nm{ 3\n",
		"sample before type": "m 3\n",
		"non-cumulative": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"missing inf": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
		"inf != count": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 7\n",
		"unsorted le": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
		"reopened family": "# HELP a x\n# TYPE a counter\na 1\n" +
			"# HELP b x\n# TYPE b counter\nb 1\n# HELP a x\n# TYPE a counter\na 2\n",
	}
	for name, in := range cases {
		if err := ValidateText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validated cleanly, want error", name)
		}
	}
}
