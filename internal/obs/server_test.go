package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestServerEndpoints(t *testing.T) {
	r := fullRegistry()
	s, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	code, ct, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if ct != TextContentType {
		t.Fatalf("/metrics content-type = %q", ct)
	}
	if err := ValidateText(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics body not conformant: %v\n%s", err, body)
	}
	if !strings.Contains(body, "tx_bytes_total 1234\n") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	code, _, body = get(t, base+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, ct, body = get(t, base+"/varz")
	if code != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/varz = %d %q", code, ct)
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/varz not JSON: %v\n%s", err, body)
	}
	if _, ok := snap["op_seconds"]; !ok {
		t.Fatalf("/varz missing histogram family:\n%s", body)
	}
}

func TestServeNilRegistryUsesDefault(t *testing.T) {
	c := Default().Counter("obs_server_test_default_total", "test counter")
	c.Inc()
	s, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, _, body := get(t, "http://"+s.Addr()+"/metrics")
	if !strings.Contains(body, "obs_server_test_default_total") {
		t.Fatalf("default-registry metric not served")
	}
}

// TestServerServesPprof: the profile index and a one-second CPU profile
// (a gzipped protobuf) come off the same listener as /metrics.
func TestServerServesPprof(t *testing.T) {
	s, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	code, _, body := get(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d, body:\n%s", code, body)
	}
	code, _, body = get(t, base+"/debug/pprof/profile?seconds=1")
	if code != http.StatusOK || !strings.HasPrefix(body, "\x1f\x8b") {
		t.Fatalf("/debug/pprof/profile = %d, %d bytes, want a gzipped profile", code, len(body))
	}
}
