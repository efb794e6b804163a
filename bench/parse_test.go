package main

import (
	"strings"
	"testing"
)

func TestParseStepLine(t *testing.T) {
	got, ok := parseStepLine("step  12  proc 3  size 4  sum 10")
	if !ok || got != (stepLine{step: 12, proc: 3, size: 4, sum: 10}) {
		t.Fatalf("got %+v ok=%v", got, ok)
	}
	for _, bad := range []string{
		"",
		"2026/09/26 01:39:25 elasticd: reconfigured to size 3 (recovery #1)",
		"elasticd: data plane: algo=auto chunks=0 codec=raw (1024 x float64, world 4)",
		"step 1 proc 2 size 3",              // truncated
		"step x  proc 3  size 4  sum 10",    // not a number
		"step 1  rank 3  size 4  sum 10",    // wrong keyword
		"stepping 1  proc 3  size 4  sum 1", // prefix only
	} {
		if _, ok := parseStepLine(bad); ok {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestLogLineFields(t *testing.T) {
	line := "2026/09/26 01:52:18 elasticd: joined as proc 2 (rank 2 of 4), transport 127.0.0.1:41081"
	if p, ok := intAfter(line, logJoined); !ok || p != 2 {
		t.Errorf("joined proc = %d ok=%v", p, ok)
	}
	if n, ok := intAfter("elasticd: reconfigured to size 3 (recovery #1)", logReconfigured); !ok || n != 3 {
		t.Errorf("reconfigured size = %d ok=%v", n, ok)
	}
	if _, ok := intAfter("elasticd: joined as proc x", logJoined); ok {
		t.Error("accepted a non-number")
	}
	if _, ok := intAfter("unrelated", logJoined); ok {
		t.Error("matched an unrelated line")
	}
	u, ok := metricsURL("elasticd: metrics on http://127.0.0.1:4567/metrics")
	if !ok || u != "http://127.0.0.1:4567/metrics" {
		t.Errorf("metrics url = %q ok=%v", u, ok)
	}
}

const promPage = `# HELP mpi_allreduce_seconds Wall latency of one allreduce, by schedule.
# TYPE mpi_allreduce_seconds histogram
mpi_allreduce_seconds_bucket{algo="ring",le="0.001"} 3
mpi_allreduce_seconds_bucket{algo="ring",le="+Inf"} 5
mpi_allreduce_seconds_sum{algo="ring"} 0.25
mpi_allreduce_seconds_count{algo="ring"} 5
mpi_allreduce_seconds_sum{algo="pipelined"} 0.75
mpi_allreduce_seconds_count{algo="pipelined"} 15
# TYPE tcpnet_tx_bytes_total counter
tcpnet_tx_bytes_total 123456
ulfm_recovery_phase_seconds_sum{phase="retry"} 0.0125
ulfm_recovery_phase_seconds_sum{phase="agree"} 0.5
`

func TestParseProm(t *testing.T) {
	s, err := parseProm(strings.NewReader(promPage))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.sum("tcpnet_tx_bytes_total"); got != 123456 {
		t.Errorf("counter = %v", got)
	}
	if got := s.sum("mpi_allreduce_seconds_sum"); got != 1 {
		t.Errorf("sum over algos = %v, want 1", got)
	}
	if got := s.sum("mpi_allreduce_seconds_count", "algo", "ring"); got != 5 {
		t.Errorf("labelled count = %v, want 5", got)
	}
	if got := s.sum("ulfm_recovery_phase_seconds_sum", "phase", "retry"); got != 0.0125 {
		t.Errorf("retry phase = %v", got)
	}
	if got := s.sum("absent_total"); got != 0 {
		t.Errorf("absent family = %v, want 0", got)
	}
	for _, bad := range []string{"name_without_value", "x{a=\"b\" 1", "x{a=b} 1", "x notanumber"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestStepLayersFromScrape(t *testing.T) {
	s, err := parseProm(strings.NewReader(promPage))
	if err != nil {
		t.Fatal(err)
	}
	l := stepLayers(s, 20, 10)
	if got := l["tcpnet.tx_bytes_per_step"]; got != 123456.0/20 {
		t.Errorf("tx bytes per step = %v", got)
	}
	if got := l["mpi.collective_ms_per_step"]; got != 50 { // 1 s over 20 allreduces
		t.Errorf("collective ms per step = %v, want 50", got)
	}
	if len(stepLayers(nil, 20, 10)) != 0 {
		t.Error("an absent scrape must produce no layers")
	}
}

const journalPage = `{"t":0,"proc":-1,"kind":"listen","extra":{"addr":"127.0.0.1:1"}}
{"t":1.5,"proc":2,"kind":"plan","seq":7,"extra":{"algo":"ring"}}
{"t":2.5,"proc":2,"kind":"recovery","seq":1,"reason":"failure","phases":{"revoke":0.0001,"agree":0.002,"shrink":0.003}}

{"t":3,"proc":2,"kind":"finish","extra":{"rank":1,"size":3}}
`

func TestReadRecoveries(t *testing.T) {
	recs, err := readRecoveries(strings.NewReader(journalPage))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Proc != 2 || recs[0].Seq != 1 {
		t.Fatalf("records = %+v", recs)
	}
	if recs[0].Phases["agree"] != 0.002 || recs[0].Phases["shrink"] != 0.003 {
		t.Errorf("phases = %v", recs[0].Phases)
	}
	if _, err := readRecoveries(strings.NewReader(`{"kind":"recovery"` + "\n")); err == nil {
		t.Error("accepted a truncated record")
	}
}
