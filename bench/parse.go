package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// stepLine is one `step N  proc P  size S  sum X` line of elasticd.
type stepLine struct {
	step, proc, size int
	sum              float64
}

// parseStepLine recognises elasticd's per-step stdout line. Anything else
// (log lines, the data-plane banner) reports ok=false.
func parseStepLine(s string) (stepLine, bool) {
	if !strings.HasPrefix(s, "step ") {
		return stepLine{}, false
	}
	f := strings.Fields(s)
	if len(f) != 8 || f[2] != "proc" || f[4] != "size" || f[6] != "sum" {
		return stepLine{}, false
	}
	var l stepLine
	var err [4]error
	l.step, err[0] = strconv.Atoi(f[1])
	l.proc, err[1] = strconv.Atoi(f[3])
	l.size, err[2] = strconv.Atoi(f[5])
	l.sum, err[3] = strconv.ParseFloat(f[7], 64)
	for _, e := range err {
		if e != nil {
			return stepLine{}, false
		}
	}
	return l, true
}

// The log lines the driver keys on. Each is matched by its fixed text and
// the one number it carries; elasticd's log timestamps have one-second
// resolution, so the driver stamps lines itself as it reads them.
const (
	logHosting      = "elasticd: hosting rendezvous on "
	logJoined       = "elasticd: joined as proc "
	logMetricsOn    = "elasticd: metrics on http://"
	logSuspected    = "rendezvous: proc %d suspected"
	logDeclaredDead = "rendezvous: proc %d declared dead"
	logPeerDown     = "elasticd: rendezvous declared proc %d down"
	logReconfigured = "elasticd: reconfigured to size "
	logAdmitted     = "elasticd: admitted proc "
	logEntering     = "), entering at step "
)

// intAfter returns the decimal integer that follows marker in s.
func intAfter(s, marker string) (int, bool) {
	i := strings.Index(s, marker)
	if i < 0 {
		return 0, false
	}
	rest := s[i+len(marker):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	if j == 0 {
		return 0, false
	}
	n, err := strconv.Atoi(rest[:j])
	return n, err == nil
}

// metricsURL extracts the scrape URL from elasticd's
// `elasticd: metrics on http://ADDR/metrics` stdout line.
func metricsURL(s string) (string, bool) {
	i := strings.Index(s, logMetricsOn)
	if i < 0 {
		return "", false
	}
	return strings.TrimSpace(s[i+len("elasticd: metrics on "):]), true
}

// promSample is one series of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is a parsed /metrics page.
type scrape []promSample

// parseProm reads the Prometheus text format internal/obs emits: comment
// lines skipped, `name{l="v",...} value` or `name value` otherwise.
// Label values in this repo never contain quotes, commas or escapes, and
// a line that does not fit is an error rather than a silently dropped
// series.
func parseProm(r io.Reader) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: bad value in %q: %v", line, err)
		}
		s := promSample{name: line[:sp], value: v}
		if b := strings.IndexByte(s.name, '{'); b >= 0 {
			if !strings.HasSuffix(s.name, "}") {
				return nil, fmt.Errorf("prom: unterminated labels in %q", line)
			}
			s.labels = map[string]string{}
			for _, kv := range strings.Split(s.name[b+1:len(s.name)-1], ",") {
				k, val, ok := strings.Cut(kv, "=")
				if !ok || len(val) < 2 || val[0] != '"' || val[len(val)-1] != '"' {
					return nil, fmt.Errorf("prom: bad label %q in %q", kv, line)
				}
				s.labels[k] = val[1 : len(val)-1]
			}
			s.name = s.name[:b]
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// sum adds every series of name whose labels include all of match
// (alternating key, value). A family that is absent sums to 0.
func (s scrape) sum(name string, match ...string) float64 {
	var total float64
next:
	for _, m := range s {
		if m.name != name {
			continue
		}
		for i := 0; i+1 < len(match); i += 2 {
			if m.labels[match[i]] != match[i+1] {
				continue next
			}
		}
		total += m.value
	}
	return total
}

// recoveryRecord is the part of a journal `recovery` event the bench
// reads: which process, which repair, seconds per phase.
type recoveryRecord struct {
	Proc   int                `json:"proc"`
	Kind   string             `json:"kind"`
	Seq    int                `json:"seq"`
	Phases map[string]float64 `json:"phases"`
}

// readRecoveries returns the `recovery` events of a JSON-lines journal
// written by elasticd -trace. Other kinds are skipped; a malformed line
// is an error (a truncated journal would understate recovery).
func readRecoveries(r io.Reader) ([]recoveryRecord, error) {
	var out []recoveryRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var rec recoveryRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("journal: %v in %q", err, sc.Text())
		}
		if rec.Kind == "recovery" {
			out = append(out, rec)
		}
	}
	return out, sc.Err()
}

func readRecoveriesFile(path string) ([]recoveryRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readRecoveries(f)
}
