package chaos

import (
	"runtime"
	"strings"
	"time"
)

// leakPackages are the goroutine owners the conformance suite polices: a
// scenario that finishes must leave no reader loops, heartbeat senders,
// sweep loops, or delayed-delivery goroutines behind.
var leakPackages = []string{
	"repro/internal/transport/tcpnet.",
	"repro/internal/transport/chaos.",
	"repro/internal/rendezvous.",
	"repro/internal/clustertest.",
	"repro/internal/node.",
}

// Leaked scans all goroutine stacks for frames owned by the transport,
// chaos, or rendezvous packages, retrying for up to wait so goroutines
// mid-unwind can finish. It returns the offending stack dump, or "" when
// clean. The caller (a test) decides how to fail; keeping this helper in
// the library makes it the standard postcondition every future
// transport/collective suite asserts.
func Leaked(wait time.Duration) string {
	deadline := time.Now().Add(wait)
	var last string
	for {
		last = leakedOnce()
		if last == "" || time.Now().After(deadline) {
			return last
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func leakedOnce() string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	stacks := string(buf[:n])
	var bad []string
	for _, g := range strings.Split(stacks, "\n\n") {
		// Skip the goroutine running the check itself.
		if strings.Contains(g, "chaos.leakedOnce") || strings.Contains(g, "chaos.Leaked") {
			continue
		}
		for _, pkg := range leakPackages {
			if strings.Contains(g, pkg) {
				bad = append(bad, g)
				break
			}
		}
	}
	return strings.Join(bad, "\n\n")
}
