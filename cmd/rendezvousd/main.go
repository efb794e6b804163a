// Command rendezvousd runs the standalone rendezvous/membership service
// for multi-process elastic runs: it gathers -world workers, assigns
// ranks, publishes the peer address map, and declares failures — at once
// when a worker's connection to it closes without a leave (kill -9), on
// heartbeat silence otherwise — broadcasting them to the survivors.
//
//	rendezvousd -listen :7777 -world 4
//
// Workers (cmd/elasticd) point at it with -rendezvous host:7777. The
// same service can instead be run inline by the rank-0 worker with
// `elasticd -serve`.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/rendezvous"
	"repro/internal/trace"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7777", "address to listen on")
	world := flag.Int("world", 4, "workers to gather before publishing the peer map")
	hb := flag.Duration("hb", 500*time.Millisecond, "heartbeat interval workers are told to use; silence is suspected at 3x and declared dead at 6x")
	tracePath := flag.String("trace", "", "write a JSON-lines membership journal to this file")
	obsListen := flag.String("obs.listen", "", "serve /metrics, /healthz, /varz on this address (empty = no metrics endpoint)")
	flag.Parse()

	// Caught from the start: a stop that lands as soon as the address is
	// printed must still close the service and flush the journal.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	// Buffered journal: flushed on the signal exit below and on fatal
	// startup errors, never dropped on the floor.
	jn, err := trace.OpenJournal(*tracePath)
	if err != nil {
		log.Fatalf("rendezvousd: %v", err)
	}
	defer jn.Close()
	rec := jn.Recorder()

	// Resolved addresses go to stdout (scripts launching with ":0" read
	// them there) and into the journal, so a run's artifacts record where
	// it actually listened.
	obsAddr := ""
	if *obsListen != "" {
		osrv, oerr := obs.Serve(*obsListen, nil)
		if oerr != nil {
			jn.Close()
			log.Fatalf("rendezvousd: %v", oerr)
		}
		defer osrv.Close()
		obsAddr = osrv.Addr()
		fmt.Printf("rendezvousd: metrics on http://%s/metrics\n", obsAddr)
	}

	srv, err := rendezvous.ListenAndServe(*listen, rendezvous.Config{
		World:             *world,
		HeartbeatInterval: *hb,
		Trace:             rec,
		Logf:              log.Printf,
	})
	if err != nil {
		jn.Close()
		log.Fatalf("rendezvousd: %v", err)
	}
	fmt.Printf("rendezvousd: listening on %s, gathering %d workers\n", srv.Addr(), *world)
	rec.Membership(0, -1, "listen", map[string]any{"addr": srv.Addr(), "obs": obsAddr})

	<-sig
	srv.Close()
	jn.Close()
}
