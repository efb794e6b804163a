// Command elasticd is a multi-process elastic worker: a node.Node (the
// rendezvous member, TCP endpoint and world communicator) running a loop
// of resilient allreduces that survives the abrupt death (kill -9) of
// other workers via the same ULFM revoke/agree/shrink/retry pipeline the
// simulator exercises.
//
// Quickstart on one machine (four terminals, or background jobs):
//
//	elasticd -serve -rendezvous 127.0.0.1:7777 -world 4   # rank 0, hosts the service
//	elasticd -rendezvous 127.0.0.1:7777                   # three more workers
//	elasticd -rendezvous 127.0.0.1:7777
//	elasticd -rendezvous 127.0.0.1:7777
//
// Then kill -9 any non-serving worker and watch the survivors shrink
// and keep stepping with the reduced sum.
//
// With -scale-policy and warm spares the world heals instead of
// shrinking: start the workers with `-scale-policy swap`, add
// `-spare -scale-policy swap` processes, and a kill -9 is absorbed by
// the autopilot swapping a spare in at the next step boundary — the
// newcomer receives the model state over a bandwidth-capped stream and
// enters at the following step with the world back at full size.
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/autopilot"
	"repro/internal/checkpoint"
	"repro/internal/mpi"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/rendezvous"
	"repro/internal/trace"
	"repro/internal/transport/chaos"
	"repro/internal/ulfm"
)

// stopGrace is how long a signalled worker stands still before it leaves;
// see the signal handler. It has to outlast the skew of one signal sent to
// every member (measured: up to 6 ms for a busy process on two
// oversubscribed cores) with room to spare, and stay well inside the time
// anything waits for a stopped worker to exit.
const stopGrace = 100 * time.Millisecond

func main() {
	rdv := flag.String("rendezvous", "127.0.0.1:7777", "rendezvous service address")
	listen := flag.String("listen", "127.0.0.1:0", "transport listen address (port 0 = ephemeral)")
	serve := flag.Bool("serve", false, "also host the rendezvous service on the -rendezvous address")
	world := flag.Int("world", 4, "world size to gather (used with -serve)")
	steps := flag.Int("steps", 30, "allreduce steps to run")
	n := flag.Int("n", 1024, "elements per allreduce")
	stepInterval := flag.Duration("step-interval", time.Second, "pause between steps (gives humans time to kill workers)")
	algoName := flag.String("allreduce", "auto", "allreduce algorithm: auto, ring, recdouble, hier, or pipelined")
	codecName := flag.String("codec", "raw", "gradient wire codec: raw or fp16")
	hb := flag.Duration("hb", 500*time.Millisecond, "heartbeat interval (used with -serve; silence is suspected at 3x and declared dead at 6x)")
	spare := flag.Bool("spare", false, "join as a warm spare: register idle, wait for the autopilot to swap this process in, receive state, then train")
	spares := flag.Int("spares", 0, "wait for this many warm spares to register before training (demo choreography)")
	scalePolicy := flag.String("scale-policy", "", "enable the autopilot grow boundary: 'swap' (replace deaths from the spare pool) or a schedule like '10:+2,20:-1'; every worker and spare must pass the same value")
	policyMode := flag.String("policy", "", "enable the adaptive recovery-policy engine: auto (pick the predicted-cheapest strategy per failure), shrink, swap, or rollback (force one); every worker and spare must pass the same value — the advice exchange is a collective")
	xferRate := flag.Float64("xfer-rate", 64<<20, "newcomer state-transfer bandwidth cap in bytes/sec (0 = unlimited)")
	loadMetric := flag.String("load-metric", "", "obs metric sampled at every grow boundary as the load signal (counter/gauge by level, histogram by mean); enables load-driven scaling — every worker and spare must pass the same value, the target broadcast is a collective")
	loadHigh := flag.Float64("load-high", 0, "scale up by one worker when -load-metric reads above this (0 disables the high-water mark)")
	loadLow := flag.Float64("load-low", 0, "scale down by one worker when -load-metric reads below this")
	tracePath := flag.String("trace", "", "write a JSON-lines event journal to this file")
	obsListen := flag.String("obs.listen", "", "serve /metrics, /healthz, /varz on this address (empty = no metrics endpoint)")
	chaosName := flag.String("chaos", "", "inject faults from a named chaos scenario: "+chaosNames())
	chaosSeed := flag.Int64("chaos.seed", 1, "seed for the -chaos scenario (same seed = same fault schedule)")
	flag.Parse()

	algo, err := mpi.ParseAllreduceAlgo(*algoName)
	if err != nil {
		log.Fatalf("elasticd: %v", err)
	}
	codec, err := mpi.ParseWireCodec(*codecName)
	if err != nil {
		log.Fatalf("elasticd: %v", err)
	}
	opts := mpi.AllreduceOptions{Algo: algo, Codec: codec}

	if *spare && *scalePolicy == "" {
		// A spare runs the same boundaries as every member once admitted,
		// so it needs a policy; default to swap-only rather than deadlock.
		*scalePolicy = "swap"
		log.Printf("elasticd: -spare without -scale-policy, defaulting to 'swap'")
	}
	scale, err := parseScalePolicy(*scalePolicy)
	if err != nil {
		log.Fatalf("elasticd: %v", err)
	}
	// A load signal is a scale policy of its own: it enables the grow
	// boundary even without a schedule, so the autopilot can answer
	// sustained load with spares and shed them when it subsides. The
	// probe reads what the instrumented packages already publish to the
	// default registry; before the metric's first registration it reads
	// NaN, which Decide treats as "hold".
	if *loadMetric != "" {
		if scale == nil {
			scale = &autopilot.Config{}
		}
		scale.Load = autopilot.LoadFromObs(nil, *loadMetric)
		scale.LoadHigh, scale.LoadLow = *loadHigh, *loadLow
	}

	// The journal is buffered, so every way out of this process must flush
	// it: the deferred close (normal completion and ErrDropped), fatalf
	// (fatal errors), the signal handler, and the chaos OnKill below. A
	// truncated journal would silently understate recovery behavior.
	jn, err := trace.OpenJournal(*tracePath)
	if err != nil {
		log.Fatalf("elasticd: %v", err)
	}
	defer jn.Close()
	rec := jn.Recorder()
	fatalf := func(format string, args ...any) {
		jn.Close()
		log.Fatalf(format, args...)
	}

	// An operator's stop is a departure, not a death: the handler sends the
	// rendezvous leave (once there is a membership to leave) before it
	// exits, so survivors log `proc N left` and shrink instead of being told
	// this process died. It stands still for stopGrace first: a job is
	// usually stopped whole (Ctrl-C reaches the process group, a scheduler
	// signals every task), and the signals land milliseconds apart. Were
	// each member to leave the moment its own arrived, the ones still
	// waiting for theirs would repair around the departures — now a
	// millisecond's work — and step on as a smaller world for the rest of
	// their short lives. A stopping worker therefore reports no more steps
	// (runSteps parks on `stopping`) and says nothing until every member
	// has had time to hear the same signal.
	var joined atomic.Pointer[node.Node]
	var stopping atomic.Bool
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		log.Printf("elasticd: caught %v, leaving, flushing journal and exiting", s)
		if nd := joined.Load(); nd != nil {
			stopping.Store(true)
			time.Sleep(stopGrace)
			nd.CL.Close()
		}
		jn.Close()
		if s == syscall.SIGTERM {
			os.Exit(143)
		}
		os.Exit(130)
	}()

	// Resolved addresses go to stdout (scripts launching with ":0" read
	// them there) and into the journal, so a run's artifacts record where
	// the process actually listened.
	obsAddr := ""
	if *obsListen != "" {
		osrv, err := obs.Serve(*obsListen, nil)
		if err != nil {
			fatalf("elasticd: %v", err)
		}
		defer osrv.Close()
		obsAddr = osrv.Addr()
		fmt.Printf("elasticd: metrics on http://%s/metrics\n", obsAddr)
	}

	if *serve {
		srv, err := rendezvous.ListenAndServe(*rdv, rendezvous.Config{
			World:             *world,
			HeartbeatInterval: *hb,
			Trace:             rec,
			Logf:              log.Printf,
		})
		if err != nil {
			fatalf("elasticd: %v", err)
		}
		defer srv.Close()
		log.Printf("elasticd: hosting rendezvous on %s for %d workers", srv.Addr(), *world)
	}

	cfg := node.Config{
		Rendezvous: *rdv,
		Listen:     *listen,
		Spare:      *spare,
		Scale:      scale,
		XferRate:   *xferRate,
		Trace:      rec,
		Logf:       func(format string, args ...any) { log.Printf("elasticd: "+format, args...) },
	}
	// With -chaos, the node's endpoint is wrapped in a fault-injecting
	// middleware: data-plane faults via the endpoint wrapper, mid-frame
	// connection resets via its connections.
	if *chaosName != "" {
		sc, err := chaosScenario(*chaosName, *chaosSeed)
		if err != nil {
			fatalf("elasticd: %v", err)
		}
		eng := chaos.New(sc)
		// Point-gated rules (the kill-at-* presets) fire off transport.Hit,
		// which only reaches the engine while it is installed.
		eng.Install()
		defer eng.Uninstall()
		log.Printf("elasticd: chaos scenario %q seed=%d armed", sc.Name, sc.Seed)
		defer func() { log.Printf("elasticd: %s", eng.String()) }()
		cfg.Chaos = eng
	}

	// With -policy, each member runs a recovery-policy engine in the
	// advisor seat: the deciding rank classifies every failure, picks the
	// predicted-cheapest strategy from live obs readings, and the choice
	// replicates through the repair pipeline. The checkpoint store (one per
	// process, so one slot) gives rollback a candidate restore point, saved
	// every step in runSteps; the spare pool size comes live from the hub.
	// Both probes run only inside repairs, once nd is set.
	var nd *node.Node
	var ck *checkpoint.Store
	if *policyMode != "" {
		mode, err := policy.ParseMode(*policyMode)
		if err != nil {
			fatalf("elasticd: %v", err)
		}
		ck = checkpoint.NewStore()
		cfg.Policy = &policy.Config{
			Mode:       mode,
			Spares:     func() int { return len(nd.CL.SpareProcs()) },
			Checkpoint: ck.AgeProbe(0, func() float64 { return nd.Now() }),
			Trace:      rec,
		}
		log.Printf("elasticd: recovery policy engine on (mode %s)", mode)
	}

	nd, err = node.Start(cfg)
	if err != nil {
		fatalf("elasticd: %v", err)
	}
	joined.Store(nd)
	fmt.Printf("elasticd: transport listening on %s\n", nd.EP.Addr())
	rec.Membership(0, -1, "listen", map[string]any{"addr": nd.EP.Addr(), "obs": obsAddr})
	if cfg.Chaos != nil {
		// OpKill is as close to kill -9 as the process can give itself: no
		// rendezvous leave, just sockets closing under everyone — survivors
		// learn of it from the hub, which convicts on the unclean close of
		// the control connection, exactly like an external kill.
		cfg.Chaos.OnKill(nd.Proc, func() {
			log.Printf("elasticd: chaos kill firing, dying silently")
			nd.Die()
			// Silent to the cluster, not to the operator: the journal still
			// flushes, so post-mortem analysis sees everything up to the kill.
			jn.Close()
			os.Exit(3)
		})
	}

	d := &daemon{
		nd: nd, rec: rec, opts: opts,
		n: *n, steps: *steps, stepInterval: *stepInterval,
		ck: ck, stopping: &stopping,
	}
	// Each worker contributes a constant vector of proc+1, so the
	// reduced value tracks exactly which members contributed: with
	// procs 0..3 alive the sum is 10; after proc 3 dies it drops to 6 —
	// or, with -scale-policy and a spare pool, bounces back as the
	// autopilot swaps a newcomer in.
	runErr := func() error {
		if *spare {
			// A spare enters at the epoch after the one the state is
			// stamped with, exactly as the paper specifies.
			state, step, err := nd.AwaitAdmission()
			if err != nil {
				return err
			}
			if len(state) < 8 {
				return fmt.Errorf("spare state recv: empty model")
			}
			log.Printf("elasticd: received %d state bytes (model[0]=%.0f, step %d), entering at step %d",
				len(state), math.Float64frombits(binary.LittleEndian.Uint64(state)), step, step+1)
			return d.runSteps(int(step) + 1)
		}
		// The resolved data-plane plan goes to stdout at startup: what
		// every round runs until the world changes size, when each member
		// re-plans by the same rule.
		plan := mpi.PlanAllreduce(int64(*n)*8, nd.CL.World(), opts)
		fmt.Printf("elasticd: data plane: %s (%d x float64, world %d)\n", plan, *n, nd.CL.World())
		d.awaitSpares(*spares, 2*time.Minute)
		return d.runSteps(0)
	}()
	if runErr == nil || errors.Is(runErr, ulfm.ErrDropped) {
		// This worker is leaving while others may go on: it may hold the
		// decision of an agreement a peer is still inside, and Leave
		// hands it over before the endpoint closes.
		nd.Leave()
	}
	if runErr != nil {
		if errors.Is(runErr, ulfm.ErrDropped) {
			log.Printf("elasticd: dropped from the communicator, exiting")
			return
		}
		fatalf("elasticd: %v", runErr)
	}
}
