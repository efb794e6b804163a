// Package elastic reimplements the paper's baseline: Elastic Horovod over
// Gloo (and NCCL for GPU work). Recovery is checkpoint-based backward
// recovery with the full reset pipeline the paper's Figure 4 profiles:
//
//	catch exception  -> Gloo's unsuccessful-op timeout surfaces the fault
//	shutdown         -> abort outstanding operations, tear the context down
//	re-init elastic  -> driver reset + host discovery (KV traffic)
//	re-init Gloo     -> fresh rendezvous round + full-mesh reconnect
//	rendezvous       -> local (per-node) and global resume barriers
//	state sync       -> rank 0 broadcasts the rolled-back training state
//	recompute        -> re-execute the minibatches lost since the last
//	                    commit (backward recovery)
//
// Elasticity policy follows Elastic Horovod's published behavior: faults
// are handled at node granularity only (the failed worker's whole node is
// blacklisted, even for a single-process fault), and upscales join at
// reset points discovered by the driver.
package elastic

import (
	"fmt"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/failure"
	"repro/internal/gloo"
	"repro/internal/horovod"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/nccl"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/train"
)

// Scenario selects the paper's three reconfiguration scenarios.
type Scenario int

const (
	// ScenarioDown drops the failed workers (Scenario I).
	ScenarioDown Scenario = iota
	// ScenarioSame replaces them, keeping the worker count (Scenario II).
	ScenarioSame
	// ScenarioUp adds workers during training (Scenario III).
	ScenarioUp
)

func (s Scenario) String() string {
	switch s {
	case ScenarioDown:
		return "down"
	case ScenarioSame:
		return "same"
	default:
		return "up"
	}
}

// Config parameterizes a baseline job.
type Config struct {
	Train    train.Config
	Gloo     gloo.Config
	Horovod  horovod.Config
	UseGPU   bool
	NCCL     nccl.Config
	Scenario Scenario
	Schedule *failure.Schedule

	// CommitEverySteps adds intra-epoch commits; state is always
	// committed at epoch start (the paper's configuration).
	CommitEverySteps int

	// Cost-model constants (seconds).
	ShutdownCost  float64 // aborting outstanding ops + teardown
	DriverCost    float64 // driver reset decision + discovery script
	FrameworkInit float64 // new worker software init (framework+CUDA load)
	MemCopyBW     float64 // local state copy bandwidth for commits

	// StartRound seeds the rendezvous round namespace.
	StartRound int

	// Trace, when non-nil, receives a structured journal of resets,
	// joins, and completions.
	Trace *trace.Recorder
}

// DefaultCosts fills the cost-model constants with calibrated defaults.
func (c *Config) DefaultCosts() {
	if c.ShutdownCost == 0 {
		c.ShutdownCost = 0.15
	}
	if c.DriverCost == 0 {
		c.DriverCost = 0.3
	}
	if c.FrameworkInit == 0 {
		c.FrameworkInit = 4.0
	}
	if c.MemCopyBW == 0 {
		c.MemCopyBW = 10e9
	}
	if c.StartRound == 0 {
		c.StartRound = 1
	}
}

// EventReport aggregates one reconfiguration's cost breakdowns.
type EventReport struct {
	Round    int
	Trigger  string
	Critical *metrics.Breakdown // per-phase max across ranks (wall-clock view)
	Newcomer *metrics.Breakdown // per-phase max across newcomers only
	Ranks    int                // ranks that contributed
}

// Result summarizes a run.
type Result struct {
	Events      []*EventReport
	FinalHashes map[simnet.ProcID]uint64
	LossHistory []float64
	FinalSize   int
	TotalTime   float64
}

// assignment is the worker set of one rendezvous round.
type assignment struct {
	round     int
	procs     []simnet.ProcID
	newcomers map[simnet.ProcID]bool
	trigger   string
}

func (a *assignment) rankOf(p simnet.ProcID) int {
	for i, pr := range a.procs {
		if pr == p {
			return i
		}
	}
	return -1
}

// Job owns one baseline training run.
type Job struct {
	cluster *simnet.Cluster
	kv      *kvstore.Store
	cfg     Config
	ckpt    *checkpoint.Store
	group   *simnet.Group
	gate    *failure.Gate // lands each scheduled failure at the same point of every run

	mu        sync.Mutex
	asn       map[int]*assignment
	blacklist map[simnet.NodeID]bool
	reports   map[int]*EventReport
	finals    map[simnet.ProcID]uint64
	loss      []float64
	finalSize int
}

// NewJob builds a job over an existing cluster and store.
func NewJob(cl *simnet.Cluster, kv *kvstore.Store, cfg Config) (*Job, error) {
	cfg.DefaultCosts()
	if err := cfg.Train.Validate(); err != nil {
		return nil, err
	}
	if cfg.Train.ReclaimLostSamples {
		return nil, fmt.Errorf("elastic: ReclaimLostSamples is not applicable — the baseline's rollback reshards the epoch over the survivors anyway")
	}
	return &Job{
		cluster:   cl,
		kv:        kv,
		cfg:       cfg,
		ckpt:      checkpoint.NewStore(),
		group:     simnet.NewGroup(),
		gate:      failure.NewGate(),
		asn:       make(map[int]*assignment),
		blacklist: make(map[simnet.NodeID]bool),
		reports:   make(map[int]*EventReport),
		finals:    make(map[simnet.ProcID]uint64),
	}, nil
}

// Run executes the job to completion and returns the result.
func (j *Job) Run() (*Result, error) {
	procs := j.cluster.LiveProcs()
	initial := &assignment{round: j.cfg.StartRound, procs: procs, trigger: "initial"}
	j.mu.Lock()
	j.asn[j.cfg.StartRound] = initial
	j.mu.Unlock()
	for _, pid := range procs {
		ep := j.cluster.Endpoint(pid)
		j.group.Go(ep, func(ep *simnet.Endpoint) error {
			return j.runWorker(ep, j.cfg.StartRound, false)
		})
	}
	errs := j.group.Wait()
	if err := simnet.FirstError(errs); err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	res := &Result{
		FinalHashes: j.finals,
		LossHistory: j.loss,
		FinalSize:   j.finalSize,
		TotalTime:   j.cluster.MaxTime(),
	}
	for r := j.cfg.StartRound + 1; ; r++ {
		rep, ok := j.reports[r]
		if !ok {
			break
		}
		res.Events = append(res.Events, rep)
	}
	j.cfg.Trace.Run(res.TotalTime, res.FinalSize, len(res.Events))
	return res, nil
}

// assignmentFor returns the (memoized) assignment of a round.
func (j *Job) assignmentFor(round int) *assignment {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.asn[round]
}

// planRecovery computes the next round's assignment after a failure:
// blacklist the nodes of all dead processes, keep remaining live workers,
// and — in ScenarioSame — spawn replacements on fresh nodes. Idempotent
// per round; the first caller decides.
func (j *Job) planRecovery(nextRound int, at float64) *assignment {
	j.mu.Lock()
	defer j.mu.Unlock()
	if a, ok := j.asn[nextRound]; ok {
		return a
	}
	lostWorkers := 0
	prev := j.asn[nextRound-1]
	for _, pid := range prev.procs {
		node, err := j.cluster.NodeOf(pid)
		if err != nil {
			continue
		}
		if j.cluster.IsDead(pid) && !j.blacklist[node] {
			// Node-level blacklisting, Elastic Horovod's only policy.
			j.blacklist[node] = true
		}
	}
	var procs []simnet.ProcID
	for _, pid := range prev.procs {
		node, err := j.cluster.NodeOf(pid)
		if err != nil {
			continue
		}
		if !j.cluster.IsDead(pid) && !j.blacklist[node] {
			procs = append(procs, pid)
		}
	}
	lostWorkers = len(prev.procs) - len(procs)
	a := &assignment{round: nextRound, procs: procs, newcomers: map[simnet.ProcID]bool{}, trigger: "failure"}
	if j.cfg.Scenario == ScenarioSame && lostWorkers > 0 {
		j.spawnLocked(a, lostWorkers, at)
	}
	j.asn[nextRound] = a
	return a
}

// planUpscale computes the next round's assignment for a graceful grow.
func (j *Job) planUpscale(nextRound, add int, at float64) *assignment {
	j.mu.Lock()
	defer j.mu.Unlock()
	if a, ok := j.asn[nextRound]; ok {
		return a
	}
	prev := j.asn[nextRound-1]
	a := &assignment{
		round:     nextRound,
		procs:     append([]simnet.ProcID(nil), prev.procs...),
		newcomers: map[simnet.ProcID]bool{},
		trigger:   "upscale",
	}
	// Elastic Horovod adds capacity at host (node) granularity only:
	// round the request up to whole nodes (Table 2: "autoscaling by
	// process" is unsupported).
	ppn := j.cluster.Config().ProcsPerNode
	add = (add + ppn - 1) / ppn * ppn
	j.spawnLocked(a, add, at)
	j.asn[nextRound] = a
	return a
}

// spawnLocked provisions n new workers on fresh nodes, appends them to the
// assignment, and launches their goroutines.
func (j *Job) spawnLocked(a *assignment, n int, at float64) {
	ppn := j.cluster.Config().ProcsPerNode
	for n > 0 {
		node := j.cluster.AddNode()
		for i := 0; i < ppn && n > 0; i++ {
			ep, err := j.cluster.Spawn(node, at)
			if err != nil {
				continue
			}
			a.procs = append(a.procs, ep.ID())
			a.newcomers[ep.ID()] = true
			round := a.round
			j.group.Go(ep, func(ep *simnet.Endpoint) error {
				return j.runWorker(ep, round, true)
			})
			n--
		}
	}
}

// reportRecovery folds one rank's breakdown into the round's report.
func (j *Job) reportRecovery(round int, bd *metrics.Breakdown, newcomer bool, trigger string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rep, ok := j.reports[round]
	if !ok {
		rep = &EventReport{Round: round, Trigger: trigger}
		j.reports[round] = rep
	}
	rep.Ranks++
	if newcomer {
		rep.Newcomer = metrics.MaxOver(rep.Newcomer, bd)
	} else {
		rep.Critical = metrics.MaxOver(rep.Critical, bd)
	}
	j.cfg.Trace.Recovery(0, -1, round, trigger, bd, newcomer)
}

// recordFinal stores a finished worker's replica hash (and, at rank 0, the
// loss history and final size).
func (j *Job) recordFinal(p simnet.ProcID, hash uint64, rank, size int, loss []float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finals[p] = hash
	if rank == 0 {
		j.loss = append([]float64(nil), loss...)
		j.finalSize = size
	}
}

// barrierCancel implements the local/global rendezvous-resume barriers
// over the KV store's arrival counters, aborting with a recoverable error
// when cancel closes (a participant died before arriving).
func (j *Job) barrierCancel(ep *simnet.Endpoint, key string, n int64, cancel <-chan struct{}) error {
	j.kv.Add(&ep.Clock, key, 1)
	merged := cancel
	if done := ep.Done(); done != nil {
		merged = mergeDone(cancel, done)
	}
	_, ok := j.kv.WaitAtLeast(&ep.Clock, key, n, merged)
	if !ok {
		if ep.Closed() {
			return simnet.ErrDead
		}
		return fmt.Errorf("elastic: barrier %q canceled: %w", key, &simnet.PeerFailedError{Proc: -1})
	}
	return nil
}

// mergeDone merges two cancellation channels.
func mergeDone(a, b <-chan struct{}) <-chan struct{} {
	if a == nil {
		return b
	}
	out := make(chan struct{})
	go func() {
		select {
		case <-a:
		case <-b:
		}
		close(out)
	}()
	return out
}
