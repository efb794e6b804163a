// Package core implements the paper's contribution: elastic deep learning
// through resilient collective operations over ULFM MPI.
//
// Failures are handled at the granularity of a single collective
// operation (forward recovery): each step's whole gradient exchange is
// one sealed resilient operation on a ulfm.ResilientComm, so when it
// reports MPI_ERR_PROC_FAILED anywhere, every survivor revokes the
// communicator, acknowledges and agrees on the failure set, shrinks to a
// sane communicator and retries the exchange with the contributions it
// still holds — no minibatch is re-executed and no checkpoint rollback
// happens. A runtime policy chooses between dropping only the failed
// process or its entire node (the paper's command-line flag), and the
// three elasticity scenarios are supported:
//
//	Down  — continue with the survivors (Scenario I)
//	Same  — spawn replacements; they merge at the next epoch boundary
//	        with the state forwarded by survivors (Scenario II)
//	Up    — admit newly available workers at the next epoch boundary
//	        (Scenario III), without interrupting the current epoch
//
// Newcomers receive the training state of epoch i+1 from the survivors,
// so they "commence from the (i+1)th epoch" exactly as the paper
// describes.
package core

import (
	"fmt"
	"sync"

	"repro/internal/failure"
	"repro/internal/horovod"
	"repro/internal/metrics"
	"repro/internal/nccl"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/train"
)

// Scenario selects the elasticity scenario.
type Scenario int

const (
	ScenarioDown Scenario = iota
	ScenarioSame
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

// Config parameterizes a ULFM elastic training job.
type Config struct {
	Train    train.Config
	Horovod  horovod.Config
	UseGPU   bool
	NCCL     nccl.Config
	Scenario Scenario
	// DropPolicy is the runtime flag from the paper: on a failure, drop
	// only the failed process (KillProcess) or its whole node (KillNode).
	DropPolicy failure.Kind
	Schedule   *failure.Schedule

	// FrameworkInit is the one-time software initialization of a new
	// worker (identical to the baseline's, per the paper: "this cost is
	// only incurred once").
	FrameworkInit float64

	// Trace, when non-nil, receives a structured journal of recoveries,
	// joins, and completions.
	Trace *trace.Recorder
}

// DefaultCosts fills cost-model defaults.
func (c *Config) DefaultCosts() {
	if c.FrameworkInit == 0 {
		c.FrameworkInit = 4.0
	}
}

// EventReport aggregates one reconfiguration's cost breakdowns.
type EventReport struct {
	Seq      int
	Trigger  string
	Critical *metrics.Breakdown // per-phase max across survivors
	Newcomer *metrics.Breakdown // per-phase max across newcomers
}

// Result summarizes a run.
type Result struct {
	Events      []*EventReport
	FinalHashes map[simnet.ProcID]uint64
	LossHistory []float64
	FinalSize   int
	TotalTime   float64
}

// pendingJoin tracks spawned workers awaiting their epoch-boundary merge.
type pendingJoin struct {
	seq        int
	procs      []simnet.ProcID
	mergeEpoch int // -1 until claimed by the first survivor reaching a boundary
}

// Job owns one ULFM elastic training run.
type Job struct {
	cluster *simnet.Cluster
	cfg     Config
	group   *simnet.Group
	gate    *failure.Gate // lands each scheduled failure at the same point of every run

	mu        sync.Mutex
	eventSeq  int
	claims    map[string]int
	reports   map[int]*EventReport
	pending   *pendingJoin
	spawned   map[int]bool
	joinSeq   map[simnet.ProcID]int
	finals    map[simnet.ProcID]uint64
	loss      []float64
	finalSize int
}

// NewJob builds a job over an existing cluster.
func NewJob(cl *simnet.Cluster, cfg Config) (*Job, error) {
	cfg.DefaultCosts()
	if err := cfg.Train.Validate(); err != nil {
		return nil, err
	}
	if cfg.Train.ReclaimLostSamples && cfg.Scenario != ScenarioDown {
		return nil, fmt.Errorf("core: ReclaimLostSamples requires ScenarioDown (newcomers do not receive the carryover)")
	}
	return &Job{
		cluster: cl,
		cfg:     cfg,
		group:   simnet.NewGroup(),
		gate:    failure.NewGate(),
		claims:  make(map[string]int),
		reports: make(map[int]*EventReport),
		spawned: make(map[int]bool),
		joinSeq: make(map[simnet.ProcID]int),
		finals:  make(map[simnet.ProcID]uint64),
	}, nil
}

// Run executes the job to completion.
func (j *Job) Run() (*Result, error) {
	procs := j.cluster.LiveProcs()
	for _, pid := range procs {
		ep := j.cluster.Endpoint(pid)
		j.group.Go(ep, func(ep *simnet.Endpoint) error {
			return j.runWorker(ep, procs, false)
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
	for s := 1; ; s++ {
		rep, ok := j.reports[s]
		if !ok {
			break
		}
		res.Events = append(res.Events, rep)
	}
	j.cfg.Trace.Run(res.TotalTime, res.FinalSize, len(res.Events))
	return res, nil
}

// claimEvent maps a deterministic event key (shared by every survivor of
// the same reconfiguration) to a sequence number, allocating it on first
// claim.
func (j *Job) claimEvent(key, trigger string) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if s, ok := j.claims[key]; ok {
		return s
	}
	j.eventSeq++
	j.claims[key] = j.eventSeq
	j.reports[j.eventSeq] = &EventReport{Seq: j.eventSeq, Trigger: trigger}
	return j.eventSeq
}

// reportRecovery folds a rank's breakdown into an event report.
func (j *Job) reportRecovery(seq int, bd *metrics.Breakdown, newcomer bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rep := j.reports[seq]
	if rep == nil {
		rep = &EventReport{Seq: seq}
		j.reports[seq] = rep
	}
	j.cfg.Trace.Recovery(0, -1, seq, rep.Trigger, bd, newcomer)
	if newcomer {
		rep.Newcomer = metrics.MaxOver(rep.Newcomer, bd)
	} else {
		rep.Critical = metrics.MaxOver(rep.Critical, bd)
	}
}

// spawnWorkers provisions n workers on fresh nodes and launches their
// goroutines; they block in mpi.Join until survivors Grow them in.
func (j *Job) spawnWorkers(n int, at float64, seq int) []simnet.ProcID {
	ppn := j.cluster.Config().ProcsPerNode
	var out []simnet.ProcID
	for n > 0 {
		node := j.cluster.AddNode()
		for i := 0; i < ppn && n > 0; i++ {
			ep, err := j.cluster.Spawn(node, at)
			//lint:ignore mpierrcmp spawn failure is provisioning, not a collective fault: the slot is skipped and the worker lands on the next node
			if err != nil {
				continue
			}
			out = append(out, ep.ID())
			j.mu.Lock()
			j.joinSeq[ep.ID()] = seq
			j.mu.Unlock()
			j.group.Go(ep, func(ep *simnet.Endpoint) error {
				return j.runWorker(ep, nil, true)
			})
			n--
		}
	}
	return out
}

// registerPending records spawned workers for the next epoch-boundary
// merge. One pending batch at a time (single live event).
func (j *Job) registerPending(seq int, procs []simnet.ProcID) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.pending != nil && j.pending.seq == seq {
		return
	}
	j.pending = &pendingJoin{seq: seq, procs: procs, mergeEpoch: -1}
}

// joinersFor returns the pending newcomers to merge at the given epoch, or
// nil. The first survivor reaching a boundary claims the merge epoch; all
// later callers at the same epoch observe the same list.
func (j *Job) joinersFor(epoch int) (int, []simnet.ProcID) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.pending == nil {
		return 0, nil
	}
	if j.pending.mergeEpoch < 0 {
		j.pending.mergeEpoch = epoch
	}
	if j.pending.mergeEpoch == epoch {
		return j.pending.seq, j.pending.procs
	}
	return 0, nil
}

// clearPending drops the pending batch once merged (called after the merge
// epoch passes).
func (j *Job) clearPending(epoch int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.pending != nil && j.pending.mergeEpoch >= 0 && epoch > j.pending.mergeEpoch {
		j.pending = nil
	}
}

// recordFinal stores a finished worker's replica hash and rank-0 metrics.
func (j *Job) recordFinal(p simnet.ProcID, hash uint64, rank, size int, loss []float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finals[p] = hash
	if rank == 0 {
		j.loss = append([]float64(nil), loss...)
		j.finalSize = size
	}
}
