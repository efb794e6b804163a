package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// worldSize is fixed: 4 is the smallest world whose ring is not pairwise
// and whose shrink still leaves a ring.
const worldSize = 4

// workload is one row of the benchmark. Every run of every workload has a
// failure-free part and at least one kill episode, so every end-to-end
// metric exists on every workload: the steady_* rows measure a long
// failure-free window and add a few kill episodes at their tensor size
// and codec; the kill_* rows are episodes only, whose steps before the
// kill are the failure-free part.
type workload struct {
	name, why string
	n         int     // float64 elements per allreduce
	codec     string  // -codec
	episodes  bool    // kill_*: the run is a series of kill episodes
	swap      bool    // one warm spare, -scale-policy swap
	warm      int     // steady_*: warm-up steps on the lead before the window opens
	probes    int     // steady_*: kill episodes played after the window, for the recovery metrics
	episodeS  float64 // kill_*: nominal episode length; a run plays seconds/episodeS of them
}

var workloads = []workload{
	{name: "steady_8k", n: 1024, codec: "raw", warm: 1000, probes: 5,
		why: "8 KiB allreduce back to back: latency-bound, per-message cost (framing, flush, syscalls, ulfm wrapper, per-step journal/print) is the whole step"},
	{name: "steady_16m", n: 2 << 20, codec: "raw", warm: 10, probes: 1,
		why: "16 MiB allreduce back to back: bandwidth/CPU-bound, codec, writev, in-place decode+reduce, chunking and per-step buffers dominate"},
	{name: "steady_16m_fp16", n: 2 << 20, codec: "fp16", warm: 10, probes: 1,
		why: "steady_16m with -codec fp16: half the wire bytes, convert loops on the critical path, so a raw-path gain that costs the compressed path shows"},
	{name: "kill_shrink", n: 128 << 10, codec: "raw", episodes: true, episodeS: 3,
		why: "1 MiB steps 50 ms apart, SIGKILL a worker in the pause, survivors shrink to 3: recovery-bound (detector, redial, revoke/agree/shrink/retry), data plane idle"},
	{name: "kill_swap", n: 512 << 10, codec: "raw", episodes: true, swap: true, episodeS: 3.2,
		why: "kill_shrink plus a warm spare and -scale-policy swap with 4 MiB of state: autopilot, state transfer, Grow/Join and the spare registry are on the path"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cfg is the launch a workload's own worlds use. The steady rows run the
// shipped default, -allreduce auto: the self-tuning selector is part of
// what they measure. The kill rows pin the ring: with a dozen steps per
// process the selector never settles, and which schedule it happens to
// try (a 20 % swing in step time at 4 MiB) would leak into numbers that
// are about recovery.
func (w workload) cfg(traced bool) worldCfg {
	c := worldCfg{size: worldSize, n: w.n, codec: w.codec, swap: w.swap, traced: traced, algo: "auto", interval: "0"}
	if w.episodes {
		c.algo, c.interval = "ring", killInterval
	}
	return c
}

// metric names a reported number and its unit; direction and bound live
// in BENCHMARK.json, the one place the driver and -aa both read.
type metric struct{ name, unit string }

// endToEnd is what a user of elasticd sees, measured with tracing off.
var endToEnd = []metric{
	{"steps_per_s", "1/s"},
	{"step_p50_ms", "ms"},
	{"cpu_ms_per_step", "ms"},
	{"peak_rss_mb", "MB"},
	{"recovery_s", "s"},
	{"restore_s", "s"},
	{"goodput_steps_per_s", "1/s"},
	{"setup_s", "s"},
}

// perLayer is the attribution, measured on the traced run. A metric whose
// layer is not on a workload's path reads 0 there.
var perLayer = []metric{
	{"transport.encode_mb_per_s", "MB/s"},
	{"transport.decode_mb_per_s", "MB/s"},
	{"transport.codec_allocs_per_op", "count"},
	{"tcpnet.pingpong_us", "us"},
	{"tcpnet.stream_mb_per_s", "MB/s"},
	{"tcpnet.mesh_dial_ms", "ms"},
	{"tcpnet.send_dead_peer_ms", "ms"},
	{"tcpnet.tx_bytes_per_step", "B"},
	{"tcpnet.tx_frames_per_step", "count"},
	{"tcpnet.writev_byte_share", "share"},
	{"tcpnet.pool_miss_share", "share"},
	{"tcpnet.write_flush_ms_per_step", "ms"},
	{"tcpnet.dial_retries_per_recovery", "count"},
	{"mpi.allreduce_ms", "ms"},
	{"mpi.collective_ms_per_step", "ms"},
	{"mpi.tuner_decisions_per_step", "count"},
	{"mpi.agree_us", "us"},
	{"mpi.shrink_ms", "ms"},
	{"ulfm.wrapper_overhead_pct", "%"},
	{"ulfm.repair_ms", "ms"},
	{"ulfm.phase_revoke_ms", "ms"},
	{"ulfm.phase_agree_ms", "ms"},
	{"ulfm.phase_shrink_ms", "ms"},
	{"ulfm.phase_retry_ms", "ms"},
	{"ulfm.verdict_to_reconfigured_ms", "ms"},
	{"ulfm.grow_ms", "ms"},
	{"ulfm.midreduce_repair_p50_ms", "ms"},
	{"ulfm.midreduce_slow_share", "share"},
	{"rendezvous.join_ms", "ms"},
	{"rendezvous.suspect_ms", "ms"},
	{"rendezvous.detect_ms", "ms"},
	{"rendezvous.heartbeats_per_s", "1/s"},
	{"autopilot.state_xfer_mb_per_s", "MB/s"},
	{"autopilot.decide_us", "us"},
	{"autopilot.reconfigured_to_admit_ms", "ms"},
	{"autopilot.admit_to_enter_ms", "ms"},
	{"elasticd.outside_collective_ms_per_step", "ms"},
	{"elasticd.step_p99_ms", "ms"},
	{"elasticd.step_max_ms", "ms"},
	{"elasticd.step_drift_pct", "%"},
	{"elasticd.retry_ms", "ms"},
	{"trace.events_per_step", "count"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.build_s", "s"},
}

// benchmarkFile is the part of BENCHMARK.json (at the root of the
// repository) the driver and its tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &f, nil
}
