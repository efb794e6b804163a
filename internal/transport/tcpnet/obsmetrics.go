package tcpnet

// Live metrics for the TCP data plane, registered once at package init
// against the process-wide obs registry. Every per-frame operation below
// is a single atomic — the send path stays allocation-free with
// instrumentation on (TestSendPathInstrumentationAllocFree pins this).

import "repro/internal/obs"

var (
	obsTxFrames = obs.Default().Counter("tcpnet_tx_frames_total",
		"Frames written to peers (after successful flush).")
	obsTxBytes = obs.Default().Counter("tcpnet_tx_bytes_total",
		"Wire bytes written to peers, length prefixes included.")
	obsRxFrames = obs.Default().Counter("tcpnet_rx_frames_total",
		"Frames decoded off inbound connections.")
	obsRxBytes = obs.Default().Counter("tcpnet_rx_bytes_total",
		"Wire bytes read off inbound connections, length prefixes included.")
	obsSendErrors = obs.Default().Counter("tcpnet_send_errors_total",
		"Sends reported as failures: dial/write retries exhausted, or cut short by a death verdict or Close.")
	obsDials = obs.Default().Counter("tcpnet_dials_total",
		"Successful peer dials (first connections and reconnects).")
	obsDialRetries = obs.Default().Counter("tcpnet_dial_retries_total",
		"Backoff retries taken inside writeToPeer (dial or write failures).")
	obsReconnects = obs.Default().Counter("tcpnet_reconnects_total",
		"Successful dials that replaced a previously working connection.")
	obsFramePoolGets = obs.Default().Counter("tcpnet_frame_pool_gets_total",
		"Frame buffer checkouts (send assembly + read-loop scratch).")
	obsFramePoolMisses = obs.Default().Counter("tcpnet_frame_pool_misses_total",
		"Checkouts the pool satisfied with a fresh allocation.")
	obsTxVecFrames = obs.Default().Counter("tcpnet_tx_writev_frames_total",
		"Frames sent scatter-gather (net.Buffers): header and payload reach the kernel without frame assembly.")
	obsTxVecBytes = obs.Default().Counter("tcpnet_tx_writev_bytes_total",
		"Payload bytes sent zero-copy straight from the caller's slice.")
	obsRxInplace = obs.Default().Counter("tcpnet_rx_inplace_frames_total",
		"Frames delivered as lazy raw payloads for in-place consumption (no eager decode copy).")
	obsMailboxDepth = obs.Default().Gauge("tcpnet_mailbox_depth",
		"Messages delivered to the endpoint and not yet received (set at every enqueue and dequeue; a level that only rises is a leak).")
	obsWriteFlush = obs.Default().Histogram("tcpnet_write_flush_seconds",
		"Latency of writing one frame to a peer, dial/retry and flush included.",
		obs.SecondsBuckets())
)

func init() {
	// The outstanding count already lives in an atomic the chaos leak
	// check reads; expose the same number (gets minus puts) at scrape
	// time. The pool hit rate is derivable as 1 - misses/gets.
	obs.Default().GaugeFunc("tcpnet_frame_pool_outstanding",
		"Pooled frame buffers currently checked out.",
		func() float64 { return float64(OutstandingFrameBufs()) })
}
