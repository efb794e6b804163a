//go:build race

package tcpnet_test

// raceEnabled reports a -race build. Its sync.Pool drops a share of Puts
// on purpose, so pooled frame buffers are reallocated at random.
const raceEnabled = true
