//go:build unix

package clustertest

import "syscall"

// RaiseFDLimit lifts the soft file-descriptor limit to the hard limit.
// World-128 clusters hold over a thousand descriptors (one TCP mesh conn
// per recursive-doubling peer pair, and both ends of one rendezvous conn
// per worker), which overflows the common 1024 default; test mains for
// large worlds call this first.
func RaiseFDLimit() error {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return err
	}
	if lim.Cur >= lim.Max {
		return nil
	}
	lim.Cur = lim.Max
	return syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim)
}
