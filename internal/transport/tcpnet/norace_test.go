//go:build !race

package tcpnet_test

const raceEnabled = false
