//go:build race

package harness

// raceDetectorEnabled scales the sharded determinism tests down under
// `go test -race`: the race detector costs ~7-10x wall on the
// event-dense full-stack runs, and the properties under test
// (byte-identity across worker counts and GOMAXPROCS) are
// duration-independent — each shard runs to completion on its own
// engine, and only the final join synchronizes the workers.
const raceDetectorEnabled = true
