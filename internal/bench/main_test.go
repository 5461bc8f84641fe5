package bench

import (
	"os"
	"testing"
)

// TestMain runs this package's tests at the lowest CPU priority. The
// modeled sweep is a throughput job with a host-independent answer, and it
// is the longest CPU-bound test in the module: under go test ./... it runs
// beside benchmark.TestSmoke, whose open-loop http-sign window must keep a
// fixed schedule. Run as an idle-class job, the sweep takes only the CPU the
// smoke leaves free, so both pass in one run on a 2-vCPU host.
func TestMain(m *testing.M) {
	lowerPriority()
	os.Exit(m.Run())
}
