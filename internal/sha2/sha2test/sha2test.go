// Package sha2test pins the active SHA-256 backend of internal/sha2 for
// tests and benchmarks of the packages above it.
package sha2test

import (
	"testing"

	"herosign/internal/sha2"
)

// Pin makes b the active backend until tb ends, then restores the one
// before. tb fails at once if b is not selectable on this host.
func Pin(tb testing.TB, b sha2.Backend) {
	tb.Helper()
	prev, ok := sha2.Use(b)
	if !ok {
		tb.Fatalf("sha2 backend %v is not selectable on this host", b)
	}
	tb.Cleanup(func() { sha2.Use(prev) })
}

// Each runs f as one subtest per selectable backend, named after it, with
// that backend pinned.
func Each(t *testing.T, f func(t *testing.T)) {
	for _, b := range sha2.Backends() {
		t.Run(b.String(), func(t *testing.T) {
			Pin(t, b)
			f(t)
		})
	}
}
