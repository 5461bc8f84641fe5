package cpuref

import (
	"fmt"
	"testing"

	"herosign/internal/sha2"
	"herosign/internal/sha2/sha2test"
	"herosign/internal/spx"
	"herosign/internal/spx/params"
)

// benchKey derives the deterministic benchmark key for p.
func benchKey(b *testing.B, p *params.Params) *spx.PrivateKey {
	b.Helper()
	s := make([]byte, p.N)
	for i := range s {
		s[i] = byte(i)
	}
	sk, err := spx.KeyFromSeeds(p, s, s, s)
	if err != nil {
		b.Fatal(err)
	}
	return sk
}

func benchSignBatch(b *testing.B, p *params.Params, threads int) {
	sk := benchKey(b, p)
	msgs := make([][]byte, 4)
	for i := range msgs {
		msgs[i] = []byte{byte(i), 'b', 'e', 'n'}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var kops float64
	for i := 0; i < b.N; i++ {
		_, res, err := SignBatch(sk, msgs, threads)
		if err != nil {
			b.Fatal(err)
		}
		kops = res.KOPS
	}
	b.ReportMetric(kops, "KOPS")
	b.ReportMetric(kops*1000, "sigs/s")
}

// BenchmarkSignBatch1T is the acceptance benchmark: measured wall-clock
// single-thread SPHINCS+-128f batch signing throughput.
func BenchmarkSignBatch1T(b *testing.B) {
	benchSignBatch(b, params.SPHINCSPlus128f, 1)
}

// BenchmarkSignBatch1TPortable is the same measurement pinned to the
// portable SHA-256 backend, isolating the portable lane engine.
func BenchmarkSignBatch1TPortable(b *testing.B) {
	sha2test.Pin(b, sha2.PortableBackend)
	benchSignBatch(b, params.SPHINCSPlus128f, 1)
}

// BenchmarkSignBatchAllSets covers the three -f sets at GOMAXPROCS workers.
func BenchmarkSignBatchAllSets(b *testing.B) {
	for _, p := range params.FastSets() {
		b.Run(fmt.Sprintf("%s", p.Name), func(b *testing.B) {
			benchSignBatch(b, p, 0)
		})
	}
}
