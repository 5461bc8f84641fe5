package wots

import (
	"bytes"
	"testing"

	"herosign/internal/sha2"
	"herosign/internal/sha2/sha2test"
	"herosign/internal/spx/address"
	"herosign/internal/spx/hashes"
	"herosign/internal/spx/params"
)

// batchInputs builds b signatures, signed values and key-pair addresses
// with distinct content per signature.
func batchInputs(p *params.Params, b int, seed byte) (sigs, msgs [sha2.Lanes][]byte, adrs [sha2.Lanes]address.Address) {
	for j := 0; j < b; j++ {
		sigs[j] = make([]byte, p.WOTSBytes)
		for i := range sigs[j] {
			sigs[j][i] = byte(i*13+j*7) ^ seed
		}
		msgs[j] = make([]byte, p.N)
		for i := range msgs[j] {
			msgs[j][i] = byte(i*29+j*101) + seed
		}
		adrs[j].SetLayer(uint32(j % 3))
		adrs[j].SetTree(uint64(500 + 11*j))
		adrs[j].SetType(address.WOTSHash)
		adrs[j].SetKeyPair(uint32(j*5 + 1))
	}
	return sigs, msgs, adrs
}

// TestPKFromSigBatchMatchesScalar pins the batch recovery against b
// independent scalar PKFromSig calls for every parameter set, batch size
// and backend — both with separate output storage and in place, where pks
// overlaps the msgs storage as xmss.PKFromSigBatch passes it.
func TestPKFromSigBatchMatchesScalar(t *testing.T) {
	sha2test.Each(t, func(t *testing.T) {
		for _, p := range params.AllSets() {
			ctx := testCtx(t, p)
			for b := 1; b <= sha2.Lanes; b++ {
				sigs, msgs, adrs := batchInputs(p, b, byte(b))
				want := make([]byte, b*p.N)
				for j := 0; j < b; j++ {
					a := adrs[j]
					PKFromSig(ctx, want[j*p.N:(j+1)*p.N], sigs[j], msgs[j], &a)
				}

				got := make([]byte, b*p.N)
				PKFromSigBatch(ctx, b, got, &sigs, &msgs, &adrs)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s b=%d: batch public keys differ from scalar", p.Name, b)
				}

				inPlace := make([]byte, b*p.N)
				var views [sha2.Lanes][]byte
				for j := 0; j < b; j++ {
					views[j] = inPlace[j*p.N : (j+1)*p.N]
					copy(views[j], msgs[j])
				}
				PKFromSigBatch(ctx, b, inPlace, &sigs, &views, &adrs)
				if !bytes.Equal(inPlace, want) {
					t.Fatalf("%s b=%d: in-place batch public keys differ from scalar", p.Name, b)
				}
			}
		}
	})
}

// BenchmarkPKFromSigBatch measures one full 8-signature WOTS+ public-key
// recovery per -f parameter set (the -s sets share N and w, so their WOTS+
// cost is the same) on the default backend; us/sig is the per-signature
// chain cost.
func BenchmarkPKFromSigBatch(b *testing.B) {
	for _, p := range params.FastSets() {
		b.Run(p.Name[len("SPHINCS+-"):], func(b *testing.B) {
			ctx := hashes.NewCtx(p, make([]byte, p.N), nil)
			sigs, msgs, adrs := batchInputs(p, sha2.Lanes, 0)
			pks := make([]byte, sha2.Lanes*p.N)
			b.ReportAllocs()
			for b.Loop() {
				PKFromSigBatch(ctx, sha2.Lanes, pks, &sigs, &msgs, &adrs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sha2.Lanes)/1e3, "us/sig")
		})
	}
}
