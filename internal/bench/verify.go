package bench

import (
	"fmt"

	"herosign/internal/core"
	"herosign/internal/spx/params"
)

// VerifyThroughput models batch verification and key generation on the
// simulated GPU. The signatures it verifies are produced by the same
// engine, and every one must be accepted.
func (s *Suite) VerifyThroughput() (*Table, error) {
	t := &Table{
		ID: "verify", Title: "Batch verification & key generation (simulated GPU)",
		Header: []string{"Set", "GPU KOPS", "Verify Kernel us", "KeyGen Kernel us"},
	}
	for _, p := range params.FastSets() {
		sg, err := s.signer(p, core.AllFeatures(), nil)
		if err != nil {
			return nil, err
		}
		sk := s.key(p)

		const n = 16
		msgs := make([][]byte, n)
		for i := range msgs {
			msgs[i] = []byte(fmt.Sprintf("verify-%d", i))
		}
		res, err := sg.SignBatch(sk, msgs)
		if err != nil {
			return nil, err
		}
		vres, err := sg.VerifyBatch(&sk.PublicKey, msgs, res.Sigs)
		if err != nil {
			return nil, err
		}
		for i, ok := range vres.OK {
			if !ok {
				return nil, fmt.Errorf("verify experiment: signature %d rejected", i)
			}
		}

		seeds := make([]core.SeedTriple, 4)
		for i := range seeds {
			mk := func(tag byte) []byte {
				b := make([]byte, p.N)
				for j := range b {
					b[j] = byte(j) + tag + byte(i)
				}
				return b
			}
			seeds[i] = core.SeedTriple{SKSeed: mk(1), SKPRF: mk(2), PKSeed: mk(3)}
		}
		kres, err := sg.KeyGenBatch(seeds)
		if err != nil {
			return nil, err
		}

		t.Rows = append(t.Rows, []string{
			p.Name, f2(vres.ThroughputKOPS),
			f2(vres.Kernel.DurationUs), f2(kres.Kernel.DurationUs),
		})
	}
	return t, nil
}
