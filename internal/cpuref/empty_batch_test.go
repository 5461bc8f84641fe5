package cpuref

import (
	"math"
	"testing"

	"herosign/internal/spx"
	"herosign/internal/spx/params"
)

// TestEmptyBatches: zero-item batches must return a zeroed Result instead
// of clamping the worker count to zero (which left no goroutine to run) or
// dividing 0/0 into a NaN/Inf KOPS.
func TestEmptyBatches(t *testing.T) {
	sk := key(t)
	check := func(what string, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if res == nil {
			t.Fatalf("%s: nil result", what)
		}
		if res.Messages != 0 || res.Threads != 0 {
			t.Errorf("%s: result %+v, want zeroed", what, res)
		}
		if math.IsNaN(res.KOPS) || math.IsInf(res.KOPS, 0) || res.KOPS != 0 {
			t.Errorf("%s: KOPS = %v, want 0", what, res.KOPS)
		}
	}

	for _, threads := range []int{0, 4} {
		sigs, res, err := SignBatch(sk, nil, threads)
		check("SignBatch", res, err)
		if len(sigs) != 0 {
			t.Errorf("SignBatch returned %d signatures", len(sigs))
		}

		ok, res, err := VerifyBatch(&sk.PublicKey, nil, nil, threads)
		check("VerifyBatch", res, err)
		if len(ok) != 0 {
			t.Errorf("VerifyBatch returned %d verdicts", len(ok))
		}

		keys, res, err := KeyGenBatch(params.SPHINCSPlus128f, nil, nil, nil, threads)
		check("KeyGenBatch", res, err)
		if len(keys) != 0 {
			t.Errorf("KeyGenBatch returned %d keys", len(keys))
		}
	}
}

// TestVerifyBatchMatchesScalar: the lane-batched verify path must produce
// exactly the verdicts of one scalar spx.Verify per pair on a mixed batch,
// at several worker counts (contiguous spans of different sizes).
func TestVerifyBatchMatchesScalar(t *testing.T) {
	sk := key(t)
	const n = 13
	msgs := make([][]byte, n)
	for i := range msgs {
		msgs[i] = []byte{byte(i), 'm', 's'}
	}
	sigs, _, err := SignBatch(sk, msgs, 4)
	if err != nil {
		t.Fatal(err)
	}
	sigs[2] = append([]byte(nil), sigs[2]...)
	sigs[2][70] ^= 1          // forged
	sigs[5] = sigs[5][:33]    // truncated
	msgs[8] = []byte("other") // message mismatch
	sigs[11] = append([]byte(nil), sigs[11]...)
	sigs[11][len(sigs[11])-1] ^= 0x10 // tampered tail

	want := make([]bool, n)
	for i := range want {
		want[i] = spx.Verify(&sk.PublicKey, msgs[i], sigs[i]) == nil
	}
	for _, threads := range []int{1, 3, 16} {
		got, res, err := VerifyBatch(&sk.PublicKey, msgs, sigs, threads)
		if err != nil {
			t.Fatal(err)
		}
		if res.Messages != n {
			t.Fatalf("threads=%d: result %+v", threads, res)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("threads=%d pair %d: batched %v, scalar %v", threads, i, got[i], want[i])
			}
		}
	}
}
