package spx

import (
	"slices"
	"testing"

	"herosign/internal/sha2"
	"herosign/internal/sha2/sha2test"
	"herosign/internal/spx/params"
)

// TestVerifierMatchesVerify: the reusable scalar Verifier must agree with
// the one-shot package Verify on every fast set, for valid and tampered
// signatures alike.
func TestVerifierMatchesVerify(t *testing.T) {
	sets := []*params.Params{params.SPHINCSPlus128f}
	if !testing.Short() {
		sets = params.FastSets()
	}
	for _, p := range sets {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			sk := testKey(t, p, 0x51)
			s := NewSigner(sk)
			v := NewVerifier(&sk.PublicKey)
			msg := []byte("verifier equivalence " + p.Name)
			sig, err := s.Sign(msg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := v.Verify(msg, sig); err != nil {
				t.Fatalf("valid signature rejected: %v", err)
			}
			bad := append([]byte(nil), sig...)
			bad[100] ^= 1
			if got, want := v.Verify(msg, bad), Verify(&sk.PublicKey, msg, bad); got != want {
				t.Fatalf("tampered verdicts differ: verifier %v, package %v", got, want)
			}
			if err := v.Verify(msg, sig[:len(sig)-1]); err == nil {
				t.Fatal("truncated signature accepted")
			}
			// The Verifier must still accept a valid signature after the
			// rejections (no scratch poisoning).
			if err := v.Verify(msg, sig); err != nil {
				t.Fatalf("valid signature rejected after tampered calls: %v", err)
			}
		})
	}
}

// TestVerifyBatchVerdictEquivalence: one mixed batch — valid, forged,
// truncated, bit-flipped message, wrong key — must produce exactly the
// verdicts per-pair spx.Verify produces, in position.
func TestVerifyBatchVerdictEquivalence(t *testing.T) {
	p := params.SPHINCSPlus128f
	sk := testKey(t, p, 0x52)
	other := testKey(t, p, 0x53)
	s := NewSigner(sk)
	v := NewVerifier(&sk.PublicKey)

	const n = 2*sha2.Lanes + 3 // spans several lane groups plus a ragged tail
	msgs := make([][]byte, n)
	sigs := make([][]byte, n)
	for i := range msgs {
		msgs[i] = []byte{byte(i), 'b', 'v'}
		sig, err := s.Sign(msgs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		sigs[i] = sig
	}
	// Tamper a scatter of entries so every lane group holds a mix.
	sigs[1][60] ^= 0x80             // forged signature body
	sigs[4] = sigs[4][:100]         // truncated: wrong length, skips the lanes
	msgs[7] = []byte("swapped out") // message no longer matches
	sigs[9][p.N-1] ^= 1             // flipped randomizer R
	if sig, err := NewSigner(other).Sign(msgs[12], nil); err != nil {
		t.Fatal(err)
	} else {
		sigs[12] = sig // valid under the wrong key
	}
	sigs[n-1][0] ^= 4 // tampering in the ragged tail group

	got := v.VerifyBatch(nil, msgs, sigs)
	for i := range msgs {
		want := Verify(&sk.PublicKey, msgs[i], sigs[i]) == nil
		if got[i] != want {
			t.Errorf("pair %d: batch verdict %v, scalar %v", i, got[i], want)
		}
	}
}

// TestVerifierZeroAlloc: steady-state Verify and VerifyBatch (with a
// caller-owned verdict buffer) must not allocate.
func TestVerifierZeroAlloc(t *testing.T) {
	p := params.SPHINCSPlus128f
	sk := testKey(t, p, 0x54)
	s := NewSigner(sk)
	v := NewVerifier(&sk.PublicKey)

	msgs := make([][]byte, sha2.Lanes+2)
	sigs := make([][]byte, len(msgs))
	for i := range msgs {
		msgs[i] = []byte{byte(i), 'z'}
		sig, err := s.Sign(msgs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		sigs[i] = sig
	}
	ok := make([]bool, len(msgs))

	v.Verify(msgs[0], sigs[0])    // warm the arenas
	v.VerifyBatch(ok, msgs, sigs) //
	if allocs := testing.AllocsPerRun(5, func() {
		if err := v.Verify(msgs[0], sigs[0]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Verify allocates (%v allocs/op)", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		v.VerifyBatch(ok, msgs, sigs)
	}); allocs != 0 {
		t.Errorf("VerifyBatch allocates (%v allocs/op)", allocs)
	}
	for i, o := range ok {
		if !o {
			t.Errorf("pair %d reported invalid", i)
		}
	}
}

// TestVerifyBatchBackendEquivalence: verdicts must be identical across the
// portable, stdlib-accelerated and native SHA-256 backends.
func TestVerifyBatchBackendEquivalence(t *testing.T) {
	p := params.SPHINCSPlus128f
	sk := testKey(t, p, 0x55)
	s := NewSigner(sk)

	msgs := make([][]byte, 5)
	sigs := make([][]byte, 5)
	for i := range msgs {
		msgs[i] = []byte{byte(i), 'e'}
		sig, err := s.Sign(msgs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		sigs[i] = sig
	}
	sigs[2][200] ^= 2

	var first []bool
	for _, be := range sha2.Backends() {
		sha2test.Pin(t, be)
		got := NewVerifier(&sk.PublicKey).VerifyBatch(nil, msgs, sigs)
		if first == nil {
			first = got
		} else if !slices.Equal(got, first) {
			t.Errorf("%v verdicts %v, %v verdicts %v", be, got, sha2.Backends()[0], first)
		}
	}
}
