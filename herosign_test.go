package herosign

import (
	"bytes"
	"context"
	"testing"
	"time"
)

func apiKey(t testing.TB, p *Params) *PrivateKey {
	t.Helper()
	seed := func(tag byte) []byte {
		b := make([]byte, p.N)
		for i := range b {
			b[i] = byte(i)*3 + tag
		}
		return b
	}
	sk, err := KeyFromSeeds(p, seed(1), seed(2), seed(3))
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// TestPublicAPISignVerify exercises the CPU path end to end.
func TestPublicAPISignVerify(t *testing.T) {
	p := SPHINCSPlus128f
	sk, err := GenerateKey(p)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("public API quickstart")
	sig, err := Sign(sk, msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) != p.SigBytes {
		t.Fatalf("sig len %d, want %d", len(sig), p.SigBytes)
	}
	if err := Verify(&sk.PublicKey, msg, sig); err != nil {
		t.Fatal(err)
	}
	sig[100] ^= 1
	if err := Verify(&sk.PublicKey, msg, sig); err == nil {
		t.Fatal("tampered signature verified")
	}
}

// TestAcceleratorMatchesCPU checks the headline invariant through the
// public API: GPU-simulated batch signatures equal the CPU reference.
func TestAcceleratorMatchesCPU(t *testing.T) {
	p := SPHINCSPlus128f
	sk := apiKey(t, p)
	gpu, err := GPUByName("RTX 4090")
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewAccelerator(p, gpu)
	if err != nil {
		t.Fatal(err)
	}
	msgs := [][]byte{[]byte("m0"), []byte("m1"), []byte("m2")}
	res, err := acc.SignBatch(sk, msgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range msgs {
		want, err := Sign(sk, m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Sigs[i], want) {
			t.Fatalf("batch signature %d differs from CPU reference", i)
		}
		if err := Verify(&sk.PublicKey, m, res.Sigs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if res.ThroughputKOPS <= 0 {
		t.Fatal("no modeled throughput")
	}
	if acc.Tuning() == nil || acc.Tuning().F != 3 {
		t.Fatalf("tuning = %+v", acc.Tuning())
	}
}

// TestBaselineSlowerThanHero compares the two public configurations.
func TestBaselineSlowerThanHero(t *testing.T) {
	p := SPHINCSPlus128f
	sk := apiKey(t, p)
	gpu := GPUs()[4] // RTX 4090
	if gpu.Name != "RTX 4090" {
		t.Fatalf("catalog order changed: %s", gpu.Name)
	}
	hero, err := NewAccelerator(p, gpu)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewBaseline(p, gpu)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hero.MeasureBatch(sk, 128)
	if err != nil {
		t.Fatal(err)
	}
	b, err := base.MeasureBatch(sk, 128)
	if err != nil {
		t.Fatal(err)
	}
	if h.ThroughputKOPS <= b.ThroughputKOPS {
		t.Fatalf("hero %.1f KOPS not faster than baseline %.1f KOPS",
			h.ThroughputKOPS, b.ThroughputKOPS)
	}
}

// TestAcceleratorVerifyBatch exercises GPU-simulated verification through
// the public API, including a tampered signature.
func TestAcceleratorVerifyBatch(t *testing.T) {
	p := SPHINCSPlus128f
	sk := apiKey(t, p)
	gpu, _ := GPUByName("RTX 4090")
	acc, err := NewAccelerator(p, gpu)
	if err != nil {
		t.Fatal(err)
	}
	msgs := [][]byte{[]byte("v0"), []byte("v1")}
	res, err := acc.SignBatch(sk, msgs)
	if err != nil {
		t.Fatal(err)
	}
	sigs := res.Sigs
	sigs[1] = append([]byte(nil), sigs[1]...)
	sigs[1][42] ^= 1
	v, err := acc.VerifyBatch(&sk.PublicKey, msgs, sigs)
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK[0] || v.OK[1] {
		t.Fatalf("verdicts = %v, want [true false]", v.OK)
	}
}

// TestAcceleratorKeyGenBatch exercises GPU key generation through the
// public API and confirms equality with KeyFromSeeds.
func TestAcceleratorKeyGenBatch(t *testing.T) {
	p := SPHINCSPlus128f
	gpu, _ := GPUByName("RTX 4090")
	acc, err := NewAccelerator(p, gpu)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(tag byte) []byte {
		b := make([]byte, p.N)
		for i := range b {
			b[i] = byte(i) ^ tag
		}
		return b
	}
	seeds := []SeedTriple{{SKSeed: mk(1), SKPRF: mk(2), PKSeed: mk(3)}}
	res, err := acc.KeyGenBatch(seeds)
	if err != nil {
		t.Fatal(err)
	}
	want, err := KeyFromSeeds(p, mk(1), mk(2), mk(3))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Keys[0].Bytes(), want.Bytes()) {
		t.Fatal("GPU keygen differs from KeyFromSeeds")
	}
}

// TestParamsByName covers lookup forms.
func TestParamsByName(t *testing.T) {
	for _, name := range []string{"SPHINCS+-128f", "128f", "256s"} {
		if _, err := ParamsByName(name); err != nil {
			t.Errorf("ParamsByName(%q): %v", name, err)
		}
	}
	if _, err := ParamsByName("SPHINCS+-512f"); err == nil {
		t.Error("unknown set resolved")
	}
	if len(AllParams()) != 6 {
		t.Error("expected six built-in sets")
	}
}

// TestTuneAPI runs the exported tuner.
func TestTuneAPI(t *testing.T) {
	gpu, _ := GPUByName("Ada")
	r, err := Tune(SPHINCSPlus192f, gpu)
	if err != nil {
		t.Fatal(err)
	}
	if r.F != 2 || r.ThreadUtil != 0.75 {
		t.Fatalf("192f tuning = %s", r)
	}
}

// TestOptions covers the functional options.
func TestOptions(t *testing.T) {
	p := SPHINCSPlus128f
	gpu, _ := GPUByName("RTX 4090")
	acc, err := NewAccelerator(p, gpu,
		WithFeatures(BaselineFeatures()), WithSubBatch(16), WithStreams(2))
	if err != nil {
		t.Fatal(err)
	}
	if acc.Tuning() != nil {
		t.Error("baseline features should not run the tuner")
	}
}

// TestServiceBackendAPI exercises the new serving-layer surface end to end
// through the public package: a sharded mixed fleet with bounded admission.
func TestServiceBackendAPI(t *testing.T) {
	p := SPHINCSPlus128f
	gpu, _ := GPUByName("RTX 4090")
	svc, err := NewService(
		WithServiceParams(p),
		WithServiceKey(apiKey(t, p)),
		WithServiceDevices(gpu),
		WithBackend(NewCPURefBackend(1)),
		WithShards(2),
		WithQueueLimit(AutoQueueLimit),
		WithShedPolicy(RejectNewest),
		WithDrainDeadline(time.Minute),
		WithServiceFlushDeadline(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	shards := svc.Shards()
	if len(shards) != 2 {
		t.Fatalf("Shards() = %d, want 2", len(shards))
	}
	ctx := context.Background()
	msg := []byte("public api over the sharded fleet")
	sig, err := svc.Sign(ctx, msg)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := svc.Verify(ctx, msg, sig) // fan-out across both key domains
	if err != nil || !ok {
		t.Fatalf("service signature rejected: ok=%v err=%v", ok, err)
	}
	st := svc.Stats()
	for _, ss := range st.Shards {
		if ss.QueueLimit <= 0 {
			t.Fatalf("auto queue limit not applied to shard %d: %+v", ss.Shard, ss)
		}
	}
}

// TestServiceSubmitThroughPublicPackage drives Submit and SubmitBatch with
// names from this package alone, as README's Quickstart does.
func TestServiceSubmitThroughPublicPackage(t *testing.T) {
	p := SPHINCSPlus128f
	svc, err := NewService(
		WithServiceParams(p),
		WithServiceKey(apiKey(t, p)),
		WithBackend(NewCPURefBackend(1)),
		WithServiceFlushDeadline(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctx := context.Background()
	msg := []byte("submitted through herosign")
	var fut *Future
	fut, err = svc.Submit(Request{Kind: KindSign, Msg: msg,
		SubmitOpts: SubmitOpts{Deadline: time.Now().Add(time.Minute), Tenant: "acme"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fut.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var kind Kind = KindVerify
	futs, err := svc.SubmitBatch(kind, res.KeyID, [][]byte{msg, []byte("other")}, [][]byte{res.Sig, res.Sig}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, false} {
		r, err := futs[i].Wait(ctx)
		if err != nil || r.Valid != want {
			t.Fatalf("verify member %d: valid=%v err=%v, want valid=%v", i, r.Valid, err, want)
		}
	}
	if _, err := svc.Submit(Request{Kind: KindKeyGen}); err != nil {
		t.Fatal(err)
	}
}
