package remote

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"herosign/internal/spx"
	"herosign/internal/spx/params"
	"herosign/service"
)

// TestProxiedBatchSplitsAtLeafBodyCap: a front end adopts its leaf's
// MaxBatch, and a 16-thread cpuref leaf prefers 64 — a 64-pair 128f verify
// flush is 1.46 MB of JSON against the leaf's 1 MiB body cap. The hop must
// send it as consecutive bodies the leaf accepts and join the verdicts, not
// fail the whole batch on a 413.
func TestProxiedBatchSplitsAtLeafBodyCap(t *testing.T) {
	key := testKey(t)
	leaf, err := service.New(
		service.WithParams(params.SPHINCSPlus128f), service.WithKey(key),
		service.WithBackends(service.NewCPURefBackend(16)),
		service.WithFlushDeadline(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var bodies []int64
	h := leaf.Handler()
	leafTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/verify/batch" {
			mu.Lock()
			bodies = append(bodies, r.ContentLength)
			mu.Unlock()
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { leafTS.Close(); leaf.Close() })

	fleet, err := NewFleet([]string{leafTS.URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	front, err := service.New(
		service.WithParams(params.SPHINCSPlus128f), service.WithKey(key),
		service.WithBackends(fleet.Backends()...),
		service.WithFlushDeadline(time.Second), // the flush below is by size
	)
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()

	const pairs = 64 // the flush size the front end took over from the leaf
	var msgs, sigs [][]byte
	var want []bool
	for i := 0; i < 4; i++ {
		msg := []byte{'m', byte(i)}
		sig, err := spx.Sign(key, msg, nil)
		if err != nil {
			t.Fatal(err)
		}
		msgs, sigs = append(msgs, msg), append(sigs, sig)
	}
	for i := 4; i < pairs; i++ {
		msg, sig := msgs[i%4], sigs[i%4]
		if i%5 == 0 {
			sig = bytes.Clone(sig)
			sig[i] ^= 1
		}
		msgs, sigs = append(msgs, msg), append(sigs, sig)
	}
	for i := range msgs {
		want = append(want, i < 4 || i%5 != 0)
	}
	futs, err := front.SubmitVerifyBatchKey("", msgs, sigs)
	if err != nil {
		t.Fatal(err)
	}
	for i, fut := range futs {
		res, err := fut.Wait(t.Context())
		if err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		if res.Valid != want[i] {
			t.Errorf("pair %d: valid = %v, want %v", i, res.Valid, want[i])
		}
		if i == 0 && res.Batch != pairs {
			t.Fatalf("the front end flushed %d pairs at once, the test needs %d", res.Batch, pairs)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) < 2 {
		t.Fatalf("the 64-pair flush reached the leaf as %d bodies, want at least 2", len(bodies))
	}
	for _, n := range bodies {
		if n <= 0 || n > service.MaxBodyBytes {
			t.Errorf("a proxied body of %d bytes, cap %d", n, service.MaxBodyBytes)
		}
	}
}

// TestLargeSignReplyIsReadWhole: 128 signatures at 256f are 8.5 MB of JSON.
// The limit on a leaf's answer follows from the batch that was sent, so the
// reply is decoded whole — a fixed 8 MiB cap used to cut it short and book
// a transport failure against a healthy leaf.
func TestLargeSignReplyIsReadWhole(t *testing.T) {
	p := params.SPHINCSPlus256f
	key, err := spx.KeyFromSeeds(p, bytes.Repeat([]byte{1}, p.N), bytes.Repeat([]byte{2}, p.N), bytes.Repeat([]byte{3}, p.N))
	if err != nil {
		t.Fatal(err)
	}
	sigFor := func(msg []byte) []byte {
		return append(bytes.Repeat([]byte{0xa7}, p.SigBytes-len(msg)), msg...)
	}
	fake := newFakeLeaf(t, "big", key)
	catalog := fake.srv.Config.Handler
	leaf := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sign/batch" {
			catalog.ServeHTTP(w, r)
			return
		}
		var req struct {
			Messages [][]byte `json:"messages"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sigs := make([][]byte, len(req.Messages))
		for i, m := range req.Messages {
			sigs[i] = sigFor(m)
		}
		json.NewEncoder(w).Encode(map[string]any{"key_id": fake.keyID, "signatures": sigs})
	}))
	t.Cleanup(leaf.Close)
	fake.srv = leaf
	_, backends := fakeFleet(t, slowProbes, fake)

	job := &service.Job{Kind: service.KindSign}
	for i := 0; i < 128; i++ {
		job.Msgs = append(job.Msgs, []byte{'m', byte(i)})
	}
	out, err := backends[0].RunBatch(t.Context(), key, job)
	if err != nil {
		t.Fatalf("128 signatures at 256f: %v", err)
	}
	for i, sig := range out.Sigs {
		if !bytes.Equal(sig, sigFor(job.Msgs[i])) {
			t.Fatalf("signature %d is not the leaf's", i)
		}
	}
	if st := backends[0].RemoteHealth(); st.Errors != 0 || st.State != "healthy" {
		t.Errorf("the leaf was booked %d errors, state %s", st.Errors, st.State)
	}
}
