package remote

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"herosign/internal/spx"
	"herosign/internal/spx/params"
	"herosign/service"
)

// recordingLeaf is a wire-faithful fake leaf that keeps the raw JSON bodies
// of every batch it serves, so tests can assert exactly what a front end
// put on the wire.
type recordingLeaf struct {
	key   *spx.PrivateKey
	keyID string

	mu           sync.Mutex
	signBodies   [][]byte
	verifyBodies [][]byte

	srv *httptest.Server
}

func (l *recordingLeaf) lastSignBody(t *testing.T) []byte {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.signBodies) == 0 {
		t.Fatal("leaf served no sign batches")
	}
	return l.signBodies[len(l.signBodies)-1]
}

func newRecordingLeaf(t *testing.T, key *spx.PrivateKey) *recordingLeaf {
	l := &recordingLeaf{key: key, keyID: service.KeyID(&key.PublicKey)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/keys", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"params": key.Params.Name,
			"keys": []map[string]any{{
				"key_id": l.keyID, "shard": 0, "public_key": key.PublicKey.Bytes(),
			}},
		})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.Stats{Params: key.Params.Name, MaxBatch: 64})
	})
	mux.HandleFunc("POST /v1/sign/batch", func(w http.ResponseWriter, r *http.Request) {
		raw, err := readBody(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		l.mu.Lock()
		l.signBodies = append(l.signBodies, raw)
		l.mu.Unlock()
		var req struct {
			Messages [][]byte `json:"messages"`
		}
		if err := json.Unmarshal(raw, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sigs := make([][]byte, len(req.Messages))
		for i, m := range req.Messages {
			sigs[i] = append([]byte("leafsig:"), m...)
		}
		json.NewEncoder(w).Encode(map[string]any{"key_id": l.keyID, "signatures": sigs})
	})
	mux.HandleFunc("POST /v1/verify/batch", func(w http.ResponseWriter, r *http.Request) {
		raw, err := readBody(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		l.mu.Lock()
		l.verifyBodies = append(l.verifyBodies, raw)
		l.mu.Unlock()
		var req struct {
			Messages [][]byte `json:"messages"`
		}
		if err := json.Unmarshal(raw, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		valid := make([]bool, len(req.Messages))
		for i := range valid {
			valid[i] = true
		}
		json.NewEncoder(w).Encode(map[string]any{"key_id": l.keyID, "valid": valid})
	})
	l.srv = httptest.NewServer(mux)
	t.Cleanup(l.srv.Close)
	return l
}

func readBody(r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(r.Body)
	return buf.Bytes(), err
}

// schedWire is the scheduling slice of the leaf wire format.
type schedWire struct {
	DeadlinesMs []int64  `json:"deadlines_ms"`
	Tenants     []string `json:"tenants"`
}

// TestSchedulingMetadataForwarded: a proxy backend forwards a Job's
// per-message deadline and tenant metadata onto the leaf wire exactly as
// dispatched — same values, same positions — for sign and verify batches,
// and omits the fields entirely when the batch carries none.
func TestSchedulingMetadataForwarded(t *testing.T) {
	key := testKey(t)
	leaf := newRecordingLeaf(t, key)

	fleet, err := NewFleet([]string{leaf.srv.URL}, slowProbes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.Close() })
	rb := fleet.Backends()[0].(*Backend)
	if err := rb.Warm(key); err != nil {
		t.Fatal(err)
	}

	job := &service.Job{
		Kind:        service.KindSign,
		Msgs:        [][]byte{[]byte("m0"), []byte("m1"), []byte("m2")},
		DeadlinesMs: []int64{120, 0, 45},
		Tenants:     []string{"", "acme", ""},
	}
	if _, err := rb.RunBatch(t.Context(), key, job); err != nil {
		t.Fatal(err)
	}
	var got schedWire
	if err := json.Unmarshal(leaf.lastSignBody(t), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.DeadlinesMs, job.DeadlinesMs) {
		t.Fatalf("leaf saw deadlines_ms %v, front dispatched %v", got.DeadlinesMs, job.DeadlinesMs)
	}
	if !reflect.DeepEqual(got.Tenants, job.Tenants) {
		t.Fatalf("leaf saw tenants %v, front dispatched %v", got.Tenants, job.Tenants)
	}

	// Verify batches forward the same way.
	vjob := &service.Job{
		Kind:        service.KindVerify,
		Msgs:        [][]byte{[]byte("v0"), []byte("v1")},
		Sigs:        [][]byte{[]byte("s0"), []byte("s1")},
		DeadlinesMs: []int64{7, 9},
		Tenants:     []string{"acme", "umbrella"},
	}
	if _, err := rb.RunBatch(t.Context(), key, vjob); err != nil {
		t.Fatal(err)
	}
	leaf.mu.Lock()
	vraw := leaf.verifyBodies[len(leaf.verifyBodies)-1]
	leaf.mu.Unlock()
	var vgot schedWire
	if err := json.Unmarshal(vraw, &vgot); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vgot.DeadlinesMs, vjob.DeadlinesMs) || !reflect.DeepEqual(vgot.Tenants, vjob.Tenants) {
		t.Fatalf("verify wire sched = %+v, want %v/%v", vgot, vjob.DeadlinesMs, vjob.Tenants)
	}

	// A metadata-free batch keeps the wire clean: omitempty, no empty arrays.
	if _, err := rb.RunBatch(t.Context(), key, signJob("plain")); err != nil {
		t.Fatal(err)
	}
	raw := leaf.lastSignBody(t)
	if bytes.Contains(raw, []byte("deadlines_ms")) || bytes.Contains(raw, []byte("tenants")) {
		t.Fatalf("metadata-free batch leaked scheduling fields: %s", raw)
	}
}

// TestSchedulingRoundTripThroughFront: the full path — Submit on a
// front service whose only backend proxies to a leaf — lands the tenant name
// verbatim and a sane remaining-milliseconds deadline on the leaf wire.
func TestSchedulingRoundTripThroughFront(t *testing.T) {
	key := testKey(t)
	leaf := newRecordingLeaf(t, key)

	fleet, err := NewFleet([]string{leaf.srv.URL}, slowProbes)
	if err != nil {
		t.Fatal(err)
	}
	front, err := service.New(
		service.WithParams(params.SPHINCSPlus128f),
		service.WithKey(key),
		service.WithBackends(fleet.Backends()...),
		service.WithFlushDeadline(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()

	const deadlineMs = 30_000
	fut, err := front.Submit(service.Request{Kind: service.KindSign, Msg: []byte("through the front"), SubmitOpts: service.SubmitOpts{
		Deadline: time.Now().Add(deadlineMs * time.Millisecond),
		Tenant:   "acme",
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fut.Wait(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(res.Sig, []byte("leafsig:")) {
		t.Fatal("result did not come from the leaf")
	}

	var got schedWire
	if err := json.Unmarshal(leaf.lastSignBody(t), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Tenants) != 1 || got.Tenants[0] != "acme" {
		t.Fatalf("leaf saw tenants %v, want [acme]", got.Tenants)
	}
	if len(got.DeadlinesMs) != 1 || got.DeadlinesMs[0] <= 0 || got.DeadlinesMs[0] > deadlineMs {
		t.Fatalf("leaf saw deadlines_ms %v, want one value in (0, %d]", got.DeadlinesMs, deadlineMs)
	}
}
