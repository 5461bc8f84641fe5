package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"herosign/internal/spx/params"
)

// gatedBackend is a stubBackend whose batches stop at a gate and whose
// answers depend on every byte it was handed: a signature is a digest of
// its message stretched to SigBytes, a verdict says whether the pair has
// that form, and each message it saw is counted. It reads its job only
// after the gate, which is where a request buffer recycled under a queued
// or running batch would show — as someone else's bytes, and to the race
// detector as a write racing these reads.
type gatedBackend struct {
	stubBackend
	step   chan struct{} // one receive per batch
	opened sync.Once

	mu   sync.Mutex
	seen map[string]int
}

func stretch(msg []byte, n int) []byte {
	h := sha256.Sum256(msg)
	out := make([]byte, n)
	for i := range out {
		out[i] = h[i%len(h)] ^ byte(i)
	}
	return out
}

// open lets every batch through from here on.
func (b *gatedBackend) open() { b.opened.Do(func() { close(b.step) }) }

func (b *gatedBackend) RunBatch(ctx context.Context, key *PrivateKey, job *Job) (*BatchOutput, error) {
	b.entered.Add(1)
	select {
	case <-b.step:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	out := &BatchOutput{BusyUs: 1}
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, msg := range job.Msgs {
		b.seen[string(msg)]++
		want := stretch(msg, key.Params.SigBytes)
		if job.Kind == KindSign {
			out.Sigs = append(out.Sigs, want)
		} else {
			out.OK = append(out.OK, bytes.Equal(job.Sigs[i], want))
		}
	}
	return out, nil
}

func newGatedService(t *testing.T) (*gatedBackend, *Service, http.Handler) {
	t.Helper()
	b := &gatedBackend{stubBackend: stubBackend{name: "gated", weight: 1000, cap: 4096},
		step: make(chan struct{}), seen: map[string]int{}}
	// A request below is one full batch and flushes by size at once; only
	// the batch-mates of a member that flushed early for its own deadline
	// wait out the flush interval.
	svc, err := New(WithParams(params.SPHINCSPlus128f), WithKey(testKey(t)), WithBackends(b),
		WithMaxBatch(lifetimeMembers), WithFlushDeadline(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		b.open() // a failed test must not leave Close waiting on the gate
		svc.Close()
	})
	return b, svc, svc.Handler()
}

const (
	lifetimeMembers = 8
	lifetimeCyclers = 24 // requests decoded while the dropped buffers are still in use
)

// memberMsg names one member of one request, so the backend's tally shows
// whose bytes it was really handed.
func memberMsg(req string, i int) []byte { return []byte(req + "/member-" + strconv.Itoa(i)) }

func verifyBatchBody(req string) (body []byte, want []bool) {
	var r verifyBatchRequest
	for i := 0; i < lifetimeMembers; i++ {
		msg := memberMsg(req, i)
		sig := stretch(msg, params.SPHINCSPlus128f.SigBytes)
		if i%3 == 1 {
			sig[100*i] ^= 1
		}
		r.Messages, r.Signatures, want = append(r.Messages, msg), append(r.Signatures, sig), append(want, i%3 != 1)
	}
	body, _ = json.Marshal(r)
	return body, want
}

func signBatchBody(req string, deadlinesMs []int64) []byte {
	r := signBatchRequest{DeadlinesMs: deadlinesMs}
	for i := 0; i < lifetimeMembers; i++ {
		r.Messages = append(r.Messages, memberMsg(req, i))
	}
	body, _ := json.Marshal(r)
	return body
}

func serve(ctx context.Context, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx))
	return rec
}

// cycle runs enough further requests to turn the buffer pools over while
// the batch of an abandoned request is still held at the gate — each is
// read and decoded into pooled buffers before it queues behind that batch —
// then opens the gate and checks every answer.
func cycle(t *testing.T, b *gatedBackend, svc *Service, h http.Handler, heldMembers int64,
	request func(name string) (path string, body []byte, check func(*httptest.ResponseRecorder) error)) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, lifetimeCyclers)
	for c := 0; c < lifetimeCyclers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			path, body, check := request("cycler-" + strconv.Itoa(c))
			errs[c] = check(serve(context.Background(), h, path, body))
		}()
	}
	gate := &svc.router.shards[0].gate
	waitFor(t, 10*time.Second, func() bool { return gate.depth() == heldMembers+lifetimeCyclers*lifetimeMembers })
	b.open()
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Errorf("cycler %d: %v", c, err)
		}
	}
	// With everything resolved the buffers are recycled freely; one more
	// round through them must still answer correctly.
	for c := 0; c < 4; c++ {
		path, body, check := request("after-" + strconv.Itoa(c))
		if err := check(serve(context.Background(), h, path, body)); err != nil {
			t.Errorf("after the gate opened: %v", err)
		}
	}
}

// wantSeen checks the backend was handed each member of the named requests
// exactly once — in particular the members of the request whose handler had
// already gone.
func wantSeen(t *testing.T, b *gatedBackend, req string, members ...int) {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, i := range members {
		if n := b.seen[string(memberMsg(req, i))]; n != 1 {
			t.Errorf("backend saw %s member %d %d times, want once (seen: %d distinct messages)", req, i, n, len(b.seen))
		}
	}
}

// TestCancelledVerifyBatchKeepsItsBuffers: a /v1/verify/batch whose client
// goes away while its pairs are executing returns at once, but its pooled
// body and arena are what the backend is reading. They must be dropped, not
// recycled: the requests that follow decode into other buffers, the
// abandoned batch still verifies its own bytes, and every later verdict is
// the expected one.
func TestCancelledVerifyBatchKeepsItsBuffers(t *testing.T) {
	b, svc, h := newGatedService(t)
	body, _ := verifyBatchBody("abandoned")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int)
	go func() { done <- serve(ctx, h, "/v1/verify/batch", body).Code }()
	waitFor(t, 10*time.Second, func() bool { return b.entered.Load() == 1 })
	cancel()
	if code := <-done; code == http.StatusOK {
		t.Fatalf("the cancelled request answered %d while its batch was still at the gate", code)
	}

	cycle(t, b, svc, h, lifetimeMembers, func(name string) (string, []byte, func(*httptest.ResponseRecorder) error) {
		body, want := verifyBatchBody(name)
		return "/v1/verify/batch", body, func(rec *httptest.ResponseRecorder) error {
			var resp verifyBatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
				return fmt.Errorf("%s: status %d, %v: %s", name, rec.Code, err, rec.Body)
			}
			if fmt.Sprint(resp.Valid) != fmt.Sprint(want) {
				return fmt.Errorf("%s: verdicts %v, want %v", name, resp.Valid, want)
			}
			return nil
		}
	})
	wantSeen(t, b, "abandoned", 0, 1, 2, 3, 4, 5, 6, 7)
	wantSeen(t, b, "cycler-0", 0, 7)
}

// TestFailedSignBatchMemberKeepsItsBuffers: the first member of a
// /v1/sign/batch misses its own deadline in the queue, so the handler
// answers 504 the moment that member resolves — while its batch-mates are
// executing on messages that live in the request's pooled arena.
func TestFailedSignBatchMemberKeepsItsBuffers(t *testing.T) {
	b, svc, h := newGatedService(t)
	// Blocker batches hold every one of the backend's execution slots, so
	// the next request waits in the pool's queue — its first member flushed
	// alone for its deadline, the other seven one flush interval later —
	// until that deadline has passed.
	blocked := make(chan int, poolInFlight)
	for i := 0; i < poolInFlight; i++ {
		go func() {
			blocked <- serve(context.Background(), h, "/v1/sign/batch", signBatchBody(blockerName(i), nil)).Code
		}()
	}
	waitFor(t, 10*time.Second, func() bool { return b.entered.Load() == poolInFlight })

	deadlines := make([]int64, lifetimeMembers)
	deadlines[0] = 1
	done := make(chan int)
	go func() {
		done <- serve(context.Background(), h, "/v1/sign/batch", signBatchBody("partial", deadlines)).Code
	}()
	gate := &svc.router.shards[0].gate
	waitFor(t, 10*time.Second, func() bool { return gate.depth() == (poolInFlight+1)*lifetimeMembers })
	time.Sleep(5 * time.Millisecond) // the event waited for is the 1 ms deadline passing
	b.step <- struct{}{}             // one blocker goes; its slot takes the queued request
	if code := <-blocked; code != http.StatusOK {
		t.Fatalf("blocker batch: status %d", code)
	}
	if code := <-done; code != http.StatusGatewayTimeout {
		t.Fatalf("batch with an expired first member: status %d, want 504", code)
	}
	// The batch-mates at the gate, beside the blockers still held there.
	waitFor(t, 10*time.Second, func() bool { return b.entered.Load() == poolInFlight+1 })

	sigBytes := params.SPHINCSPlus128f.SigBytes
	held := int64(lifetimeMembers - 1 + (poolInFlight-1)*lifetimeMembers)
	cycle(t, b, svc, h, held, func(name string) (string, []byte, func(*httptest.ResponseRecorder) error) {
		return "/v1/sign/batch", signBatchBody(name, nil), func(rec *httptest.ResponseRecorder) error {
			var resp signBatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
				return fmt.Errorf("%s: status %d, %v: %s", name, rec.Code, err, rec.Body)
			}
			for i, sig := range resp.Signatures {
				if !bytes.Equal(sig, stretch(memberMsg(name, i), sigBytes)) {
					return fmt.Errorf("%s: signature %d is not over member %d's message", name, i, i)
				}
			}
			if len(resp.Signatures) != lifetimeMembers {
				return fmt.Errorf("%s: %d signatures", name, len(resp.Signatures))
			}
			return nil
		}
	})
	for i := 1; i < poolInFlight; i++ {
		if code := <-blocked; code != http.StatusOK {
			t.Fatalf("blocker batch: status %d", code)
		}
	}
	wantSeen(t, b, "partial", 1, 2, 3, 4, 5, 6, 7)
	for i := 0; i < poolInFlight; i++ {
		wantSeen(t, b, blockerName(i), 0, 7)
	}
}

func blockerName(i int) string { return "blocker-" + strconv.Itoa(i) }

// TestHotEndpointsServeDeclinedBodies: bodies the fast scanner declines —
// an escaped slash inside the base64, a key it does not know, a differently
// cased key, data after the object — are served through encoding/json as
// they always were, and the answer is framed as one write with its length.
func TestHotEndpointsServeDeclinedBodies(t *testing.T) {
	b, _, h := newGatedService(t)
	b.open()
	msg := `"bWVtYmVyLz8/"` // base64 of "member/??", which contains a slash
	esc := `"bWVtYmVyLz8\/"`
	for _, body := range []string{
		`{"messages":[` + msg + `]}`,
		`{"messages":[` + esc + `]}`,
		`{"messages":[` + msg + `],"comment":{"ignored":true}}`,
		`{"MESSAGES":[` + msg + `]}`,
		`{"messages":[` + msg + `]} and then some`,
	} {
		rec := serve(context.Background(), h, "/v1/sign/batch", []byte(body))
		var resp signBatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK || len(resp.Signatures) != 1 {
			t.Fatalf("%s: status %d, %v: %s", body, rec.Code, err, rec.Body)
		}
		if !bytes.Equal(resp.Signatures[0], stretch([]byte("member/??"), params.SPHINCSPlus128f.SigBytes)) {
			t.Errorf("%s: signed some other message", body)
		}
		var ref bytes.Buffer
		_ = json.NewEncoder(&ref).Encode(resp)
		if !bytes.Equal(rec.Body.Bytes(), ref.Bytes()) {
			t.Errorf("%s: response is not what encoding/json writes", body)
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
			t.Errorf("%s: Content-Length %q for %d bytes", body, got, rec.Body.Len())
		}
	}
	for body, want := range map[string]int{
		`{"messages":["bWVtYmVy"`:          http.StatusBadRequest,
		`{"messages":["not base64!"]}`:     http.StatusBadRequest,
		`{"messages":[null]}`:              http.StatusBadRequest, // decodes to an empty message
		`{"messages":["bQ=="],"key_id":7}`: http.StatusBadRequest,
	} {
		if rec := serve(context.Background(), h, "/v1/sign/batch", []byte(body)); rec.Code != want {
			t.Errorf("%s: status %d, want %d: %s", body, rec.Code, want, rec.Body)
		}
	}
}
