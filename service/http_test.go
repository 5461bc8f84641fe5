package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"herosign/internal/spx"
)

func postJSON(t *testing.T, url string, req, resp any) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if resp != nil && r.StatusCode == http.StatusOK {
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestHTTPEndpoints(t *testing.T) {
	svc := newTestService(t)
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	msg := []byte("over the wire")

	// /v1/sign
	var sr signResponse
	if r := postJSON(t, ts.URL+"/v1/sign", signRequest{Message: msg}, &sr); r.StatusCode != http.StatusOK {
		t.Fatalf("sign status %d", r.StatusCode)
	}
	if err := spx.Verify(svc.PublicKey(), msg, sr.Signature); err != nil {
		t.Fatalf("HTTP signature does not verify: %v", err)
	}
	if sr.Device == "" || sr.Batch < 1 {
		t.Fatalf("sign response missing batch metadata: %+v", sr)
	}

	// /v1/verify — valid and tampered.
	var vr verifyResponse
	postJSON(t, ts.URL+"/v1/verify", verifyRequest{Message: msg, Signature: sr.Signature}, &vr)
	if !vr.Valid {
		t.Fatal("HTTP verify rejected a valid signature")
	}
	postJSON(t, ts.URL+"/v1/verify", verifyRequest{Message: []byte("x"), Signature: sr.Signature}, &vr)
	if vr.Valid {
		t.Fatal("HTTP verify accepted a tampered message")
	}

	// /v1/keygen
	var kr keygenResponse
	postJSON(t, ts.URL+"/v1/keygen", keygenRequest{Count: 2}, &kr)
	if len(kr.Keys) != 2 {
		t.Fatalf("keygen returned %d keys, want 2", len(kr.Keys))
	}
	p := svc.Params()
	for i, k := range kr.Keys {
		if len(k.PublicKey) != p.PKBytes || len(k.PrivateKey) != p.SKBytes {
			t.Fatalf("key %d has wrong sizes: pk=%d sk=%d", i, len(k.PublicKey), len(k.PrivateKey))
		}
	}

	// /v1/stats
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.TotalMessages < 5 { // 1 sign + 2 verify + 2 keygen
		t.Fatalf("stats counted %d messages, want >= 5", st.TotalMessages)
	}
	if len(st.BatchSizeHist) == 0 || len(st.Devices) != 2 {
		t.Fatalf("stats missing histogram or devices: %+v", st)
	}
	if st.ModeledGPUSeconds <= 0 {
		t.Fatal("stats report no modeled GPU time")
	}

	// Error paths: empty message -> 400; bad JSON -> 400.
	if r := postJSON(t, ts.URL+"/v1/sign", signRequest{}, nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty message status %d, want 400", r.StatusCode)
	}
	r, err := http.Post(ts.URL+"/v1/sign", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status %d, want 400", r.StatusCode)
	}
}

// TestHTTPSignBatchAndKeys exercises the batch-sign endpoint and the shard
// key catalog together: every signature must verify under the public key
// the catalog lists for the batch's key domain.
func TestHTTPSignBatchAndKeys(t *testing.T) {
	svc := newTestService(t)
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	msgs := [][]byte{[]byte("batch-0"), []byte("batch-1"), []byte("batch-2")}
	var br signBatchResponse
	if r := postJSON(t, ts.URL+"/v1/sign/batch", signBatchRequest{Messages: msgs}, &br); r.StatusCode != http.StatusOK {
		t.Fatalf("sign/batch status %d", r.StatusCode)
	}
	if len(br.Signatures) != len(msgs) || br.KeyID == "" {
		t.Fatalf("sign/batch returned %d signatures, key_id=%q", len(br.Signatures), br.KeyID)
	}

	resp, err := http.Get(ts.URL + "/v1/keys")
	if err != nil {
		t.Fatal(err)
	}
	var kr keysResponse
	if err := json.NewDecoder(resp.Body).Decode(&kr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(kr.Keys) != 1 {
		t.Fatalf("key catalog has %d entries, want 1", len(kr.Keys))
	}
	pk, err := spx.ParsePublicKey(svc.Params(), kr.Keys[0].PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if kr.Keys[0].KeyID != br.KeyID {
		t.Fatalf("catalog key id %q != batch key id %q", kr.Keys[0].KeyID, br.KeyID)
	}
	for i, sig := range br.Signatures {
		if err := spx.Verify(pk, msgs[i], sig); err != nil {
			t.Fatalf("batch signature %d does not verify under the catalog key: %v", i, err)
		}
	}
}

// TestHTTPErrorPaths covers the front end's failure shapes: malformed JSON,
// an empty batch, an oversized body and an unknown key id.
func TestHTTPErrorPaths(t *testing.T) {
	svc := newTestService(t)
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Malformed JSON -> 400 on every POST endpoint.
	for _, ep := range []string{"/v1/sign", "/v1/sign/batch", "/v1/verify", "/v1/keygen"} {
		r, err := http.Post(ts.URL+ep, "application/json", bytes.NewReader([]byte("{not json")))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s malformed JSON status %d, want 400", ep, r.StatusCode)
		}
	}

	// Empty batch -> 400 with a JSON error.
	r := postJSON(t, ts.URL+"/v1/sign/batch", signBatchRequest{}, nil)
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status %d, want 400", r.StatusCode)
	}

	// Oversized body -> 413. The payload must be syntactically plausible
	// JSON so the decoder runs into the byte cap rather than a parse error.
	big := append([]byte(`{"message":"`), bytes.Repeat([]byte("A"), MaxBodyBytes+1024)...)
	big = append(big, []byte(`"}`)...)
	resp, err := http.Post(ts.URL+"/v1/sign", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d, want 413", resp.StatusCode)
	}
	if er.Error == "" {
		t.Fatal("oversized body error has no message")
	}

	// Unknown key id -> 404.
	if r := postJSON(t, ts.URL+"/v1/sign", signRequest{Message: []byte("m"), KeyID: "beef"}, nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key id status %d, want 404", r.StatusCode)
	}
}

// TestHTTP429Shape checks the overload response: status 429, a Retry-After
// header in whole seconds, and the JSON body's retry_after_ms hint.
func TestHTTP429Shape(t *testing.T) {
	svc := newTestService(t,
		WithQueueLimit(1), WithMaxBatch(100), WithFlushDeadline(time.Hour))
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Occupy the single admission slot of each shard... there is one shard;
	// its lone slot holds a request that coalesces until Close.
	if _, err := svc.Submit(Request{Kind: KindSign, Msg: []byte("occupant")}); err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(signRequest{Message: []byte("rejected")})
	resp, err := http.Post(ts.URL+"/v1/sign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After header = %q, want a positive whole-second value", ra)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.RetryAfterMs <= 0 {
		t.Fatalf("retry_after_ms = %d, want > 0", er.RetryAfterMs)
	}
	if er.Error == "" {
		t.Fatal("429 body has no error message")
	}
}

func TestHTTPAfterClose(t *testing.T) {
	svc := newTestService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	svc.Close()
	if r := postJSON(t, ts.URL+"/v1/sign", signRequest{Message: []byte("late")}, nil); r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sign after close status %d, want 503", r.StatusCode)
	}
}
