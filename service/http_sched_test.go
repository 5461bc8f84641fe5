package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// postSched posts a JSON body with scheduling headers and returns the
// response with its decoded error body (when not 200).
func postSched(t *testing.T, url string, headers map[string]string, body any) (*http.Response, errorResponse) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er errorResponse
	if resp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("decoding %d error body: %v", resp.StatusCode, err)
		}
	}
	return resp, er
}

// TestHTTPDeadlineValidation: malformed scheduling inputs are 400s with a
// message naming the offending field, before any admission work happens.
func TestHTTPDeadlineValidation(t *testing.T) {
	stub := &stubBackend{name: "stub", weight: 1000, cap: 64}
	svc := newStubService(t, stub)
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	msg := []byte("m")
	cases := []struct {
		name    string
		url     string
		headers map[string]string
		body    any
		wantIn  string
	}{
		{"header not a number", "/v1/sign", map[string]string{DeadlineHeader: "soon"},
			signRequest{Message: msg}, DeadlineHeader},
		{"header zero", "/v1/sign", map[string]string{DeadlineHeader: "0"},
			signRequest{Message: msg}, DeadlineHeader},
		{"header negative", "/v1/sign", map[string]string{DeadlineHeader: "-5"},
			signRequest{Message: msg}, DeadlineHeader},
		{"body negative", "/v1/sign", nil,
			signRequest{Message: msg, DeadlineMs: -1}, "deadline_ms"},
		{"batch deadlines_ms mis-sized", "/v1/sign/batch", nil,
			signBatchRequest{Messages: [][]byte{msg, msg}, DeadlinesMs: []int64{5}}, "deadlines_ms"},
		{"batch deadlines_ms negative", "/v1/sign/batch", nil,
			signBatchRequest{Messages: [][]byte{msg, msg}, DeadlinesMs: []int64{5, -2}}, "deadlines_ms"},
		{"batch tenants mis-sized", "/v1/sign/batch", nil,
			signBatchRequest{Messages: [][]byte{msg, msg}, Tenants: []string{"a"}}, "tenants"},
		{"verify header bad", "/v1/verify", map[string]string{DeadlineHeader: "1.5"},
			verifyRequest{Message: msg, Signature: msg}, DeadlineHeader},
		{"keygen body negative", "/v1/keygen", nil,
			keygenRequest{Count: 1, DeadlineMs: -7}, "deadline_ms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, er := postSched(t, ts.URL+tc.url, tc.headers, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			if !strings.Contains(er.Error, tc.wantIn) {
				t.Fatalf("error %q does not name %q", er.Error, tc.wantIn)
			}
		})
	}
}

// TestHTTPDeadlinePrecedence: X-Request-Deadline overrides the body's
// deadline_ms in both directions, observed through admission outcomes
// against a backlogged shard (estimated wait ~2s): a 100ms deadline is
// pre-rejected 429, an hour-long one is admitted.
func TestHTTPDeadlinePrecedence(t *testing.T) {
	// 50 sigs/s with 90 occupants parked in the coalescer (below the 100
	// MaxBatch, hour-long flush): estimated queue wait 1.8s.
	stub := &stubBackend{name: "slow", weight: 50, cap: 64}
	svc := newStubService(t, stub)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Close() // before ts.Close: draining unblocks the pending handler

	for i := 0; i < 90; i++ {
		if _, err := svc.Submit(Request{Kind: KindSign, Msg: []byte(fmt.Sprintf("occupant-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}

	// Body deadline alone is honored: 100ms < 1.8s wait -> 429, scope deadline.
	resp, er := postSched(t, ts.URL+"/v1/sign",
		map[string]string{TenantHeader: "t-body"},
		signRequest{Message: []byte("m"), DeadlineMs: 100})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("body-deadline status %d, want 429", resp.StatusCode)
	}
	if er.RetryAfterMs <= 0 || !strings.Contains(er.Error, "deadline") {
		t.Fatalf("429 body: %+v, want a deadline pre-rejection with retry_after_ms", er)
	}
	if ts1 := findTenant(t, svc.Stats().Tenants, "t-body"); ts1.RejectedDeadline != 1 || ts1.Admitted != 0 {
		t.Fatalf("t-body counters: %+v", ts1)
	}

	// Header overrides a tight body deadline upward: the request is admitted
	// and parks in the coalescer (a 2h deadline leaves the 1h flush timer
	// alone); the tenant gauge proves the admission.
	respCh := make(chan int, 1)
	go func() {
		resp, _ := postSched(t, ts.URL+"/v1/sign",
			map[string]string{TenantHeader: "t-hdr-up", DeadlineHeader: "7200000"},
			signRequest{Message: []byte("m"), DeadlineMs: 100})
		respCh <- resp.StatusCode
	}()
	waitFor(t, 5*time.Second, func() bool {
		for _, ts2 := range svc.Stats().Tenants {
			if ts2.Tenant == "t-hdr-up" {
				return ts2.Admitted == 1 && ts2.RejectedDeadline == 0
			}
		}
		return false
	})

	// Header overrides a generous body deadline downward: immediate 429.
	resp, _ = postSched(t, ts.URL+"/v1/sign",
		map[string]string{TenantHeader: "t-hdr-down", DeadlineHeader: "100"},
		signRequest{Message: []byte("m"), DeadlineMs: 3600000})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("header-override-down status %d, want 429", resp.StatusCode)
	}
	if ts3 := findTenant(t, svc.Stats().Tenants, "t-hdr-down"); ts3.RejectedDeadline != 1 {
		t.Fatalf("t-hdr-down counters: %+v", ts3)
	}

	// /v1/stats wire shape: per-tenant counters ride under "tenants".
	hresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(hresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if def := findTenant(t, st.Tenants, DefaultTenant); def.Queued != 90 {
		t.Fatalf("default tenant queued = %d over the wire, want the 90 occupants", def.Queued)
	}
	findTenant(t, st.Tenants, "t-body")

	// Draining resolves the admitted hour-deadline request successfully.
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-respCh:
		if code != http.StatusOK {
			t.Fatalf("admitted request finished %d after drain, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("admitted request never finished")
	}
}

// TestHTTPTenant429Shape: a tenant over its token bucket gets the full 429
// contract — Retry-After header, retry_after_ms body, the tenant named in
// the error — and the stats surface the configured rate and the rejection.
func TestHTTPTenant429Shape(t *testing.T) {
	stub := &stubBackend{name: "stub", weight: 1000, cap: 64}
	svc := newStubService(t, stub,
		WithMaxBatch(1), WithTenantRate(1), WithTenantBurst(4))
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	hdr := map[string]string{TenantHeader: "meter"}
	for i := 0; i < 4; i++ {
		resp, er := postSched(t, ts.URL+"/v1/sign", hdr, signRequest{Message: []byte(fmt.Sprintf("m-%d", i))})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("in-burst request %d: status %d (%s)", i, resp.StatusCode, er.Error)
		}
	}
	resp, er := postSched(t, ts.URL+"/v1/sign", hdr, signRequest{Message: []byte("over")})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst status %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After header %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
	}
	if er.RetryAfterMs <= 0 {
		t.Fatalf("retry_after_ms = %d, want > 0", er.RetryAfterMs)
	}
	if !strings.Contains(er.Error, `"meter"`) {
		t.Fatalf("429 error %q does not name the tenant", er.Error)
	}

	hresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(hresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if st.TenantRate != 1 || st.TenantBurst != 4 {
		t.Fatalf("stats tenant_rate/tenant_burst = %g/%d, want 1/4", st.TenantRate, st.TenantBurst)
	}
	meter := findTenant(t, st.Tenants, "meter")
	if meter.Done != 4 || meter.RejectedRate != 1 {
		t.Fatalf("meter counters over the wire: %+v", meter)
	}
}

// TestHTTP504ExpiredInQueue: a deadline that was live at admission but
// lapses behind a stuck backend surfaces as 504 Gateway Timeout — retrying
// with the same deadline is pointless, unlike a 429.
func TestHTTP504ExpiredInQueue(t *testing.T) {
	unblock := make(chan struct{})
	stub := &stubBackend{name: "stuck", weight: 100000, cap: 64, unblock: unblock}
	svc := newStubService(t, stub, WithMaxBatch(1), WithFlushDeadline(time.Millisecond))
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// The occupants hold every one of the pool's execution slots.
	for i := 0; i < poolInFlight; i++ {
		if _, err := svc.Submit(Request{Kind: KindSign, Msg: []byte(fmt.Sprintf("occupant-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return stub.entered.Load() == poolInFlight })
	timer := time.AfterFunc(100*time.Millisecond, func() { close(unblock) })
	defer timer.Stop()

	resp, er := postSched(t, ts.URL+"/v1/sign",
		map[string]string{DeadlineHeader: "40"}, signRequest{Message: []byte("victim")})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired-in-queue status %d, want 504 (%s)", resp.StatusCode, er.Error)
	}
	if !strings.Contains(er.Error, "deadline") {
		t.Fatalf("504 error %q does not mention the deadline", er.Error)
	}
}
