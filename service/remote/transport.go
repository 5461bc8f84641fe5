package remote

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"herosign/internal/wire"
	"herosign/service"
)

// Wire mirrors of the leaf's JSON types for the control-plane shapes (the
// sign/verify batch shapes live in internal/wire). The JSON field names are
// the contract; []byte travels as base64 per encoding/json.
type seedTripleWire struct {
	SKSeed []byte `json:"sk_seed"`
	SKPRF  []byte `json:"sk_prf"`
	PKSeed []byte `json:"pk_seed"`
}

type keygenReq struct {
	Seeds []seedTripleWire `json:"seeds"`
}

type keygenResp struct {
	Keys []struct {
		PublicKey  []byte `json:"public_key"`
		PrivateKey []byte `json:"private_key"`
	} `json:"keys"`
}

type keysResp struct {
	Params string `json:"params"`
	Keys   []struct {
		KeyID     string `json:"key_id"`
		Shard     int    `json:"shard"`
		PublicKey []byte `json:"public_key"`
	} `json:"keys"`
}

type errResp struct {
	Error        string `json:"error"`
	RetryAfterMs int64  `json:"retry_after_ms"`
}

// StatusError is a non-429 HTTP error a leaf returned. 5xx are retryable
// on a sibling; 4xx indicate a front-end bug (malformed proxy request) and
// propagate as-is.
type StatusError struct {
	URL    string
	Status int
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("remote: leaf %s returned %d: %s", e.URL, e.Status, e.Msg)
}

// TransportError is a hard transport failure (connection refused, reset,
// timeout): the strongest ejection signal and always worth a failover.
type TransportError struct {
	URL string
	Err error
}

func (e *TransportError) Error() string { return fmt.Sprintf("remote: leaf %s: %v", e.URL, e.Err) }
func (e *TransportError) Unwrap() error { return e.Err }

// retryable reports whether a sibling leaf could plausibly serve the same
// request: transport failures, 5xx, and leaf overloads (another replica
// may have queue room).
func retryable(err error) bool {
	var te *TransportError
	if errors.As(err, &te) {
		return true
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status >= 500
	}
	return errors.Is(err, service.ErrOverloaded)
}

// hardFailure reports whether the error should count toward ejection (an
// overloaded leaf is healthy, just full).
func hardFailure(err error) bool {
	var te *TransportError
	if errors.As(err, &te) {
		return true
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status >= 500
	}
	return false
}

// transport is the fleet's pooled HTTP client. When Options.Secret is set
// it signs every outgoing request — proxy calls, probes, key-catalog
// fetches and membership traffic — with the fleet auth header.
type transport struct {
	client *http.Client
	auth   *service.FleetAuth
	inner  *http.Transport
}

func newTransport(o Options) *transport {
	inner := &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
		TLSClientConfig:     o.TLSConfig,
	}
	var rt http.RoundTripper = inner
	if o.WrapTransport != nil {
		rt = o.WrapTransport(rt)
	}
	t := &transport{client: &http.Client{
		Transport: rt,
		// Per-attempt deadlines come from the caller's context; the client
		// itself stays unbounded so probe and batch timeouts can differ.
	}, inner: inner}
	if o.Secret != "" {
		t.auth = service.NewFleetAuth(o.Secret)
	}
	return t
}

// do signs (when fleet auth is armed) and sends one request.
func (t *transport) do(req *http.Request) (*http.Response, error) {
	if t.auth != nil {
		t.auth.Sign(req)
	}
	return t.client.Do(req)
}

func (t *transport) close() { t.inner.CloseIdleConnections() }

// respLimit bounds an answer whose size no request implies (stats, key
// catalogs, keygen, error bodies); batch answers are bounded by their batch.
const respLimit = 8 << 20

// respSlack is a batch answer's allowance for what is not a member: braces,
// keys and the key ID.
const respSlack = 1024

// roundTrip sends one request — body is nil for a GET — and returns the 200
// answer, at most limit bytes of it, in a pooled buffer the caller releases.
// A leaf 429 comes back as *service.OverloadError carrying the leaf's own
// retry_after_ms estimate, so the front end surfaces the leaf's drain time
// instead of recomputing one from its own (empty) queue.
func (t *transport) roundTrip(ctx context.Context, method, base, path string, body *wire.Buf, limit int64) (*wire.Buf, error) {
	req, err := http.NewRequestWithContext(ctx, method, base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("remote: build %s: %w", path, err)
	}
	if body != nil {
		req.Body, req.ContentLength = body.Body(), int64(len(body.B))
		req.GetBody = func() (io.ReadCloser, error) { return body.Body(), nil }
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.do(req)
	if err != nil {
		return nil, &TransportError{URL: base, Err: err}
	}
	defer resp.Body.Close()
	raw, err := wire.ReadBody(io.LimitReader(resp.Body, limit), resp.ContentLength, limit)
	if err != nil {
		err = &TransportError{URL: base, Err: err}
	} else if err = statusError(base, resp.StatusCode, raw.B); err == nil {
		return raw, nil
	}
	raw.Release()
	return nil, err
}

// statusError maps a leaf's non-200 answer to the error the fleet acts on.
func statusError(base string, status int, raw []byte) error {
	var er errResp
	switch status {
	case http.StatusOK:
		return nil
	case http.StatusTooManyRequests:
		retry := 50 * time.Millisecond
		if json.Unmarshal(raw, &er) == nil && er.RetryAfterMs > 0 {
			retry = time.Duration(er.RetryAfterMs) * time.Millisecond
		}
		return &service.OverloadError{Scope: "leaf", RetryAfter: retry}
	}
	msg := http.StatusText(status)
	if json.Unmarshal(raw, &er) == nil && er.Error != "" {
		msg = er.Error
	}
	return &StatusError{URL: base, Status: status, Msg: msg}
}

// doJSON round-trips one control-plane request through encoding/json; in
// is nil for a GET.
func (t *transport) doJSON(ctx context.Context, base, path string, in, out any) error {
	method, body := http.MethodGet, (*wire.Buf)(nil)
	if in != nil {
		enc, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("remote: encode %s: %w", path, err)
		}
		method, body = http.MethodPost, wire.NewBuf(len(enc))
		body.B = append(body.B, enc...)
		defer body.Release()
	}
	raw, err := t.roundTrip(ctx, method, base, path, body, respLimit)
	if err != nil {
		return err
	}
	defer raw.Release()
	if err := json.Unmarshal(raw.B, out); err != nil {
		return &TransportError{URL: base, Err: fmt.Errorf("decode response: %w", err)}
	}
	return nil
}

// postBatch sends one proxied batch of n members — already encoded as one
// or more consecutive bodies, each within the leaf's body cap — and
// concatenates the per-body answers. perMember bounds one member's share of
// an answer, so the read limit follows from the request.
func postBatch[T any](ctx context.Context, t *transport, base, path string, bodies wire.Bodies, n, perMember int,
	decode func([]T, []byte) ([]T, error)) ([]T, error) {
	out := make([]T, 0, n)
	for _, body := range bodies {
		raw, err := t.roundTrip(ctx, http.MethodPost, base, path, body, int64(n*perMember)+respSlack)
		if err != nil {
			return nil, err
		}
		out, err = decode(out, raw.B)
		raw.Release()
		if err != nil {
			return nil, &TransportError{URL: base, Err: fmt.Errorf("decode response: %w", err)}
		}
	}
	if len(out) != n {
		return nil, &StatusError{URL: base, Status: http.StatusOK,
			Msg: fmt.Sprintf("%s returned %d answers for %d members", path, len(out), n)}
	}
	return out, nil
}

func (t *transport) signBatch(ctx context.Context, base string, bodies wire.Bodies, n, sigBytes int) ([][]byte, error) {
	return postBatch(ctx, t, base, "/v1/sign/batch", bodies, n,
		base64.StdEncoding.EncodedLen(sigBytes)+3, wire.AppendSignBatchResponse)
}

func (t *transport) verifyBatch(ctx context.Context, base string, bodies wire.Bodies, n int) ([]bool, error) {
	return postBatch(ctx, t, base, "/v1/verify/batch", bodies, n, len("false,"), wire.AppendVerifyBatchResponse)
}

func (t *transport) keygen(ctx context.Context, base string, seeds []service.SeedTriple) ([][]byte, error) {
	req := keygenReq{Seeds: make([]seedTripleWire, len(seeds))}
	for i, s := range seeds {
		req.Seeds[i] = seedTripleWire{SKSeed: s.SKSeed, SKPRF: s.SKPRF, PKSeed: s.PKSeed}
	}
	var out keygenResp
	if err := t.doJSON(ctx, base, "/v1/keygen", req, &out); err != nil {
		return nil, err
	}
	if len(out.Keys) != len(seeds) {
		return nil, &StatusError{URL: base, Status: http.StatusOK,
			Msg: fmt.Sprintf("keygen returned %d keys for %d seeds", len(out.Keys), len(seeds))}
	}
	keys := make([][]byte, len(out.Keys))
	for i, k := range out.Keys {
		keys[i] = k.PrivateKey
	}
	return keys, nil
}

func (t *transport) stats(ctx context.Context, base string) (*service.Stats, error) {
	var st service.Stats
	if err := t.doJSON(ctx, base, "/v1/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

func (t *transport) keys(ctx context.Context, base string) (*keysResp, error) {
	var kr keysResp
	if err := t.doJSON(ctx, base, "/v1/keys", nil, &kr); err != nil {
		return nil, err
	}
	return &kr, nil
}
