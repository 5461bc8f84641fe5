package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"herosign/internal/core"
	"herosign/internal/wire"
)

// MaxBodyBytes caps request bodies on the HTTP front end; larger bodies get
// 413. Generous for any sane sign/verify payload (a 256f signature is
// ~50 KB base64) while bounding memory per connection.
const MaxBodyBytes = wire.MaxBodyBytes

// Scheduling headers. X-Request-Deadline carries the client's completion
// deadline as relative milliseconds (clock-skew safe across hosts) and
// overrides the body's deadline_ms; X-API-Key names the tenant the work is
// charged to (absent = the default tenant).
const (
	DeadlineHeader = "X-Request-Deadline"
	TenantHeader   = "X-API-Key"
)

// JSON wire types. []byte fields travel as standard base64 strings. The
// four hot shapes and their responses are defined, with their field names,
// in internal/wire, which also decodes and encodes them.
type (
	signRequest         = wire.SignRequest
	signResponse        = wire.SignResponse
	signBatchRequest    = wire.SignBatchRequest
	signBatchResponse   = wire.SignBatchResponse
	verifyRequest       = wire.VerifyRequest
	verifyResponse      = wire.VerifyResponse
	verifyBatchRequest  = wire.VerifyBatchRequest
	verifyBatchResponse = wire.VerifyBatchResponse
)

// seedTriple is the wire form of core.SeedTriple for deterministic remote
// key generation; each component is Params.N bytes.
type seedTriple struct {
	SKSeed []byte `json:"sk_seed"`
	SKPRF  []byte `json:"sk_prf"`
	PKSeed []byte `json:"pk_seed"`
}

type keygenRequest struct {
	Count int `json:"count"` // default 1, capped at 256 per call
	// Seeds, when present, derives one key per triple instead of Count
	// random keys — the deterministic path remote front ends proxy through.
	Seeds []seedTriple `json:"seeds,omitempty"`
	// DeadlineMs is the client deadline in relative milliseconds applied to
	// every derived key (0 = none); the header overrides it.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

type keygenKey struct {
	PublicKey  []byte `json:"public_key"`
	PrivateKey []byte `json:"private_key"`
}

type keygenResponse struct {
	Params string      `json:"params"`
	Keys   []keygenKey `json:"keys"`
}

type keyInfo struct {
	KeyID     string `json:"key_id"`
	Shard     int    `json:"shard"`
	PublicKey []byte `json:"public_key"`
}

type keysResponse struct {
	Params string    `json:"params"`
	Keys   []keyInfo `json:"keys"`
}

// errorResponse is the JSON error shape. RetryAfterMs is set on 429s and
// mirrors the Retry-After header at millisecond resolution.
type errorResponse struct {
	Error        string `json:"error"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// Handler returns the HTTP/JSON front end:
//
//	POST /v1/sign        {"message": b64, "key_id"?: id}  -> {"signature": b64, "key_id": id, ...}
//	POST /v1/sign/batch  {"messages": [b64...], "key_id"?: id} -> {"signatures": [...], "key_id": id}
//	POST /v1/verify      {"message": b64, "signature": b64, "key_id"?: id} -> {"valid": bool, ...}
//	POST /v1/verify/batch {"messages": [...], "signatures": [...], "key_id"?: id} -> {"valid": [bool...]}
//	POST /v1/keygen      {"count": n} or {"seeds": [{sk_seed,sk_prf,pk_seed}...]} -> {"keys": [...]}
//	GET  /v1/keys                                         -> shard key catalog
//	GET  /v1/stats                                        -> Stats
//
// Each request is submitted through the coalescer, so concurrent HTTP
// clients are batched together onto the fleet. Overload rejections return
// 429 with a Retry-After header; request bodies are capped at MaxBodyBytes
// (413 beyond). The four sign/verify endpoints read and write their JSON
// through internal/wire — pooled buffers, base64 decoded in place, anything
// unusual handed to encoding/json — and the two batch endpoints submit
// without copying; keygen, keys and stats use encoding/json directly.
//
// Every submitting endpoint additionally honors two scheduling inputs: the
// X-Request-Deadline header (relative milliseconds, overriding the body's
// deadline_ms) sets a client deadline — work that cannot meet it is
// pre-rejected (429 with retry_after_ms), an expired deadline returns 504 —
// and X-API-Key names the tenant the work is charged to (per-tenant token
// buckets when -tenant-rate is configured; per-tenant counters in
// /v1/stats always). Batch endpoints also accept per-member deadlines_ms
// and tenants arrays, the fields a proxying front end forwards.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sign", s.handleSign)
	mux.HandleFunc("POST /v1/sign/batch", s.handleSignBatch)
	mux.HandleFunc("POST /v1/verify", s.handleVerify)
	mux.HandleFunc("POST /v1/verify/batch", s.handleVerifyBatch)
	mux.HandleFunc("POST /v1/keygen", s.handleKeyGen)
	mux.HandleFunc("GET /v1/keys", s.handleKeys)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	var h http.Handler = mux
	if s.auth != nil {
		// Leaf posture (WithFleetSecret): every endpoint — proxy calls,
		// health probes, key-domain verification — requires the fleet
		// authenticator; anything else is 401.
		h = s.auth.Middleware(h)
	}
	return http.MaxBytesHandler(h, MaxBodyBytes)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	var over *OverloadError
	if errors.As(err, &over) {
		// Retry-After is whole seconds by spec; the JSON body carries the
		// finer-grained estimate.
		secs := int64((over.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{
			Error: err.Error(), RetryAfterMs: over.RetryAfter.Milliseconds(),
		})
		return
	}
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrClosed), errors.Is(err, ErrNoBackends):
		// ErrNoBackends: a dynamic fleet with no routable member — retrying
		// helps only once a leaf joins, so 503 rather than 429.
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownKey):
		status = http.StatusNotFound
	case errors.Is(err, ErrDeadlineExceeded):
		// The client's own deadline expired before the work could run (or
		// was already expired on arrival); unlike a 429 there is no point
		// retrying with the same deadline.
		status = http.StatusGatewayTimeout
	case errors.Is(err, ErrEmptyMessage), errors.Is(err, ErrSignatureLength),
		errors.Is(err, ErrSeedLength), errors.Is(err, ErrBatchTooLarge):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// submitOptsFrom derives one submission's scheduling attributes: the tenant
// from X-API-Key and the deadline from the X-Request-Deadline header
// (relative milliseconds; overrides the body's deadline_ms). It reports
// false after writing a 400 for a malformed or non-positive deadline.
func submitOptsFrom(w http.ResponseWriter, r *http.Request, bodyDeadlineMs int64) (SubmitOpts, bool) {
	if bodyDeadlineMs < 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("bad deadline_ms %d: want milliseconds > 0 (omit for none)", bodyDeadlineMs)})
		return SubmitOpts{}, false
	}
	ms := bodyDeadlineMs
	if h := r.Header.Get(DeadlineHeader); h != "" {
		v, err := strconv.ParseInt(h, 10, 64)
		if err != nil || v <= 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{
				Error: fmt.Sprintf("bad %s %q: want an integer of milliseconds > 0", DeadlineHeader, h)})
			return SubmitOpts{}, false
		}
		ms = v
	}
	opts := SubmitOpts{Tenant: r.Header.Get(TenantHeader)}
	if ms > 0 {
		opts.Deadline = time.Now().Add(time.Duration(ms) * time.Millisecond)
	}
	return opts, true
}

// batchSubmitOpts expands a batch request's scheduling fields into one
// SubmitOpts per member: base (the header/scalar-derived attributes)
// applies everywhere, a non-zero deadlines_ms entry overrides the deadline
// and a non-empty tenants entry overrides the tenant. Returns nil (all
// defaults) when nothing is set; reports false after writing a 400 for
// mis-sized arrays or a negative per-member deadline.
func batchSubmitOpts(w http.ResponseWriter, base SubmitOpts, n int, deadlinesMs []int64, tenants []string) ([]SubmitOpts, bool) {
	if len(deadlinesMs) > 0 && len(deadlinesMs) != n {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf(
			"deadlines_ms must be parallel to the batch: %d entries for %d members", len(deadlinesMs), n)})
		return nil, false
	}
	if len(tenants) > 0 && len(tenants) != n {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf(
			"tenants must be parallel to the batch: %d entries for %d members", len(tenants), n)})
		return nil, false
	}
	if base == (SubmitOpts{}) && len(deadlinesMs) == 0 && len(tenants) == 0 {
		return nil, true
	}
	now := time.Now()
	opts := make([]SubmitOpts, n)
	for i := range opts {
		opts[i] = base
		if len(deadlinesMs) > 0 {
			switch ms := deadlinesMs[i]; {
			case ms < 0:
				writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf(
					"bad deadlines_ms[%d] %d: want milliseconds > 0 (0 falls back to deadline_ms)", i, ms)})
				return nil, false
			case ms > 0:
				opts[i].Deadline = now.Add(time.Duration(ms) * time.Millisecond)
			}
		}
		if len(tenants) > 0 && tenants[i] != "" {
			opts[i].Tenant = tenants[i]
		}
	}
	return opts, true
}

// decodeJSON decodes the request body of an endpoint outside the hot path
// with encoding/json. It reports whether decoding succeeded.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeDecodeError(w, err)
		return false
	}
	return true
}

// writeDecodeError answers a body that did not decode, distinguishing
// oversized bodies (413) from malformed ones (400).
func writeDecodeError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorResponse{Error: fmt.Sprintf("body exceeds the %d-byte cap", tooLarge.Limit)})
		return
	}
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request: " + err.Error()})
}

// writeWire writes one encoded 200 response in a single Write with its
// Content-Length and returns the buffer to its pool.
func writeWire(w http.ResponseWriter, b *wire.Buf) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b.B)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b.B)
	b.Release()
}

func (s *Service) handleSign(w http.ResponseWriter, r *http.Request) {
	in := wire.ReadInput(r.Body, r.ContentLength)
	defer in.Release() // Submit copies the message
	req, err := in.DecodeSign()
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	opts, ok := submitOptsFrom(w, r, req.DeadlineMs)
	if !ok {
		return
	}
	fut, err := s.Submit(Request{Kind: KindSign, KeyID: req.KeyID, Msg: req.Message, SubmitOpts: opts})
	if err != nil {
		writeError(w, err)
		return
	}
	res, err := fut.Wait(r.Context())
	if err != nil {
		writeError(w, err)
		return
	}
	writeWire(w, wire.EncodeSignResponse(&signResponse{
		Signature: res.Sig, KeyID: res.KeyID, Shard: res.Shard, Batch: res.Batch, Device: res.Dev,
	}))
}

// handleSignBatch signs a set of messages under one key domain in a single
// round trip. Admission is all-or-nothing: a 429 means no message of the
// batch was admitted (and no signing work was spent on it), so a retry
// after Retry-After is cheap; admitted members are exempt from
// drop-oldest-deadline shedding. A batch that cannot fit the admission
// caps at all is a 400 (split it), not a retryable 429.
func (s *Service) handleSignBatch(w http.ResponseWriter, r *http.Request) {
	in := wire.ReadInput(r.Body, r.ContentLength)
	// The members are submitted without a copy, so from submission until
	// every future has resolved the queued requests alias in's buffers. A
	// return in between — a member failed, the client went away — leaves
	// batch-mates queued or executing: the buffers are then dropped to the
	// GC, never recycled under them.
	recycle := true
	defer func() {
		if recycle {
			in.Release()
		}
	}()
	req, err := in.DecodeSignBatch()
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	if len(req.Messages) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty batch: no messages"})
		return
	}
	if len(req.Messages) > 256 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "batch exceeds the 256-message cap"})
		return
	}
	for i, m := range req.Messages {
		if len(m) == 0 {
			// Reject up front: one empty member admitted into the batch
			// would fail alone only after its batch-mates were signed.
			writeJSON(w, http.StatusBadRequest,
				errorResponse{Error: fmt.Sprintf("empty message at index %d", i)})
			return
		}
	}
	base, ok := submitOptsFrom(w, r, req.DeadlineMs)
	if !ok {
		return
	}
	opts, ok := batchSubmitOpts(w, base, len(req.Messages), req.DeadlinesMs, req.Tenants)
	if !ok {
		return
	}
	keyID := req.KeyID
	if keyID == "" {
		// Pin the whole batch to one shard so every signature shares a key.
		keyID = s.router.route().keyID
	}
	recycle = false
	futs, err := s.submitBatch(KindSign, keyID, req.Messages, nil, opts)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := signBatchResponse{KeyID: keyID, Signatures: make([][]byte, 0, len(futs))}
	for _, fut := range futs {
		res, err := fut.Wait(r.Context())
		if err != nil {
			writeError(w, err)
			return
		}
		resp.Signatures = append(resp.Signatures, res.Sig)
	}
	recycle = true
	writeWire(w, wire.EncodeSignBatchResponse(&resp))
}

func (s *Service) handleVerify(w http.ResponseWriter, r *http.Request) {
	in := wire.ReadInput(r.Body, r.ContentLength)
	defer in.Release() // Submit copies the pair
	req, err := in.DecodeVerify()
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	opts, ok := submitOptsFrom(w, r, req.DeadlineMs)
	if !ok {
		return
	}
	fut, err := s.Submit(Request{Kind: KindVerify, KeyID: req.KeyID,
		Msg: req.Message, Sig: req.Signature, SubmitOpts: opts})
	if err != nil {
		writeError(w, err)
		return
	}
	res, err := fut.Wait(r.Context())
	if err != nil {
		writeError(w, err)
		return
	}
	writeWire(w, wire.EncodeVerifyResponse(&verifyResponse{
		Valid: res.Valid, KeyID: res.KeyID, Batch: res.Batch, Device: res.Dev,
	}))
}

// handleVerifyBatch checks a set of (message, signature) pairs against one
// key domain in a single round trip — the wire path remote front ends
// proxy coalesced verify batches through. Admission is all-or-nothing
// (SubmitBatch): a 429 means no pair of the batch was admitted and
// no verification work was spent, so a retry after Retry-After is cheap.
// A pair whose signature has the wrong length for the parameter set is
// reported invalid (not an error); shutdown maps to 503 for the whole
// batch. Only when no key domain is named on a multi-shard service does the
// batch fall back to per-pair any-shard submission, where partial admission
// is inherent.
func (s *Service) handleVerifyBatch(w http.ResponseWriter, r *http.Request) {
	in := wire.ReadInput(r.Body, r.ContentLength)
	recycle := true // false while queued pairs alias in's buffers; see handleSignBatch
	defer func() {
		if recycle {
			in.Release()
		}
	}()
	req, err := in.DecodeVerifyBatch()
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	if len(req.Messages) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty batch: no messages"})
		return
	}
	if len(req.Messages) != len(req.Signatures) {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf(
			"messages and signatures must be parallel: %d vs %d", len(req.Messages), len(req.Signatures))})
		return
	}
	if len(req.Messages) > 256 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "batch exceeds the 256-pair cap"})
		return
	}
	base, ok := submitOptsFrom(w, r, req.DeadlineMs)
	if !ok {
		return
	}
	opts, ok := batchSubmitOpts(w, base, len(req.Messages), req.DeadlinesMs, req.Tenants)
	if !ok {
		return
	}
	keyID := req.KeyID
	if keyID == "" && len(s.router.shards) == 1 {
		keyID = s.router.shards[0].keyID
	}
	var futs []*Future
	if keyID != "" {
		recycle = false
		futs, err = s.submitBatch(KindVerify, keyID, req.Messages, req.Signatures, opts)
		if err != nil {
			writeError(w, err)
			return
		}
	} else {
		// No key domain on a multi-shard service: each pair must consult
		// every shard, so pairs submit independently (and are copied).
		futs = make([]*Future, 0, len(req.Messages))
		for i := range req.Messages {
			memberOpts := base
			if opts != nil {
				memberOpts = opts[i]
			}
			fut, err := s.Submit(Request{Kind: KindVerify,
				Msg: req.Messages[i], Sig: req.Signatures[i], SubmitOpts: memberOpts})
			if err != nil {
				writeError(w, err)
				return
			}
			futs = append(futs, fut)
		}
	}
	resp := verifyBatchResponse{KeyID: keyID, Valid: make([]bool, 0, len(futs))}
	for _, fut := range futs {
		res, err := fut.Wait(r.Context())
		switch {
		case err == nil:
			resp.Valid = append(resp.Valid, res.Valid)
		case errors.Is(err, ErrSignatureLength):
			resp.Valid = append(resp.Valid, false)
		default:
			writeError(w, err)
			return
		}
	}
	recycle = true
	writeWire(w, wire.EncodeVerifyBatchResponse(&resp))
}

func (s *Service) handleKeyGen(w http.ResponseWriter, r *http.Request) {
	var req keygenRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	opts, ok := submitOptsFrom(w, r, req.DeadlineMs)
	if !ok {
		return
	}
	if len(req.Seeds) > 256 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "seeds exceed the 256-key cap"})
		return
	}
	if req.Count <= 0 {
		req.Count = 1
	}
	if req.Count > 256 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "count exceeds the 256-key cap"})
		return
	}
	var futs []*Future
	if len(req.Seeds) > 0 {
		// Deterministic path: one key per seed triple, Count ignored.
		futs = make([]*Future, 0, len(req.Seeds))
		for _, tr := range req.Seeds {
			fut, err := s.Submit(Request{Kind: KindKeyGen, Seed: &core.SeedTriple{
				SKSeed: tr.SKSeed, SKPRF: tr.SKPRF, PKSeed: tr.PKSeed,
			}, SubmitOpts: opts})
			if err != nil {
				writeError(w, err)
				return
			}
			futs = append(futs, fut)
		}
	} else {
		futs = make([]*Future, 0, req.Count)
		for i := 0; i < req.Count; i++ {
			fut, err := s.Submit(Request{Kind: KindKeyGen, SubmitOpts: opts})
			if err != nil {
				writeError(w, err)
				return
			}
			futs = append(futs, fut)
		}
	}
	resp := keygenResponse{Params: s.cfg.Params.Name}
	for _, fut := range futs {
		res, err := fut.Wait(r.Context())
		if err != nil {
			writeError(w, err)
			return
		}
		resp.Keys = append(resp.Keys, keygenKey{
			PublicKey:  res.Key.PublicKey.Bytes(),
			PrivateKey: res.Key.Bytes(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleKeys(w http.ResponseWriter, r *http.Request) {
	resp := keysResponse{Params: s.cfg.Params.Name}
	for _, sh := range s.Shards() {
		resp.Keys = append(resp.Keys, keyInfo{
			KeyID: sh.KeyID, Shard: sh.ID, PublicKey: sh.PublicKey.Bytes(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
