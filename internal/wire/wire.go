// Package wire is the JSON codec for the four hot /v1/* request shapes —
// sign, sign/batch, verify, verify/batch — and their responses, used at
// both ends of every hop: the HTTP handlers in service and the proxying
// transport in service/remote. It changes no byte of the public format;
// what it removes is encoding/json's cost on bodies that are almost all
// base64 (a 128f signature is 22 KiB of it): a request is read once into a
// pooled buffer, its byte fields are base64-decoded straight into one pooled
// arena, and responses and proxied bodies are appended into pooled buffers
// and written once.
//
// The decoder is a strict scanner for the fixed object shape, not a JSON
// parser. It accepts only what it can prove it decodes exactly as
// encoding/json would — known keys in any order, JSON whitespace, strings
// without escapes, plain integers — and declines everything else (a
// backslash, an unknown, duplicate or differently-cased key, null, invalid
// base64, more than MaxMembers array entries). A declined body is decoded by
// encoding/json from the same buffered bytes, so every error a client can
// see still comes from there.
//
// The struct types below carry the JSON field names; they are the only
// place those names are spelled for these shapes.
package wire

// MaxBodyBytes caps a request body and is the largest buffer the pools
// keep; anything larger is allocated for the one use and left to the GC.
const MaxBodyBytes = 1 << 20

// MaxMembers is the per-request batch cap the handlers enforce. The scanner
// declines longer arrays, so its pooled scratch never outgrows the cap.
const MaxMembers = 256

// SignRequest is the /v1/sign body. []byte fields travel as standard base64.
type SignRequest struct {
	Message []byte `json:"message"`
	KeyID   string `json:"key_id,omitempty"` // "" routes to the least-loaded shard
	// DeadlineMs is the client deadline in relative milliseconds (0 = none);
	// the X-Request-Deadline header overrides it.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

type SignResponse struct {
	Signature []byte `json:"signature"`
	KeyID     string `json:"key_id"` // key domain that signed; verify against its key
	Shard     int    `json:"shard"`
	Batch     int    `json:"batch"`  // coalesced batch size the request rode in
	Device    string `json:"device"` // backend that executed it
}

// SignBatchRequest is the /v1/sign/batch body, from clients and from a
// proxying front end alike.
type SignBatchRequest struct {
	Messages [][]byte `json:"messages"`
	KeyID    string   `json:"key_id,omitempty"`
	// DeadlineMs applies one relative deadline to every member (header
	// overrides); DeadlinesMs, when present, is parallel to Messages with a
	// per-member relative deadline (0 falls back to the scalar). Tenants,
	// parallel likewise, names each member's tenant ("" falls back to
	// X-API-Key) — the fields a proxying front end forwards so a leaf sees
	// the same urgency and accounting it did.
	DeadlineMs  int64    `json:"deadline_ms,omitempty"`
	DeadlinesMs []int64  `json:"deadlines_ms,omitempty"`
	Tenants     []string `json:"tenants,omitempty"`
}

type SignBatchResponse struct {
	KeyID      string   `json:"key_id"`
	Signatures [][]byte `json:"signatures"`
}

type VerifyRequest struct {
	Message   []byte `json:"message"`
	Signature []byte `json:"signature"`
	KeyID     string `json:"key_id,omitempty"` // "" checks every shard's key
	// DeadlineMs is the client deadline in relative milliseconds (0 = none);
	// the X-Request-Deadline header overrides it.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

type VerifyResponse struct {
	Valid  bool   `json:"valid"`
	KeyID  string `json:"key_id"`
	Batch  int    `json:"batch"`
	Device string `json:"device"`
}

type VerifyBatchRequest struct {
	Messages   [][]byte `json:"messages"`
	Signatures [][]byte `json:"signatures"` // parallel to Messages
	KeyID      string   `json:"key_id,omitempty"`
	// Scheduling fields with SignBatchRequest semantics.
	DeadlineMs  int64    `json:"deadline_ms,omitempty"`
	DeadlinesMs []int64  `json:"deadlines_ms,omitempty"`
	Tenants     []string `json:"tenants,omitempty"`
}

type VerifyBatchResponse struct {
	KeyID string `json:"key_id"`
	Valid []bool `json:"valid"` // parallel to the request pairs
}
