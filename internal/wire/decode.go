package wire

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"sync"
)

// key is a bit set over the JSON keys the hot shapes use.
type key uint8

const (
	kMessage key = 1 << iota
	kSignature
	kMessages
	kSignatures
	kKeyID
	kDeadlineMs
	kDeadlinesMs
	kTenants
)

const (
	signKeys        = kMessage | kKeyID | kDeadlineMs
	verifyKeys      = signKeys | kSignature
	signBatchKeys   = kMessages | kKeyID | kDeadlineMs | kDeadlinesMs | kTenants
	verifyBatchKeys = signBatchKeys | kSignatures
	signBatchAnswer = kKeyID | kSignatures
)

func keyOf(name []byte) key {
	switch string(name) {
	case "message":
		return kMessage
	case "signature":
		return kSignature
	case "messages":
		return kMessages
	case "signatures":
		return kSignatures
	case "key_id":
		return kKeyID
	case "deadline_ms":
		return kDeadlineMs
	case "deadlines_ms":
		return kDeadlinesMs
	case "tenants":
		return kTenants
	}
	return 0
}

// fields is what one scan found. A key that was absent leaves its field
// zero (nil for slices), as encoding/json leaves a struct field untouched.
type fields struct {
	message, signature   []byte
	messages, signatures [][]byte
	keyID                string
	deadlineMs           int64
	deadlinesMs          []int64
	tenants              []string
}

// scanner walks one object of the fixed shape. Byte fields are decoded into
// arena and returned as sub-slices of it; array members are appended to the
// four scratch slices, which the owner resets (and so reuses) between scans.
type scanner struct {
	src []byte
	pos int

	arena       []byte // decoded bytes so far; cap covers DecodedLen(len(src))
	messages    [][]byte
	signatures  [][]byte
	deadlinesMs []int64
	tenants     []string
}

// scan decodes src as an object whose keys are all in allowed. It reports
// false — decline — on anything it does not decode exactly as encoding/json
// would, including every input encoding/json rejects.
func (s *scanner) scan(allowed key) (f fields, ok bool) {
	if !s.lit('{') {
		return f, false
	}
	var seen key
	if !s.lit('}') {
		for {
			name, ok := s.str()
			if !ok || !s.lit(':') {
				return f, false
			}
			k := keyOf(name)
			if k&allowed == 0 || k&seen != 0 {
				return f, false // unknown here, or a duplicate
			}
			seen |= k
			s.space()
			switch k {
			case kMessage:
				f.message, ok = s.bytes()
			case kSignature:
				f.signature, ok = s.bytes()
			case kMessages:
				s.messages, ok = array(s, s.messages, (*scanner).bytes)
				f.messages = s.messages
			case kSignatures:
				s.signatures, ok = array(s, s.signatures, (*scanner).bytes)
				f.signatures = s.signatures
			case kKeyID:
				f.keyID, ok = s.text()
			case kDeadlineMs:
				f.deadlineMs, ok = s.integer()
			case kDeadlinesMs:
				s.deadlinesMs, ok = array(s, s.deadlinesMs, (*scanner).integer)
				f.deadlinesMs = s.deadlinesMs
			case kTenants:
				s.tenants, ok = array(s, s.tenants, (*scanner).text)
				f.tenants = s.tenants
			}
			if !ok {
				return f, false
			}
			if s.lit(',') {
				continue
			}
			if s.lit('}') {
				break
			}
			return f, false
		}
	}
	s.space()
	return f, s.pos == len(s.src)
}

// space skips JSON whitespace.
func (s *scanner) space() {
	for s.pos < len(s.src) {
		switch s.src[s.pos] {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return
		}
	}
}

// lit consumes optional whitespace and then c, if c is next.
func (s *scanner) lit(c byte) bool {
	s.space()
	if s.pos < len(s.src) && s.src[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// str consumes a string and returns the bytes between its quotes. The
// closing quote is the first '"' after the opening one, so a string holding
// an escaped quote comes back ending in its backslash; every caller rejects
// a backslash (text by looking, bytes because base64 has none).
func (s *scanner) str() ([]byte, bool) {
	if !s.lit('"') {
		return nil, false
	}
	n := bytes.IndexByte(s.src[s.pos:], '"')
	if n < 0 {
		return nil, false
	}
	raw := s.src[s.pos : s.pos+n]
	s.pos += n + 1
	return raw, true
}

// text consumes a string made of printable ASCII without escapes — the only
// strings whose Go value is certainly their raw bytes.
func (s *scanner) text() (string, bool) {
	raw, ok := s.str()
	if !ok {
		return "", false
	}
	for _, c := range raw {
		if c < 0x20 || c >= 0x7f || c == '\\' {
			return "", false
		}
	}
	return string(raw), true
}

// bytes consumes a base64 string and decodes it onto the end of the arena.
func (s *scanner) bytes() ([]byte, bool) {
	raw, ok := s.str()
	if !ok {
		return nil, false
	}
	// The decoder skips CR and LF, which JSON forbids inside a string; any
	// other byte JSON forbids is not in the alphabet and fails the decode.
	if bytes.IndexByte(raw, '\n') >= 0 || bytes.IndexByte(raw, '\r') >= 0 {
		return nil, false
	}
	off := len(s.arena)
	end := off + base64.StdEncoding.DecodedLen(len(raw))
	if end > cap(s.arena) {
		return nil, false // cannot happen when the arena was sized from src
	}
	n, err := base64.StdEncoding.Decode(s.arena[off:end], raw)
	if err != nil {
		return nil, false
	}
	s.arena = s.arena[:off+n]
	return s.arena[off : off+n : off+n], true
}

// integer consumes -?(0|[1-9][0-9]*) that fits an int64; fractions and
// exponents, which encoding/json refuses for an integer field, decline.
func (s *scanner) integer() (int64, bool) {
	i := s.pos
	neg := i < len(s.src) && s.src[i] == '-'
	if neg {
		i++
	}
	start := i
	var v uint64
	for ; i < len(s.src) && s.src[i] >= '0' && s.src[i] <= '9'; i++ {
		if i-start >= 18 { // 18 digits cannot overflow; longer ones are json's to judge
			return 0, false
		}
		v = v*10 + uint64(s.src[i]-'0')
	}
	if i == start || (s.src[start] == '0' && i-start > 1) {
		return 0, false
	}
	if i < len(s.src) {
		switch s.src[i] {
		case '.', 'e', 'E':
			return 0, false
		}
	}
	s.pos = i
	if neg {
		return -int64(v), true
	}
	return int64(v), true
}

// array consumes [elem, ...] and appends the members to dst.
func array[T any](s *scanner, dst []T, elem func(*scanner) (T, bool)) ([]T, bool) {
	if !s.lit('[') {
		return dst, false
	}
	if s.lit(']') {
		return dst, true
	}
	for n := 0; n < MaxMembers; n++ {
		s.space()
		v, ok := elem(s)
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
		if s.lit(']') {
			return dst, true
		}
		if !s.lit(',') {
			return dst, false
		}
	}
	return dst, false
}

// Input is one request body held in pooled buffers: the raw bytes, the arena
// its byte fields decode into, and the slice headers of its array fields.
// Everything a Decode method returns aliases those buffers and is valid
// until Release. Release only once nothing can read the request any more —
// for work submitted without a copy, once every future has resolved; an
// Input that is never released is simply collected.
type Input struct {
	body, arena *Buf
	readErr     error
	sc          scanner
}

var inputs = sync.Pool{New: func() any {
	// Non-nil scratch, so an empty array decodes to an empty, not nil, slice
	// as it does in encoding/json.
	return &Input{sc: scanner{
		messages: make([][]byte, 0, 8), signatures: make([][]byte, 0, 8),
		deadlinesMs: make([]int64, 0, 8), tenants: make([]string, 0, 8),
	}}
}}

// ReadInput reads a request body, sized from its Content-Length (negative
// when unknown). A read error — http.MaxBytesError included — is kept and
// comes back from the Decode methods the way encoding/json would have met
// it on the stream.
func ReadInput(r io.Reader, contentLength int64) *Input {
	in := inputs.Get().(*Input)
	in.body, in.readErr = ReadBody(r, contentLength, MaxBodyBytes)
	return in
}

// Release returns the buffers to their pools.
func (in *Input) Release() {
	in.body.Release()
	if in.arena != nil {
		in.arena.Release()
	}
	in.body, in.arena, in.readErr = nil, nil, nil
	inputs.Put(in)
}

// scan runs the strict scanner over the body.
func (in *Input) scan(allowed key) (fields, bool) {
	if in.readErr != nil {
		return fields{}, false
	}
	if in.arena == nil {
		in.arena = NewBuf(base64.StdEncoding.DecodedLen(len(in.body.B)))
	}
	sc := &in.sc
	sc.src, sc.pos, sc.arena = in.body.B, 0, in.arena.B[:0]
	sc.messages, sc.signatures = sc.messages[:0], sc.signatures[:0]
	sc.deadlinesMs, sc.tenants = sc.deadlinesMs[:0], sc.tenants[:0]
	return sc.scan(allowed)
}

// errReader replays the error that ended the body.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// decodeJSON is the path for every body the scanner declined: encoding/json
// as a stream decoder over the buffered bytes followed by the read error,
// if there was one — the same bytes and the same errors the handlers gave
// it before this package existed, so what it accepts, ignores (trailing
// data) and reports is unchanged.
func decodeJSON[T any](in *Input) (v T, err error) {
	tail := in.readErr
	if tail == nil {
		tail = io.EOF
	}
	err = json.NewDecoder(io.MultiReader(bytes.NewReader(in.body.B), errReader{tail})).Decode(&v)
	return v, err
}

// DecodeSign, DecodeVerify, DecodeSignBatch and DecodeVerifyBatch decode the
// body as the endpoint's request: by the scanner when it takes the body,
// otherwise by encoding/json, whose error is the one returned.
func (in *Input) DecodeSign() (SignRequest, error) {
	if f, ok := in.scan(signKeys); ok {
		return SignRequest{Message: f.message, KeyID: f.keyID, DeadlineMs: f.deadlineMs}, nil
	}
	return decodeJSON[SignRequest](in)
}

func (in *Input) DecodeVerify() (VerifyRequest, error) {
	if f, ok := in.scan(verifyKeys); ok {
		return VerifyRequest{Message: f.message, Signature: f.signature, KeyID: f.keyID, DeadlineMs: f.deadlineMs}, nil
	}
	return decodeJSON[VerifyRequest](in)
}

func (in *Input) DecodeSignBatch() (SignBatchRequest, error) {
	if f, ok := in.scan(signBatchKeys); ok {
		return SignBatchRequest{Messages: f.messages, KeyID: f.keyID,
			DeadlineMs: f.deadlineMs, DeadlinesMs: f.deadlinesMs, Tenants: f.tenants}, nil
	}
	return decodeJSON[SignBatchRequest](in)
}

func (in *Input) DecodeVerifyBatch() (VerifyBatchRequest, error) {
	if f, ok := in.scan(verifyBatchKeys); ok {
		return VerifyBatchRequest{Messages: f.messages, Signatures: f.signatures, KeyID: f.keyID,
			DeadlineMs: f.deadlineMs, DeadlinesMs: f.deadlinesMs, Tenants: f.tenants}, nil
	}
	return decodeJSON[VerifyBatchRequest](in)
}

// AppendSignBatchResponse decodes a /v1/sign/batch answer and appends its
// signatures to dst. They outlive the call (they become futures' results),
// so they share one fresh allocation, not a pooled arena.
func AppendSignBatchResponse(dst [][]byte, raw []byte) ([][]byte, error) {
	sc := scanner{src: raw, signatures: dst,
		arena: make([]byte, 0, base64.StdEncoding.DecodedLen(len(raw)))}
	if f, ok := sc.scan(signBatchAnswer); ok && f.signatures != nil {
		return f.signatures, nil
	}
	var resp SignBatchResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return dst, err
	}
	return append(dst, resp.Signatures...), nil
}

// AppendVerifyBatchResponse decodes a /v1/verify/batch answer and appends
// its verdicts to dst. The answer is a few bytes per pair, so it goes
// straight through encoding/json.
func AppendVerifyBatchResponse(dst []bool, raw []byte) ([]bool, error) {
	var resp VerifyBatchResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return dst, err
	}
	return append(dst, resp.Valid...), nil
}
