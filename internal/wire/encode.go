package wire

import (
	"encoding/base64"
	"encoding/json"
	"strconv"
)

// The encoders below write exactly the bytes json.NewEncoder(w).Encode
// wrote for the same struct — field order, null for a nil slice, HTML-safe
// string escapes, the trailing newline — into one pooled buffer the caller
// writes once and releases. Sizes are upper bounds; a buffer that still
// turns out too small just grows.

// b64Len is the encoded length of n bytes plus quotes and a separator.
func b64Len(n int) int { return base64.StdEncoding.EncodedLen(n) + 3 }

// strLen bounds appendString's output (every byte escaped as \u00XX) plus a
// separator.
func strLen(s string) int { return 6*len(s) + 3 }

const (
	intLen  = 21  // the longest int64, a sign and a separator
	objLen  = 128 // braces, keys, colons and the newline of any one shape
	boolLen = 6   // "false" and a separator
)

// appendString appends s as a JSON string. Printable ASCII free of the
// characters encoding/json escapes is copied; anything else is rare enough
// to hand to encoding/json itself.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			q, _ := json.Marshal(s) // a string cannot fail to marshal
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

func appendBytes(dst, p []byte) []byte {
	if p == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '"')
	dst = base64.StdEncoding.AppendEncode(dst, p)
	return append(dst, '"')
}

// appendArray appends v[from:to] as a JSON array (null when v is nil).
func appendArray[T any](dst []byte, v []T, from, to int, elem func([]byte, T) []byte) []byte {
	if v == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := from; i < to; i++ {
		if i > from {
			dst = append(dst, ',')
		}
		dst = elem(dst, v[i])
	}
	return append(dst, ']')
}

func appendInt(dst []byte, v int64) []byte { return strconv.AppendInt(dst, v, 10) }

// EncodeSignResponse and the three encoders after it write one handler
// response each.
func EncodeSignResponse(r *SignResponse) *Buf {
	b := NewBuf(objLen + b64Len(len(r.Signature)) + strLen(r.KeyID) + 2*intLen + strLen(r.Device))
	d := append(b.B, `{"signature":`...)
	d = appendBytes(d, r.Signature)
	d = append(d, `,"key_id":`...)
	d = appendString(d, r.KeyID)
	d = append(d, `,"shard":`...)
	d = appendInt(d, int64(r.Shard))
	d = append(d, `,"batch":`...)
	d = appendInt(d, int64(r.Batch))
	d = append(d, `,"device":`...)
	d = appendString(d, r.Device)
	b.B = append(d, "}\n"...)
	return b
}

func EncodeSignBatchResponse(r *SignBatchResponse) *Buf {
	n := objLen + strLen(r.KeyID)
	for _, sig := range r.Signatures {
		n += b64Len(len(sig))
	}
	b := NewBuf(n)
	d := append(b.B, `{"key_id":`...)
	d = appendString(d, r.KeyID)
	d = append(d, `,"signatures":`...)
	d = appendArray(d, r.Signatures, 0, len(r.Signatures), appendBytes)
	b.B = append(d, "}\n"...)
	return b
}

func EncodeVerifyResponse(r *VerifyResponse) *Buf {
	b := NewBuf(objLen + boolLen + strLen(r.KeyID) + intLen + strLen(r.Device))
	d := append(b.B, `{"valid":`...)
	d = strconv.AppendBool(d, r.Valid)
	d = append(d, `,"key_id":`...)
	d = appendString(d, r.KeyID)
	d = append(d, `,"batch":`...)
	d = appendInt(d, int64(r.Batch))
	d = append(d, `,"device":`...)
	d = appendString(d, r.Device)
	b.B = append(d, "}\n"...)
	return b
}

func EncodeVerifyBatchResponse(r *VerifyBatchResponse) *Buf {
	b := NewBuf(objLen + strLen(r.KeyID) + boolLen*len(r.Valid))
	d := append(b.B, `{"key_id":`...)
	d = appendString(d, r.KeyID)
	d = append(d, `,"valid":`...)
	d = appendArray(d, r.Valid, 0, len(r.Valid), strconv.AppendBool)
	b.B = append(d, "}\n"...)
	return b
}

// EncodeSignBatch encodes r as consecutive /v1/sign/batch bodies of at most
// limit bytes each — one, unless the batch is larger than a leaf accepts in
// a single request. A member too large for any body still gets its own, for
// the leaf to refuse.
func EncodeSignBatch(r *SignBatchRequest, limit int) Bodies {
	return encodeBatch(&VerifyBatchRequest{Messages: r.Messages, KeyID: r.KeyID,
		DeadlineMs: r.DeadlineMs, DeadlinesMs: r.DeadlinesMs, Tenants: r.Tenants}, false, limit)
}

// EncodeVerifyBatch is EncodeSignBatch for /v1/verify/batch.
func EncodeVerifyBatch(r *VerifyBatchRequest, limit int) Bodies { return encodeBatch(r, true, limit) }

// encodeBatch writes both batch request shapes, which differ only in the
// signatures member. Signatures, DeadlinesMs and Tenants are parallel to
// Messages where present; zero-valued optional fields are omitted, as their
// omitempty tags say.
func encodeBatch(r *VerifyBatchRequest, verify bool, limit int) Bodies {
	fixed := objLen + strLen(r.KeyID) + intLen
	member := func(i int) int {
		n := b64Len(len(r.Messages[i]))
		if verify {
			n += b64Len(len(r.Signatures[i]))
		}
		if len(r.DeadlinesMs) > 0 {
			n += intLen
		}
		if len(r.Tenants) > 0 {
			n += strLen(r.Tenants[i])
		}
		return n
	}
	var out Bodies
	for from := 0; from < len(r.Messages) || out == nil; {
		to, size := from, fixed
		for to < len(r.Messages) && (to == from || size+member(to) <= limit) {
			size += member(to)
			to++
		}
		b := NewBuf(size)
		d := append(b.B, `{"messages":`...)
		d = appendArray(d, r.Messages, from, to, appendBytes)
		if verify {
			d = append(d, `,"signatures":`...)
			d = appendArray(d, r.Signatures, from, to, appendBytes)
		}
		if r.KeyID != "" {
			d = append(d, `,"key_id":`...)
			d = appendString(d, r.KeyID)
		}
		if r.DeadlineMs != 0 {
			d = append(d, `,"deadline_ms":`...)
			d = appendInt(d, r.DeadlineMs)
		}
		if len(r.DeadlinesMs) > 0 {
			d = append(d, `,"deadlines_ms":`...)
			d = appendArray(d, r.DeadlinesMs, from, to, appendInt)
		}
		if len(r.Tenants) > 0 {
			d = append(d, `,"tenants":`...)
			d = appendArray(d, r.Tenants, from, to, appendString)
		}
		b.B = append(d, "}\n"...)
		out = append(out, b)
		from = to
	}
	return out
}
