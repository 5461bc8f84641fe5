package wire

import (
	"bytes"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Buf is a reference-counted byte buffer from a size-classed pool. NewBuf
// hands it out holding one reference; the last Release returns it to the
// pool. B may be appended to freely: a buffer that outgrew MaxBodyBytes is
// simply not pooled again.
type Buf struct {
	B    []byte
	refs atomic.Int32
}

// Size classes are powers of two from 1 KiB to MaxBodyBytes, so a tiny
// verdict response never evicts (or is handed) a 180 KiB request body and
// no pooled buffer exceeds the cap.
const (
	minClass = 10
	maxClass = 20
)

var bufPools [maxClass - minClass + 1]sync.Pool

// NewBuf returns an empty buffer with capacity for at least n bytes.
func NewBuf(n int) *Buf {
	var b *Buf
	if n > 1<<maxClass {
		b = &Buf{B: make([]byte, 0, n)}
	} else {
		c := max(bits.Len(uint(max(n, 1)-1)), minClass)
		if b, _ = bufPools[c-minClass].Get().(*Buf); b == nil {
			b = &Buf{B: make([]byte, 0, 1<<c)}
		}
	}
	b.B = b.B[:0]
	b.refs.Store(1)
	return b
}

// Retain adds a reference.
func (b *Buf) Retain() { b.refs.Add(1) }

// Release drops a reference; the buffer must not be touched afterwards.
func (b *Buf) Release() {
	switch n := b.refs.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic("wire: Buf released more often than retained")
	}
	// Pooled by the largest class the capacity covers, so class c only ever
	// holds buffers of at least 1<<c bytes.
	if c := bits.Len(uint(cap(b.B))) - 1; c >= minClass && cap(b.B) <= 1<<maxClass {
		bufPools[c-minClass].Put(b)
	}
}

// Body returns b's bytes as an HTTP request body that holds a reference
// until it is closed. net/http closes a request body when it is done with
// it, possibly after the round trip has returned (an early error response
// while the body is still being written), so the buffer goes back to the
// pool only once the transport cannot read it any more.
func (b *Buf) Body() io.ReadCloser {
	b.Retain()
	r := &body{buf: b}
	r.Reset(b.B)
	return r
}

type body struct {
	bytes.Reader
	buf    *Buf
	closed atomic.Bool
}

func (r *body) Close() error {
	if r.closed.CompareAndSwap(false, true) {
		r.buf.Release()
	}
	return nil
}

// Bodies is one proxied batch encoded as consecutive request bodies.
type Bodies []*Buf

// Retain and Release apply to every body.
func (bs Bodies) Retain() {
	for _, b := range bs {
		b.Retain()
	}
}

func (bs Bodies) Release() {
	for _, b := range bs {
		b.Release()
	}
}

// ReadBody reads r to EOF into a pooled buffer. size is the expected length
// (Content-Length) or negative when unknown; it is trusted for at most limit
// bytes up front, beyond which — as when it is unknown — the buffer grows as
// the body arrives. A read error is returned together with the bytes that
// preceded it. The caller releases the buffer either way.
func ReadBody(r io.Reader, size, limit int64) (*Buf, error) {
	n := 0
	if size >= 0 {
		// One spare byte lets the read that reports EOF fit without growing.
		n = int(min(size, limit)) + 1
	}
	b := NewBuf(n)
	for {
		if len(b.B) == cap(b.B) {
			grown := NewBuf(2 * cap(b.B))
			grown.B = append(grown.B, b.B...)
			b.Release()
			b = grown
		}
		m, err := r.Read(b.B[len(b.B):cap(b.B)])
		b.B = b.B[:len(b.B)+m]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}
