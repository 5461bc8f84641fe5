package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// seedBodies are the request bodies the handler tests send plus the shapes
// the scanner must decline or must get exactly right: escapes, reordered
// and unknown and duplicate keys, whitespace, null, truncation, bad and
// non-canonical base64, odd numbers, trailing data. They seed the fuzzers
// and run as a table in TestDecodeMatchesEncodingJSON.
var seedBodies = []string{
	// what clients and the front end send
	`{"message":"aGVsbG8="}`,
	`{"message":"aGVsbG8=","key_id":"0123456789abcdef","deadline_ms":250}`,
	`{"message":"aGVsbG8=","signature":"c2lnbmF0dXJl","key_id":"beef"}`,
	`{"messages":["bQ==","bTI="]}`,
	`{"messages":["bQ==","bTI="],"key_id":"k","deadlines_ms":[5,0],"tenants":["a",""]}`,
	`{"messages":["bQ==","bTI="],"signatures":["cw==","czI="]}`,
	`{"messages":["bQ=="],"signatures":["cw=="],"key_id":"k","deadline_ms":7,"deadlines_ms":[9],"tenants":["t"]}`,
	"{\"messages\":[\"bQ==\"],\"signatures\":[\"cw==\"]}\n",
	`{"key_id":"k","signatures":["c2ln","c2lnMg=="]}`,
	`{}`,
	`{"messages":[]}`,
	`{"messages":[""],"signatures":[""]}`,
	`{"message":""}`,
	// reordered, padded
	`{"key_id":"k","signatures":["cw=="],"messages":["bQ=="]}`,
	" \t\r\n{ \"messages\" : [ \"bQ==\" , \"bTI=\" ] , \"deadline_ms\" : 12 } \n",
	`{"deadline_ms":-3,"message":"bQ=="}`,
	`{"deadline_ms":-0,"message":"bQ=="}`,
	// declined: escapes
	`{"message":"aGVsbG8\/"}`,
	`{"message":"aGk\u003d"}`,
	`{"key_id":"a\"b","message":"bQ=="}`,
	`{"key_id":"a\\","message":"bQ=="}`,
	`{"mess\u0061ge":"bQ=="}`,
	`{"tenants":["caf\u00e9"],"messages":["bQ=="]}`,
	"{\"tenants\":[\"caf\xc3\xa9\"],\"messages\":[\"bQ==\"]}",
	"{\"key_id\":\"bad\xffutf8\",\"message\":\"bQ==\"}",
	"{\"key_id\":\"tab\there\",\"message\":\"bQ==\"}",
	"{\"message\":\"aGVs\nbG8=\"}",
	// declined: keys
	`{"message":"bQ==","message":"bTI="}`,
	`{"messages":["bQ=="],"messages":[]}`,
	`{"Message":"bQ=="}`,
	`{"MESSAGE":"bQ==","key_id":"k"}`,
	`{"message":"bQ==","extra":{"nested":[1,2,{"x":null}]}}`,
	`{"message":"bQ==","signature":"!!!not base64!!!"}`,
	`{"signature":"cw==","messages":["bQ=="]}`,
	// declined: null, wrong types
	`null`,
	`{"message":null}`,
	`{"messages":null,"signatures":null}`,
	`{"messages":[null]}`,
	`{"messages":"bQ=="}`,
	`{"message":["bQ=="]}`,
	`{"message":5}`,
	`{"key_id":5,"message":"bQ=="}`,
	`{"tenants":[1],"messages":["bQ=="]}`,
	`{"deadlines_ms":["5"],"messages":["bQ=="]}`,
	`[]`, `"bQ=="`, `7`,
	// declined or rejected: numbers
	`{"deadline_ms":1.0,"message":"bQ=="}`,
	`{"deadline_ms":1e3,"message":"bQ=="}`,
	`{"deadline_ms":01,"message":"bQ=="}`,
	`{"deadline_ms":-,"message":"bQ=="}`,
	`{"deadline_ms":+1,"message":"bQ=="}`,
	`{"deadline_ms":9223372036854775807,"message":"bQ=="}`,
	`{"deadline_ms":9223372036854775808,"message":"bQ=="}`,
	`{"deadline_ms":-9223372036854775808,"message":"bQ=="}`,
	`{"deadline_ms":999999999999999999,"message":"bQ=="}`,
	`{"deadline_ms":12x,"message":"bQ=="}`,
	`{"deadlines_ms":[1,2.5],"messages":["bQ==","bQ=="]}`,
	// base64: invalid, unpadded, non-canonical trailing bits, url alphabet
	`{"message":"aGVsbG8"}`,
	`{"message":"aGVsbG8=="}`,
	`{"message":"aGk=="}`,
	`{"message":"aGl="}`,
	`{"message":"aR=="}`,
	`{"message":"a-_="}`,
	`{"message":"a"}`,
	`{"message":"===="}`,
	`{"message":"aGk= "}`,
	// truncated and trailing data
	``, ` `, `{`, `{"`, `{"message`, `{"message"`, `{"message":`, `{"message":"`, `{"message":"bQ==`,
	`{"message":"bQ=="`, `{"message":"bQ==",`, `{"messages":[`, `{"messages":["bQ=="`, `{"messages":["bQ==",`,
	`{"messages":["bQ==",]}`, `{"messages":[,]}`, `{,}`, `{"message":"bQ==",}`,
	`{"message":"bQ=="} trailing`,
	`{"message":"bQ=="}{"message":"bTI="}`,
	`{"message":"bQ=="}]`,
}

// shape is one request shape seen through both decoders.
type shape struct {
	name    string
	allowed key
	decode  func(*Input) (any, error)
	viaJSON func([]byte) (any, error)
}

func streamJSON[T any](data []byte) (any, error) {
	var v T
	err := json.NewDecoder(bytes.NewReader(data)).Decode(&v)
	return v, err
}

var shapes = []shape{
	{"sign", signKeys, func(in *Input) (any, error) { return in.DecodeSign() }, streamJSON[SignRequest]},
	{"verify", verifyKeys, func(in *Input) (any, error) { return in.DecodeVerify() }, streamJSON[VerifyRequest]},
	{"sign-batch", signBatchKeys, func(in *Input) (any, error) { return in.DecodeSignBatch() }, streamJSON[SignBatchRequest]},
	{"verify-batch", verifyBatchKeys, func(in *Input) (any, error) { return in.DecodeVerifyBatch() }, streamJSON[VerifyBatchRequest]},
}

// checkDecode is the decoder property: whatever the scanner accepts is what
// encoding/json decodes from the same bytes, and the Decode method as a
// whole — scanner or fallback — agrees with the stream decoder the handlers
// used to run, errors included.
func checkDecode(t *testing.T, sh shape, data []byte) (accepted bool) {
	t.Helper()
	in := ReadInput(bytes.NewReader(data), int64(len(data)))
	defer in.Release()
	_, accepted = in.scan(sh.allowed)
	got, gotErr := sh.decode(in)
	want, wantErr := sh.viaJSON(data)
	switch {
	case accepted && wantErr != nil:
		t.Fatalf("%s: scanner accepted %q, encoding/json says %v", sh.name, data, wantErr)
	case (gotErr == nil) != (wantErr == nil), gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%s: %q: error %v, encoding/json says %v", sh.name, data, gotErr, wantErr)
	case gotErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%s: %q:\n got %#v\nwant %#v", sh.name, data, got, want)
	}
	return accepted
}

func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, sh := range shapes {
		for _, body := range seedBodies {
			checkDecode(t, sh, []byte(body))
		}
	}
}

// TestScannerTakesTheHotShapes pins that the ordinary bodies do go through
// the scanner — a scanner that declined everything would pass every
// equivalence test — and that the unusual ones do not.
func TestScannerTakesTheHotShapes(t *testing.T) {
	verify := shapes[3]
	for body, want := range map[string]bool{
		`{"messages":["bQ==","bTI="],"signatures":["cw==","czI="]}`:                                   true,
		`{"messages":["bQ=="],"signatures":["cw=="],"key_id":"k","deadlines_ms":[9],"tenants":["t"]}`: true,
		" {\n\t\"signatures\" : [\"cw==\"] ,\r\n \"messages\":[\"bQ==\"]\n}\n":                        true,
		`{"messages":["bQ\/="],"signatures":["cw=="]}`:                                                false,
		`{"messages":["bQ=="],"signatures":["cw=="],"unknown":1}`:                                     false,
		`{"messages":["bQ=="],"signatures":["cw=="],"messages":["bQ=="]}`:                             false,
		`{"messages":null,"signatures":["cw=="]}`:                                                     false,
		`{"messages":["bQ="],"signatures":["cw=="]}`:                                                  false,
	} {
		if got := checkDecode(t, verify, []byte(body)); got != want {
			t.Errorf("scanner accepted = %v, want %v: %s", got, want, body)
		}
	}
	// One member over the cap declines (and so never grows the scratch).
	over := `{"messages":[` + strings.Repeat(`"bQ==",`, MaxMembers) + `"bQ=="]}`
	if checkDecode(t, shapes[2], []byte(over)) {
		t.Errorf("scanner accepted %d members", MaxMembers+1)
	}
	if at := `{"messages":[` + strings.Repeat(`"bQ==",`, MaxMembers-1) + `"bQ=="]}`; !checkDecode(t, shapes[2], []byte(at)) {
		t.Errorf("scanner declined %d members", MaxMembers)
	}
}

// TestReadErrorReplays: a body cut short by a read error (the 413 case)
// reports that error exactly as the stream decoder met it — after the bytes
// that did arrive, so a syntax error inside them still wins.
func TestReadErrorReplays(t *testing.T) {
	boom := errors.New("body exceeds the cap")
	for _, prefix := range []string{`{"message":"AAAA`, `{"message":!`, `{"message":"bQ=="}`} {
		in := ReadInput(io.MultiReader(strings.NewReader(prefix), errReader{boom}), -1)
		_, gotErr := in.DecodeSign()
		in.Release()
		var want SignRequest
		wantErr := json.NewDecoder(io.MultiReader(strings.NewReader(prefix), errReader{boom})).Decode(&want)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Errorf("%q: error %v, stream decoder says %v", prefix, gotErr, wantErr)
		}
	}
}

// trickyStrings take every branch of encoding/json's string escaping.
var trickyStrings = []string{"", "k", "0123456789abcdef", "RTX 4090", "remote(127.0.0.1:8080)",
	`quote"back\slash`, "<html>&amp;", "tab\tnewline\n\x00\x1f\x7f", "café ☃ \u2028\u2029", "bad\xffutf8"}

func jsonLine(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func wantBytes(t *testing.T, what string, b *Buf, want []byte) {
	t.Helper()
	if !bytes.Equal(b.B, want) {
		t.Errorf("%s:\n got %q\nwant %q", what, b.B, want)
	}
	b.Release()
}

func TestEncodeMatchesEncodingJSON(t *testing.T) {
	blobs := [][]byte{nil, {}, []byte("m"), []byte("hello world"), bytes.Repeat([]byte{0xfb, 0xff}, 40)}
	for i, s := range trickyStrings {
		dev := trickyStrings[(i+3)%len(trickyStrings)]
		for j, blob := range blobs {
			sr := SignResponse{Signature: blob, KeyID: s, Shard: j - 1, Batch: 1 << (5 * j), Device: dev}
			wantBytes(t, "sign response", EncodeSignResponse(&sr), jsonLine(t, sr))
			vr := VerifyResponse{Valid: j%2 == 0, KeyID: s, Batch: -j, Device: dev}
			wantBytes(t, "verify response", EncodeVerifyResponse(&vr), jsonLine(t, vr))
		}
		for _, sigs := range [][][]byte{nil, {}, {nil}, blobs} {
			br := SignBatchResponse{KeyID: s, Signatures: sigs}
			wantBytes(t, "sign batch response", EncodeSignBatchResponse(&br), jsonLine(t, br))
		}
		for _, valid := range [][]bool{nil, {}, {true}, {false, true, true, false}} {
			br := VerifyBatchResponse{KeyID: s, Valid: valid}
			wantBytes(t, "verify batch response", EncodeVerifyBatchResponse(&br), jsonLine(t, br))
		}
	}
	msgs := [][]byte{[]byte("m0"), []byte("message one"), {}}
	sigs := [][]byte{bytes.Repeat([]byte{7}, 100), []byte("s"), []byte("sig")}
	for _, r := range []VerifyBatchRequest{
		{Messages: msgs, Signatures: sigs},
		{Messages: msgs, Signatures: sigs, KeyID: "0123456789abcdef"},
		{Messages: msgs, Signatures: sigs, KeyID: `<"k">`, DeadlineMs: -5, DeadlinesMs: []int64{1, 0, 1 << 62}, Tenants: trickyStrings[5:8]},
		{Messages: [][]byte{}, Signatures: [][]byte{}, Tenants: []string{}},
	} {
		bodies := EncodeVerifyBatch(&r, MaxBodyBytes)
		if len(bodies) != 1 {
			t.Fatalf("a small verify batch became %d bodies", len(bodies))
		}
		wantBytes(t, "verify batch request", bodies[0], jsonLine(t, r))
		sr := SignBatchRequest{Messages: r.Messages, KeyID: r.KeyID, DeadlineMs: r.DeadlineMs, DeadlinesMs: r.DeadlinesMs, Tenants: r.Tenants}
		bodies = EncodeSignBatch(&sr, MaxBodyBytes)
		if len(bodies) != 1 {
			t.Fatalf("a small sign batch became %d bodies", len(bodies))
		}
		wantBytes(t, "sign batch request", bodies[0], jsonLine(t, sr))
	}
}

// TestEncodeBatchSplits: a batch larger than the cap becomes consecutive
// bodies that each fit, scheduling arrays stay parallel inside every body,
// and decoding them in order gives the batch back.
func TestEncodeBatchSplits(t *testing.T) {
	const n, limit = 50, 64 << 10
	r := VerifyBatchRequest{KeyID: "0123456789abcdef"}
	for i := 0; i < n; i++ {
		r.Messages = append(r.Messages, bytes.Repeat([]byte{byte(i)}, 32))
		r.Signatures = append(r.Signatures, bytes.Repeat([]byte{byte(i), 0xff}, 4000+100*i))
		r.DeadlinesMs = append(r.DeadlinesMs, int64(i))
		// Worst-case escaping must still respect the limit.
		r.Tenants = append(r.Tenants, strings.Repeat("\x01", i))
	}
	bodies := EncodeVerifyBatch(&r, limit)
	defer bodies.Release()
	if len(bodies) < 5 {
		t.Fatalf("%d bodies for a batch of about %d KiB under a %d KiB limit", len(bodies), n*12, limit>>10)
	}
	var back VerifyBatchRequest
	for i, b := range bodies {
		if len(b.B) > limit {
			t.Errorf("body %d is %d bytes, over the %d limit", i, len(b.B), limit)
		}
		var part VerifyBatchRequest
		if err := json.Unmarshal(b.B, &part); err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		if part.KeyID != r.KeyID || len(part.Signatures) != len(part.Messages) ||
			len(part.DeadlinesMs) != len(part.Messages) || len(part.Tenants) != len(part.Messages) {
			t.Fatalf("body %d is not a self-contained request: %d/%d/%d/%d members, key %q", i,
				len(part.Messages), len(part.Signatures), len(part.DeadlinesMs), len(part.Tenants), part.KeyID)
		}
		back.Messages = append(back.Messages, part.Messages...)
		back.Signatures = append(back.Signatures, part.Signatures...)
		back.DeadlinesMs = append(back.DeadlinesMs, part.DeadlinesMs...)
		back.Tenants = append(back.Tenants, part.Tenants...)
	}
	back.KeyID = r.KeyID
	if !reflect.DeepEqual(back, r) {
		t.Fatal("the bodies do not concatenate back to the batch")
	}
	// A member no body can hold still travels, alone.
	huge := SignBatchRequest{Messages: [][]byte{[]byte("a"), make([]byte, limit), []byte("b")}}
	hb := EncodeSignBatch(&huge, limit)
	defer hb.Release()
	if len(hb) != 3 {
		t.Fatalf("oversized member: %d bodies, want 3", len(hb))
	}
}

func TestSignBatchResponseDecode(t *testing.T) {
	sigs := [][]byte{[]byte("sig-0"), bytes.Repeat([]byte{0xaa}, 1000), {}}
	enc := EncodeSignBatchResponse(&SignBatchResponse{KeyID: "k", Signatures: sigs})
	defer enc.Release()
	prior := [][]byte{[]byte("earlier body's signature")}
	got, err := AppendSignBatchResponse(prior, enc.B)
	if err != nil || !reflect.DeepEqual(got, append(prior[:1:1], sigs...)) {
		t.Fatalf("got %q, %v", got, err)
	}
	// The escaped spelling of the same answer takes the encoding/json path.
	esc := bytes.ReplaceAll(enc.B, []byte(`"k"`), []byte(`"\u006b"`))
	if got, err = AppendSignBatchResponse(nil, esc); err != nil || !reflect.DeepEqual(got, sigs) {
		t.Fatalf("escaped: got %q, %v", got, err)
	}
	if _, err = AppendSignBatchResponse(nil, enc.B[:len(enc.B)/2]); err == nil {
		t.Fatal("a truncated answer decoded")
	}
	if got, err = AppendSignBatchResponse(prior, []byte(`{"key_id":"k"}`)); err != nil || len(got) != 1 {
		t.Fatalf("answer without signatures: %q, %v", got, err)
	}
	valid, err := AppendVerifyBatchResponse([]bool{true}, []byte(`{"key_id":"k","valid":[false,true]}`))
	if err != nil || !reflect.DeepEqual(valid, []bool{true, false, true}) {
		t.Fatalf("verdicts %v, %v", valid, err)
	}
}

// TestBufPoolBounds: a buffer comes back with at least the capacity asked
// for, never from a smaller class, and one past MaxBodyBytes is not kept.
func TestBufPoolBounds(t *testing.T) {
	for _, n := range []int{0, 1, 1023, 1024, 1025, 180 << 10, MaxBodyBytes, MaxBodyBytes + 1} {
		b := NewBuf(n)
		if cap(b.B) < n || len(b.B) != 0 {
			t.Fatalf("NewBuf(%d): len %d cap %d", n, len(b.B), cap(b.B))
		}
		b.Release()
	}
	big := NewBuf(4 << 20)
	big.Release()
	small := NewBuf(100)
	small.B = append(small.B, make([]byte, 2<<20)...) // outgrew every class
	small.Release()
	for i := 0; i < 64; i++ {
		b := NewBuf(MaxBodyBytes)
		if cap(b.B) > MaxBodyBytes {
			t.Fatalf("the pool handed back a %d-byte buffer", cap(b.B))
		}
		defer b.Release()
	}
	// A request body holds its buffer until closed, however often.
	b := NewBuf(10)
	b.B = append(b.B, "payload"...)
	body := b.Body()
	b.Release()
	got, _ := io.ReadAll(body)
	if string(got) != "payload" {
		t.Fatalf("body read %q", got)
	}
	body.Close()
	body.Close()
}

// ---- steady-state allocation guard and microbenchmarks ----

// verifyBatchBody is the benchmark's http-verify request: pairs 128f-sized
// (message 32 B, signature 17088 B) members and nothing else.
func verifyBatchBody(pairs int) []byte {
	r := VerifyBatchRequest{}
	for i := 0; i < pairs; i++ {
		r.Messages = append(r.Messages, bytes.Repeat([]byte{byte(i)}, 32))
		r.Signatures = append(r.Signatures, bytes.Repeat([]byte{byte(i), 0x5a, 0xff}, 17088/3))
	}
	enc, _ := json.Marshal(r)
	return enc
}

func signAnswer(sigs int) *SignBatchResponse {
	r := &SignBatchResponse{KeyID: "0123456789abcdef"}
	for i := 0; i < sigs; i++ {
		r.Signatures = append(r.Signatures, bytes.Repeat([]byte{byte(i), 0x5a, 0xff}, 17088/3))
	}
	return r
}

func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	body := verifyBatchBody(8)
	rd := bytes.NewReader(body)
	decode := func() {
		rd.Reset(body)
		in := ReadInput(rd, int64(len(body)))
		req, err := in.DecodeVerifyBatch()
		if err != nil || len(req.Signatures) != 8 || len(req.Signatures[7]) != 17088 {
			t.Fatalf("decoded %d signatures, %v", len(req.Signatures), err)
		}
		in.Release()
	}
	decode() // warm-up: fills the pools
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Errorf("decoding a pooled 8-pair verify body: %v allocs/op, want 0", allocs)
	}
	answer := signAnswer(4)
	encode := func() { EncodeSignBatchResponse(answer).Release() }
	encode()
	if allocs := testing.AllocsPerRun(100, encode); allocs != 0 {
		t.Errorf("encoding a 4-signature response: %v allocs/op, want 0", allocs)
	}
}

var sink any

func BenchmarkDecodeVerifyBatch(b *testing.B) {
	body := verifyBatchBody(8)
	b.Run("wire", func(b *testing.B) {
		rd := bytes.NewReader(body)
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			rd.Reset(body)
			in := ReadInput(rd, int64(len(body)))
			req, err := in.DecodeVerifyBatch()
			if err != nil {
				b.Fatal(err)
			}
			sink = len(req.Signatures)
			in.Release()
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		rd := bytes.NewReader(body)
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			rd.Reset(body)
			var req VerifyBatchRequest
			if err := json.NewDecoder(rd).Decode(&req); err != nil {
				b.Fatal(err)
			}
			sink = len(req.Signatures)
		}
	})
}

func BenchmarkEncodeSignBatch(b *testing.B) {
	answer := signAnswer(4)
	b.Run("wire", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			buf := EncodeSignBatchResponse(answer)
			_, _ = io.Discard.Write(buf.B)
			buf.Release()
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := json.NewEncoder(io.Discard).Encode(answer); err != nil {
				b.Fatal(err)
			}
		}
	})
}
