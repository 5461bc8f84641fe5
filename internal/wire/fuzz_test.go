package wire

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The decoder fuzzers hold each shape to checkDecode's property on arbitrary
// bytes: never panic, accept only what encoding/json decodes to the same
// value, and otherwise answer exactly as encoding/json does. Declining is
// always allowed; TestScannerTakesTheHotShapes keeps it from being the only
// thing the scanner does.

func fuzzDecode(f *testing.F, sh shape) {
	for _, body := range seedBodies {
		f.Add([]byte(body))
	}
	f.Add(verifyBatchBody(2))
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, sh, data) })
}

func FuzzDecodeSign(f *testing.F)        { fuzzDecode(f, shapes[0]) }
func FuzzDecodeVerify(f *testing.F)      { fuzzDecode(f, shapes[1]) }
func FuzzDecodeSignBatch(f *testing.F)   { fuzzDecode(f, shapes[2]) }
func FuzzDecodeVerifyBatch(f *testing.F) { fuzzDecode(f, shapes[3]) }

// FuzzDecodeSignBatchResponse: the remote hop's answer decoder appends
// exactly the signatures encoding/json finds, after whatever was there.
func FuzzDecodeSignBatchResponse(f *testing.F) {
	for _, body := range seedBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prior := [][]byte{[]byte("prior")}
		got, gotErr := AppendSignBatchResponse(prior, data)
		var want SignBatchResponse
		wantErr := json.Unmarshal(data, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: error %v, encoding/json says %v", data, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if len(got) != 1+len(want.Signatures) || string(got[0]) != "prior" {
			t.Fatalf("%q: %d signatures after the prior one, want %d", data, len(got)-1, len(want.Signatures))
		}
		for i, sig := range want.Signatures {
			if !bytes.Equal(got[1+i], sig) {
				t.Fatalf("%q: signature %d is %q, want %q", data, i, got[1+i], sig)
			}
		}
	})
}

// FuzzEncode builds every response and both proxied request shapes from the
// fuzzer's values and checks the property the public format rests on: the
// bytes are the ones encoding/json would have written (so it reads back
// from them whatever it reads back from its own output).
func FuzzEncode(f *testing.F) {
	f.Add("0123456789abcdef", "cpuref-2t", []byte("message"), []byte("signature"), int64(250), 3, true)
	f.Add(`k"<&>\`, "dev\x00\xff ", []byte{}, []byte{0xff, 0xfe}, int64(-1), 0, false)
	f.Add("", "", []byte(nil), []byte(nil), int64(0), 17, true)
	f.Fuzz(func(t *testing.T, keyID, device string, msg, sig []byte, ms int64, n int, flag bool) {
		n = min(max(n, 0), 40)
		var msgs, sigs [][]byte
		var valid []bool
		var deadlines []int64
		var tenants []string
		for i := 0; i < n; i++ {
			msgs = append(msgs, append(msg[:len(msg):len(msg)], byte(i)))
			sigs = append(sigs, append(sig[:len(sig):len(sig)], byte(i)))
			valid = append(valid, flag != (i%3 == 0))
			deadlines = append(deadlines, ms+int64(i))
			tenants = append(tenants, device[:min(i, len(device))])
		}
		if !flag {
			deadlines, tenants = nil, nil
		}
		roundTrip(t, &SignResponse{Signature: sig, KeyID: keyID, Shard: n, Batch: int(ms), Device: device}, EncodeSignResponse)
		roundTrip(t, &VerifyResponse{Valid: flag, KeyID: keyID, Batch: n, Device: device}, EncodeVerifyResponse)
		roundTrip(t, &SignBatchResponse{KeyID: keyID, Signatures: sigs}, EncodeSignBatchResponse)
		roundTrip(t, &VerifyBatchResponse{KeyID: keyID, Valid: valid}, EncodeVerifyBatchResponse)
		roundTrip(t, &SignBatchRequest{Messages: msgs, KeyID: keyID, DeadlineMs: ms, DeadlinesMs: deadlines, Tenants: tenants},
			func(r *SignBatchRequest) *Buf { return EncodeSignBatch(r, 1<<30)[0] })
		roundTrip(t, &VerifyBatchRequest{Messages: msgs, Signatures: sigs, KeyID: keyID, DeadlineMs: ms, DeadlinesMs: deadlines, Tenants: tenants},
			func(r *VerifyBatchRequest) *Buf { return EncodeVerifyBatch(r, 1<<30)[0] })
	})
}

func roundTrip[T any](t *testing.T, v *T, encode func(*T) *Buf) {
	t.Helper()
	b := encode(v)
	defer b.Release()
	if want := jsonLine(t, v); !bytes.Equal(b.B, want) {
		t.Fatalf("encoded %#v as\n%q, encoding/json writes\n%q", *v, b.B, want)
	}
	var back T
	if err := json.Unmarshal(b.B, &back); err != nil {
		t.Fatalf("encoding/json cannot read %q: %v", b.B, err)
	}
}
