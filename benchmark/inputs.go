package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"herosign/internal/cpuref"
	"herosign/internal/spx"
	"herosign/internal/spx/params"
)

// The three parameter sets the batch workloads mix. Service workloads run
// sets[0] only.
var sets = []*params.Params{params.SPHINCSPlus128f, params.SPHINCSPlus192f, params.SPHINCSPlus256f}

var setTags = []string{"128f", "192f", "256f"}

const (
	msgBytes   = 32
	bodyPool   = 64 // pre-encoded verify request bodies, cycled
	bodyPairs  = 8  // pairs per verify request: one lane group
	signPerReq = 4  // messages per http-sign request
	signRate   = 40 // http-sign requests per second (x signPerReq = 160 sig/s)
)

// One round of each batch workload, per set; the time per set is about
// equal. A sign round gives every thread 4 + 2 + 1 messages, so it lasts
// ~70 ms whatever the core count and a 15 s window holds the >= 100 rounds
// its p90 needs (on 4 threads this is the issue's 16 + 8 + 4).
var verifyRound = []int{64, 32, 32}

func signRound(set int) int { return []int{4, 2, 1}[set] * nproc() }

// pair is one (message, signature) with the verdict recorded when it was
// made. Invalid pairs are a flipped signature bit, another message, or a
// signature one byte short, in turn.
type pair struct {
	msg, sig []byte
	want     bool
}

// splitPairs lays pairs out as the parallel slices the program takes.
func splitPairs(pairs []pair) (msgs, sigs [][]byte) {
	for _, p := range pairs {
		msgs, sigs = append(msgs, p.msg), append(sigs, p.sig)
	}
	return msgs, sigs
}

// wrongVerdicts counts verdicts that differ from the ones recorded for
// pairs; a missing answer is a wrong one.
func wrongVerdicts(got []bool, pairs []pair) int {
	n := 0
	for i, p := range pairs {
		if i >= len(got) || got[i] != p.want {
			n++
		}
	}
	return n
}

// verifyBody is one pre-encoded POST /v1/verify/batch body.
type verifyBody struct {
	json  []byte
	pairs []pair
}

// signBody is one pre-encoded POST /v1/sign/batch body.
type signBody struct {
	json []byte
	msgs [][]byte
}

// inputs is everything a run feeds the program, all derived from the seed.
// The program under test sees these values and never the seed.
type inputs struct {
	seed    uint64
	rng     *rand.Rand
	triples [][3][]byte       // per set: SK.seed, SK.prf, PK.seed
	keys    []*spx.PrivateKey // the generator's own copy, for pre-signing and checking
	pools   [][]pair          // per set: valid pairs
	rounds  [][]pair          // per set: one verify round, 1 pair in 8 invalid
	bodies  []verifyBody      // http-verify / fleet-verify
	signs   []signBody        // http-sign, one per arrival: fresh messages
	phase   time.Duration
	genTime time.Duration

	// corruptExpected flips one recorded verdict: the hook bench_test.go
	// uses to prove a wrong answer fails the run.
	corruptExpected bool
}

func nproc() int { return runtime.GOMAXPROCS(0) }

func (in *inputs) bytes(n int) []byte {
	b := make([]byte, n)
	for i := 0; i < n; i += 8 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], in.rng.Uint64())
		copy(b[i:], w[:])
	}
	return b
}

// corrupt returns p made invalid in the kind-th way.
func (in *inputs) corrupt(p pair, kind int) pair {
	out := pair{msg: p.msg, sig: append([]byte(nil), p.sig...)}
	switch kind % 3 {
	case 0:
		out.sig[in.rng.IntN(len(out.sig))] ^= 1 << in.rng.IntN(8)
	case 1:
		out.msg = in.bytes(msgBytes)
	case 2:
		out.sig = out.sig[:len(out.sig)-1]
	}
	return out
}

// genInputs derives the inputs workload needs (a traced run needs all of
// them, for the ladder). signArrivals is how many http-sign requests to
// prepare: every arrival carries fresh messages, and a sign body is ~200
// bytes, so these alone are one per arrival and not a cycled pool.
func genInputs(seed uint64, workload string, traced bool, signArrivals int, corruptExpected bool) (*inputs, error) {
	start := time.Now()
	in := &inputs{seed: seed, rng: rand.New(rand.NewPCG(seed, 0x6865726f7369676e)), corruptExpected: corruptExpected}
	for _, p := range sets {
		t := [3][]byte{in.bytes(p.N), in.bytes(p.N), in.bytes(p.N)}
		sk, err := spx.KeyFromSeeds(p, t[0], t[1], t[2])
		if err != nil {
			return nil, fmt.Errorf("deriving %s key: %w", p.Name, err)
		}
		in.triples, in.keys = append(in.triples, t), append(in.keys, sk)
	}
	in.phase = time.Duration(in.rng.Int64N(int64(time.Second / signRate)))

	poolSets := 0
	switch {
	case traced || workload == wVerifyBatch:
		poolSets = len(sets)
	case workload == wHTTPVerify || workload == wFleetVerify:
		poolSets = 1
	}
	in.pools, in.rounds = make([][]pair, len(sets)), make([][]pair, len(sets))
	for s := 0; s < poolSets; s++ {
		msgs := make([][]byte, verifyRound[s])
		for i := range msgs {
			msgs[i] = in.bytes(msgBytes)
		}
		sigs, _, err := cpuref.SignBatch(in.keys[s], msgs, nproc())
		if err != nil {
			return nil, fmt.Errorf("pre-signing the %s pool: %w", sets[s].Name, err)
		}
		for i := range msgs {
			p := pair{msg: msgs[i], sig: sigs[i], want: true}
			in.pools[s] = append(in.pools[s], p)
			if i%8 == 7 {
				p = in.corrupt(p, i/8)
			}
			in.rounds[s] = append(in.rounds[s], p)
		}
	}
	if traced || workload == wHTTPVerify || workload == wFleetVerify {
		for b := 0; b < bodyPool; b++ {
			vb := verifyBody{}
			bad := in.rng.IntN(bodyPairs)
			for i, j := range in.rng.Perm(len(in.pools[0]))[:bodyPairs] {
				p := in.pools[0][j]
				if i == bad {
					p = in.corrupt(p, b)
				}
				vb.pairs = append(vb.pairs, p)
			}
			var req verifyBatchReq
			req.Messages, req.Signatures = splitPairs(vb.pairs)
			vb.json, _ = json.Marshal(req)
			in.bodies = append(in.bodies, vb)
		}
	}
	if workload == wHTTPSign {
		for k := 0; k < signArrivals; k++ {
			sb := signBody{}
			for i := 0; i < signPerReq; i++ {
				sb.msgs = append(sb.msgs, in.bytes(msgBytes))
			}
			sb.json, _ = json.Marshal(signBatchReq{Messages: sb.msgs})
			in.signs = append(in.signs, sb)
		}
	}
	if corruptExpected {
		for s := range in.rounds {
			if len(in.rounds[s]) > 0 {
				in.rounds[s][0].want = !in.rounds[s][0].want
			}
		}
		for b := range in.bodies {
			in.bodies[b].pairs[0].want = !in.bodies[b].pairs[0].want
		}
	}
	in.genTime = time.Since(start)
	return in, nil
}

// freshMsgs returns n messages no earlier call returned: a per-run random
// prefix and a counter.
func freshMsgs(prefix []byte, counter *uint64, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		m := make([]byte, msgBytes)
		copy(m, prefix)
		binary.BigEndian.PutUint64(m[msgBytes-8:], *counter)
		*counter++
		out[i] = m
	}
	return out
}
