package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"herosign"
	"herosign/internal/cpuref"
	"herosign/internal/sha2"
	"herosign/internal/spx"
	"herosign/internal/spx/address"
	"herosign/internal/spx/fors"
	"herosign/internal/spx/hashes"
	"herosign/internal/spx/hypertree"
	"herosign/internal/spx/wots"
	"herosign/internal/spx/xmss"
	"herosign/service"
)

// The ladder pushes the run's seeded inputs through every layer in turn, from
// one SHA-256 compression up to the front->leaf proxy hop, timing calls into
// each layer's public functions from outside. Every traced run climbs all of
// it, whichever workload it traces: the layers under a workload are the same
// code, and one ladder keeps the rungs comparable.
type ladder struct {
	in     *inputs
	tr     *tracer
	scale  int           // divides every iteration count (-short)
	rung   time.Duration // measured time of one service rung
	m      map[string]float64
	failed int

	rungUs map[string]float64 // service rungs, microseconds per operation
}

// rung is one timed loop of the ladder: f called n times.
type rung struct {
	name string
	n    int
	f    func()
}

// timeGroup times the rungs block by block, five blocks, every rung once in
// each, and returns every rung's median nanoseconds per call. Rungs whose
// times are compared go in one group: the host changes speed by a quarter
// for seconds at a time, and interleaving lets a change reach all of them
// alike. Each (rung, block) is one span.
func (l *ladder) timeGroup(rs ...rung) []float64 {
	const blocks = 5
	per := make([][]float64, len(rs))
	for b := 0; b < blocks; b++ {
		for i, r := range rs {
			n := max(r.n/l.scale/blocks, 1)
			_, end := l.tr.begin(0, 0, r.name)
			start := time.Now()
			for k := 0; k < n; k++ {
				r.f()
			}
			per[i] = append(per[i], float64(time.Since(start))/float64(n))
			end(n)
		}
	}
	out := make([]float64, len(rs))
	for i := range rs {
		out[i] = median(per[i])
	}
	return out
}

func (l *ladder) time(name string, n int, f func()) float64 {
	return l.timeGroup(rung{name, n, f})[0]
}

func gap(sum, top float64) float64 {
	if top == 0 {
		return 0
	}
	if sum > top {
		return (sum - top) / top
	}
	return (top - sum) / top
}

func (l *ladder) climb() error {
	l.primitives()
	l.signLadder()
	l.verifyLadder()
	l.otherSets()
	if err := l.core(); err != nil {
		return err
	}
	return l.service()
}

// primitives times sha2, the thash, the WOTS+/XMSS building blocks and
// treecache, all at 128f.
func (l *ladder) primitives() {
	p, sk, m := sets[0], l.in.keys[0], l.m
	ctx := hashes.NewCtx(p, sk.Seed, sk.SKSeed)

	var st sha2.State256
	var blk [sha2.BlockSize256]byte
	m["sha2.compress_ns"] = l.time("sha2.Compress256", 1_000_000, func() { sha2.Compress256(&st, &blk) })
	var sts [sha2.Lanes]sha2.State256
	var blks [sha2.Lanes][sha2.BlockSize256]byte
	m["sha2.compress_x8_ns_per_lane"] = l.time("sha2.Compress256x8", 125_000, func() { sha2.Compress256x8(&sts, &blks) }) / sha2.Lanes

	out, one := make([]byte, p.N), l.in.bytes(p.N)
	var adrs address.Address
	m["hashes.f_ns"] = l.time("hashes.F", 500_000, func() { ctx.F(out, one, &adrs) })
	var outs, ins [sha2.Lanes][]byte
	var adrs8 [sha2.Lanes]address.Address
	for i := range outs {
		outs[i], ins[i] = make([]byte, p.N), l.in.bytes(p.N)
		adrs8[i].SetKeyPair(uint32(i))
	}
	m["hashes.f_x8_ns_per_lane"] = l.time("hashes.FLanes", 100_000, func() { ctx.FLanes(sha2.Lanes, &outs, &ins, &adrs8) }) / sha2.Lanes

	var wotsAdrs address.Address
	wotsAdrs.SetType(address.WOTSHash)
	m["wots.pkgen_us"] = l.time("wots.PKGen", 2_000, func() { a := wotsAdrs; wots.PKGen(ctx, out, &a) }) / 1e3
	nodes := make([]byte, xmss.NodesLen(p))
	m["xmss.tree_nodes_us"] = l.time("xmss.TreeNodes", 300, func() { var a address.Address; xmss.TreeNodes(ctx, nodes, &a) }) / 1e3

	// treecache under uniform traffic: a fresh (tree, leaf) per signature, so
	// the pinned top layers hit and the layers below rebuild.
	var warm []float64
	var cache *spx.TreeCache
	for i := 0; i < 3; i++ {
		cache = spx.NewTreeCache(sk, memoBytes)
		_, end := l.tr.begin(0, 0, "treecache.Warm")
		start := time.Now()
		cache.Warm(nproc())
		warm = append(warm, time.Since(start).Seconds())
		end(0)
	}
	m["treecache.warm_s"] = median(warm)
	htSig, htMsg := make([]byte, p.D*p.XMSSBytes), l.in.bytes(p.N)
	m["hypertree.sign_cached_us"] = l.time("hypertree.SignCached", 40, func() {
		t, lf := l.coord()
		hypertree.SignCached(ctx, cache, nil, htSig, htMsg, t, lf)
	}) / 1e3
	cs := cache.Stats()
	if looks := float64(cs.Hits + cs.Misses); looks > 0 {
		m["treecache.hit_share"] = float64(cs.Hits) / looks
		m["treecache.wots_hit_share"] = float64(cs.WOTSHits) / looks
	}
	m["treecache.evictions"] = float64(cs.Evictions)
	m["treecache.resident_mib"] = float64(cs.ResidentBytes) / (1 << 20)
}

// coord draws a hypertree path: a bottom-layer tree and a leaf in it.
func (l *ladder) coord() (uint64, uint32) {
	p := sets[0]
	return l.in.rng.Uint64() & (1<<(p.H-p.TreeHeight) - 1), l.in.rng.Uint32() & (1<<p.TreeHeight - 1)
}

// signLadder climbs the signing side at 128f in one group: the scalar
// hashing head, the FORS and hypertree parts, spx.Signer over them, and
// cpuref.SignBatch over that on one thread and on all. The parts must
// account for the one-thread cpuref figure.
func (l *ladder) signLadder() {
	p, sk, m := sets[0], l.in.keys[0], l.m
	ctx := hashes.NewCtx(p, sk.Seed, sk.SKSeed)
	r, msg, digest := l.in.bytes(p.N), l.in.bytes(msgBytes), make([]byte, p.DigestBytes)
	md, forsSig := l.in.bytes(p.ForsMsgBytes), make([]byte, p.ForsBytes)
	var forsAdrs address.Address
	forsAdrs.SetType(address.FORSTree)
	htSig, htMsg := make([]byte, p.D*p.XMSSBytes), l.in.bytes(p.N)
	signer := spx.NewSigner(sk)
	prefix, counter := l.in.bytes(msgBytes-8), uint64(0)
	n := signRound(0)
	batch := func(threads int) func() {
		return func() {
			if _, _, err := cpuref.SignBatch(sk, freshMsgs(prefix, &counter, n), threads); err != nil {
				l.failed++
			}
		}
	}
	t := l.timeGroup(
		rung{"hashes.PRFMsg", 200_000, func() { hashes.PRFMsg(p, sk.SKPRF, sk.Seed, msg) }},
		rung{"hashes.HMsgInto", 200_000, func() { hashes.HMsgInto(p, digest, r, sk.Seed, sk.Root, msg) }},
		rung{"fors.Sign", 400, func() { a := forsAdrs; fors.Sign(ctx, forsSig, md, &a) }},
		rung{"hypertree.Sign", 60, func() {
			t, lf := l.coord()
			hypertree.Sign(ctx, nil, htSig, htMsg, t, lf)
		}},
		rung{"spx.Signer.Sign.128f", 10, func() {
			if _, err := signer.Sign(freshMsgs(prefix, &counter, 1)[0], nil); err != nil {
				l.failed++
			}
		}},
		rung{"cpuref.SignBatch.1T", 10, batch(1)},
		rung{"cpuref.SignBatch.128f", 10, batch(nproc())},
	)
	m["hashes.prfmsg_ns"], m["hashes.hmsg_ns"] = t[0], t[1]
	m["fors.sign_us"], m["hypertree.sign_us"], m["spx.sign_ms.128f"] = t[2]/1e3, t[3]/1e3, t[4]/1e6
	perSig1T := t[5] / float64(n)
	m["cpuref.sign_per_s.128f"] = float64(n) * 1e9 / t[6]
	m["cpuref.sign_scaling_eff"] = t[5] / t[6] / float64(nproc())
	m["client.ladder_sign_gap_share"] = gap(t[0]+t[1]+t[2]+t[3], perSig1T)
}

// verifyLadder climbs the verifying side at 128f in one group. The
// cross-signature primitives take one lane group of pooled signatures apart:
// FORS part, hypertree part, and the bottom layer's WOTS+ part. HMsg (from
// signLadder) plus the FORS and hypertree parts must account for the
// one-thread cpuref figure.
func (l *ladder) verifyLadder() {
	p, sk, m := sets[0], l.in.keys[0], l.m
	ctx := hashes.NewCtx(p, sk.Seed, nil)
	var forsSigs, mds, htSigs, wotsSigs, wotsMsgs [sha2.Lanes][]byte
	var fAdrs, wAdrs [sha2.Lanes]address.Address
	var treeIdxs [sha2.Lanes]uint64
	var leafIdxs [sha2.Lanes]uint32
	forsPKs := make([]byte, sha2.Lanes*p.N)
	msgs, sigs := splitPairs(l.in.pools[0])
	for j := 0; j < sha2.Lanes; j++ {
		d := hashes.HMsg(p, sigs[j][:p.N], sk.Seed, sk.Root, msgs[j])
		mds[j], treeIdxs[j], leafIdxs[j] = hashes.SplitDigest(p, d)
		forsSigs[j], htSigs[j] = sigs[j][p.N:p.N+p.ForsBytes], sigs[j][p.N+p.ForsBytes:]
		wotsSigs[j], wotsMsgs[j] = htSigs[j][:p.WOTSBytes], forsPKs[j*p.N:(j+1)*p.N]
		fAdrs[j].SetTree(treeIdxs[j])
		fAdrs[j].SetType(address.FORSTree)
		fAdrs[j].SetKeyPair(leafIdxs[j])
		wAdrs[j].SetTree(treeIdxs[j])
		wAdrs[j].SetType(address.WOTSHash)
		wAdrs[j].SetKeyPair(leafIdxs[j])
	}
	wotsPKs, roots := make([]byte, len(forsPKs)), make([]byte, len(forsPKs))
	v, okBuf := spx.NewVerifier(&sk.PublicKey), make([]bool, sha2.Lanes)
	bv := cpuref.NewBatchVerifier(&sk.PublicKey)
	t := l.timeGroup(
		rung{"fors.PKFromSigBatch", 400, func() {
			a := fAdrs
			fors.PKFromSigBatch(ctx, sha2.Lanes, forsPKs, &forsSigs, &mds, &a)
		}},
		rung{"wots.PKFromSigBatch", 500, func() {
			a := wAdrs
			wots.PKFromSigBatch(ctx, sha2.Lanes, wotsPKs, &wotsSigs, &wotsMsgs, &a)
		}},
		rung{"hypertree.PKFromSigBatch", 100, func() {
			copy(roots, forsPKs)
			hypertree.PKFromSigBatch(ctx, sha2.Lanes, roots, &htSigs, &treeIdxs, &leafIdxs)
		}},
		rung{"spx.Verifier.VerifyBatch.128f", 30, func() { v.VerifyBatch(okBuf, msgs[:sha2.Lanes], sigs[:sha2.Lanes]) }},
		rung{"cpuref.VerifyBatch.1T", 20, l.verifyAll(bv, msgs, sigs, 1)},
		rung{"cpuref.VerifyBatch.128f", 10, l.verifyAll(bv, msgs, sigs, nproc())},
	)
	for j := 0; j < sha2.Lanes; j++ {
		if !bytes.Equal(roots[j*p.N:(j+1)*p.N], sk.Root) {
			l.failed++ // a pooled valid signature must climb to the public root
		}
	}
	per := 1e3 * sha2.Lanes // ns per lane group -> us per signature
	m["fors.pk_from_sig_batch_us_per_sig"], m["wots.pk_from_sig_batch_us_per_sig"] = t[0]/per, t[1]/per
	m["hypertree.pk_from_sig_batch_us_per_sig"], m["spx.verify_batch_us_per_sig.128f"] = t[2]/per, t[3]/per
	n := float64(len(msgs))
	m["cpuref.verify_per_s.128f"] = n * 1e9 / t[5]
	m["cpuref.verify_scaling_eff"] = t[4] / t[5] / float64(nproc())
	m["client.ladder_verify_gap_share"] = gap(m["hashes.hmsg_ns"]+(t[0]+t[2])/sha2.Lanes, t[4]/n)
}

// verifyAll is one BatchVerifier call over valid pairs; a false verdict is a
// failure of the ladder.
func (l *ladder) verifyAll(bv *cpuref.BatchVerifier, msgs, sigs [][]byte, threads int) func() {
	return func() {
		ok, _, _ := bv.VerifyBatch(msgs, sigs, threads)
		for _, v := range ok {
			if !v {
				l.failed++
			}
		}
	}
}

// otherSets times spx and cpuref where the two ladders did not: scalar
// Verify at every set, everything at 192f and 256f, and the allocations of a
// warmed Verifier (which must be none).
func (l *ladder) otherSets() {
	m := l.m
	prefix, counter := l.in.bytes(msgBytes-8), uint64(0)
	okBuf := make([]bool, sha2.Lanes)
	var allocs float64
	for s, tag := range setTags {
		sk := l.in.keys[s]
		msgs, sigs := splitPairs(l.in.pools[s])
		v, i := spx.NewVerifier(&sk.PublicKey), 0
		m["spx.verify_us."+tag] = l.time("spx.Verifier.Verify."+tag, 100, func() {
			if v.Verify(msgs[i%len(msgs)], sigs[i%len(msgs)]) != nil {
				l.failed++
			}
			i++
		}) / 1e3
		allocs += testing.AllocsPerRun(5, func() {
			_ = v.Verify(msgs[0], sigs[0])
			v.VerifyBatch(okBuf, msgs[:sha2.Lanes], sigs[:sha2.Lanes])
		})
		if s == 0 {
			continue
		}
		signer, n := spx.NewSigner(sk), signRound(s)
		m["spx.sign_ms."+tag] = l.time("spx.Signer.Sign."+tag, 10, func() {
			if _, err := signer.Sign(freshMsgs(prefix, &counter, 1)[0], nil); err != nil {
				l.failed++
			}
		}) / 1e6
		m["spx.verify_batch_us_per_sig."+tag] = l.time("spx.Verifier.VerifyBatch."+tag, 30, func() {
			v.VerifyBatch(okBuf, msgs[:sha2.Lanes], sigs[:sha2.Lanes])
		}) / 1e3 / sha2.Lanes
		m["cpuref.sign_per_s."+tag] = float64(n) * 1e9 / l.time("cpuref.SignBatch."+tag, 10, func() {
			if _, _, err := cpuref.SignBatch(sk, freshMsgs(prefix, &counter, n), nproc()); err != nil {
				l.failed++
			}
		})
		bv := cpuref.NewBatchVerifier(&sk.PublicKey)
		m["cpuref.verify_per_s."+tag] = float64(len(msgs)) * 1e9 / l.time("cpuref.VerifyBatch."+tag, 10, l.verifyAll(bv, msgs, sigs, nproc()))
	}
	m["spx.verify_allocs_per_run"] = allocs
}

// core reads the modeled HERO engine: two model figures that must repeat
// exactly, and the host cost of a functional batch whose signatures must
// equal spx.Sign's.
func (l *ladder) core() error {
	p, sk := sets[0], l.in.keys[0]
	gpu, err := herosign.GPUByName("RTX 4090")
	if err != nil {
		return err
	}
	acc, err := herosign.NewAccelerator(p, gpu)
	if err != nil {
		return err
	}
	base, err := herosign.NewBaseline(p, gpu)
	if err != nil {
		return err
	}
	for name, a := range map[string]*herosign.Accelerator{"core.model_kops.128f": acc, "core.model_baseline_kops.128f": base} {
		res, err := a.MeasureBatch(sk, 1024)
		if err != nil {
			return err
		}
		l.m[name] = res.ThroughputKOPS
	}
	n := max(32/l.scale, 2)
	msgs := make([][]byte, n)
	for i := range msgs {
		msgs[i] = l.in.bytes(msgBytes)
	}
	_, end := l.tr.begin(0, 0, "herosign.Accelerator.SignBatch")
	start := time.Now()
	res, err := acc.SignBatch(sk, msgs)
	l.m["core.host_ms_per_sig"] = float64(time.Since(start)) / 1e6 / float64(n)
	end(n)
	if err != nil {
		return err
	}
	for i, msg := range msgs {
		if ref, err := spx.Sign(sk, msg, nil); err != nil || !bytes.Equal(ref, res.Sigs[i]) {
			l.failed++
		}
	}
	return nil
}

// service climbs the four service rungs under the same C clients and the
// same verify request stream: the backend called directly, in-process
// Submit, loopback HTTP, and the front->leaf hop. The rungs take turns, three
// rounds of a short window each, and a rung's figure is the median of its
// rounds, so that a change of machine speed reaches all four alike. A layer's
// tax is its rung's time per operation minus the rung below.
func (l *ladder) service() error {
	in, m := l.in, l.m

	backend := service.NewCPURefBackendMemo(nproc(), memoBytes, true)
	if err := backend.Warm(in.keys[0]); err != nil {
		return err
	}
	he, err := setup(wHTTPVerify, in, nil)
	if err != nil {
		return err
	}
	defer he.close()
	fe, err := setup(wFleetVerify, in, nil)
	if err != nil {
		return err
	}
	defer fe.close()
	keyID := service.KeyID(&in.keys[0].PublicKey)
	names := []string{"backend", "submit", "http", "hop"}
	ops := []opFunc{
		func(_, seq int) opResult {
			vb := in.bodies[seq%len(in.bodies)]
			job := &service.Job{Kind: service.KindVerify}
			job.Msgs, job.Sigs = splitPairs(vb.pairs)
			out, err := backend.RunBatch(context.Background(), in.keys[0], job)
			r := opResult{end: time.Now(), attempted: len(vb.pairs), failed: len(vb.pairs)}
			if err == nil {
				r.failed = wrongVerdicts(out.OK, vb.pairs)
			}
			return r
		},
		func(_, seq int) opResult {
			vb := in.bodies[seq%len(in.bodies)]
			msgs, sigs := splitPairs(vb.pairs)
			r := opResult{attempted: len(vb.pairs), failed: len(vb.pairs)}
			futs, err := he.svc.SubmitVerifyBatchKey(keyID, msgs, sigs)
			got := make([]bool, 0, len(futs))
			for _, f := range futs {
				res, werr := f.Wait(context.Background())
				// A wrong-length signature resolves with an error of its own;
				// like the HTTP handler, read it as the verdict "invalid".
				if werr != nil && !errors.Is(werr, service.ErrSignatureLength) {
					err = werr
				}
				got = append(got, res.Valid)
			}
			r.end = time.Now()
			if err == nil {
				r.failed = wrongVerdicts(got, vb.pairs)
			}
			return r
		},
		he.op,
		fe.op,
	}
	const rounds = 3
	us, alloc := make([][]float64, len(ops)), make([][]float64, len(ops))
	for r := 0; r < rounds; r++ {
		for i, op := range ops {
			_, end := l.tr.begin(0, 0, "rung."+names[i])
			s := summarize(measure(loopSpec{clients: clients()}, l.rung/rounds/5, l.rung/rounds, op, nil))
			end(int(s.okOps))
			l.failed += s.failed
			if s.opsPerS == 0 {
				return fmt.Errorf("ladder: the %s rung completed no operation", names[i])
			}
			us[i], alloc[i] = append(us[i], 1e6/s.opsPerS), append(alloc[i], s.allocKiBPerOp)
		}
	}
	l.rungUs = map[string]float64{}
	for i, name := range names {
		l.rungUs[name] = median(us[i])
	}
	m["service.submit_tax_us_per_op"] = l.rungUs["submit"] - l.rungUs["backend"]
	m["http.tax_us_per_op"] = l.rungUs["http"] - l.rungUs["submit"]
	m["remote.hop_tax_us_per_op"] = l.rungUs["hop"] - l.rungUs["http"]
	m["remote.hop_alloc_kib_per_op"] = median(alloc[3]) - median(alloc[2])
	g := guards(fe)
	for _, name := range []string{"remote.hedges", "remote.failovers", "remote.auth_rejected", "remote.leaf_share_max"} {
		m[name] = g[name]
	}

	// The wire alone: one request body and its answer through encoding/json.
	vb := in.bodies[0]
	var req verifyBatchReq
	req.Messages, req.Signatures = splitPairs(vb.pairs)
	resp, _ := json.Marshal(verifyBatchResp{Valid: make([]bool, len(vb.pairs))})
	pairs := float64(len(vb.pairs))
	m["http.req_kib_per_op"] = float64(len(vb.json)) / 1024 / pairs
	m["http.resp_kib_per_op"] = float64(len(resp)) / 1024 / pairs
	m["http.json_encode_us_per_op"] = l.time("json.Marshal", 200, func() {
		if _, err := json.Marshal(req); err != nil {
			l.failed++
		}
	}) / 1e3 / pairs
	m["http.json_decode_us_per_op"] = l.time("json.Unmarshal", 200, func() {
		var back verifyBatchReq
		if json.Unmarshal(vb.json, &back) != nil {
			l.failed++
		}
	}) / 1e3 / pairs
	return nil
}
