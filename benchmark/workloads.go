package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"herosign/internal/cpuref"
	"herosign/internal/spx"
	"herosign/service"
	"herosign/service/remote"
)

// Mirrors of the service's JSON wire types (they are unexported there).
// []byte fields travel as standard base64.
type verifyBatchReq struct {
	Messages   [][]byte `json:"messages"`
	Signatures [][]byte `json:"signatures"`
}

type verifyBatchResp struct {
	Valid []bool `json:"valid"`
}

type signBatchReq struct {
	Messages [][]byte `json:"messages"`
}

type signBatchResp struct {
	Signatures [][]byte `json:"signatures"`
}

const (
	memoBytes   = 8 << 20 // hypertree memo budget of the service workloads
	signLimit   = 50 * time.Millisecond
	fleetSecret = "herosign-benchmark-fleet"

	// Headers that join a server-side span to the client span that caused it.
	reqHeader  = "X-Bench-Req"
	spanHeader = "X-Bench-Span"
)

// clients is C: the closed-loop callers and the HTTP connection cap.
func clients() int { return min(nproc(), 4) }

// signed is one signature the program produced, kept for checking after the
// window.
type signed struct {
	set      int
	msg, sig []byte
}

// env is one set-up program under test and the request that drives it.
type env struct {
	spec  loopSpec
	op    opFunc
	close func()

	// svc is the service whose Stats() the service.* counters are read from
	// (the front end on fleet-verify); nil on the batch workloads. leaves are
	// the fleet's leaf services.
	svc    *service.Service
	leaves []*service.Service

	mu     sync.Mutex
	signed []signed
}

func (e *env) keep(set int, msgs, sigs [][]byte) {
	e.mu.Lock()
	for i := range msgs {
		e.signed = append(e.signed, signed{set, msgs[i], sigs[i]})
	}
	e.mu.Unlock()
}

// programKeys is the program's side of key derivation, from the generated
// seed triples.
func programKeys(in *inputs, n int) ([]*spx.PrivateKey, error) {
	keys := make([]*spx.PrivateKey, n)
	for s := range keys {
		t := in.triples[s]
		sk, err := spx.KeyFromSeeds(sets[s], t[0], t[1], t[2])
		if err != nil {
			return nil, err
		}
		keys[s] = sk
	}
	return keys, nil
}

// setup builds the named workload's program and sends it one warm request.
// Everything here is timed as setup_s.
func setup(name string, in *inputs, tr *tracer) (*env, error) {
	var e *env
	var err error
	switch name {
	case wSignBatch:
		e, err = setupSignBatch(in, tr)
	case wVerifyBatch:
		e, err = setupVerifyBatch(in, tr)
	case wHTTPVerify:
		e, err = setupHTTP(in, tr, false)
	case wHTTPSign:
		e, err = setupHTTP(in, tr, true)
	case wFleetVerify:
		e, err = setupFleet(in, tr)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	e.op(0, 0) // a failure here fails in the window too, where it is counted
	return e, nil
}

// sign-batch: one caller, rounds of cpuref.SignBatch over fresh messages at
// three parameter sets, no memo cache.
func setupSignBatch(in *inputs, tr *tracer) (*env, error) {
	keys, err := programKeys(in, len(sets))
	if err != nil {
		return nil, err
	}
	e := &env{spec: loopSpec{clients: 1}, close: func() {}}
	prefix, counter := in.bytes(msgBytes-8), uint64(0)
	e.op = func(_, _ int) opResult {
		var msgs [][][]byte
		n := 0
		for s := range sets {
			msgs = append(msgs, freshMsgs(prefix, &counter, signRound(s)))
			n += signRound(s)
		}
		sigs := make([][][]byte, len(sets))
		req := tr.newReq()
		root, endRound := tr.begin(req, 0, "cpuref.sign_round")
		failed := 0
		for s := range sets {
			_, end := tr.begin(req, root, "cpuref.SignBatch."+setTags[s])
			var err error
			sigs[s], _, err = cpuref.SignBatch(keys[s], msgs[s], nproc())
			end(len(msgs[s]))
			if err != nil {
				failed += len(msgs[s])
				sigs[s] = nil
			}
		}
		endRound(n)
		r := opResult{end: time.Now(), attempted: n, failed: failed}
		for s := range sets {
			if sigs[s] != nil {
				e.keep(s, msgs[s], sigs[s])
			}
		}
		return r
	}
	return e, nil
}

// verify-batch: one caller, rounds of BatchVerifier.VerifyBatch over a
// pre-signed pool in a fresh order each round, 1 pair in 8 invalid.
func setupVerifyBatch(in *inputs, tr *tracer) (*env, error) {
	keys, err := programKeys(in, len(sets))
	if err != nil {
		return nil, err
	}
	bvs := make([]*cpuref.BatchVerifier, len(sets))
	for s := range sets {
		bvs[s] = cpuref.NewBatchVerifier(&keys[s].PublicKey)
	}
	order := rand.New(rand.NewPCG(in.seed, 2))
	// One round's inputs, refilled in place: what the generator allocates
	// would otherwise count in this workload's small alloc_kib_per_op.
	type roundIn struct {
		pairs      []pair
		msgs, sigs [][]byte
	}
	round := make([]roundIn, len(sets))
	e := &env{spec: loopSpec{clients: 1}, close: func() {}}
	e.op = func(_, _ int) opResult {
		n := 0
		for s := range sets {
			r := &round[s]
			r.pairs, r.msgs, r.sigs = r.pairs[:0], r.msgs[:0], r.sigs[:0]
			for _, j := range order.Perm(len(in.rounds[s])) {
				p := in.rounds[s][j]
				r.pairs, r.msgs, r.sigs = append(r.pairs, p), append(r.msgs, p.msg), append(r.sigs, p.sig)
			}
			n += len(r.pairs)
		}
		got := make([][]bool, len(sets))
		req := tr.newReq()
		root, endRound := tr.begin(req, 0, "cpuref.verify_round")
		for s := range sets {
			_, end := tr.begin(req, root, "cpuref.VerifyBatch."+setTags[s])
			got[s], _, _ = bvs[s].VerifyBatch(round[s].msgs, round[s].sigs, nproc())
			end(len(round[s].msgs))
		}
		endRound(n)
		r := opResult{end: time.Now(), attempted: n}
		for s := range sets {
			r.failed += wrongVerdicts(got[s], round[s].pairs)
		}
		return r
	}
	return e, nil
}

// server is one service behind its own loopback listener.
type server struct {
	svc  *service.Service
	srv  *http.Server
	url  string
	done chan struct{}
}

// tracedBackend records a span around every batch the service hands its
// backend, and forwards the optional interfaces the wrapped cpuref backend
// implements so the service schedules exactly as it would without the
// wrapper.
type tracedBackend struct {
	service.Backend
	tr *tracer
}

func (b tracedBackend) RunBatch(ctx context.Context, key *service.PrivateKey, job *service.Job) (*service.BatchOutput, error) {
	_, end := b.tr.begin(0, 0, "backend.run_batch")
	out, err := b.Backend.RunBatch(ctx, key, job)
	end(len(job.Msgs))
	return out, err
}

func (b tracedBackend) PreferredBatch() int {
	return b.Backend.(service.BatchHinter).PreferredBatch()
}

func (b tracedBackend) MemoStats() (service.MemoStats, bool) {
	return b.Backend.(service.MemoReporter).MemoStats()
}

// serve starts a 128f service on a loopback listener. spanName, with a
// tracer, names the span recorded around every request the handler serves.
func serve(key *spx.PrivateKey, backends []service.Backend, secret string, tr *tracer, spanName string) (*server, error) {
	opts := []service.Option{
		service.WithParams(sets[0]), service.WithKey(key),
		service.WithBackends(backends...), service.WithQueueLimit(service.AutoQueueLimit),
	}
	if secret != "" {
		opts = append(opts, service.WithFleetSecret(secret))
	}
	svc, err := service.New(opts...)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	h := svc.Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
			parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
			_, end := tr.begin(req, parent, spanName)
			inner.ServeHTTP(w, r)
			end(0)
		})
	}
	s := &server{svc: svc, srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed from close
	}()
	return s, nil
}

func (s *server) close() {
	_ = s.srv.Close()
	<-s.done
	_ = s.svc.Close()
}

func cpurefBackend(threads int, memo bool, tr *tracer) service.Backend {
	var b service.Backend
	if memo {
		b = service.NewCPURefBackendMemo(threads, memoBytes, true)
	} else {
		b = service.NewCPURefBackend(threads)
	}
	if tr != nil {
		b = tracedBackend{b, tr}
	}
	return b
}

// poster is the load generator's HTTP side: at most C connections.
type poster struct {
	c  *http.Client
	tr *tracer
}

func newPoster(tr *tracer) *poster {
	c := clients()
	return &poster{tr: tr, c: &http.Client{Transport: &http.Transport{MaxConnsPerHost: c, MaxIdleConnsPerHost: c}}}
}

// post sends body and reads the whole answer. The returned time is when the
// last byte arrived.
func (p *poster) post(req int64, url string, body []byte) (int, []byte, time.Time) {
	root, endReq := p.tr.begin(req, 0, "client.request")
	defer endReq(0)
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Now()
	}
	hr.Header.Set("Content-Type", "application/json")
	rt, endRT := p.tr.begin(req, root, "client.roundtrip")
	if req != 0 {
		hr.Header.Set(reqHeader, strconv.FormatInt(req, 10))
		hr.Header.Set(spanHeader, strconv.FormatInt(rt, 10))
	}
	resp, err := p.c.Do(hr)
	endRT(0)
	if err != nil {
		return 0, nil, time.Now()
	}
	_, endRead := p.tr.begin(req, root, "client.read")
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	endRead(len(b))
	if err != nil {
		return 0, nil, time.Now()
	}
	return resp.StatusCode, b, time.Now()
}

// verifyOp posts the next pooled body to url and compares the verdicts.
func verifyOp(in *inputs, p *poster, url string) opFunc {
	return func(_, seq int) opResult {
		vb := in.bodies[seq%len(in.bodies)]
		req := p.tr.newReq()
		status, body, end := p.post(req, url+"/v1/verify/batch", vb.json)
		r := opResult{end: end, attempted: len(vb.pairs), failed: len(vb.pairs)}
		if status != http.StatusOK {
			return r
		}
		_, endDec := p.tr.begin(req, 0, "client.decode")
		var resp verifyBatchResp
		err := json.Unmarshal(body, &resp)
		endDec(0)
		if err != nil {
			return r
		}
		r.failed = wrongVerdicts(resp.Valid, vb.pairs)
		return r
	}
}

// setupHTTP builds the single-service workloads: http-verify (closed loop,
// C clients) and http-sign (open loop, fresh messages), both over loopback
// TCP against a memo-warmed cpuref service.
func setupHTTP(in *inputs, tr *tracer, sign bool) (*env, error) {
	keys, err := programKeys(in, 1)
	if err != nil {
		return nil, err
	}
	srv, err := serve(keys[0], []service.Backend{cpurefBackend(nproc(), true, tr)}, "", tr, "http.handler")
	if err != nil {
		return nil, err
	}
	p := newPoster(tr)
	e := &env{svc: srv.svc, close: func() { p.c.CloseIdleConnections(); srv.close() }}
	if !sign {
		e.spec = loopSpec{clients: clients()}
		e.op = verifyOp(in, p, srv.url)
		return e, nil
	}
	e.spec = loopSpec{rate: signRate, phase: in.phase, limit: signLimit}
	var next atomic.Int64
	e.op = func(_, _ int) opResult {
		// Arrivals take bodies in order across every window of the run, so
		// no message is ever signed twice.
		k := int(next.Add(1) - 1)
		if k >= len(in.signs) {
			return opResult{end: time.Now(), attempted: signPerReq, failed: signPerReq}
		}
		sb := in.signs[k]
		req := p.tr.newReq()
		status, body, end := p.post(req, srv.url+"/v1/sign/batch", sb.json)
		r := opResult{end: end, attempted: signPerReq, failed: signPerReq}
		var resp signBatchResp
		if status != http.StatusOK || json.Unmarshal(body, &resp) != nil || len(resp.Signatures) != signPerReq {
			return r
		}
		r.failed = 0
		e.keep(0, sb.msgs, resp.Signatures)
		return r
	}
	return e, nil
}

// setupFleet builds fleet-verify: a front end with no local backend whose
// backends are a remote fleet over two in-process leaf services, fleet
// secret on both sides, hedging off.
func setupFleet(in *inputs, tr *tracer) (*env, error) {
	keys, err := programKeys(in, 1)
	if err != nil {
		return nil, err
	}
	var servers []*server
	closeAll := func() {
		for i := len(servers) - 1; i >= 0; i-- {
			servers[i].close()
		}
	}
	e := &env{spec: loopSpec{clients: clients()}}
	var urls []string
	for i := 0; i < 2; i++ {
		leaf, err := serve(keys[0], []service.Backend{cpurefBackend(1, false, tr)}, fleetSecret, tr, "leaf.handler")
		if err != nil {
			closeAll()
			return nil, err
		}
		servers, urls, e.leaves = append(servers, leaf), append(urls, leaf.url), append(e.leaves, leaf.svc)
	}
	fleet, err := remote.NewFleet(urls, remote.Options{Secret: fleetSecret, HedgePercentile: 0, LatencyZLimit: -1})
	if err != nil {
		closeAll()
		return nil, err
	}
	front, err := serve(keys[0], fleet.Backends(), "", tr, "http.handler")
	if err != nil {
		fleet.Close()
		closeAll()
		return nil, err
	}
	servers = append(servers, front) // closed first: its backends release the fleet
	p := newPoster(tr)
	e.svc, e.close = front.svc, func() { p.c.CloseIdleConnections(); closeAll() }
	e.op = verifyOp(in, p, front.url)

	// Probe convergence: every leaf probed at least once and healthy.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ready := 0
		for _, l := range front.svc.Stats().RemoteLeaves {
			if l.State == "healthy" && l.Probes > 0 {
				ready++
			}
		}
		if ready == len(urls) {
			return e, nil
		}
		if time.Now().After(deadline) {
			e.close()
			return nil, fmt.Errorf("fleet did not converge: %d of %d leaves healthy", ready, len(urls))
		}
		time.Sleep(5 * time.Millisecond)
	}
}
