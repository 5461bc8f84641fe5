package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"herosign/internal/spx"
	"herosign/internal/wire"
	"herosign/service"
)

// Backend proxies one leaf server as a service.Backend. Construct through
// Fleet.Backends; the fleet supplies the shared transport, health checker,
// latency tracker and hedge budget.
type Backend struct {
	f    *Fleet
	leaf *leaf
	// busy charges the front end's two in-flight batches for their
	// effective share of the round trips they overlap.
	busy service.BusyClock

	closeOnce sync.Once
}

// Name identifies the leaf in stats and results.
func (b *Backend) Name() string { return "remote(" + b.leaf.host + ")" }

// Capacity reflects the leaf's own admission cap (learned at Warm from its
// /v1/stats), so the front end's AutoQueueLimit stacks sensibly on top of
// the leaf's.
func (b *Backend) Capacity() int {
	b.leaf.mu.Lock()
	defer b.leaf.mu.Unlock()
	if b.leaf.capacity > 0 {
		return b.leaf.capacity
	}
	return 256
}

// PreferredBatch aligns the front end's flush threshold with the leaf's,
// so one proxied batch maps onto whole leaf-side flushes.
func (b *Backend) PreferredBatch() int {
	b.leaf.mu.Lock()
	defer b.leaf.mu.Unlock()
	return b.leaf.prefBatch
}

// Weight is the probe-fed EWMA of the leaf's observed sigs/s, floored at
// Options.MinWeight so an idle-but-healthy leaf stays routable (zero while
// ejected).
func (b *Backend) Weight() float64 { return b.leaf.weight(b.f.opts.MinWeight) }

// Available implements service.Availabler: the router skips this leaf's
// pool while the health checker has it quarantined.
func (b *Backend) Available() bool { return b.leaf.available() }

// Warm pins the leaf to the shard's key domain: it fetches the leaf's
// /v1/keys catalog, requires an entry whose public key is byte-identical
// to the shard key's, and seeds the dispatch weight and capacity hints
// from the leaf's /v1/stats. A leaf launched with a different master key
// (or shard layout) fails here, before any traffic is misrouted.
func (b *Backend) Warm(key *service.PrivateKey) error {
	ctx, cancel := context.WithTimeout(context.Background(), b.f.opts.ProbeTimeout)
	defer cancel()
	wantID := service.KeyID(&key.PublicKey)
	wantPub := key.PublicKey.Bytes()
	catalog, err := b.f.tr.keys(ctx, b.leaf.url)
	if err != nil {
		return fmt.Errorf("remote: warming %s: %w", b.leaf.url, err)
	}
	if catalog.Params != key.Params.Name {
		return fmt.Errorf("remote: leaf %s serves %s, front end wants %s",
			b.leaf.url, catalog.Params, key.Params.Name)
	}
	found := false
	for _, k := range catalog.Keys {
		if k.KeyID == wantID {
			if !bytes.Equal(k.PublicKey, wantPub) {
				return fmt.Errorf("remote: leaf %s key %s has a different public key (key-id collision?)",
					b.leaf.url, wantID)
			}
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("remote: leaf %s does not serve key domain %s — start the leaf with the front end's master key and shard layout",
			b.leaf.url, wantID)
	}

	st, err := b.f.tr.stats(ctx, b.leaf.url)
	if err != nil {
		return fmt.Errorf("remote: warming %s: %w", b.leaf.url, err)
	}
	var seedWeight float64
	capacity := 0
	for _, sh := range st.Shards {
		if sh.KeyID == wantID {
			seedWeight = sh.WeightSigsPerSec
			if sh.QueueLimit > 0 {
				capacity = int(sh.QueueLimit)
			}
		}
	}
	if capacity == 0 {
		capacity = 4 * st.MaxBatch
	}
	var signMsgs int64
	for _, d := range st.Devices {
		signMsgs += d.SignMsgs
	}

	l := b.leaf
	l.mu.Lock()
	l.keyID = wantID
	l.capacity = capacity
	l.prefBatch = st.MaxBatch
	if l.ewmaSigs <= 0 && seedWeight > 0 {
		l.ewmaSigs = seedWeight
	}
	l.lastSignMsgs, l.lastProbe, l.probeSeeded = signMsgs, time.Now(), true
	// A fresh (or re-) warm means the operator believes in this leaf;
	// clear any stale quarantine from a pre-startup probe race.
	l.state = stateHealthy
	l.consecProbeFail, l.consecReqFail = 0, 0
	l.mu.Unlock()
	return nil
}

// RunBatch executes one flushed batch on the fleet: the primary attempt
// goes to this backend's leaf, hedging and failover may involve siblings
// of the same key domain, and the first success wins.
func (b *Backend) RunBatch(ctx context.Context, key *service.PrivateKey, job *service.Job) (*service.BatchOutput, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.leaf.mu.Lock()
	keyID := b.leaf.keyID
	b.leaf.mu.Unlock()
	if keyID == "" {
		return nil, fmt.Errorf("remote: backend %s used before Warm", b.Name())
	}
	// A sign or verify batch is encoded here, once, before any attempt
	// starts: the job's buffers are only good until RunBatch returns, and a
	// hedge or failover attempt that lost the race may still be sending. The
	// encoded bodies are reference-counted and shared by every attempt; they
	// forward the per-message scheduling metadata (remaining deadline in ms
	// as snapshotted at dispatch, tenant API key), so the leaf's EDF ordering
	// and per-tenant accounting see what the front end admitted the work
	// under, and each stays within the leaf's body cap.
	var out *service.BatchOutput
	var err error
	switch job.Kind {
	case service.KindSign:
		bodies := wire.EncodeSignBatch(&wire.SignBatchRequest{Messages: job.Msgs, KeyID: keyID,
			DeadlinesMs: job.DeadlinesMs, Tenants: job.Tenants}, service.MaxBodyBytes)
		defer bodies.Release()
		out, err = b.f.runSign(ctx, b.leaf, bodies, len(job.Msgs), key.Params.SigBytes)
	case service.KindVerify:
		bodies := wire.EncodeVerifyBatch(&wire.VerifyBatchRequest{Messages: job.Msgs, Signatures: job.Sigs, KeyID: keyID,
			DeadlinesMs: job.DeadlinesMs, Tenants: job.Tenants}, service.MaxBodyBytes)
		defer bodies.Release()
		out, err = b.f.runVerify(ctx, b.leaf, bodies, len(job.Msgs))
	case service.KindKeyGen:
		out, err = b.f.runKeyGen(ctx, b.leaf, key.Params, job.Seeds)
	default:
		return nil, fmt.Errorf("remote: unknown job kind %d", job.Kind)
	}
	if err != nil || out == nil {
		return out, err
	}
	// The winning attempt's round trip ended just now; charge the part of
	// it the other in-flight batch has not already been charged for.
	end := time.Now()
	rtt := time.Duration(out.BusyUs) * time.Microsecond
	out.BusyUs = float64(b.busy.Charge(end.Add(-rtt), end).Microseconds())
	return out, nil
}

// RemoteHealth implements service.RemoteHealthReporter for /v1/stats.
func (b *Backend) RemoteHealth() service.RemoteLeafStats {
	l := b.leaf
	l.mu.Lock()
	st := service.RemoteLeafStats{
		URL:              l.url,
		KeyID:            l.keyID,
		State:            l.state.String(),
		EWMASigsPerSec:   l.ewmaSigs,
		LatencyEWMAMs:    l.ewmaLatMs,
		WeightSigsPerSec: l.ewmaSigs,
	}
	if st.WeightSigsPerSec < b.f.opts.MinWeight {
		st.WeightSigsPerSec = b.f.opts.MinWeight
	}
	if l.state == stateEjected {
		st.WeightSigsPerSec = 0
	}
	l.mu.Unlock()
	st.Probes = l.probes.Load()
	st.ProbeFailures = l.probeFailures.Load()
	st.Ejections = l.ejections.Load()
	st.PrimarySends = l.primarySends.Load()
	st.HedgesSent = l.hedgesSent.Load()
	st.HedgeWins = l.hedgeWins.Load()
	st.Failovers = l.failovers.Load()
	st.Errors = l.errorsTotal.Load()
	st.Overloads = l.overloads.Load()
	return st
}

// Close releases this backend's fleet reference; the router calls it after
// the pool drains, and the last backend's close stops the probe loop.
func (b *Backend) Close() error {
	b.closeOnce.Do(b.f.release)
	return nil
}

// pickSibling chooses a failover/hedge target serving the same key domain:
// available, not yet attempted, least in flight (ties broken by weight).
func (f *Fleet) pickSibling(keyID string, attempted map[*leaf]bool) *leaf {
	var best *leaf
	var bestInflight int64
	var bestWeight float64
	for _, l := range f.leafList() {
		if attempted[l] || !l.available() {
			continue
		}
		l.mu.Lock()
		match := l.keyID == keyID
		w := l.ewmaSigs
		l.mu.Unlock()
		if !match {
			continue
		}
		inflight := l.inflight.Load()
		if best == nil || inflight < bestInflight ||
			(inflight == bestInflight && w > bestWeight) {
			best, bestInflight, bestWeight = l, inflight, w
		}
	}
	return best
}

// attemptResult is one leaf's answer for a proxied sign batch.
type attemptResult struct {
	leaf  *leaf
	sigs  [][]byte
	dur   time.Duration
	err   error
	hedge bool
}

// runSign proxies one sign batch with hedging and failover. The first
// successful attempt resolves the batch; losing attempts are canceled
// (the leaf may still complete the work — that redundancy is the price of
// the tail cut, which is why the hedge budget is capped).
func (f *Fleet) runSign(ctx context.Context, primary *leaf, bodies wire.Bodies, n, sigBytes int) (*service.BatchOutput, error) {
	runCtx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	keyID := func(l *leaf) string {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.keyID
	}
	maxAttempts := f.maxAttempts()
	results := make(chan attemptResult, maxAttempts)
	attempted := make(map[*leaf]bool, maxAttempts)
	pending := 0

	send := func(l *leaf, hedge bool) {
		attempted[l] = true
		pending++
		l.inflight.Add(1)
		bodies.Retain() // before the goroutine: it may start after runSign has returned
		go func() {
			defer bodies.Release()
			actx, cancel := context.WithTimeout(runCtx, f.opts.RequestTimeout)
			defer cancel()
			t0 := time.Now()
			sigs, err := f.tr.signBatch(actx, l.url, bodies, n, sigBytes)
			dur := time.Since(t0)
			l.inflight.Add(-1)
			canceled := runCtx.Err() != nil && err != nil
			switch {
			case canceled:
				// The race was decided elsewhere; a canceled loser says
				// nothing about the leaf's health.
			case err == nil:
				f.tracker.add(dur)
				l.observeSuccess(f.opts, dur, n)
			case errors.Is(err, service.ErrOverloaded):
				l.observeOverload()
			case hardFailure(err):
				l.observeHardFailure(f.opts)
			default:
				l.observeSoftFailure()
			}
			results <- attemptResult{leaf: l, sigs: sigs, dur: dur, err: err, hedge: hedge}
		}()
	}

	primary.primarySends.Add(1)
	f.budget.recordPrimary()
	send(primary, false)

	// Arm the hedge timer from the adaptive percentile of recent
	// completions; dormant until the tracker has seen enough traffic.
	var hedgeCh <-chan time.Time
	if f.opts.HedgePercentile > 0 {
		if d, ok := f.tracker.percentile(f.opts.HedgePercentile, f.opts.HedgeMinSamples); ok {
			timer := time.NewTimer(d)
			defer timer.Stop()
			hedgeCh = timer.C
		}
	}

	var overloadMax time.Duration
	sawOverload := false
	var lastErr error
	for pending > 0 {
		select {
		case res := <-results:
			pending--
			if res.err == nil {
				if res.hedge {
					res.leaf.hedgeWins.Add(1)
				}
				return &service.BatchOutput{
					Sigs:   res.sigs,
					BusyUs: float64(res.dur.Microseconds()),
				}, nil
			}
			var over *service.OverloadError
			if errors.As(res.err, &over) {
				sawOverload = true
				if over.RetryAfter > overloadMax {
					overloadMax = over.RetryAfter
				}
			} else {
				lastErr = res.err
			}
			// Failover: with no attempt left in flight and budget for
			// another leaf, retry the batch on a sibling. Does not spend
			// hedge budget — this is correctness rerouting, not tail
			// trimming.
			if pending == 0 && retryable(res.err) && len(attempted) < maxAttempts {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				if sib := f.pickSibling(keyID(primary), attempted); sib != nil {
					res.leaf.failovers.Add(1)
					send(sib, false)
				}
			}
		case <-hedgeCh:
			hedgeCh = nil
			if len(attempted) < maxAttempts && f.budget.tryAcquire() {
				if sib := f.pickSibling(keyID(primary), attempted); sib != nil {
					primary.hedgesSent.Add(1)
					send(sib, true)
				}
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// Every attempted leaf failed. Overload wins the error ranking: it is
	// retryable by the client, and it must carry the *leaves'* drain
	// estimate (the max across attempted leaves), not one recomputed from
	// the front end's own queue.
	if sawOverload {
		return nil, &service.OverloadError{Scope: "leaf", RetryAfter: overloadMax}
	}
	return nil, lastErr
}

// runFailover executes op against the primary, then against siblings on
// retryable errors — the non-hedged path shared by verify and keygen.
func (f *Fleet) runFailover(ctx context.Context, primary *leaf,
	op func(ctx context.Context, l *leaf) error) error {
	l := primary
	maxAttempts := f.maxAttempts()
	attempted := make(map[*leaf]bool, maxAttempts)
	var overloadMax time.Duration
	sawOverload := false
	var lastErr error
	for len(attempted) < maxAttempts && l != nil {
		attempted[l] = true
		l.inflight.Add(1)
		actx, cancel := context.WithTimeout(ctx, f.opts.RequestTimeout)
		t0 := time.Now()
		err := op(actx, l)
		cancel()
		dur := time.Since(t0)
		l.inflight.Add(-1)
		if err == nil {
			l.observeSuccess(f.opts, dur, 1)
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var over *service.OverloadError
		switch {
		case errors.As(err, &over):
			l.observeOverload()
			sawOverload = true
			if over.RetryAfter > overloadMax {
				overloadMax = over.RetryAfter
			}
		case hardFailure(err):
			l.observeHardFailure(f.opts)
			lastErr = err
		default:
			l.observeSoftFailure()
			return err // 4xx: retrying elsewhere cannot help
		}
		if !retryable(err) {
			return err
		}
		prev := l
		l.mu.Lock()
		kid := l.keyID
		l.mu.Unlock()
		l = f.pickSibling(kid, attempted)
		if l != nil {
			prev.failovers.Add(1)
		}
	}
	if sawOverload {
		return &service.OverloadError{Scope: "leaf", RetryAfter: overloadMax}
	}
	return lastErr
}

func (f *Fleet) runVerify(ctx context.Context, primary *leaf, bodies wire.Bodies, n int) (*service.BatchOutput, error) {
	primary.primarySends.Add(1)
	var out *service.BatchOutput
	err := f.runFailover(ctx, primary, func(actx context.Context, l *leaf) error {
		t0 := time.Now()
		ok, err := f.tr.verifyBatch(actx, l.url, bodies, n)
		if err != nil {
			return err
		}
		out = &service.BatchOutput{OK: ok, BusyUs: float64(time.Since(t0).Microseconds())}
		return nil
	})
	return out, err
}

func (f *Fleet) runKeyGen(ctx context.Context, primary *leaf, p *service.Params, seeds []service.SeedTriple) (*service.BatchOutput, error) {
	primary.primarySends.Add(1)
	var out *service.BatchOutput
	err := f.runFailover(ctx, primary, func(actx context.Context, l *leaf) error {
		t0 := time.Now()
		raw, err := f.tr.keygen(actx, l.url, seeds)
		if err != nil {
			return err
		}
		keys := make([]*service.PrivateKey, len(raw))
		for i, kb := range raw {
			sk, err := spx.ParsePrivateKey(p, kb)
			if err != nil {
				return &StatusError{URL: l.url, Status: 200,
					Msg: fmt.Sprintf("keygen key %d does not parse: %v", i, err)}
			}
			keys[i] = sk
		}
		out = &service.BatchOutput{Keys: keys, BusyUs: float64(time.Since(t0).Microseconds())}
		return nil
	})
	return out, err
}
