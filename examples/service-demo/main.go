// Service demo: an open-loop mixed workload against the signing service on
// a heterogeneous 2-shard fleet (simulated RTX 4090 + real-CPU lane
// engine), followed by an overload scenario against a bounded service.
//
// Phase 1 — mixed fleet:
//
//  1. submits -n individual sign requests (plus keygens) open-loop and
//     lets the coalescer flush them into batches across the two shards;
//  2. checks every signature verifies under the key domain named in its
//     result (each shard owns its own derived keypair), byte-compares the
//     master-shard sample against the CPU reference Sign, and verifies a
//     slice back through the service (routed by key ID and by fan-out);
//  3. compares the fleet's modeled makespan against issuing n sequential
//     SignBatch(1) calls on one device — the paper's batching argument,
//     restated as a serving-layer speedup;
//  4. fetches /v1/stats over HTTP and prints per-backend stats, dispatch
//     weights, the batch-size histogram and — since the cpuref backend runs
//     with a hypertree memo cache (-memo-mb) — the per-shard cache
//     hit/miss/residency counters.
//
// Phase 2 — overload: a service bounded by -queue-limit per shard is hit
// over HTTP with 2x its total admission capacity at once. The demo asserts
// the overflow is answered with 429 + Retry-After (so queues never grow
// beyond the caps) while the p99 latency of admitted requests stays
// bounded, and prints the shed/rejected counters from /v1/stats.
//
// Phase 3 — tenant isolation: a service with per-tenant token buckets
// (-tenant-rate equivalent) takes a flood from one API key while a second
// key submits paced requests with generous X-Request-Deadline headers. The
// demo asserts the quiet tenant is untouched (every request 200, zero rate
// rejections) while the hot tenant absorbs the 429s, fires one deliberately
// hopeless 1ms-deadline request into the backlog, and prints the per-tenant
// counter table from /v1/stats.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"herosign"
	"herosign/service"
)

func main() {
	n := flag.Int("n", 400, "open-loop sign submissions (phase 1)")
	verifies := flag.Int("verifies", 100, "verify submissions mixed in")
	keygens := flag.Int("keygens", 32, "keygen submissions mixed in")
	queueLimit := flag.Int("queue-limit", 24, "per-shard admission cap for the overload phase")
	memoMB := flag.Int("memo-mb", 8, "hypertree memo cache budget in MiB for the cpuref backend (0 = off)")
	flag.Parse()

	p := herosign.SPHINCSPlus128f
	sk, err := herosign.GenerateKey(p)
	if err != nil {
		log.Fatal(err)
	}
	dev, err := herosign.GPUByName("RTX 4090")
	if err != nil {
		log.Fatal(err)
	}
	cpuThreads := runtime.GOMAXPROCS(0)

	cpuBackend := func() herosign.Backend {
		if *memoMB > 0 {
			return herosign.NewCPURefBackendMemo(cpuThreads, int64(*memoMB)<<20, true)
		}
		return herosign.NewCPURefBackend(cpuThreads)
	}
	mixedOpts := func() []herosign.ServiceOption {
		return []herosign.ServiceOption{
			herosign.WithServiceParams(p),
			herosign.WithServiceKey(sk),
			herosign.WithServiceDevices(dev),
			herosign.WithBackend(cpuBackend()),
			herosign.WithShards(2),
			herosign.WithServiceFlushDeadline(2 * time.Millisecond),
		}
	}

	svc, err := herosign.NewService(mixedOpts()...)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("service-demo phase 1: %s, 2 shards over [%s, cpuref-%dt], open-loop %d signs + %d verifies + %d keygens\n",
		p.Name, dev.Name, cpuThreads, *n, *verifies, *keygens)
	for _, sh := range svc.Shards() {
		fmt.Printf("  shard %d key=%s backends=%v\n", sh.ID, sh.KeyID, sh.Backends)
	}

	// --- Open-loop submission: fire every request without waiting. ---
	start := time.Now()
	msgs := make([][]byte, *n)
	futs := make([]*herosign.Future, *n)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("service-demo message %d", i))
		fut, err := svc.Submit(herosign.Request{Kind: herosign.KindSign, Msg: msgs[i]})
		if err != nil {
			log.Fatal(err)
		}
		futs[i] = fut
	}
	var keyFuts []*herosign.Future
	for i := 0; i < *keygens; i++ {
		fut, err := svc.Submit(herosign.Request{Kind: herosign.KindKeyGen})
		if err != nil {
			log.Fatal(err)
		}
		keyFuts = append(keyFuts, fut)
	}

	ctx := context.Background()
	sigs := make([][]byte, *n)
	keyIDs := make([]string, *n)
	perShard := map[string]int{}
	for i, fut := range futs {
		res, err := fut.Wait(ctx)
		if err != nil {
			log.Fatalf("sign %d: %v", i, err)
		}
		sigs[i], keyIDs[i] = res.Sig, res.KeyID
		perShard[res.KeyID]++
	}
	for i, fut := range keyFuts {
		if _, err := fut.Wait(ctx); err != nil {
			log.Fatalf("keygen %d: %v", i, err)
		}
	}

	// Verify a slice of the signatures back through the service, routed by
	// key ID (with every 8th message tampered) — the mixed part of the
	// workload — plus a few through the multi-shard fan-out path.
	var verFuts []*herosign.Future
	tampered := 0
	for i := 0; i < *verifies && i < *n; i++ {
		m := msgs[i]
		if i%8 == 3 {
			m = append([]byte("tampered "), m...)
			tampered++
		}
		fut, err := svc.Submit(herosign.Request{Kind: herosign.KindVerify, KeyID: keyIDs[i], Msg: m, Sig: sigs[i]})
		if err != nil {
			log.Fatal(err)
		}
		verFuts = append(verFuts, fut)
	}
	badVerdicts := 0
	for i, fut := range verFuts {
		res, err := fut.Wait(ctx)
		if err != nil {
			log.Fatalf("verify %d: %v", i, err)
		}
		if res.Valid != (i%8 != 3) {
			badVerdicts++
		}
	}
	for i := 0; i < 4 && i < *n; i++ {
		ok, err := svc.Verify(ctx, msgs[i], sigs[i]) // fan-out: no key ID
		if err != nil || !ok {
			log.Fatalf("fan-out verify %d failed: ok=%v err=%v", i, ok, err)
		}
	}
	wall := time.Since(start)

	// --- Correctness: every signature verifies under its key domain; the
	// master-shard sample is byte-identical to the CPU reference. ---
	masterID := service.KeyID(svc.PublicKey())
	checked := 0
	for i, sig := range sigs {
		pk, err := svc.PublicKeyFor(keyIDs[i])
		if err != nil {
			log.Fatalf("signature %d names unknown key %q", i, keyIDs[i])
		}
		if err := herosign.Verify(pk, msgs[i], sig); err != nil {
			log.Fatalf("signature %d failed verification: %v", i, err)
		}
		if keyIDs[i] == masterID && checked < 8 {
			ref, err := herosign.Sign(sk, msgs[i])
			if err != nil {
				log.Fatal(err)
			}
			if !bytes.Equal(ref, sig) {
				log.Fatalf("signature %d differs from the CPU reference", i)
			}
			checked++
		}
	}
	if badVerdicts > 0 {
		log.Fatalf("%d verify verdicts were wrong", badVerdicts)
	}
	if len(perShard) < 2 {
		log.Fatalf("only one shard signed (%v); expected both key domains in use", perShard)
	}
	fmt.Printf("correctness: %d/%d signatures verify under their key domains %v; "+
		"%d master-shard signatures byte-identical to Sign; all %d tampered verifies rejected\n",
		*n, *n, perShard, checked, tampered)

	// --- Throughput: coalesced fleet vs sequential SignBatch(1). The sim
	// is deterministic, so one measured single-message batch stands for
	// all n sequential calls. ---
	solo, err := herosign.NewAccelerator(p, dev)
	if err != nil {
		log.Fatal(err)
	}
	one, err := solo.SignBatch(sk, msgs[:1])
	if err != nil {
		log.Fatal(err)
	}
	baselineSec := float64(*n) * one.TotalUs / 1e6

	// --- Stats over the HTTP front end. ---
	ts := httptest.NewServer(svc.Handler())
	st := fetchStats(ts.URL)
	ts.Close()

	fmt.Printf("\n/v1/stats (params=%s, max_batch=%d, deadline=%s):\n", st.Params, st.MaxBatch, st.DeadlineM)
	for _, d := range st.Devices {
		fmt.Printf("  worker %d shard %d %-10s  batches=%-3d msgs=%-4d s/v/k=%d/%d/%d  "+
			"busy=%.2fms  weight %.0f sigs/s\n",
			d.Worker, d.Shard, d.Device, d.Batches, d.Messages, d.SignMsgs, d.VerifyMsgs, d.KeyGenMsgs,
			d.ModeledBusySec*1e3, d.WeightSigsPerSec)
	}
	fmt.Printf("  batch-size histogram (le:count):")
	for _, b := range st.BatchSizeHist {
		fmt.Printf(" %s:%d", b.Le, b.Count)
	}
	fmt.Println()
	for _, ss := range st.Shards {
		if ss.Memo == nil {
			continue
		}
		m := ss.Memo
		total := m.Hits + m.Misses
		hitPct := 0.0
		if total > 0 {
			hitPct = 100 * float64(m.Hits) / float64(total)
		}
		fmt.Printf("  shard %d memo: hits=%d misses=%d (%.1f%% hit) wots_hits=%d evictions=%d "+
			"resident=%.1f/%.0fMiB pinned_layers=%d warmed=%d\n",
			ss.Shard, m.Hits, m.Misses, hitPct, m.WOTSHits, m.Evictions,
			float64(m.ResidentBytes)/(1<<20), float64(m.BudgetBytes)/(1<<20),
			m.PinnedLayers, m.WarmedEntries)
	}

	speedup := baselineSec / st.ModeledMakespanSec
	fmt.Printf("\nfleet makespan: %.2fms (%.0f sign/s) vs %d×SignBatch(1) on %s: %.2fms — %.1f× speedup\n",
		st.ModeledMakespanSec*1e3, st.ModeledSignPerSec, *n, dev.Name, baselineSec*1e3, speedup)
	if speedup <= 1 {
		log.Fatalf("coalesced fleet (%.1f×) did not beat sequential SignBatch(1)", speedup)
	}
	fmt.Printf("(host wall time for phase 1: %v)\n", wall.Round(time.Millisecond))

	if err := svc.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("phase 1 service drained cleanly")

	// ------------------------------------------------------------------
	// Phase 2 — overload against a bounded service: 2x admission capacity
	// at once over HTTP; overflow must 429 while admitted p99 stays sane.
	// ------------------------------------------------------------------
	bounded, err := herosign.NewService(append(mixedOpts(),
		herosign.WithQueueLimit(*queueLimit),
		herosign.WithServiceMaxBatch(16),
		herosign.WithDrainDeadline(10*time.Second),
	)...)
	if err != nil {
		log.Fatal(err)
	}
	capacity := 2 * *queueLimit // two shards
	offered := 2 * capacity
	fmt.Printf("\nservice-demo phase 2: overload — capacity %d (2 shards × %d), offering %d concurrent signs over HTTP\n",
		capacity, *queueLimit, offered)

	ts2 := httptest.NewServer(bounded.Handler())
	client := &http.Client{Timeout: 2 * time.Minute}
	type outcome struct {
		status  int
		latency time.Duration
		retry   string
	}
	outcomes := make([]outcome, offered)
	var wg sync.WaitGroup
	for i := 0; i < offered; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(map[string]any{"message": []byte(fmt.Sprintf("overload %d", i))})
			t0 := time.Now()
			resp, err := client.Post(ts2.URL+"/v1/sign", "application/json", bytes.NewReader(body))
			if err != nil {
				log.Printf("overload request %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			outcomes[i] = outcome{resp.StatusCode, time.Since(t0), resp.Header.Get("Retry-After")}
		}(i)
	}
	wg.Wait()

	var admitted, rejected, other int
	var lat []time.Duration
	retryAfterSeen := false
	for _, o := range outcomes {
		switch o.status {
		case http.StatusOK:
			admitted++
			lat = append(lat, o.latency)
		case http.StatusTooManyRequests:
			rejected++
			if o.retry != "" && o.retry != "0" {
				retryAfterSeen = true
			}
		default:
			other++
		}
	}
	st2 := fetchStats(ts2.URL)
	ts2.Close()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var p50, p99 time.Duration
	if len(lat) > 0 {
		p50, p99 = lat[len(lat)/2], lat[len(lat)*99/100]
	}
	fmt.Printf("overload: admitted=%d rejected(429)=%d other=%d; admitted p50=%v p99=%v\n",
		admitted, rejected, other, p50.Round(time.Millisecond), p99.Round(time.Millisecond))
	fmt.Printf("stats: shed_policy=%s rejected_total=%d shed_total=%d\n",
		st2.ShedPolicy, st2.RejectedTotal, st2.ShedTotal)
	for _, ss := range st2.Shards {
		fmt.Printf("  shard %d key=%s depth=%d/%d rejected=%d shed=%d\n",
			ss.Shard, ss.KeyID, ss.QueueDepth, ss.QueueLimit, ss.Rejected, ss.Shed)
	}

	switch {
	case other > 0:
		log.Fatalf("%d requests failed with unexpected statuses", other)
	case rejected == 0:
		log.Fatalf("2× overload produced no 429s — admission control did not engage")
	case admitted == 0:
		log.Fatal("overload rejected everything — admission control over-triggered")
	case !retryAfterSeen:
		log.Fatal("429 responses carried no Retry-After header")
	case p99 > 30*time.Second:
		log.Fatalf("admitted p99 %v is unbounded-queue territory", p99)
	}
	for _, ss := range st2.Shards {
		if ss.QueueDepth > ss.QueueLimit {
			log.Fatalf("shard %d queue depth %d exceeds its cap %d", ss.Shard, ss.QueueDepth, ss.QueueLimit)
		}
	}

	if err := bounded.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("overload service drained cleanly; queues stayed within their caps")

	// ------------------------------------------------------------------
	// Phase 3 — tenant isolation: per-tenant token buckets keep a flooding
	// API key from starving a paced one.
	// ------------------------------------------------------------------
	const (
		tenantRate  = 50 // messages/s admitted per API key
		tenantBurst = 8
		hotFlood    = 120
		quietN      = 15
	)
	metered, err := herosign.NewService(append(mixedOpts(),
		herosign.WithTenantRate(tenantRate),
		herosign.WithTenantBurst(tenantBurst),
		herosign.WithServiceMaxBatch(16),
		herosign.WithDrainDeadline(10*time.Second),
	)...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nservice-demo phase 3: tenant isolation — bucket %d msgs/s burst %d per API key; "+
		"%d-request flood from \"hot\" vs %d paced requests from \"quiet\"\n",
		tenantRate, tenantBurst, hotFlood, quietN)

	ts3 := httptest.NewServer(metered.Handler())
	post := func(tenant, deadlineMs string, msg []byte) int {
		body, _ := json.Marshal(map[string]any{"message": msg})
		req, err := http.NewRequest(http.MethodPost, ts3.URL+"/v1/sign", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(service.TenantHeader, tenant)
		if deadlineMs != "" {
			req.Header.Set(service.DeadlineHeader, deadlineMs)
		}
		resp, err := client.Do(req)
		if err != nil {
			log.Printf("tenant %s request: %v", tenant, err)
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	var hotOK, hot429, hotOther, probeStatus int64
	var tenantWG sync.WaitGroup
	for i := 0; i < hotFlood; i++ {
		tenantWG.Add(1)
		go func(i int) {
			defer tenantWG.Done()
			switch post("hot", "", []byte(fmt.Sprintf("hot flood %d", i))) {
			case http.StatusOK:
				atomic.AddInt64(&hotOK, 1)
			case http.StatusTooManyRequests:
				atomic.AddInt64(&hot429, 1)
			default:
				atomic.AddInt64(&hotOther, 1)
			}
		}(i)
	}
	// A 1ms deadline fired into the flood: pre-rejected (429) against the
	// backlog, expired in queue (504), or — on a fast box that already
	// drained — signed in time (200). Anything else is a bug.
	tenantWG.Add(1)
	go func() {
		defer tenantWG.Done()
		time.Sleep(2 * time.Millisecond)
		atomic.StoreInt64(&probeStatus, int64(post("probe", "1", []byte("hopeless deadline"))))
	}()

	quietOK := 0
	for i := 0; i < quietN; i++ {
		if post("quiet", "30000", []byte(fmt.Sprintf("quiet %d", i))) == http.StatusOK {
			quietOK++
		}
		time.Sleep(25 * time.Millisecond)
	}
	tenantWG.Wait()

	st3 := fetchStats(ts3.URL)
	ts3.Close()
	fmt.Printf("hot: %d ok, %d rate-limited (429), %d other; quiet: %d/%d ok; 1ms-deadline probe: %d\n",
		hotOK, hot429, hotOther, quietOK, quietN, probeStatus)
	fmt.Println("per-tenant counters from /v1/stats:")
	for _, tn := range st3.Tenants {
		fmt.Printf("  %-8s admitted=%-4d done=%-4d rej_rate=%-4d rej_deadline=%-2d expired=%-2d avg=%.2fms\n",
			tn.Tenant, tn.Admitted, tn.Done, tn.RejectedRate, tn.RejectedDeadline, tn.Expired, tn.AvgLatencyMs)
	}

	var quietStats, hotStats *service.TenantStats
	for i := range st3.Tenants {
		switch st3.Tenants[i].Tenant {
		case "quiet":
			quietStats = &st3.Tenants[i]
		case "hot":
			hotStats = &st3.Tenants[i]
		}
	}
	switch {
	case hotOther > 0:
		log.Fatalf("%d hot requests failed with unexpected statuses", hotOther)
	case quietOK != quietN:
		log.Fatalf("quiet tenant lost requests under the flood: %d/%d ok", quietOK, quietN)
	case hot429 == 0:
		log.Fatal("the flood was never rate-limited — tenant buckets did not engage")
	case hotOK == 0:
		log.Fatal("the hot tenant was starved outright; its burst should have been admitted")
	case hotStats == nil || hotStats.RejectedRate == 0:
		log.Fatalf("hot tenant counters show no rate rejections: %+v", hotStats)
	case quietStats == nil || quietStats.RejectedRate != 0 || quietStats.Done != int64(quietN):
		log.Fatalf("quiet tenant counters are off: %+v", quietStats)
	}
	switch probeStatus {
	case http.StatusOK, http.StatusTooManyRequests, http.StatusGatewayTimeout:
	default:
		log.Fatalf("1ms-deadline probe returned %d; want 200, 429 or 504", probeStatus)
	}

	if err := metered.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("tenant service drained cleanly; the quiet tenant never saw the flood")
}

func fetchStats(base string) service.Stats {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	return st
}
