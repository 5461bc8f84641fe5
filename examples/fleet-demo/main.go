// Fleet demo: a two-level fleet-of-fleets with authenticated dynamic
// membership, losing a leaf mid-run and admitting another.
//
// Three in-process "leaf" herosign-serve instances (each a complete signing
// service with its own simulated-GPU fleet and HTTP front end) announce
// themselves to a front-end service that starts with ZERO backends and
// admits leaves at runtime through the fleet membership protocol
// (herosign/service/remote: Registrar on the front, Announcer on each
// leaf). Every fleet-internal request — proxy calls, probes, join/leave —
// is HMAC-authenticated with a shared secret. All leaves share one master
// key, so the derived key domains line up and any leaf can serve any batch.
//
// The demo drives a closed-loop workload through the front end and:
//
//  1. verifies an UNSIGNED join request is rejected 401 and counted, while
//     the three announcers join successfully and the front grows from zero
//     to three backends without a restart;
//  2. measures steady-state goodput and p99 latency on the full 3-leaf
//     fleet;
//  3. crashes one leaf mid-run (its HTTP listener closes AND its announcer
//     stops heartbeating — no leave is sent) and asserts the health
//     checker ejects it within one probe interval plus slack, then the
//     registrar retires the dead member when its lease expires — while
//     failover reroutes every affected batch, so the client sees no hard
//     errors, only (possibly) 429s from admission control;
//  4. starts a FOURTH leaf after the crash; it joins, is verified against
//     the front's key domain, and serves traffic before the run ends;
//  5. asserts goodput recovers to >= 60% of the 3-leaf rate and p99 stays
//     bounded, and hedged retries stayed within budget (<= 10% of primary
//     sends);
//  6. has the late leaf LEAVE cleanly and asserts the full membership
//     story — joined, ejected, lease-expired, left — is visible in the
//     front end's /v1/stats event log;
//  7. byte-compares a signature served through the proxy path against the
//     CPU reference — the KAT cross-check that remoting and membership
//     churn change nothing about the bytes.
//
// Exit status 0 means every assertion held.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"herosign"
	"herosign/service"
	"herosign/service/remote"
)

const fleetSecret = "fleet-demo-shared-secret"

func main() {
	workers := flag.Int("workers", 16, "closed-loop client goroutines")
	phase1 := flag.Duration("phase1", 5*time.Second, "steady-state window before the kill")
	phase2 := flag.Duration("phase2", 8*time.Second, "window after the kill")
	probe := flag.Duration("probe", 200*time.Millisecond, "fleet health-probe interval")
	hedgeP := flag.Int("hedge-p", 90, "hedge percentile (0 disables hedging)")
	flag.Parse()

	p := herosign.SPHINCSPlus128f
	sk, err := herosign.KeyFromSeeds(p,
		bytes.Repeat([]byte{0x51}, p.N),
		bytes.Repeat([]byte{0x52}, p.N),
		bytes.Repeat([]byte{0x53}, p.N))
	if err != nil {
		log.Fatal(err)
	}

	// A leaf is a complete signing service behind a real HTTP listener,
	// requiring fleet auth on every endpoint.
	startLeaf := func() (*herosign.Service, *httptest.Server) {
		dev, err := herosign.GPUByName("RTX 4090")
		if err != nil {
			log.Fatal(err)
		}
		leaf, err := herosign.NewService(
			herosign.WithServiceParams(p),
			herosign.WithServiceKey(sk),
			herosign.WithServiceDevices(dev),
			herosign.WithQueueLimit(herosign.AutoQueueLimit),
			service.WithFleetSecret(fleetSecret),
		)
		if err != nil {
			log.Fatal(err)
		}
		return leaf, httptest.NewServer(leaf.Handler())
	}

	// The front end starts with ZERO backends: leaves are admitted at
	// runtime through the membership protocol.
	front, err := herosign.NewService(
		herosign.WithServiceParams(p),
		herosign.WithServiceKey(sk),
		herosign.WithQueueLimit(herosign.AutoQueueLimit),
		service.WithDynamicMembership(),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer front.Close()

	// MinWeight is raised well above the default so a just-admitted leaf
	// with no observed throughput immediately gets a meaningful share of
	// picks and warms quickly.
	fleet, err := remote.NewDynamicFleet(remote.Options{
		ProbeInterval:   *probe,
		HedgePercentile: *hedgeP,
		Secret:          fleetSecret,
		MinWeight:       25,
	})
	if err != nil {
		log.Fatal(err)
	}
	registrar := remote.NewRegistrar(front, fleet, remote.RegistrarOptions{
		LeaseTTL:      2 * time.Second,
		SweepInterval: 250 * time.Millisecond,
	})
	defer registrar.Close()

	mux := http.NewServeMux()
	mux.Handle("/v1/fleet/", registrar.Handler())
	mux.Handle("/", front.Handler())
	frontSrv := httptest.NewServer(mux)
	defer frontSrv.Close()
	fmt.Printf("front end up at %s: 0 backends, probe=%v hedge-p%d, dynamic membership\n",
		frontSrv.URL, *probe, *hedgeP)

	// An unsigned join must bounce off the fleet auth.
	resp, err := http.Post(frontSrv.URL+"/v1/fleet/join", "application/json",
		strings.NewReader(`{"url":"http://127.0.0.1:1"}`))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	unsignedJoinStatus := resp.StatusCode
	fmt.Printf("unsigned join attempt: HTTP %d\n\n", unsignedJoinStatus)

	startAnnouncer := func(selfURL string) *remote.Announcer {
		ann, err := remote.NewAnnouncer(remote.AnnouncerOptions{
			FrontURL:      frontSrv.URL,
			SelfURL:       selfURL,
			Secret:        fleetSecret,
			RetryInterval: 100 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		ann.Start()
		return ann
	}

	fmt.Println("starting 3 leaf servers, announcing to the front end...")
	leafSrvs := make([]*httptest.Server, 3)
	leafURLs := make([]string, 3)
	anns := make([]*remote.Announcer, 3)
	for i := range leafSrvs {
		leaf, srv := startLeaf()
		defer leaf.Close()
		leafSrvs[i] = srv
		leafURLs[i] = srv.URL
		anns[i] = startAnnouncer(srv.URL)
		fmt.Printf("  leaf %d at %s\n", i, leafURLs[i])
	}
	if !waitForMembers(registrar, 3, 10*time.Second) {
		die("leaves did not all join within 10s (members: %v)", registrar.Members())
	}
	fmt.Printf("all 3 leaves admitted: members=%v\n\n", registrar.Members())

	// Closed-loop workload. Workers retry 429s after the server's own
	// estimate; anything else is a hard client-visible error and fails the
	// demo.
	type sample struct {
		at  time.Time
		lat time.Duration
	}
	var (
		mu         sync.Mutex
		samples    []sample
		hardErrors atomic.Int64
		overloads  atomic.Int64
		seq        atomic.Int64
	)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				msg := fmt.Sprintf("fleet-demo-%d", seq.Add(1))
				t0 := time.Now()
				_, err := front.Sign(ctx, []byte(msg))
				switch {
				case err == nil:
					mu.Lock()
					samples = append(samples, sample{at: time.Now(), lat: time.Since(t0)})
					mu.Unlock()
					// Think time breaks the closed loop's lockstep: without it all
					// workers resubmit the instant a batch resolves, every
					// flush finds the first pool idle, and the least-
					// outstanding dispatch pins 100% of traffic to one leaf.
					time.Sleep(time.Duration(rand.Intn(20)) * time.Millisecond)
				case ctx.Err() != nil:
					return
				case isOverload(err):
					overloads.Add(1)
					time.Sleep(retryAfter(err))
				default:
					hardErrors.Add(1)
					fmt.Fprintf(os.Stderr, "hard error: %v\n", err)
				}
			}
		}()
	}

	window := func(from, to time.Time) (rate float64, p99 time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		var lats []time.Duration
		for _, s := range samples {
			if s.at.After(from) && !s.at.After(to) {
				lats = append(lats, s.lat)
			}
		}
		if len(lats) == 0 {
			return 0, 0
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		secs := to.Sub(from).Seconds()
		return float64(len(lats)) / secs, lats[len(lats)*99/100]
	}

	// Phase 1: steady state on three leaves. The first second warms the
	// coalescer, the probe EWMAs and the hedge tracker.
	time.Sleep(time.Second)
	p1start := time.Now()
	time.Sleep(*phase1)
	p1end := time.Now()
	rate3, p99three := window(p1start, p1end)
	fmt.Printf("phase 1 (3 leaves): %.1f sigs/s, p99 %v\n", rate3, p99three.Round(time.Millisecond))
	if rate3 == 0 {
		die("no completions in phase 1")
	}

	// Phase 2: crash leaf 0 mid-run — listener closes, heartbeats stop, no
	// leave is sent. Health ejects it fast; the lease expiring retires it.
	killAt := time.Now()
	anns[0].Stop()
	leafSrvs[0].CloseClientConnections()
	leafSrvs[0].Close()
	fmt.Printf("\ncrashed leaf 0 at t=%v (listener closed, heartbeats stopped)\n",
		killAt.Round(time.Millisecond).Sub(p1start))

	ejectedAt := waitForEjection(front, leafURLs[0], killAt, 2**probe+2*time.Second)
	if ejectedAt.IsZero() {
		die("leaf 0 was not ejected after the crash")
	}
	fmt.Printf("leaf 0 ejected %v after the crash (probe interval %v)\n",
		ejectedAt.Sub(killAt).Round(time.Millisecond), *probe)

	// A late joiner: a leaf started only now, long after the front end.
	lateLeaf, lateSrv := startLeaf()
	defer lateLeaf.Close()
	defer lateSrv.Close()
	lateAnn := startAnnouncer(lateSrv.URL)
	if !waitForMembers(registrar, 3, 10*time.Second) {
		die("late leaf did not join (members: %v)", registrar.Members())
	}
	fmt.Printf("late leaf joined at %s\n", lateSrv.URL)

	// Give the fleet a moment to settle, then measure the survivors plus
	// the newcomer.
	time.Sleep(time.Second)
	p2start := time.Now()
	time.Sleep(*phase2)
	p2end := time.Now()
	cancel()
	wg.Wait()

	rate2, p99two := window(p2start, p2end)
	fmt.Printf("phase 2 (2 survivors + late joiner): %.1f sigs/s, p99 %v\n",
		rate2, p99two.Round(time.Millisecond))

	// The dead leaf's lease has long expired; the clean path: the late
	// leaf leaves before assertions run.
	var lateSends int64
	for _, rl := range front.Stats().RemoteLeaves {
		if rl.URL == lateSrv.URL {
			lateSends = rl.PrimarySends
		}
	}
	if !waitForEvent(front, "lease-expired", 5*time.Second) {
		die("crashed leaf's lease never expired")
	}
	lctx, lcancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := lateAnn.Leave(lctx); err != nil {
		die("late leaf leave: %v", err)
	}
	lcancel()

	// Assertions.
	fails := 0
	check := func(ok bool, format string, args ...any) {
		status := "ok  "
		if !ok {
			status = "FAIL"
			fails++
		}
		fmt.Printf("  [%s] %s\n", status, fmt.Sprintf(format, args...))
	}
	fmt.Println("\nassertions:")
	st := front.Stats()
	check(unsignedJoinStatus == http.StatusUnauthorized && st.AuthRejected >= 1,
		"unsigned join rejected (HTTP %d) and counted (auth_rejected=%d)",
		unsignedJoinStatus, st.AuthRejected)
	check(hardErrors.Load() == 0,
		"no hard client errors across the crash (got %d; 429s are fine: %d)",
		hardErrors.Load(), overloads.Load())
	check(ejectedAt.Sub(killAt) <= 2**probe+time.Second,
		"ejection within ~one probe interval: %v <= %v",
		ejectedAt.Sub(killAt).Round(time.Millisecond), 2**probe+time.Second)
	check(rate2 >= 0.6*rate3,
		"post-crash goodput %.1f >= 60%% of 3-leaf %.1f", rate2, 0.6*rate3)
	check(p99two <= 10*p99three || p99two <= 2*time.Second,
		"p99 stays bounded after the crash: %v (3-leaf %v)",
		p99two.Round(time.Millisecond), p99three.Round(time.Millisecond))
	check(lateSends > 0,
		"late-joining leaf served traffic: %d primary sends", lateSends)
	check(len(registrar.Members()) == 2,
		"membership settled at the 2 survivors: %v", registrar.Members())

	var primaries, hedges, hedgeWins, failovers int64
	for _, rl := range st.RemoteLeaves {
		primaries += rl.PrimarySends
		hedges += rl.HedgesSent
		hedgeWins += rl.HedgeWins
		failovers += rl.Failovers
		fmt.Printf("  leaf %s: state=%s weight=%.0f sends=%d hedges=%d wins=%d failovers=%d\n",
			rl.URL, rl.State, rl.WeightSigsPerSec, rl.PrimarySends, rl.HedgesSent, rl.HedgeWins, rl.Failovers)
	}
	check(primaries == 0 || float64(hedges) <= 0.10*float64(primaries)+1,
		"hedge volume %d <= 10%% of %d primary sends", hedges, primaries)
	fmt.Printf("  hedge wins: %d, failovers: %d\n", hedgeWins, failovers)

	// The whole membership story must be visible in the stats event log.
	events := front.Stats().FleetEvents
	fmt.Println("\nmembership events:")
	for _, e := range events {
		fmt.Printf("  %s %-13s %s  %s\n", e.Time.Format("15:04:05.000"), e.Type, e.URL, e.Note)
	}
	counts := map[string]int{}
	for _, e := range events {
		counts[e.Type]++
	}
	check(counts["joined"] >= 4, "4 joins logged (3 initial + late): %d", counts["joined"])
	check(counts["ejected"] >= 1, "crash ejection logged: %d", counts["ejected"])
	check(counts["lease-expired"] >= 1, "dead leaf retired by lease expiry: %d", counts["lease-expired"])
	check(counts["left"] >= 1, "clean leave logged: %d", counts["left"])

	// KAT cross-check: one more signature through the proxy path must be
	// byte-identical to the CPU reference.
	sig, err := front.Sign(context.Background(), []byte("kat-after-failover"))
	if err != nil {
		die("post-run sign: %v", err)
	}
	ref, err := herosign.Sign(sk, []byte("kat-after-failover"))
	if err != nil {
		die("reference sign: %v", err)
	}
	check(bytes.Equal(sig, ref), "proxied signature byte-identical to CPU reference")

	if fails > 0 {
		die("%d assertion(s) failed", fails)
	}
	fmt.Println("\nfleet-demo: all assertions passed")
}

// waitForMembers polls the registrar until it reports n members.
func waitForMembers(r *remote.Registrar, n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if len(r.Members()) == n {
			return true
		}
		time.Sleep(20 * time.Millisecond)
	}
	return false
}

// waitForEvent polls the front end's stats until an event of the given type
// appears in the membership log.
func waitForEvent(front *herosign.Service, typ string, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, e := range front.Stats().FleetEvents {
			if e.Type == typ {
				return true
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return false
}

// waitForEjection polls the front end's stats until the named leaf reports
// ejected, or the timeout lapses (zero time).
func waitForEjection(front *herosign.Service, url string, from time.Time, timeout time.Duration) time.Time {
	deadline := from.Add(timeout)
	for time.Now().Before(deadline) {
		for _, rl := range front.Stats().RemoteLeaves {
			if rl.URL == url && rl.State == "ejected" {
				return time.Now()
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return time.Time{}
}

func isOverload(err error) bool {
	return err != nil && service.IsOverloaded(err)
}

func retryAfter(err error) time.Duration {
	if d := service.RetryAfter(err); d > 0 {
		return d
	}
	return 50 * time.Millisecond
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fleet-demo: %s\n", fmt.Sprintf(format, args...))
	os.Exit(1)
}
