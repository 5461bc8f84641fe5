package main

import (
	"bytes"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"herosign/internal/spx"
	"herosign/service"
)

// checkSigned verifies, after the window, every signature the program
// produced with scalar spx.Verify, and byte-compares a seeded 1-in-16 sample
// with spx.Sign of the same key and message. It returns how many were wrong.
func checkSigned(in *inputs, kept []signed) int {
	if in.corruptExpected && len(kept) > 0 {
		kept[0].sig = append([]byte(nil), kept[0].sig...)
		kept[0].sig[0] ^= 1
	}
	pick := rand.New(rand.NewPCG(in.seed, 3))
	resign := make([]bool, len(kept))
	for i := range resign {
		resign[i] = pick.IntN(16) == 0
	}
	var wrong atomic.Int64
	var wg sync.WaitGroup
	workers := nproc()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(kept); i += workers {
				k, sk := kept[i], in.keys[kept[i].set]
				bad := spx.Verify(&sk.PublicKey, k.msg, k.sig) != nil
				if !bad && resign[i] {
					ref, err := spx.Sign(sk, k.msg, nil)
					bad = err != nil || !bytes.Equal(ref, k.sig)
				}
				if bad {
					wrong.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return int(wrong.Load())
}

// statsOf snapshots svc; a workload without a service reads all zeros.
func statsOf(svc *service.Service) service.Stats {
	if svc == nil {
		return service.Stats{}
	}
	return svc.Stats()
}

// guards reads, once the loop has drained, the counters a healthy run leaves
// at 0, and the share of the fleet's traffic its busiest leaf took.
func guards(e *env) map[string]float64 {
	g := map[string]float64{}
	st := statsOf(e.svc)
	g["service.pending_at_end"] = float64(st.PendingRequests) + float64(st.QueuedMessages)
	g["remote.auth_rejected"] = float64(st.AuthRejected)
	for _, l := range e.leaves {
		g["remote.auth_rejected"] += float64(l.Stats().AuthRejected)
	}
	var sends, top float64
	for _, l := range st.RemoteLeaves {
		g["remote.hedges"] += float64(l.HedgesSent)
		g["remote.failovers"] += float64(l.Failovers)
		sends += float64(l.PrimarySends)
		top = max(top, float64(l.PrimarySends))
	}
	if sends > 0 {
		g["remote.leaf_share_max"] = top / sends
	}
	return g
}
