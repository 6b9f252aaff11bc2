package main

// batch_plus: closed-loop POST /v1/simplify/batch against the real
// rlts-server, RLTS+ SED with the exact kernels at ratio 0.1. Bodies
// cycle through a seeded pool of distinct requests; every response is
// checked bit for bit against an in-process reference computed before
// the window with the same embedded policy on the sequential path.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rlts"
	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/traj"
)

// batchPool is the seeded set of distinct batch requests.
type batchPool struct {
	bodies [][]byte
	items  [][]traj.Trajectory // items[b] are the trajectories of bodies[b]
	points []int               // input points per body
}

// newBatchPool generates sc.batchPool requests of sc.batchItems
// trajectories each. Every request holds the same mix, so seeds change the
// paths but not the amount of work: lengths evenly spaced over
// [batchMinN, batchMaxN] in a seeded order, alternating the Geolife and
// T-Drive profiles.
func newBatchPool(seed int64, sc scale) *batchPool {
	r := rand.New(rand.NewSource(seed))
	geolife := gen.New(gen.Geolife(), seed*7919+1)
	tdrive := gen.New(gen.TDrive(), seed*7919+2)
	p := &batchPool{}
	for b := 0; b < sc.batchPool; b++ {
		var ts []traj.Trajectory
		body := []byte(`{"algorithm":"rlts+","measure":"SED","ratio":0.1,"items":[`)
		n := 0
		lengths := spacedLengths(r, sc.batchItems, sc.batchMinN, sc.batchMaxN)
		for i, ln := range lengths {
			g := geolife
			if i%2 == 1 {
				g = tdrive
			}
			t := g.Trajectory(ln)
			ts = append(ts, t)
			n += len(t)
			if i > 0 {
				body = append(body, ',')
			}
			body = append(body, `{"points":`...)
			body = appendPoints(body, gen.Raw(t))
			body = append(body, '}')
		}
		body = append(body, "]}"...)
		p.bodies = append(p.bodies, body)
		p.items = append(p.items, ts)
		p.points = append(p.points, n)
	}
	return p
}

// spacedLengths returns n lengths evenly spaced over [lo, hi] in a seeded
// order.
func spacedLengths(r *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	for i, k := range r.Perm(n) {
		out[i] = lo
		if n > 1 {
			out[i] += (hi - lo) * k / (n - 1)
		}
	}
	return out
}

// batchRef is the expected answer to one pool request.
type batchRef struct {
	kept [][]int
	errs []float64
}

// batchReference simplifies every pool item on the sequential greedy
// path (Trained.SimplifyGreedy), which the server's BatchEngine must
// match bit for bit, and scores it as the server does.
func batchReference(tr *core.Trained, pool *batchPool) ([]batchRef, error) {
	refs := make([]batchRef, len(pool.items))
	clones := make([]*core.Trained, runtime.NumCPU())
	for i := range clones {
		clones[i] = &core.Trained{Opts: tr.Opts, Policy: tr.Policy.Clone()}
	}
	errs := make([]error, len(pool.items))
	parallel(len(pool.items), func(w, b int) {
		ref := batchRef{}
		for _, t := range pool.items[b] {
			w2 := int(0.1 * float64(len(t)))
			if w2 < 2 {
				w2 = 2
			}
			kept, err := clones[w].SimplifyGreedy(t, w2)
			if err != nil {
				errs[b] = err
				return
			}
			ref.kept = append(ref.kept, kept)
			ref.errs = append(ref.errs, errm.Error(errm.SED, t, kept))
		}
		refs[b] = ref
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference simplification: %w", err)
		}
	}
	return refs, nil
}

// batchWire mirrors the response of POST /v1/simplify/batch.
type batchWire struct {
	Algorithm string `json:"algorithm"`
	Mode      string `json:"mode"`
	Failed    int    `json:"failed"`
	Items     []struct {
		Kept    int          `json:"kept"`
		Of      int          `json:"of"`
		Error   *float64     `json:"error"`
		Points  [][3]float64 `json:"points"`
		Failure *struct{}    `json:"failure"`
	} `json:"items"`
}

// verifyBatch decodes one response and checks it against the reference:
// every item's kept points and error must match bit for bit.
func verifyBatch(body []byte, ts []traj.Trajectory, ref batchRef, tamper bool) error {
	var w batchWire
	if err := json.Unmarshal(body, &w); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if tamper && len(w.Items) > 0 && len(w.Items[0].Points) > 1 {
		w.Items[0].Points[1][0] += 1
	}
	if w.Algorithm != "RLTS+" || w.Mode != "exact" || w.Failed != 0 || len(w.Items) != len(ts) {
		return fmt.Errorf("response header: algorithm %q mode %q failed %d items %d, want RLTS+ exact 0 %d",
			w.Algorithm, w.Mode, w.Failed, len(w.Items), len(ts))
	}
	for i, it := range w.Items {
		kept := ref.kept[i]
		switch {
		case it.Failure != nil:
			return fmt.Errorf("item %d failed", i)
		case it.Of != len(ts[i]) || it.Kept != len(kept) || len(it.Points) != len(kept):
			return fmt.Errorf("item %d: kept %d of %d (%d points), want %d of %d", i, it.Kept, it.Of, len(it.Points), len(kept), len(ts[i]))
		case it.Error == nil || math.Float64bits(*it.Error) != math.Float64bits(ref.errs[i]):
			return fmt.Errorf("item %d: error %v, want %v", i, it.Error, ref.errs[i])
		}
		for j, ix := range kept {
			p := ts[i][ix]
			got := it.Points[j]
			if math.Float64bits(got[0]) != math.Float64bits(p.X) || math.Float64bits(got[1]) != math.Float64bits(p.Y) ||
				math.Float64bits(got[2]) != math.Float64bits(p.T) {
				return fmt.Errorf("item %d point %d: got %v, want index %d = %v", i, j, got, ix, p)
			}
		}
	}
	return nil
}

// canonical holds the first response seen for each pool body. Greedy
// inference is deterministic, so every later answer to the same body must
// be byte-identical; a byte compare in the window defers the decode and
// full check to after it.
type canonical struct {
	mu     sync.Mutex
	first  [][]byte
	others []batchAnswer // answers that differ from their body's first
}

type batchAnswer struct {
	body int
	resp []byte
}

// classify records one successful answer. It returns -1 when the answer
// is (or became) the body's first, else its index in others.
func (c *canonical) classify(body int, resp []byte) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.first[body] == nil:
		c.first[body] = append([]byte(nil), resp...)
	case !bytes.Equal(c.first[body], resp):
		c.others = append(c.others, batchAnswer{body, append([]byte(nil), resp...)})
		return len(c.others) - 1
	}
	return -1
}

// batchOp is one request of the window, verified after it ends.
type batchOp struct {
	op
	body   int
	status bool // 200 and body read
	differ int  // index into canonical.others, or -1
}

func runBatch(e *env) (*result, error) {
	sc := e.scale
	tr, err := loadPolicy(rlts.SED, rlts.Plus)
	if err != nil {
		return nil, err
	}
	pool := newBatchPool(e.seed, sc)
	refs, err := batchReference(tr, pool)
	if err != nil {
		return nil, err
	}
	srv, setup, err := setupServers(e, sc.setupRepeats)
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	clients := loadClients()
	canon := &canonical{first: make([][]byte, len(pool.bodies))}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}}
	url := srv.base + "/v1/simplify/batch"
	t0 := time.Now().Add(e.warmup)
	end := t0.Add(window(e))
	perClient := make([][]batchOp, clients)
	var warmFailed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for k := c; ; k += clients {
				b := k % len(pool.bodies)
				start := time.Now()
				if !start.Before(end) {
					return
				}
				ok := postBody(hc, url, pool.bodies[b], &buf)
				dur := time.Since(start)
				differ := -1
				if ok {
					differ = canon.classify(b, buf.Bytes())
				}
				if start.Before(t0) {
					// Warm-up: not timed; a failure still fails the run, and
					// first answers are checked like any other.
					if !ok {
						warmFailed.Add(1)
					}
					continue
				}
				perClient[c] = append(perClient[c], batchOp{op: op{start: start.Sub(t0), dur: dur, points: pool.points[b]}, body: b, status: ok, differ: differ})
			}
		}(c)
	}
	wg.Wait()
	rss, err := srv.peakRSS()
	if err != nil {
		return nil, err
	}

	// Verify: each body's first answer in full, then every answer that
	// was not byte-identical to it.
	firstOK := make([]bool, len(pool.bodies))
	for b, resp := range canon.first {
		if resp == nil {
			continue
		}
		if err := verifyBatch(resp, pool.items[b], refs[b], e.tamper && b == 0); err != nil {
			fmt.Printf("batch_plus: body %d: %v\n", b, err)
			continue
		}
		firstOK[b] = true
	}
	othersOK := make([]bool, len(canon.others))
	for i, a := range canon.others {
		err := verifyBatch(a.resp, pool.items[a.body], refs[a.body], false)
		if err != nil {
			fmt.Printf("batch_plus: body %d: an answer differs from the first: %v\n", a.body, err)
		}
		othersOK[i] = err == nil
	}
	var ops []op
	for _, cl := range perClient {
		for _, o := range cl {
			if o.differ < 0 {
				o.ok = o.status && firstOK[o.body]
			} else {
				o.ok = o.status && othersOK[o.differ]
			}
			ops = append(ops, o.op)
		}
	}
	correct := warmFailed.Load() == 0
	var errs []float64
	for b, ok := range firstOK {
		if ok {
			errs = append(errs, refs[b].errs...)
		} else if canon.first[b] != nil {
			correct = false
		}
	}
	errMean := 0.0 // nothing verified: the run is already incorrect
	if len(errs) > 0 {
		errMean = mean(errs)
	}
	res, err := endToEnd(ops, window(e), setup, rss, errMean)
	if err != nil {
		return nil, err
	}
	res.Correct = res.Correct && correct
	bytesIn := 0
	for _, b := range pool.bodies {
		bytesIn += len(b)
	}
	fmt.Printf("batch_plus: %d clients, pool %d bodies, mean body %d bytes, mean %d points per request\n",
		clients, len(pool.bodies), bytesIn/len(pool.bodies), sumInts(pool.points)/len(pool.points))
	return res, nil
}

// postBody sends one request and reads the whole answer into buf,
// reporting whether it came back 200.
func postBody(hc *http.Client, url string, body []byte, buf *bytes.Buffer) bool {
	buf.Reset()
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return false
	}
	return resp.StatusCode == http.StatusOK
}
