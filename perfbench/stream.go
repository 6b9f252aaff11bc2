package main

// stream_spill: closed-loop online-RLTS SED sessions against the real
// rlts-server with a spill directory and a hot-session budget half the
// working set, so pushes both hit hot sessions and rehydrate spilled
// ones. Each client owns its sessions; a seeded skewed draw picks the
// session of each push, every streamSnapEvery-th operation is a snapshot,
// and an exhausted session is snapshotted, closed and replaced. A quarter
// of the sessions open with repair and carry gen.DirtyFamilies input.
// After the window every answer is checked against an in-process
// core.Streamer (+ traj.Repairer) fed the same points.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"rlts"
	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/geo"
	"rlts/internal/obs"
	"rlts/internal/traj"
)

const (
	streamW         = 50 // every session's buffer budget
	streamSnapEvery = 8  // every 8th planned operation is a snapshot
	streamMinPush   = 32
	streamMaxPush   = 64
	streamZipfS     = 1.5 // skew of the session draw
)

// streamRepair is the repair opt-in of dirty sessions: a reordering window
// deep enough for every family's swaps and a speed gate far above the
// Geolife profile's speeds.
var streamRepair = traj.RepairConfig{Window: 16, MaxSpeed: 60}

// streamEntry is one input stream. Sessions cycle through the pool, so
// one entry feeds many sessions and one reference replay checks them all.
type streamEntry struct {
	raw   [][3]float64 // the fixes pushed, in order
	dirty bool         // opened with repair
}

// newStreamPool generates the seeded entries: Geolife trajectories with
// lengths evenly spaced over 600-1500 points in a seeded order; every
// fourth is corrupted by one dirty family in turn (rows JSON cannot
// carry, NaN and ±Inf, are left out).
func newStreamPool(seed int64, n int) []streamEntry {
	r := rand.New(rand.NewSource(seed*104729 + 3))
	g := gen.New(gen.Geolife(), seed*104729+4)
	fams := gen.DirtyFamilies()
	lengths := spacedLengths(r, n, 600, 1500)
	pool := make([]streamEntry, n)
	for j := range pool {
		t := g.Trajectory(lengths[j])
		if j%4 != 3 {
			pool[j] = streamEntry{raw: gen.Raw(t)}
			continue
		}
		fam := fams[(j/4)%len(fams)]
		var raw [][3]float64
		for _, p := range gen.Raw(fam.Corrupt(t, r.Int63())) {
			if finite(p) {
				raw = append(raw, p)
			}
		}
		pool[j] = streamEntry{raw: raw, dirty: true}
	}
	return pool
}

func finite(p [3]float64) bool {
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

type opKind int

const (
	opCreate opKind = iota
	opPush
	opSnapshot
	opClose
)

var opNames = [...]string{"create", "push", "snapshot", "close"}

// streamSession is one planned session: the entry it consumes and, once
// created, the server's id for it.
type streamSession struct {
	entry int
	id    string
}

// plannedOp is one operation of a client's script. from/to delimit the
// entry prefix: a push sends raw[from:to]; any other op sees the session
// after to points.
type plannedOp struct {
	kind     opKind
	sess     *streamSession
	from, to int
}

// streamClient plans one client's operations. The script depends only on
// the seed and the client index, never on timing, so the measured run and
// the traced replay issue the same operations in the same order.
type streamClient struct {
	pool      []streamEntry
	r         *rand.Rand
	zipf      *rand.Zipf
	slots     []*streamSession
	pushed    []int
	nextEntry int
	stride    int
	n         int // planned operations so far
	queue     []plannedOp
}

func newStreamClient(pool []streamEntry, seed int64, client, clients, slots int) *streamClient {
	r := rand.New(rand.NewSource(seed*1000003 + int64(client)))
	c := &streamClient{
		pool: pool, r: r,
		zipf:      rand.NewZipf(r, streamZipfS, 1, uint64(slots-1)),
		slots:     make([]*streamSession, slots),
		pushed:    make([]int, slots),
		nextEntry: client, stride: clients,
	}
	for s := range c.slots {
		c.queue = append(c.queue, c.open(s))
	}
	return c
}

// open plans a fresh session in slot s on the client's next entry.
func (c *streamClient) open(s int) plannedOp {
	sess := &streamSession{entry: c.nextEntry % len(c.pool)}
	c.nextEntry += c.stride
	c.slots[s], c.pushed[s] = sess, 0
	return plannedOp{kind: opCreate, sess: sess}
}

// next returns the client's next operation.
func (c *streamClient) next() plannedOp {
	if len(c.queue) == 0 {
		c.n++
		s := int(c.zipf.Uint64())
		sess, at := c.slots[s], c.pushed[s]
		if c.n%streamSnapEvery == 0 {
			return plannedOp{kind: opSnapshot, sess: sess, from: at, to: at}
		}
		raw := c.pool[sess.entry].raw
		to := at + streamMinPush + c.r.Intn(streamMaxPush-streamMinPush+1)
		c.pushed[s] = to
		if to >= len(raw) {
			// Exhausted: the last push, a final snapshot, close, and a
			// fresh session in the same slot.
			to = len(raw)
			c.queue = append(c.queue,
				plannedOp{kind: opSnapshot, sess: sess, from: to, to: to},
				plannedOp{kind: opClose, sess: sess, from: to, to: to},
				c.open(s))
		}
		return plannedOp{kind: opPush, sess: sess, from: at, to: to}
	}
	o := c.queue[0]
	c.queue = c.queue[1:]
	return o
}

// request renders a planned operation as an HTTP method, path and body.
func (o plannedOp) request(pool []streamEntry) (method, path string, body []byte) {
	switch o.kind {
	case opCreate:
		b := fmt.Appendf(nil, `{"algorithm":"rlts","measure":"SED","w":%d`, streamW)
		if pool[o.sess.entry].dirty {
			b = fmt.Appendf(b, `,"repair":{"window":%d,"max_speed":%g}`, streamRepair.Window, streamRepair.MaxSpeed)
		}
		return http.MethodPost, "/v1/stream", append(b, '}')
	case opPush:
		b := append([]byte(`{"points":`), appendPoints(nil, pool[o.sess.entry].raw[o.from:o.to])...)
		return http.MethodPost, "/v1/stream/" + o.sess.id + "/points", append(b, '}')
	case opSnapshot:
		return http.MethodGet, "/v1/stream/" + o.sess.id, nil
	default:
		return http.MethodDelete, "/v1/stream/" + o.sess.id, nil
	}
}

// doneOp is one executed operation and its answer.
type doneOp struct {
	plannedOp
	status int
	resp   []byte
	start  time.Duration // offset from the window's start
	dur    time.Duration
	timed  bool // started inside the measured window
}

// streamArgs are the rlts-server flags of the workload: spill under the
// run directory and a hot budget of half the working set. The budget is
// split evenly over the store's shards and session ids are random, so
// with several shards the spill rate would follow how the ids happen to
// hash; one shard makes it a function of the seeded script alone.
func streamArgs(spillDir string, hot int) []string {
	return []string{"-spill-dir", spillDir, "-max-hot-sessions", strconv.Itoa(hot), "-shards", "1"}
}

func runStream(e *env) (*result, error) {
	sc := e.scale
	clients := loadClients()
	pool := newStreamPool(e.seed, sc.streamPool)
	online, err := loadPolicy(rlts.SED, rlts.Online)
	if err != nil {
		return nil, err
	}
	spill := e.work + "/spill"
	srv, setup, err := setupServers(e, sc.setupRepeats, streamArgs(spill, sc.streamHot)...)
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}}
	t0 := time.Now().Add(e.warmup)
	end := t0.Add(window(e))
	done := make([][]doneOp, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newStreamClient(pool, e.seed, c, clients, sc.streamSlots)
			var buf bytes.Buffer
			for {
				o := cl.next()
				start := time.Now()
				if !start.Before(end) {
					return
				}
				method, path, body := o.request(pool)
				status := doRequest(hc, method, srv.base+path, body, &buf)
				d := doneOp{plannedOp: o, status: status, start: start.Sub(t0), dur: time.Since(start), timed: !start.Before(t0)}
				d.resp = append([]byte(nil), buf.Bytes()...)
				if o.kind == opCreate && status == http.StatusOK {
					var cr struct{ ID string }
					if json.Unmarshal(d.resp, &cr) == nil {
						o.sess.id = cr.ID
					}
				}
				done[c] = append(done[c], d)
			}
		}(c)
	}
	wg.Wait()
	rss, err := srv.peakRSS()
	if err != nil {
		return nil, err
	}
	samples, err := srv.scrape()
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}

	var all []doneOp
	for _, d := range done {
		all = append(all, d...)
	}
	ok, errMean, err := verifyStream(online, pool, all, e.tamper)
	if err != nil {
		return nil, err
	}
	var ops []op
	var touches, points int
	warmOK := true
	for i, d := range all {
		if !d.timed && !ok[i] {
			warmOK = false
		}
		if d.kind == opPush || d.kind == opSnapshot {
			touches++
		}
		if d.kind == opPush {
			points += d.to - d.from
		}
		if d.timed {
			o := op{start: d.start, dur: d.dur, ok: ok[i]}
			if d.kind == opPush {
				o.points = d.to - d.from
			}
			ops = append(ops, o)
		}
	}
	res, err := endToEnd(ops, window(e), setup, rss, errMean)
	if err != nil {
		return nil, err
	}
	res.Correct = res.Correct && warmOK
	spills, _ := obs.Find(samples, "rlts_stream_spills_total", nil)
	rehyd, _ := obs.Find(samples, "rlts_stream_rehydrations_total", nil)
	dirty := 0
	for _, en := range pool {
		if en.dirty {
			dirty++
		}
	}
	fmt.Printf("stream_spill: %d clients, %d ops (%d timed), mean %.1f points per push op, hot-hit ratio %.3f, %v spills, %v rehydrations, repair share %.2f\n",
		clients, len(all), len(ops), float64(points)/math.Max(1, float64(countKind(all, opPush))),
		1-rehyd/math.Max(1, float64(touches)), spills, rehyd, float64(dirty)/float64(len(pool)))
	return res, nil
}

func countKind(ops []doneOp, k opKind) int {
	n := 0
	for _, o := range ops {
		if o.kind == k {
			n++
		}
	}
	return n
}

// doRequest sends one request, reads the answer into buf and returns the
// status (0 on a transport error).
func doRequest(hc *http.Client, method, url string, body []byte, buf *bytes.Buffer) int {
	buf.Reset()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0
	}
	return resp.StatusCode
}

// refState is the reference session after some prefix of its entry.
type refState struct {
	seen, buffered, skipped, pending int
	report                           traj.RepairReport
	errEst                           float64
	snap                             []geo.Point
}

// replayEntry feeds an entry through a fresh reference streamer (and
// repairer) and captures its state after each requested prefix length.
func replayEntry(tr *core.Trained, en streamEntry, at map[int]bool) (map[int]*refState, traj.Trajectory, error) {
	str, err := core.NewStreamer(tr.Policy.Clone(), streamW, tr.Opts, false, nil)
	if err != nil {
		return nil, nil, err
	}
	var rp *traj.Repairer
	if en.dirty {
		rp = traj.NewRepairer(streamRepair)
	}
	var fed traj.Trajectory
	out := make(map[int]*refState, len(at))
	capture := func(m int) {
		st := &refState{seen: str.Seen(), buffered: str.BufferSize(), skipped: str.Skipped(), errEst: str.ErrEst(), snap: str.Snapshot()}
		if rp != nil {
			st.report, st.pending = rp.Report(), rp.Pending()
		}
		out[m] = st
	}
	push := func(p geo.Point) {
		str.Push(p)
		fed = append(fed, p)
	}
	if at[0] {
		capture(0)
	}
	for i, p := range en.raw {
		pt := geo.Point{X: p[0], Y: p[1], T: p[2]}
		if rp == nil {
			push(pt)
		} else {
			for _, q := range rp.Push(pt) {
				push(q)
			}
		}
		if at[i+1] {
			capture(i + 1)
		}
	}
	return out, fed, nil
}

type repairWire struct {
	Pushed     int `json:"pushed"`
	Emitted    int `json:"emitted"`
	NonFinite  int `json:"non_finite"`
	Late       int `json:"late"`
	Reordered  int `json:"reordered"`
	Duplicates int `json:"duplicates"`
	Outliers   int `json:"outliers"`
}

func (w *repairWire) report() traj.RepairReport {
	if w == nil {
		return traj.RepairReport{}
	}
	return traj.RepairReport{Pushed: w.Pushed, Emitted: w.Emitted, NonFinite: w.NonFinite, Late: w.Late,
		Reordered: w.Reordered, Duplicates: w.Duplicates, Outliers: w.Outliers}
}

// streamWire is the union of the stream routes' answers.
type streamWire struct {
	ID        string       `json:"id"`
	Algorithm string       `json:"algorithm"`
	W         int          `json:"w"`
	Seen      int          `json:"seen"`
	Buffered  int          `json:"buffered"`
	Skipped   int          `json:"skipped"`
	Pending   int          `json:"pending"`
	Kept      int          `json:"kept"`
	Closed    bool         `json:"closed"`
	Repair    any          `json:"repair"` // bool on create, report on push
	Error     float64      `json:"error"`
	Points    [][3]float64 `json:"points"`
}

// verifyStream replays every entry once and checks every answer against
// the reference state at the same prefix. A session whose earlier
// operation failed cannot be checked further, so its later operations
// fail too. It returns per-operation verdicts and the mean SED error of
// every entry's final simplification: the served answers are checked
// bit-identical to these, and the mean over the whole pool does not
// depend on how far the window got.
func verifyStream(tr *core.Trained, pool []streamEntry, ops []doneOp, tamper bool) ([]bool, float64, error) {
	need := make([]map[int]bool, len(pool))
	for i := range need {
		need[i] = map[int]bool{}
	}
	for j, en := range pool {
		need[j][len(en.raw)] = true
	}
	for _, o := range ops {
		need[o.sess.entry][o.from] = true
		need[o.sess.entry][o.to] = true
	}
	refs := make([]map[int]*refState, len(pool))
	finalErr := make([]float64, len(pool))
	errs := make([]error, len(pool))
	parallel(len(pool), func(_, j int) {
		var fed traj.Trajectory
		refs[j], fed, errs[j] = replayEntry(tr, pool[j], need[j])
		if errs[j] == nil {
			finalErr[j] = sedOf(fed, refs[j][len(pool[j].raw)].snap)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("reference stream: %w", err)
		}
	}
	ok := make([]bool, len(ops))
	broken := map[*streamSession]bool{}
	tampered := !tamper
	for i, o := range ops {
		if broken[o.sess] {
			continue
		}
		var w streamWire
		err := json.Unmarshal(o.resp, &w)
		if err == nil && o.status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", o.status, o.resp)
		}
		if err == nil {
			if !tampered && o.timed && o.kind == opSnapshot && len(w.Points) > 1 {
				w.Points[1][0] += 1
				tampered = true
			}
			err = checkStreamAnswer(o, &w, pool[o.sess.entry], refs[o.sess.entry])
		}
		if err != nil {
			fmt.Printf("stream_spill: %s of a session on entry %d at %d: %v\n", opNames[o.kind], o.sess.entry, o.to, err)
			broken[o.sess] = true
			continue
		}
		ok[i] = true
	}
	return ok, mean(finalErr), nil
}

func checkStreamAnswer(o doneOp, w *streamWire, en streamEntry, ref map[int]*refState) error {
	to, from := ref[o.to], ref[o.from]
	switch o.kind {
	case opCreate:
		if w.ID == "" || w.Algorithm != "RLTS" || w.W != streamW || w.Repair != en.dirty {
			return fmt.Errorf("create answered %+v", w)
		}
	case opPush:
		if w.Seen != to.seen || w.Buffered != to.buffered || w.Skipped != to.skipped-from.skipped {
			return fmt.Errorf("push answered seen %d buffered %d skipped %d, want %d %d %d",
				w.Seen, w.Buffered, w.Skipped, to.seen, to.buffered, to.skipped-from.skipped)
		}
		if en.dirty {
			var rw repairWire
			b, _ := json.Marshal(w.Repair)
			if err := json.Unmarshal(b, &rw); err != nil {
				return fmt.Errorf("push repair report: %w", err)
			}
			if w.Pending != to.pending || rw.report() != to.report.Sub(from.report) {
				return fmt.Errorf("push repair answered pending %d %+v, want %d %+v", w.Pending, rw, to.pending, to.report.Sub(from.report))
			}
		}
	case opSnapshot:
		if w.Algorithm != "RLTS" || w.W != streamW || w.Seen != to.seen || w.Kept != len(to.snap) ||
			math.Float64bits(w.Error) != math.Float64bits(to.errEst) || len(w.Points) != len(to.snap) {
			return fmt.Errorf("snapshot answered seen %d kept %d error %v, want %d %d %v", w.Seen, w.Kept, w.Error, to.seen, len(to.snap), to.errEst)
		}
		for i, p := range to.snap {
			g := w.Points[i]
			if math.Float64bits(g[0]) != math.Float64bits(p.X) || math.Float64bits(g[1]) != math.Float64bits(p.Y) ||
				math.Float64bits(g[2]) != math.Float64bits(p.T) {
				return fmt.Errorf("snapshot point %d is %v, want %v", i, g, p)
			}
		}
	case opClose:
		if !w.Closed || w.Seen != to.seen || w.Kept != len(to.snap) {
			return fmt.Errorf("close answered %+v, want seen %d kept %d", w, to.seen, len(to.snap))
		}
	}
	return nil
}

// sedOf is the SED error of a snapshot against the points the streamer
// was fed (kept points are located by their strictly increasing time).
func sedOf(fed traj.Trajectory, snap []geo.Point) float64 {
	kept := make([]int, 0, len(snap))
	for _, p := range snap {
		i := sort.Search(len(fed), func(i int) bool { return fed[i].T >= p.T })
		kept = append(kept, i)
	}
	return errm.Error(errm.SED, fed, kept)
}
