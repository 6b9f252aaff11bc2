package main

// The traced run (--trace 1). It replays all three workloads' seeded
// inputs in-process, so every per-layer metric is measured on every
// traced run, and it records spans only here, around calls into the
// packages' public functions; no program code is instrumented. Each
// workload gets a third of --seconds:
//
//	U/T  the operations (server.Handler().ServeHTTP, or core.Train) run
//	     twice, in alternating blocks: U bare, T with a span around each
//	     operation. T gives the handler and batch times; the blocks' wall
//	     times give the tracer's overhead, and alternating them keeps a
//	     drift in the shared host's speed out of that comparison.
//	L    each layer's public function called on the same inputs inside
//	     its own span: decode, validate, repair, simplify, forward, score,
//	     encode, push, snapshot, export, resume, storage.
//
// A layer's self time is its span minus what its children cover: the
// server's self time is the handler's time less the layer times of L.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"rlts"
	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/geo"
	"rlts/internal/obs"
	"rlts/internal/rl"
	"rlts/internal/server"
	"rlts/internal/storage"
	"rlts/internal/traj"
)

// span is one recorded interval. Spans of one operation share op. Every
// span here is a root: each layer is called on its own, never inside
// another traced call.
type span struct {
	Name  string `json:"name"`
	Op    int    `json:"op"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) begin(name string, op int) int {
	t.spans = append(t.spans, span{Name: name, Op: op, Start: int64(time.Since(t.base))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.base)) }

// timed runs f inside a span.
func (t *tracer) timed(name string, op int, f func()) {
	id := t.begin(name, op)
	f()
	t.end(id)
}

// sum returns the total duration and count of the spans named name.
func (t *tracer) sum(name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
			n++
		}
	}
	return d, n
}

// meanMs is the mean duration in ms of the spans named name, per span.
func (t *tracer) meanMs(name string) float64 {
	d, n := t.sum(name)
	if n == 0 {
		return 0
	}
	return ms(d) / float64(n)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// layerSet collects one workload's per-layer metrics under its prefix.
type layerSet struct {
	prefix string
	out    map[string]metric
}

func (l layerSet) put(name string, v float64, unit string) { l.out[l.prefix+name] = metric{v, unit} }

// handle calls the handler in-process and returns the status and body.
func handle(h http.Handler, method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// servingPolicies loads the eight embedded policies, as rlts-server does.
func servingPolicies() ([]*core.Trained, error) {
	var out []*core.Trained
	for _, v := range []rlts.Variant{rlts.Online, rlts.Plus} {
		for _, m := range rlts.Measures {
			tr, err := loadPolicy(m, v)
			if err != nil {
				return nil, err
			}
			out = append(out, tr)
		}
	}
	return out, nil
}

// overhead reports the traced pass's throughput against the untraced.
func (l layerSet) overhead(points int, untraced, traced time.Duration) {
	u := float64(points) / untraced.Seconds()
	t := float64(points) / traced.Seconds()
	l.put("trace.untraced_points_per_s", u, "points/s")
	l.put("trace.points_per_s", t, "points/s")
	l.put("trace.overhead_pct", (u-t)/u*100, "%")
}

func runTrace(e *env) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	budget := time.Duration(e.seconds / 3 * float64(time.Second))
	dir := filepath.Join(e.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for _, w := range []struct {
		name string
		run  func(*env, time.Duration, *tracer, layerSet) (attempted, failed int, err error)
	}{
		{"batch_plus", traceBatch},
		{"stream_spill", traceStream},
		{"train_plus", traceTrain},
	} {
		tr := newTracer()
		a, f, err := w.run(e, budget, tr, layerSet{prefix: w.name + ".", out: res.Metrics})
		if err != nil {
			return nil, fmt.Errorf("%s traced replay: %w", w.name, err)
		}
		res.Attempted += a
		res.Failed += f
		if err := tr.write(filepath.Join(dir, w.name+"-seed"+strconv.FormatInt(e.seed, 10)+".jsonl")); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// batchRequestWire mirrors the request of POST /v1/simplify/batch.
type batchRequestWire struct {
	Algorithm string  `json:"algorithm"`
	Measure   string  `json:"measure"`
	W         int     `json:"w"`
	Ratio     float64 `json:"ratio"`
	Items     []struct {
		Points [][3]float64 `json:"points"`
	} `json:"items"`
}

type batchItemOut struct {
	Kept   int          `json:"kept"`
	Of     int          `json:"of"`
	Error  *float64     `json:"error"`
	Points [][3]float64 `json:"points"`
}

type batchOut struct {
	Algorithm string         `json:"algorithm"`
	Mode      string         `json:"mode"`
	Failed    int            `json:"failed"`
	Items     []batchItemOut `json:"items"`
}

func traceBatch(e *env, budget time.Duration, tc *tracer, l layerSet) (int, int, error) {
	pool := newBatchPool(e.seed, e.scale)
	tr, err := loadPolicy(rlts.SED, rlts.Plus)
	if err != nil {
		return 0, 0, err
	}
	refs, err := batchReference(tr, pool)
	if err != nil {
		return 0, 0, err
	}
	policies, err := servingPolicies()
	if err != nil {
		return 0, 0, err
	}
	sv := server.NewWith(policies, server.Config{Metrics: obs.NewRegistry()})
	defer sv.Close()
	h := sv.Handler()
	const path = "/v1/simplify/batch"

	// U/T: each request bare and in a span, alternating which goes first,
	// for half the budget. T's answers are verified after.
	var statuses []int
	var resps [][]byte
	var untraced, traced time.Duration
	n, points := 0, 0
	for start := time.Now(); n == 0 || time.Since(start) < budget/2; n++ {
		b := n % len(pool.bodies)
		bare := func() {
			t := time.Now()
			handle(h, http.MethodPost, path, pool.bodies[b])
			untraced += time.Since(t)
		}
		spanned := func() {
			t := time.Now()
			var status int
			var resp []byte
			tc.timed("server.handler", n, func() { status, resp = handle(h, http.MethodPost, path, pool.bodies[b]) })
			traced += time.Since(t)
			statuses, resps = append(statuses, status), append(resps, resp)
		}
		if n%2 == 0 {
			bare()
			spanned()
		} else {
			spanned()
			bare()
		}
		points += pool.points[b]
	}
	handlerTotal, _ := tc.sum("server.handler")
	failed := 0
	var bytesIn, bytesOut int
	for i, resp := range resps {
		b := i % len(pool.bodies)
		bytesIn += len(pool.bodies[b])
		bytesOut += len(resp)
		if statuses[i] != http.StatusOK || verifyBatch(resp, pool.items[b], refs[b], false) != nil {
			failed++
		}
	}

	// L: each layer's public function on the same requests.
	eng, err := core.NewBatchEngine(tr.Policy.Clone(), tr.Opts, false)
	if err != nil {
		return 0, 0, err
	}
	fwd := tr.Policy.Clone()
	var allocs uint64
	forwards := 0
	var ms0, ms1 runtime.MemStats
	for i := 0; i < n; i++ {
		b := i % len(pool.bodies)
		var req batchRequestWire
		runtime.ReadMemStats(&ms0)
		tc.timed("server.decode", i, func() { err = json.Unmarshal(pool.bodies[b], &req) })
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return 0, 0, err
		}
		allocs += ms1.TotalAlloc - ms0.TotalAlloc
		ts := make([]traj.Trajectory, len(req.Items))
		tc.timed("traj.validate", i, func() {
			for j, it := range req.Items {
				if ts[j], err = traj.FromPoints(it.Points); err != nil {
					return
				}
			}
		})
		if err != nil {
			return 0, 0, err
		}
		items := make([]core.BatchItem, len(ts))
		for j, t := range ts {
			w := int(0.1 * float64(len(t)))
			if w < 2 {
				w = 2
			}
			items[j] = core.BatchItem{T: t, W: w}
		}
		var results []core.BatchResult
		tc.timed("core.simplify", i, func() { results = eng.Run(items) })
		// Forward: the greedy decisions' states, replayed through the
		// policy one lockstep round at a time as BatchEngine batches them.
		var traces []*core.DecisionTrace
		for _, it := range items {
			dt, err := core.TraceGreedy(tr.Policy, it.T, it.W, tr.Opts)
			if err != nil {
				return 0, 0, err
			}
			traces = append(traces, dt)
			forwards += len(dt.Actions)
		}
		rounds := lockstepRounds(traces)
		tc.timed("rl.forward", i, func() {
			for _, r := range rounds {
				fwd.ProbsBatch(r.states, len(r.masks), r.masks)
			}
		})
		out := batchOut{Algorithm: "RLTS+", Mode: "exact", Items: make([]batchItemOut, len(items))}
		tc.timed("errm.score", i, func() {
			for j, r := range results {
				e := errm.Error(errm.SED, items[j].T, r.Kept)
				out.Items[j].Error = &e
			}
		})
		for j, r := range results {
			out.Items[j].Kept, out.Items[j].Of = len(r.Kept), len(items[j].T)
			pts := make([][3]float64, len(r.Kept))
			for k, ix := range r.Kept {
				p := items[j].T[ix]
				pts[k] = [3]float64{p.X, p.Y, p.T}
			}
			out.Items[j].Points = pts
		}
		tc.timed("server.encode", i, func() { _, err = json.Marshal(&out) })
		if err != nil {
			return 0, 0, err
		}
	}

	per := func(name string) float64 { d, _ := tc.sum(name); return ms(d) / float64(n) }
	decode, validate, simplify, forward := per("server.decode"), per("traj.validate"), per("core.simplify"), per("rl.forward")
	score, encode := per("errm.score"), per("server.encode")
	handler := ms(handlerTotal) / float64(n)
	l.put("server.handler_ms", handler, "ms")
	l.put("server.self_ms", handler-decode-validate-simplify-score-encode, "ms")
	l.put("server.decode_ms", decode, "ms")
	l.put("server.decode_alloc_mb", float64(allocs)/float64(n)/(1<<20), "MiB")
	l.put("server.encode_ms", encode, "ms")
	l.put("traj.validate_ms", validate, "ms")
	l.put("core.simplify_ms", simplify, "ms")
	l.put("rl.forward_ms", forward, "ms")
	l.put("rl.forwards", float64(forwards)/float64(n), "count")
	l.put("core.env_ms", simplify-forward, "ms")
	l.put("errm.score_ms", score, "ms")
	l.put("server.bytes_in", float64(bytesIn)/float64(n), "bytes")
	l.put("server.bytes_out", float64(bytesOut)/float64(n), "bytes")
	l.overhead(points, untraced, traced)
	return n, failed, nil
}

// lockstepRound is one BatchEngine round: the next state of every lane
// still running.
type lockstepRound struct {
	states []float64
	masks  [][]bool
}

func lockstepRounds(traces []*core.DecisionTrace) []lockstepRound {
	var out []lockstepRound
	for r := 0; ; r++ {
		var round lockstepRound
		for _, dt := range traces {
			if r < len(dt.Actions) {
				round.states = append(round.states, dt.States[r*dt.StateSize:(r+1)*dt.StateSize]...)
				round.masks = append(round.masks, dt.Masks[r])
			}
		}
		if len(round.masks) == 0 {
			return out
		}
		out = append(out, round)
	}
}

// pushWire mirrors the body of POST /v1/stream/{id}/points.
type pushWire struct {
	Points [][3]float64 `json:"points"`
}

// shadowSession is the in-process mirror of one stream session, driven
// through the same public functions the server calls.
type shadowSession struct {
	str *core.Streamer
	rp  *traj.Repairer
}

func traceStream(e *env, budget time.Duration, tc *tracer, l layerSet) (int, int, error) {
	sc := e.scale
	clients := loadClients()
	pool := newStreamPool(e.seed, sc.streamPool)
	online, err := loadPolicy(rlts.SED, rlts.Online)
	if err != nil {
		return 0, 0, err
	}
	policies, err := servingPolicies()
	if err != nil {
		return 0, 0, err
	}
	newServer := func(dir string) *server.Server {
		return server.NewWith(policies, server.Config{Metrics: obs.NewRegistry(),
			SpillDir: filepath.Join(e.work, dir), MaxHotSessions: sc.streamHot, StreamShards: 1})
	}
	// The clients' scripts, interleaved one operation each in turn.
	script := func() func() plannedOp {
		cls := make([]*streamClient, clients)
		for c := range cls {
			cls[c] = newStreamClient(pool, e.seed, c, clients, sc.streamSlots)
		}
		k := 0
		return func() plannedOp { k++; return cls[k%clients].next() }
	}
	run := func(h http.Handler, o plannedOp) (int, []byte) {
		method, path, body := o.request(pool)
		status, resp := handle(h, method, path, body)
		if o.kind == opCreate && status == http.StatusOK {
			var cr struct{ ID string }
			if json.Unmarshal(resp, &cr) == nil {
				o.sess.id = cr.ID
			}
		}
		return status, resp
	}

	// U/T: the same script on two fresh servers, in alternating blocks
	// of streamBlock operations, bare on U and each in a span on T.
	const streamBlock = 64
	svU, svT := newServer("trace-spill-u"), newServer("trace-spill-t")
	defer svU.Close()
	defer svT.Close()
	hU, hT := svU.Handler(), svT.Handler()
	nextU, nextT := script(), script()
	var ops []doneOp
	var untraced, traced time.Duration
	var bytesIn, bytesOut int
	kinds := map[opKind]int{}
	points := 0
	for start := time.Now(); len(ops) == 0 || time.Since(start) < budget/2; {
		t := time.Now()
		for j := 0; j < streamBlock; j++ {
			run(hU, nextU())
		}
		untraced += time.Since(t)
		t = time.Now()
		for j := 0; j < streamBlock; j++ {
			o := nextT()
			d := doneOp{plannedOp: o}
			tc.timed("server."+opNames[o.kind], len(ops), func() { d.status, d.resp = run(hT, o) })
			ops = append(ops, d)
		}
		traced += time.Since(t)
	}
	n := len(ops)
	for _, d := range ops {
		kinds[d.kind]++
		_, _, body := d.request(pool)
		bytesIn += len(body)
		bytesOut += len(d.resp)
		points += d.to - d.from
	}
	var handlerTotal time.Duration
	for _, k := range opNames {
		d, _ := tc.sum("server." + k)
		handlerTotal += d
	}
	_, scrape := handle(hT, http.MethodGet, "/metrics", nil)
	samples, err := obs.ParseText(bytes.NewReader(scrape))
	if err != nil {
		return 0, 0, err
	}
	ok, _, err := verifyStream(online, pool, ops, false)
	if err != nil {
		return 0, 0, err
	}
	failed := 0
	for _, v := range ok {
		if !v {
			failed++
		}
	}

	// Bytes allocated per push decode, from a loop of decodes alone.
	var pushBodies [][]byte
	for _, o := range ops {
		if o.kind == opPush {
			_, _, body := o.request(pool)
			pushBodies = append(pushBodies, body)
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, body := range pushBodies {
		var req pushWire
		if err := json.Unmarshal(body, &req); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&ms1)
	decodeAlloc := float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(max(1, len(pushBodies))) / (1 << 20)

	// L: the same operations through the public functions the server
	// calls, on shadow sessions.
	shadows := map[*streamSession]*shadowSession{}
	dir := filepath.Join(e.work, "trace-storage")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	var dropped int
	for i, o := range ops {
		en := pool[o.sess.entry]
		switch o.kind {
		case opCreate:
			str, err := core.NewStreamer(online.Policy.Clone(), streamW, online.Opts, false, nil)
			if err != nil {
				return 0, 0, err
			}
			sh := &shadowSession{str: str}
			if en.dirty {
				sh.rp = traj.NewRepairer(streamRepair)
			}
			shadows[o.sess] = sh
		case opPush:
			sh := shadows[o.sess]
			_, _, body := o.request(pool)
			var req pushWire
			tc.timed("server.decode", i, func() { err = json.Unmarshal(body, &req) })
			if err != nil {
				return 0, 0, err
			}
			var batch []geo.Point
			if sh.rp != nil {
				tc.timed("traj.repair", i, func() {
					for _, p := range req.Points {
						batch = append(batch, sh.rp.Push(geo.Point{X: p[0], Y: p[1], T: p[2]})...)
					}
				})
			} else {
				tc.timed("traj.validate", i, func() {
					check := make(traj.Trajectory, 0, len(req.Points)+1)
					if last, ok := sh.str.Last(); ok {
						check = append(check, last)
					}
					for _, p := range req.Points {
						check = append(check, geo.Point{X: p[0], Y: p[1], T: p[2]})
					}
					err = check.Validate()
					batch = check[len(check)-len(req.Points):]
				})
				if err != nil {
					return 0, 0, err
				}
			}
			tc.timed("core.push", i, func() {
				for _, p := range batch {
					sh.str.Push(p)
				}
			})
			resp := map[string]interface{}{"seen": sh.str.Seen(), "buffered": sh.str.BufferSize(), "skipped": 0}
			tc.timed("server.encode", i, func() { _, err = json.Marshal(resp) })
		case opSnapshot, opClose:
			sh := shadows[o.sess]
			var snap []geo.Point
			tc.timed("core.snapshot", i, func() { snap = sh.str.Snapshot() })
			pts := make([][3]float64, len(snap))
			for j, p := range snap {
				pts[j] = [3]float64{p.X, p.Y, p.T}
			}
			resp := map[string]interface{}{"algorithm": "RLTS", "w": streamW, "seen": sh.str.Seen(),
				"kept": len(pts), "error": sh.str.ErrEst(), "points": pts}
			tc.timed("server.encode", i, func() { _, err = json.Marshal(resp) })
			if o.kind == opClose {
				if sh.rp != nil {
					dropped += sh.rp.Report().Dropped()
				}
				delete(shadows, o.sess)
				continue
			}
			// A spill and a rehydration of this session, as the store
			// does them: export and encode, write atomically, read back,
			// decode and resume.
			if err := traceSpill(tc, i, sh, online, filepath.Join(dir, "s.sess")); err != nil {
				return 0, 0, err
			}
		}
	}
	for _, sh := range shadows {
		if sh.rp != nil {
			dropped += sh.rp.Report().Dropped()
		}
	}

	spills, _ := obs.Find(samples, "rlts_stream_spills_total", nil)
	rehyd, _ := obs.Find(samples, "rlts_stream_rehydrations_total", nil)
	exportMs, writeMs := tc.meanMs("core.export"), tc.meanMs("storage.write")
	readMs, resumeMs := tc.meanMs("storage.read"), tc.meanMs("core.resume")
	layers := 0.0
	for _, name := range []string{"server.decode", "traj.validate", "traj.repair", "core.push", "core.snapshot", "server.encode"} {
		d, _ := tc.sum(name)
		layers += ms(d)
	}
	layers += spills*(exportMs+writeMs) + rehyd*(readMs+resumeMs)
	handler := ms(handlerTotal) / float64(n)
	touches := kinds[opPush] + kinds[opSnapshot]

	l.put("server.handler_ms", handler, "ms")
	for _, name := range opNames {
		l.put("server."+name+"_ms", tc.meanMs("server."+name), "ms")
	}
	l.put("server.self_ms", handler-layers/float64(n), "ms")
	pushes := float64(kinds[opPush])
	decode, _ := tc.sum("server.decode")
	l.put("server.decode_ms", ms(decode)/pushes, "ms")
	l.put("server.decode_alloc_mb", decodeAlloc, "MiB")
	l.put("server.encode_ms", tc.meanMs("server.encode"), "ms")
	l.put("traj.validate_ms", tc.meanMs("traj.validate"), "ms")
	l.put("traj.repair_ms", tc.meanMs("traj.repair"), "ms")
	l.put("core.push_ms", tc.meanMs("core.push"), "ms")
	l.put("core.snapshot_ms", tc.meanMs("core.snapshot"), "ms")
	l.put("core.export_ms", exportMs, "ms")
	l.put("core.resume_ms", resumeMs, "ms")
	l.put("storage.write_ms", writeMs, "ms")
	l.put("storage.read_ms", readMs, "ms")
	l.put("server.bytes_in", float64(bytesIn)/float64(n), "bytes")
	l.put("server.bytes_out", float64(bytesOut)/float64(n), "bytes")
	l.put("stream.hot_hit_ratio", 1-rehyd/float64(touches), "ratio")
	l.put("stream.spills", spills, "count")
	l.put("stream.rehydrations", rehyd, "count")
	l.put("traj.repair_dropped", float64(dropped), "count")
	l.overhead(points, untraced, traced)
	return n, failed, nil
}

// traceSpill times one spill and one rehydration of a shadow session.
func traceSpill(tc *tracer, op int, sh *shadowSession, tr *core.Trained, path string) error {
	var data []byte
	tc.timed("core.export", op, func() {
		data = sh.str.ExportState().AppendBinary(nil)
		if sh.rp != nil {
			data = sh.rp.ExportState().AppendBinary(data)
		}
	})
	var err error
	tc.timed("storage.write", op, func() { err = storage.WriteFileAtomic(path, data) })
	if err != nil {
		return err
	}
	var back []byte
	tc.timed("storage.read", op, func() { back, err = os.ReadFile(path) })
	if err != nil {
		return err
	}
	stateLen := len(sh.str.ExportState().AppendBinary(nil))
	tc.timed("core.resume", op, func() {
		var st *core.StreamerState
		if st, err = core.DecodeStreamerState(back[:stateLen]); err != nil {
			return
		}
		if _, err = core.ResumeStreamer(tr.Policy.Clone(), tr.Opts, st, nil); err != nil {
			return
		}
		if sh.rp != nil {
			var rs *traj.RepairState
			if rs, err = traj.DecodeRepairState(back[stateLen:]); err != nil {
				return
			}
			_, err = traj.ResumeRepairer(rs)
		}
	})
	return err
}

func traceTrain(e *env, budget time.Duration, tc *tracer, l layerSet) (int, int, error) {
	set, err := newTrainSet(e)
	if err != nil {
		return 0, 0, err
	}
	episodes := core.DefaultTrainOptions().RL.Episodes
	// One worker, so a batch's time is its rollouts' plus the update's and
	// the residual below is the backward pass and Adam.
	train := func(c int, onBatch func(int) error) (*rl.Policy, int, error) {
		to := trainOptions(e.seed, c, 1)
		to.RL.OnBatch = onBatch
		tr, _, err := core.Train(set.chunks[c], trainVariant, to)
		if err != nil {
			return nil, 0, err
		}
		pts := 0
		for _, t := range set.chunks[c] {
			pts += episodes * len(t)
		}
		return tr.Policy, pts, nil
	}

	// U/T: whole passes over the chunks for half the budget, so every
	// chunk is weighted alike; each chunk is trained bare and then with a
	// span around every batch, alternating which goes first.
	var untraced, traced time.Duration
	var bare, trained []*rl.Policy
	rounds, points, batches := 0, 0, 0
	for start := time.Now(); rounds%len(set.chunks) != 0 || rounds == 0 || time.Since(start) < budget/2; rounds++ {
		c := rounds % len(set.chunks)
		runBare := func() error {
			t := time.Now()
			p, pts, err := train(c, nil)
			untraced += time.Since(t)
			bare, points = append(bare, p), points+pts
			return err
		}
		runSpanned := func() error {
			t := time.Now()
			id := tc.begin("core.batch", batches)
			p, _, err := train(c, func(int) error {
				tc.end(id)
				batches++
				id = tc.begin("core.batch", batches)
				return nil
			})
			tc.spans = tc.spans[:id] // the span opened after the last batch
			traced += time.Since(t)
			trained = append(trained, p)
			return err
		}
		first, second := runBare, runSpanned
		if rounds%2 == 1 {
			first, second = runSpanned, runBare
		}
		if err := first(); err != nil {
			return 0, 0, err
		}
		if err := second(); err != nil {
			return 0, 0, err
		}
	}
	failed := 0
	for r := range trained {
		a, errA := savePolicy(trained[r])
		b, errB := savePolicy(bare[r])
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			failed++
		}
	}

	// L: per trajectory, one batch's env stepping under random actions
	// and its train-mode forwards, replaying the states of the chunk's
	// trained policy.
	r := rand.New(rand.NewSource(e.seed))
	forwards, trajectories := 0, 0
	for c, chunk := range set.chunks {
		fwd := trained[c].Clone()
		for _, t := range chunk {
			i := trajectories
			trajectories++
			w := int(0.1 * float64(len(t)))
			if w < 4 {
				w = 4
			}
			tc.timed("core.env", i, func() {
				for ep := 0; ep < episodes; ep++ {
					if _, err = core.SimplifyRandom(t, w, trainVariant, r); err != nil {
						return
					}
				}
			})
			if err != nil {
				return 0, 0, err
			}
			dt, err := core.TraceGreedy(trained[c], t, w, trainVariant)
			if err != nil {
				return 0, 0, err
			}
			forwards += episodes * len(dt.Actions)
			tc.timed("rl.forward", i, func() {
				for ep := 0; ep < episodes; ep++ {
					for k := range dt.Actions {
						fwd.Probs(dt.States[k*dt.StateSize:(k+1)*dt.StateSize], dt.Masks[k], true)
					}
				}
			})
		}
	}
	batchMs := tc.meanMs("core.batch")
	envMs, fwdMs := tc.meanMs("core.env"), tc.meanMs("rl.forward")
	l.put("core.batch_ms", batchMs, "ms")
	l.put("core.env_ms", envMs, "ms")
	l.put("rl.forward_ms", fwdMs, "ms")
	l.put("rl.forwards", float64(forwards)/float64(trajectories), "count")
	l.put("rl.update_ms", batchMs-envMs-fwdMs, "ms")
	l.overhead(points, untraced, traced)
	return batches, failed, nil
}
