// Package server exposes trajectory simplification as an HTTP service —
// the deployment shape of the paper's batch mode (a server holding
// accumulated trajectories that shrinks them before storage or query
// processing). The service is stateless: each request carries a
// trajectory and names an algorithm; trained RLTS policies are registered
// at construction.
//
// Endpoints (JSON in/out):
//
//	GET    /healthz               liveness probe
//	GET    /metrics               Prometheus text-format metrics scrape
//	GET    /v1/algorithms         available algorithm names
//	POST   /v1/simplify           simplify one trajectory
//	POST   /v1/simplify/batch     simplify many trajectories in one request
//	POST   /v1/stats              Table-I-style statistics for a trajectory
//	POST   /v1/stream             open a streaming session (see stream.go)
//	GET    /v1/stream             list streaming sessions
//	POST   /v1/stream/{id}/points push points into a session
//	GET    /v1/stream/{id}        snapshot a session's simplification
//	DELETE /v1/stream/{id}        close a session
//	POST   /v1/fleet              create a fleet (shared budget; see fleet.go)
//	GET    /v1/fleet              list fleets
//	GET    /v1/fleet/{id}         fleet allocation + per-member error report
//	POST   /v1/fleet/{id}/attach  attach a session to a fleet
//	POST   /v1/fleet/{id}/detach  detach a session
//	POST   /v1/fleet/{id}/rebalance recompute and apply the allocation
//	DELETE /v1/fleet/{id}         delete a fleet
//
// With Config.EnablePprof, net/http/pprof is additionally mounted under
// /debug/pprof/.
//
// A simplify request:
//
//	{"algorithm": "rlts+", "measure": "SED", "w": 50,        // or "ratio": 0.1
//	 "points": [[x, y, t], ...]}
//
// and its response:
//
//	{"algorithm": "RLTS+", "mode": "exact", "kept": 50, "of": 500,
//	 "error": 3.21, "points": [[x, y, t], ...]}
//
// POST /v1/simplify and /v1/simplify/batch accept ?fast=1 to run policy
// inference on the FastMath kernels (see fast.go and DESIGN.md §13); the
// response's "mode" field reports which kernels actually ran.
//
// Failures come back as typed JSON errors — {"error": message, "code":
// machine-readable-code} — with the conventional status: 400 for invalid
// input (non-finite coordinates, unordered timestamps, bad budgets), 413
// for oversized bodies or trajectories, 429 under load shedding, 504 when
// the per-request deadline expires, and 500 for recovered panics. The
// Harden middleware (panic recovery, load shedding, deadlines) wraps every
// handler; see middleware.go.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"

	baseBatch "rlts/internal/baseline/batch"
	baseOnline "rlts/internal/baseline/online"
	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/obs"
	"rlts/internal/traj"
)

// MaxBodyBytes bounds request bodies at 64 MiB. A 1,000,000-point
// trajectory is ~25-50 MB of JSON depending on coordinate precision, so
// the limit admits the largest sane request (see Config.MaxPoints) with
// headroom while refusing unbounded uploads with 413.
const MaxBodyBytes = 64 << 20

// Machine-readable error codes carried in the "code" field of error
// responses.
const (
	codeBadRequest       = "bad_request"
	codeInvalidPoints    = "invalid_points"
	codeInvalidBudget    = "invalid_budget"
	codeInvalidMeasure   = "invalid_measure"
	codeUnknownAlgorithm = "unknown_algorithm"
	codeMethodNotAllowed = "method_not_allowed"
	codeBodyTooLarge     = "body_too_large"
	codeTooManyPoints    = "too_many_points"
	codeOverloaded       = "overloaded"
	codeTimeout          = "timeout"
	codeInternal         = "internal"
)

// Server routes simplification requests to registered algorithms.
type Server struct {
	mux        *http.ServeMux
	cfg        Config
	policies   map[string]*core.Trained       // lower-case name -> policy
	fast       map[string]*core.Trained       // FastClones under the same keys (see fast.go)
	clones     *policyPool[*core.Trained]     // single-trajectory policy runs
	engines    *policyPool[*core.BatchEngine] // batch shards
	batchMet   *batchMetricsSet
	fastReq    *obs.Counter
	boundUnmet *obs.Counter
	repairMet  *repairMetrics
	streams    *streamManager
	fleets     *fleetManager
}

// New creates a server with the given trained policies registered under
// their paper names (e.g. "rlts+") and default hardening (see Config).
// The heuristic baselines are always available.
func New(policies []*core.Trained) *Server {
	return NewWith(policies, Config{})
}

// NewWith is New with explicit hardening configuration.
func NewWith(policies []*core.Trained, cfg Config) *Server {
	s := &Server{
		mux:      http.NewServeMux(),
		cfg:      cfg.normalized(),
		policies: make(map[string]*core.Trained),
	}
	for _, p := range policies {
		key := strings.ToLower(p.Opts.Name() + "/" + p.Opts.Measure.String())
		s.policies[key] = p
	}
	if !s.cfg.DisableFast {
		s.fast = fastPolicies(s.policies)
	}
	s.clones = newPolicyPool(cloneTrained)
	s.engines = newPolicyPool(greedyEngine)
	s.batchMet = newBatchMetricsSet(s.cfg.Metrics)
	s.fastReq = s.cfg.Metrics.Counter("rlts_fast_requests_total",
		"Policy runs served with the FastMath kernels (?fast=1)")
	s.boundUnmet = s.cfg.Metrics.Counter("rlts_bound_unmet_total",
		"Error-bounded responses whose oracle-re-scored error exceeded the requested bound")
	s.repairMet = newRepairMetrics(s.cfg.Metrics)
	s.streams = newStreamManager(s.policies, s.cfg)
	s.fleets = newFleetManager(s.cfg)
	s.startFleetJanitor()
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.Handle("/metrics", s.cfg.Metrics.Handler())
	s.mux.HandleFunc("/v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("/v1/simplify", s.handleSimplify)
	s.mux.HandleFunc("/v1/simplify/batch", s.handleSimplifyBatch)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/stream", s.handleStream)
	s.mux.HandleFunc("/v1/stream/{id}", s.handleStreamSession)
	s.mux.HandleFunc("/v1/stream/{id}/points", s.handleStreamPush)
	s.mux.HandleFunc("/v1/fleet", s.handleFleet)
	s.mux.HandleFunc("/v1/fleet/{id}", s.handleFleetID)
	s.mux.HandleFunc("/v1/fleet/{id}/attach", s.handleFleetAttach)
	s.mux.HandleFunc("/v1/fleet/{id}/detach", s.handleFleetDetach)
	s.mux.HandleFunc("/v1/fleet/{id}/rebalance", s.handleFleetRebalance)
	if s.cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the http.Handler for the service, wrapped in the
// hardening and instrumentation middleware (request ids, metrics, panic
// recovery, load shedding, per-request deadlines).
func (s *Server) Handler() http.Handler { return Harden(s.mux, s.cfg) }

// Close releases background resources (the streaming session janitor
// and the fleet rebalancer). The HTTP side needs no teardown; Close
// exists so long-lived embedders and tests do not leak the goroutines.
func (s *Server) Close() {
	s.streams.stop()
	s.fleets.shutdown()
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "GET only")
		return
	}
	names := []string{
		"sttrace", "squish", "squish-e", "top-down", "bottom-up", "bellman", "span-search", "uniform",
	}
	for k := range s.policies {
		names = append(names, k)
	}
	sort.Strings(names)
	writeJSON(w, map[string]interface{}{"algorithms": names})
}

// simplifyRequest is the wire format of POST /v1/simplify. Exactly one
// of w/ratio (Min-Error: fixed budget, smallest error) or bound
// (Min-Size: fixed error, smallest output) may be set; see bounded.go
// for the bound mode.
type simplifyRequest struct {
	Algorithm string        `json:"algorithm"`
	Measure   string        `json:"measure"`
	W         int           `json:"w"`
	Ratio     float64       `json:"ratio"`
	Bound     *float64      `json:"bound,omitempty"`
	Repair    *repairParams `json:"repair,omitempty"` // opt-in dirty-input repair (see repair.go)
	Points    [][3]float64  `json:"points"`
}

type simplifyResponse struct {
	Algorithm string            `json:"algorithm"`
	Mode      string            `json:"mode"` // "exact" or "fast" — the kernels that ran
	Kept      int               `json:"kept"`
	Of        int               `json:"of"`
	Error     float64           `json:"error"`
	Bound     *float64          `json:"bound,omitempty"`     // echo of the requested bound
	BoundMet  *bool             `json:"bound_met,omitempty"` // re-scored by the exact oracle
	Repair    *repairReportJSON `json:"repair,omitempty"`    // per-defect repair accounting
	Points    [][3]float64      `json:"points"`
}

// decodeBody decodes a JSON request body under the size limit, reporting
// the failure itself (413 for an oversized body, 400 otherwise). Returns
// false when the request is already answered.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return false
		}
		httpError(w, http.StatusBadRequest, codeBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// parseTrajectory validates raw points into a trajectory, reporting the
// failure itself. Returns nil when the request is already answered.
func (s *Server) parseTrajectory(w http.ResponseWriter, points [][3]float64) traj.Trajectory {
	if s.cfg.MaxPoints > 0 && len(points) > s.cfg.MaxPoints {
		httpError(w, http.StatusRequestEntityTooLarge, codeTooManyPoints,
			"trajectory has %d points, limit is %d", len(points), s.cfg.MaxPoints)
		return nil
	}
	t, err := traj.FromPoints(points)
	if err != nil {
		s.rejectPoints(w, err)
		return nil
	}
	return t
}

// ingestTrajectory is parseTrajectory with the repair opt-in: when
// params is non-nil the raw points go through the repair pipeline
// instead of strict validation, and the per-defect accounting comes
// back for the response. Returns nil when the request is answered.
func (s *Server) ingestTrajectory(w http.ResponseWriter, points [][3]float64, params *repairParams) (traj.Trajectory, *repairReportJSON) {
	if s.cfg.MaxPoints > 0 && len(points) > s.cfg.MaxPoints {
		httpError(w, http.StatusRequestEntityTooLarge, codeTooManyPoints,
			"trajectory has %d points, limit is %d", len(points), s.cfg.MaxPoints)
		return nil, nil
	}
	if params == nil {
		return s.parseTrajectory(w, points), nil
	}
	return s.repairTrajectory(w, points, params)
}

// budget resolves the storage budget from the request's w/ratio pair,
// reporting invalid combinations itself. Returns (0, false) when the
// request is already answered.
func budget(w http.ResponseWriter, req *simplifyRequest, n int) (int, bool) {
	if req.W != 0 {
		if req.Ratio != 0 {
			// A conflicting pair used to be resolved silently in w's favor;
			// the caller meant something, and guessing which half hides bugs.
			httpError(w, http.StatusBadRequest, codeInvalidBudget,
				"w (%d) and ratio (%g) are mutually exclusive; send one", req.W, req.Ratio)
			return 0, false
		}
		if req.W < 2 {
			httpError(w, http.StatusBadRequest, codeInvalidBudget, "w must be >= 2, got %d", req.W)
			return 0, false
		}
		return req.W, true
	}
	ratio := req.Ratio
	if ratio == 0 {
		ratio = 0.1 // default budget: keep 10%
	}
	if ratio < 0 || ratio >= 1 {
		httpError(w, http.StatusBadRequest, codeInvalidBudget, "ratio must be in (0, 1), got %g", ratio)
		return 0, false
	}
	b := int(ratio * float64(n))
	if b < 2 {
		b = 2
	}
	return b, true
}

func (s *Server) handleSimplify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "POST only")
		return
	}
	var req simplifyRequest
	if !decodeBody(w, r, &req) {
		return
	}
	t, repairRep := s.ingestTrajectory(w, req.Points, req.Repair)
	if t == nil {
		return
	}
	m := errm.SED
	if req.Measure != "" {
		var err error
		m, err = errm.Parse(req.Measure)
		if err != nil {
			httpError(w, http.StatusBadRequest, codeInvalidMeasure, "%v", err)
			return
		}
	}
	if req.Bound != nil {
		s.serveBounded(w, r, &req, t, m)
		return
	}
	b, ok := budget(w, &req, len(t))
	if !ok {
		return
	}
	name, kept, mode, err := s.run(r.Context(), strings.ToLower(req.Algorithm), t, b, m, fastRequested(r))
	if err != nil {
		writeRunError(w, err)
		return
	}
	resp := simplifyResponse{
		Algorithm: name,
		Mode:      mode,
		Kept:      len(kept),
		Of:        len(t),
		Error:     errm.Error(m, t, kept),
		Repair:    repairRep,
	}
	core.ObserveErrorIn(s.cfg.Metrics, m, resp.Error)
	for _, ix := range kept {
		p := t[ix]
		resp.Points = append(resp.Points, [3]float64{p.X, p.Y, p.T})
	}
	writeJSON(w, &resp)
}

// writeRunError maps a simplification failure to its transport shape:
// deadline expiry becomes 504, client cancellation is left unanswered
// (the connection is gone), and anything else is a 400.
func writeRunError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, codeTimeout, "request deadline exceeded")
	case errors.Is(err, context.Canceled):
		// The client went away; nothing useful can be written.
	default:
		httpError(w, http.StatusBadRequest, codeUnknownAlgorithm, "%v", err)
	}
}

// run dispatches to a policy or a baseline, reporting the kernel mode
// that ran alongside the result. Policies execute on an exclusive pooled
// clone (the registered instance's forward scratch is not concurrent-safe
// under MaxConcurrent-way parallelism) — from the fast registry when the
// request opted in and FastMath is enabled, the exact one otherwise. The
// context cancels the policy scan mid-trajectory; the heuristic baselines
// run to completion (they are bounded by MaxPoints, and bellman
// additionally by its own size cap) and have no fast variant.
func (s *Server) run(ctx context.Context, algo string, t traj.Trajectory, w int, m errm.Measure, fast bool) (string, []int, string, error) {
	key := strings.ToLower(algo + "/" + m.String())
	if p, ok := s.policies[key]; ok {
		mode := modeExact
		if fast {
			if fp, ok := s.fast[key]; ok {
				p, mode = fp, modeFast
				s.fastReq.Inc()
			}
		}
		c, err := s.clones.get(p)
		if err != nil {
			return "", nil, mode, err
		}
		kept, err := c.SimplifyGreedyCtx(ctx, t, w)
		s.clones.put(p, c)
		return p.Opts.Name(), kept, mode, err
	}
	switch algo {
	case "sttrace":
		kept, err := baseOnline.STTrace(t, w, m)
		return "STTrace", kept, modeExact, err
	case "squish":
		kept, err := baseOnline.SQUISH(t, w, m)
		return "SQUISH", kept, modeExact, err
	case "squish-e", "squishe":
		kept, err := baseOnline.SQUISHE(t, w, m)
		return "SQUISH-E", kept, modeExact, err
	case "top-down", "topdown":
		kept, err := baseBatch.TopDown(t, w, m)
		return "Top-Down", kept, modeExact, err
	case "bottom-up", "bottomup", "":
		kept, err := baseBatch.BottomUp(t, w, m)
		return "Bottom-Up", kept, modeExact, err
	case "bellman":
		if len(t) > 2000 {
			return "", nil, modeExact, fmt.Errorf("server: bellman is cubic; refusing %d points (max 2000)", len(t))
		}
		kept, err := baseBatch.Bellman(t, w, m)
		return "Bellman", kept, modeExact, err
	case "span-search", "spansearch":
		kept, err := baseBatch.SpanSearch(t, w)
		return "Span-Search", kept, modeExact, err
	case "uniform":
		kept, err := baseOnline.Uniform(t, w)
		return "Uniform", kept, modeExact, err
	}
	return "", nil, modeExact, fmt.Errorf("server: unknown algorithm %q (policies need a matching measure)", algo)
}

type statsResponse struct {
	Points      int     `json:"points"`
	Duration    float64 `json:"duration_s"`
	PathLength  float64 `json:"path_length_m"`
	AvgGap      float64 `json:"avg_gap_s"`
	AvgDistance float64 `json:"avg_distance_m"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "POST only")
		return
	}
	var req struct {
		Points [][3]float64 `json:"points"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	t := s.parseTrajectory(w, req.Points)
	if t == nil {
		return
	}
	st := traj.Summarize([]traj.Trajectory{t})
	writeJSON(w, &statsResponse{
		Points:      t.Len(),
		Duration:    t.Duration(),
		PathLength:  t.PathLength(),
		AvgGap:      st.AvgSampleRate,
		AvgDistance: st.AvgDistance,
	})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late for a status change; the connection will just break.
		return
	}
}

// httpError writes the typed JSON error shape: a human-readable message
// plus a stable machine-readable code.
func httpError(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{
		"error": fmt.Sprintf(format, args...),
		"code":  code,
	})
}
