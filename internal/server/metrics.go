package server

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strings"

	"rlts/internal/obs"
)

// metricsSet holds the server-side metric handles for one registry.
// Registration in obs is idempotent, so building a set twice for the same
// registry (Server and Harden both do it) yields the same instances.
type metricsSet struct {
	reg       *obs.Registry
	inflight  *obs.Gauge
	shed      *obs.Counter
	panics    *obs.Counter
	deadlines *obs.Counter
}

func newMetricsSet(reg *obs.Registry) *metricsSet {
	return &metricsSet{
		reg: reg,
		inflight: reg.Gauge("rlts_http_inflight_requests",
			"Requests currently being processed (after load shedding)"),
		shed: reg.Counter("rlts_http_shed_total",
			"Requests rejected with 429 by the load shedder"),
		panics: reg.Counter("rlts_http_panics_total",
			"Handler panics recovered into 500 responses"),
		deadlines: reg.Counter("rlts_http_deadline_total",
			"Requests that expired their deadline (504)"),
	}
}

// request returns the per-route/per-code request counter. Looked up per
// request: a mutex-guarded map access, invisible next to JSON decoding a
// trajectory.
func (m *metricsSet) request(route, code string) *obs.Counter {
	return m.reg.Counter("rlts_http_requests_total",
		"HTTP requests by route and status code",
		obs.L("route", route), obs.L("code", code))
}

// latency returns the per-route latency histogram.
func (m *metricsSet) latency(route string) *obs.Histogram {
	return m.reg.Histogram("rlts_http_request_seconds",
		"HTTP request latency by route", obs.DefLatencyBuckets,
		obs.L("route", route))
}

// routeLabel collapses a request path onto the served route pattern so
// metric cardinality stays bounded no matter what clients send.
func routeLabel(path string) string {
	switch path {
	case "/healthz", "/metrics", "/v1/algorithms", "/v1/simplify", "/v1/simplify/batch", "/v1/stats", "/v1/stream", "/v1/fleet":
		return path
	}
	if strings.HasPrefix(path, "/debug/pprof") {
		return "/debug/pprof"
	}
	if rest, ok := strings.CutPrefix(path, "/v1/stream/"); ok {
		if strings.HasSuffix(rest, "/points") {
			return "/v1/stream/{id}/points"
		}
		return "/v1/stream/{id}"
	}
	if rest, ok := strings.CutPrefix(path, "/v1/fleet/"); ok {
		switch {
		case strings.HasSuffix(rest, "/attach"):
			return "/v1/fleet/{id}/attach"
		case strings.HasSuffix(rest, "/detach"):
			return "/v1/fleet/{id}/detach"
		case strings.HasSuffix(rest, "/rebalance"):
			return "/v1/fleet/{id}/rebalance"
		}
		return "/v1/fleet/{id}"
	}
	return "other"
}

// statusRecorder captures the response status for metrics and logging,
// and enforces the advisory headers that belong on backpressure statuses:
// 429 (shed) and 504 (deadline) responses carry Retry-After no matter
// which layer wrote them.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
		if code == http.StatusTooManyRequests || code == http.StatusGatewayTimeout {
			if sr.Header().Get("Retry-After") == "" {
				sr.Header().Set("Retry-After", "1")
			}
		}
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// Status returns the recorded status, defaulting to 200 when the handler
// never wrote one explicitly.
func (sr *statusRecorder) Status() int {
	if sr.status == 0 {
		return http.StatusOK
	}
	return sr.status
}

// newRequestID generates a 16-hex-char random request id.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is effectively impossible; a fixed id still
		// lets the request proceed.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// sanitizeRequestID bounds a client-supplied id: printable ASCII only,
// at most 64 chars — anything else is replaced by a generated id, so log
// lines and response headers can't be polluted.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 64 {
		return newRequestID()
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x21 || id[i] > 0x7e {
			return newRequestID()
		}
	}
	return id
}
