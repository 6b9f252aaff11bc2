package server

import (
	"net/http"

	"rlts/internal/core"
)

// FastMath serving. POST /v1/simplify and POST /v1/simplify/batch accept
// ?fast=1: policy inference then runs the fused approximate kernels
// (nn.KernelFast) instead of the exact ones — same decisions on every
// adversarial family, distributions within the measured bounds of
// DESIGN.md §13, at a >1.5x kernel speedup. Every response carries a
// "mode" field ("exact" or "fast") reporting which kernels actually ran:
// heuristic baselines have no fast variant and always report "exact", as
// does a ?fast=1 request against a server built with Config.DisableFast.

const (
	modeExact = "exact"
	modeFast  = "fast"
)

// fastRequested reports whether the request opted into the FastMath
// kernels via the fast query parameter ("1" or "true").
func fastRequested(r *http.Request) bool {
	switch r.URL.Query().Get("fast") {
	case "1", "true":
		return true
	}
	return false
}

// fastPolicies builds the FastMath counterpart of a policy registry: one
// FastClone per registered policy, under the same keys. The exact
// originals are never touched — fast serving is a parallel registry, not
// a mode flag on shared state, so the exact path cannot be contaminated.
func fastPolicies(policies map[string]*core.Trained) map[string]*core.Trained {
	fast := make(map[string]*core.Trained, len(policies))
	for k, p := range policies {
		fast[k] = p.FastClone()
	}
	return fast
}
