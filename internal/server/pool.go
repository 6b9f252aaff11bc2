package server

import (
	"sync"

	"rlts/internal/core"
)

// policyPool hands exclusive per-policy values to concurrent handlers:
// Trained clones for single-trajectory runs and BatchEngines for batch
// shards. A policy reuses its forward scratch across calls and is not
// safe for concurrent use, while the hardening middleware admits up to
// MaxConcurrent requests at once — so every policy run checks a value
// out instead of sharing the registered instance. Pools key on the
// *core.Trained pointer, so fast and exact registry entries draw from
// disjoint pools, and since a clone inherits its source's kernel
// selection (rl.Policy.Clone) a pooled value never changes kernels.
type policyPool[T any] struct {
	build func(*core.Trained) (T, error) // makes a value on pool miss

	mu    sync.Mutex
	pools map[*core.Trained]*sync.Pool
}

func newPolicyPool[T any](build func(*core.Trained) (T, error)) *policyPool[T] {
	return &policyPool[T]{build: build, pools: make(map[*core.Trained]*sync.Pool)}
}

// cloneTrained is the clone pool's build func: the same options over a
// private copy of the policy network.
func cloneTrained(p *core.Trained) (*core.Trained, error) {
	return &core.Trained{Opts: p.Opts, Policy: p.Policy.Clone()}, nil
}

// greedyEngine is the engine pool's build func: a BatchEngine over its
// own policy clone, always greedy (the serving convention).
func greedyEngine(p *core.Trained) (*core.BatchEngine, error) {
	return core.NewBatchEngine(p.Policy.Clone(), p.Opts, false)
}

func (pp *policyPool[T]) pool(p *core.Trained) *sync.Pool {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	pool, ok := pp.pools[p]
	if !ok {
		pool = &sync.Pool{}
		pp.pools[p] = pool
	}
	return pool
}

// get checks out an exclusive value for p, building one on pool miss.
func (pp *policyPool[T]) get(p *core.Trained) (T, error) {
	if v, ok := pp.pool(p).Get().(T); ok {
		return v, nil
	}
	return pp.build(p)
}

// put returns a value checked out with get(p).
func (pp *policyPool[T]) put(p *core.Trained, v T) { pp.pool(p).Put(v) }
