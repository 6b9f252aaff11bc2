package main

// train_plus: in-process core.Train of RLTS+ SED with the paper's
// defaults (k=3, 10 episodes per trajectory, hidden 20, Adam lr 1e-3) on
// nproc workers. The seeded Geolife dataset is split into chunks; the
// window trains one chunk after another from a fresh policy, each round a
// full core.Train call, and times every per-trajectory update batch
// between OnBatch calls. Afterwards each chunk is trained again with one
// worker, and every round's policy must be bit-identical to it.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/rl"
	"rlts/internal/traj"
)

// heldOutSeed fixes the evaluation set of error_mean across input seeds,
// so the metric moves with the trained policy, not with the test data.
const heldOutSeed = 20210419

// trainSet is the seeded training input and the fixed held-out set.
type trainSet struct {
	chunks  [][]traj.Trajectory
	heldOut []traj.Trajectory
	csv     string // the dataset as rlts-train -in reads it
}

func newTrainSet(e *env) (*trainSet, error) {
	sc := e.scale
	// Every chunk holds the same lengths, evenly spaced over
	// [trainMinN, trainMaxN] in a seeded order, so chunks cost alike.
	r := rand.New(rand.NewSource(e.seed*15485863 + 5))
	g := gen.New(gen.Geolife(), e.seed*15485863+6)
	ts := &trainSet{
		heldOut: gen.New(gen.Geolife(), heldOutSeed).DatasetVaried(sc.heldOut, sc.trainMinN, sc.trainMaxN),
		csv:     filepath.Join(e.work, "train.csv"),
	}
	var all []traj.Trajectory
	for i := 0; i < sc.trainChunks; i++ {
		var chunk []traj.Trajectory
		for _, n := range spacedLengths(r, sc.trainChunk, sc.trainMinN, sc.trainMaxN) {
			chunk = append(chunk, g.Trajectory(n))
		}
		ts.chunks = append(ts.chunks, chunk)
		all = append(all, chunk...)
	}
	f, err := os.Create(ts.csv)
	if err != nil {
		return nil, err
	}
	if err := traj.WriteCSV(f, all); err != nil {
		f.Close()
		return nil, fmt.Errorf("write training set: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return ts, nil
}

// readDataset is the training set-up the benchmark times: loading the
// prepared dataset file the way rlts-train -in does.
func readDataset(path string) ([]traj.Trajectory, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return traj.ReadCSV(f)
}

// trainOptions are the paper's defaults with the given worker count and
// a per-chunk seed.
func trainOptions(seed int64, chunk, workers int) core.TrainOptions {
	to := core.DefaultTrainOptions()
	to.RL.Seed = seed*31 + int64(chunk)
	to.RL.Workers = workers
	return to
}

var trainVariant = core.DefaultOptions(errm.SED, core.Plus)

// savePolicy serializes a policy; bit-identical policies save to equal
// bytes.
func savePolicy(p *rl.Policy) ([]byte, error) {
	var b bytes.Buffer
	if err := p.Save(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// trainRound is one core.Train call of the window.
type trainRound struct {
	chunk  int
	policy *rl.Policy
	timed  bool // started inside the measured window
	ops    []op // one per batch; ok is settled by verification
}

func runTrain(e *env) (*result, error) {
	sc := e.scale
	set, err := newTrainSet(e)
	if err != nil {
		return nil, err
	}
	var reads []float64
	var loaded []traj.Trajectory
	for i := 0; i < sc.setupRepeats; i++ {
		start := time.Now()
		loaded, err = readDataset(set.csv)
		if err != nil {
			return nil, fmt.Errorf("read training set: %w", err)
		}
		reads = append(reads, time.Since(start).Seconds())
	}
	if len(loaded) != sc.trainChunks*sc.trainChunk {
		return nil, fmt.Errorf("training set read back %d trajectories, wrote %d", len(loaded), sc.trainChunks*sc.trainChunk)
	}
	setup := median(reads)
	// Train on what was read back: the file round-trips every float.
	for i := range set.chunks {
		set.chunks[i] = loaded[i*sc.trainChunk : (i+1)*sc.trainChunk]
	}

	workers := runtime.NumCPU()
	episodes := core.DefaultTrainOptions().RL.Episodes
	t0 := time.Now().Add(e.warmup)
	end := t0.Add(window(e))
	var rounds []*trainRound
	for r := 0; time.Now().Before(end); r++ {
		round := &trainRound{chunk: r % len(set.chunks)}
		chunk := set.chunks[round.chunk]
		timed := !time.Now().Before(t0)
		to := trainOptions(e.seed, round.chunk, workers)
		last := time.Now()
		to.RL.OnBatch = func(batch int) error {
			now := time.Now()
			round.ops = append(round.ops, op{start: last.Sub(t0), dur: now.Sub(last), points: episodes * len(chunk[batch-1])})
			last = now
			return nil
		}
		tr, _, err := core.Train(chunk, trainVariant, to)
		if err != nil {
			return nil, fmt.Errorf("train chunk %d: %w", round.chunk, err)
		}
		round.policy = tr.Policy
		round.timed = timed
		rounds = append(rounds, round)
	}
	rss, err := vmHWM("self")
	if err != nil {
		return nil, err
	}

	// Reference: every chunk trained once more on a single worker.
	refs := make([][]byte, len(set.chunks))
	refPolicies := make([]*rl.Policy, len(set.chunks))
	errs := make([]error, len(set.chunks))
	parallel(len(set.chunks), func(_, c int) {
		tr, _, err := core.Train(set.chunks[c], trainVariant, trainOptions(e.seed, c, 1))
		if err == nil {
			refPolicies[c] = tr.Policy
			refs[c], err = savePolicy(tr.Policy)
		}
		errs[c] = err
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference training: %w", err)
		}
	}
	var ops []op
	warmOK, tampered := true, !e.tamper
	for i, round := range rounds {
		p := round.policy
		if !tampered && round.timed {
			p, tampered = tamperPolicy(p), true
		}
		got, err := savePolicy(p)
		if err != nil {
			return nil, err
		}
		same := bytes.Equal(got, refs[round.chunk])
		if !same {
			fmt.Printf("train_plus: round %d (chunk %d) differs from its one-worker training\n", i, round.chunk)
		}
		if !round.timed {
			warmOK = warmOK && same
			continue
		}
		for _, o := range round.ops {
			if o.start < window(e) { // the last round runs past the window's end
				o.ok = same
				ops = append(ops, o)
			}
		}
	}
	errMean, err := heldOutError(refPolicies, set.heldOut)
	if err != nil {
		return nil, err
	}
	res, err := endToEnd(ops, window(e), setup, rss, errMean)
	if err != nil {
		return nil, err
	}
	res.Correct = res.Correct && warmOK
	fmt.Printf("train_plus: %d workers, %d rounds over %d chunks of %d trajectories, %d batches timed\n",
		workers, len(rounds), len(set.chunks), sc.trainChunk, len(ops))
	return res, nil
}

// heldOutError is the mean greedy SED error, at ratio 0.1, of each chunk's
// trained policy on the fixed held-out set, averaged over the chunks.
func heldOutError(policies []*rl.Policy, heldOut []traj.Trajectory) (float64, error) {
	var errs []float64
	for _, p := range policies {
		tr := &core.Trained{Opts: trainVariant, Policy: p}
		for _, t := range heldOut {
			kept, err := tr.SimplifyGreedy(t, len(t)/10)
			if err != nil {
				return 0, fmt.Errorf("held-out simplification: %w", err)
			}
			errs = append(errs, errm.Error(errm.SED, t, kept))
		}
	}
	return mean(errs), nil
}

// tamperPolicy returns a copy of p with one weight nudged: the self-test's
// stand-in for a trainer that lost bit-identity.
func tamperPolicy(p *rl.Policy) *rl.Policy {
	c := p.Clone()
	params := c.Net.FlattenParams(nil)
	params[0] += 1e-9
	c.Net.SetParams(params)
	return c
}
