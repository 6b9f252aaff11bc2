// Command perfbench is the repository's end-to-end benchmark. It drives
// the real rlts-server binary over loopback (batch_plus, stream_spill) or
// trains in-process (train_plus), verifies every result against an
// in-process reference, and prints one JSON result line:
//
//	perfbench --workload batch_plus --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of the chosen
// workload. With --trace 1 it carries the per-layer metrics: a traced
// in-process replay of all three workloads' seeded inputs (see trace.go),
// so every per-layer metric is a measurement on every run. --selftest runs
// each workload at a tiny size, checks the printed names and units against
// BENCHMARK.json and proves that a tampered response counts as failed.
//
// Build and run it through perfbench/run.sh, which builds rlts-server from
// the same checkout first.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env carries what every workload needs from the command line.
type env struct {
	root    string // checkout root
	server  string // rlts-server binary
	work    string // per-run scratch directory under .bench_build
	seed    int64
	seconds float64
	warmup  time.Duration
	scale   scale
	tamper  bool // self-test: alter one verified output before checking it
}

// scale sizes a workload's inputs; full is the benchmark's, tiny the
// self-test's.
type scale struct {
	batchPool, batchItems, batchMinN, batchMaxN int
	streamSlots, streamHot, streamPool          int
	trainChunks, trainChunk, trainMinN          int
	trainMaxN, heldOut                          int
	setupRepeats                                int
}

var fullScale = scale{
	batchPool: 24, batchItems: 64, batchMinN: 100, batchMaxN: 1000,
	streamSlots: 32, streamHot: 32, streamPool: 1024,
	trainChunks: 4, trainChunk: 8, trainMinN: 300, trainMaxN: 800, heldOut: 32,
	setupRepeats: 21,
}

var tinyScale = scale{
	batchPool: 3, batchItems: 4, batchMinN: 100, batchMaxN: 300,
	streamSlots: 4, streamHot: 4, streamPool: 8,
	trainChunks: 2, trainChunk: 2, trainMinN: 100, trainMaxN: 200, heldOut: 4,
	setupRepeats: 3,
}

var workloads = map[string]func(*env) (*result, error){
	"batch_plus":   runBatch,
	"stream_spill": runStream,
	"train_plus":   runTrain,
}

func main() {
	var (
		root     = flag.String("root", ".", "checkout root (holds BENCHMARK.json and the build directory)")
		server   = flag.String("server", "", "rlts-server binary")
		workload = flag.String("workload", "", "batch_plus, stream_spill or train_plus")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 15, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 = print per-layer metrics from the traced replay")
		self     = flag.Bool("selftest", false, "run every workload tiny and check the benchmark itself")
	)
	flag.Parse()
	if err := run(*root, *server, *workload, *seed, *seconds, *trace, *self); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(root, server, workload string, seed int64, seconds float64, trace int, self bool) error {
	if server == "" {
		return fmt.Errorf("--server is required (use perfbench/run.sh)")
	}
	base := filepath.Join(root, ".bench_build", "runs")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := &env{root: root, server: server, work: work, seed: seed, seconds: seconds,
		warmup: time.Second, scale: fullScale}
	if self {
		return selfTest(e)
	}
	if _, ok := workloads[workload]; !ok {
		return fmt.Errorf("unknown --workload %q (want batch_plus, stream_spill or train_plus)", workload)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	printProvenance(workload, seed, seconds, trace)
	var res *result
	switch trace {
	case 0:
		res, err = workloads[workload](e)
	case 1:
		res, err = runTrace(e)
	default:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		return err
	}
	return printResult(res)
}

func printResult(res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}

// printProvenance records what the numbers were measured on.
func printProvenance(workload string, seed int64, seconds float64, trace int) {
	p := map[string]interface{}{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
	}
	b, _ := json.Marshal(p)
	fmt.Printf("provenance %s\n", b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
