package main

// The benchmark's self-test (--selftest): every workload and the traced
// run at a tiny size, with the printed metric names and units checked
// against BENCHMARK.json, and one deliberately tampered output per
// workload that must come back counted as failed.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readSpec(root string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// checkNames reports every difference between the printed metrics and
// the declared names and units.
func checkNames(got map[string]metric, want []struct{ Name, Unit string }) error {
	var problems []string
	declared := map[string]bool{}
	for _, w := range want {
		declared[w.Name] = true
		m, ok := got[w.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+w.Name)
		case m.Unit != w.Unit:
			problems = append(problems, fmt.Sprintf("%s has unit %q, declared %q", w.Name, m.Unit, w.Unit))
		}
	}
	for name := range got {
		if !declared[name] {
			problems = append(problems, "undeclared "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metrics do not match BENCHMARK.json: %v", problems)
	}
	return nil
}

// tinyRun runs one workload (or the traced run) at the self-test size in
// its own scratch directory.
func tinyRun(e *env, name string, tamper bool, run func(*env) (*result, error)) (*result, error) {
	work, err := os.MkdirTemp(e.work, name+"-")
	if err != nil {
		return nil, err
	}
	t := *e
	t.work, t.scale, t.tamper = work, tinyScale, tamper
	t.seconds, t.warmup = 1, 200*time.Millisecond
	return run(&t)
}

func selfTest(e *env) error {
	spec, err := readSpec(e.root)
	if err != nil {
		return err
	}
	fails := 0
	check := func(what string, err error) {
		if err != nil {
			fails++
			fmt.Printf("selftest FAIL %s: %v\n", what, err)
			return
		}
		fmt.Printf("selftest ok   %s\n", what)
	}
	for _, w := range spec.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			check(w.Name, fmt.Errorf("BENCHMARK.json names a workload the benchmark does not run"))
			continue
		}
		res, err := tinyRun(e, w.Name, false, run)
		if err == nil && (!res.Correct || res.Failed != 0 || res.Attempted < 1) {
			err = fmt.Errorf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
		}
		if err == nil {
			err = checkNames(res.Metrics, spec.EndToEnd)
		}
		check(w.Name+": verified run, names and units", err)

		res, err = tinyRun(e, w.Name, true, run)
		if err == nil && (res.Correct || res.Failed == 0) {
			err = fmt.Errorf("a tampered output passed verification (correct %v, %d of %d failed)", res.Correct, res.Failed, res.Attempted)
		}
		if err == nil {
			fmt.Printf("selftest      %s: tampered output counted: %d of %d operations failed\n", w.Name, res.Failed, res.Attempted)
		}
		check(w.Name+": tampered output counted as failed", err)
	}
	res, err := tinyRun(e, "trace", false, runTrace)
	if err == nil && (!res.Correct || res.Failed != 0) {
		err = fmt.Errorf("traced replay: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
	if err == nil {
		err = checkNames(res.Metrics, spec.PerLayer)
	}
	check("traced run: per-layer names and units", err)
	if fails > 0 {
		return fmt.Errorf("self-test: %d checks failed", fails)
	}
	fmt.Println("selftest passed")
	return nil
}
