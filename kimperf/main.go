// Command kimperf is kimdb's benchmark. It runs one of four closed-loop
// workloads from a seed, checks every answer it gets, and prints every
// metric by name with its unit. BENCHMARK.json at the repository root
// lists the workloads and metrics; README.md in this directory gives the
// prediction table (which layer metric should move which end-to-end
// metric, on which workload) and the known gaps.
//
// Usage (from the repository root):
//
//	bash kimperf/run.sh --workload wire-oltp --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics of an untraced measurement window. With --trace 1 the run
// measures an untraced window and then a traced one of the same length,
// and the last line carries the per-layer metrics of the traced window,
// including the tracing overhead against the untraced one. Spans of the
// traced window are written to .bench_build/kimperf/.
//
// Every workload is driven from this one process with at most two client
// goroutines: a closed loop, each client sending its next request when the
// previous one has returned. Databases live in a temporary directory under
// .bench_build/, on the checkout's own (disk-backed) filesystem, with the
// engine's default flush policy: an fsync at every commit.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// scale sizes a workload. fullScale is what BENCHMARK.json runs; the
// self-test uses tinyScale.
type scale struct {
	wireReadObjs  int // wire-oltp: preloaded objects the reader reads
	wireWriteObjs int // wire-oltp: objects the writer updates
	oo1Parts      int // oo1-nav: OO1 parts
	oo1Roots      int // oo1-nav: seeded traversal roots
	hierPerClass  int // query-mvcc: objects per class (13 classes)
	scatterObjs   int // scatter: Part objects over both members
	setupReps     int // set-ups per run at least; setup_s is their median
	// setupBudget is the set-up time after which a run stops repeating
	// its set-up, once it has setupReps of them. A fast set-up repeats
	// more (up to maxSetupReps), since its median needs more to settle.
	setupBudget time.Duration
}

const maxSetupReps = 11

var fullScale = scale{
	wireReadObjs:  2048,
	wireWriteObjs: 512,
	oo1Parts:      8000,
	oo1Roots:      16,
	hierPerClass:  1540,
	scatterObjs:   20000,
	setupReps:     3,
	setupBudget:   2 * time.Second,
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	workDir  string // databases and span files go below it
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of one measurement window")
	trace := flag.Int("trace", 0, "1 = add a traced window and report per-layer metrics")
	flag.Parse()
	cfg.trace = *trace == 1
	cfg.scale = fullScale
	cfg.workDir = filepath.Join(".bench_build", "kimperf")
	if *trace != 0 && *trace != 1 {
		fail(errors.New("--trace must be 0 or 1"))
	}
	if cfg.seconds <= 0 {
		fail(errors.New("--seconds must be positive"))
	}
	rep, err := run(cfg)
	if err != nil {
		fail(err)
	}
	detail, err := json.Marshal(rep.detail)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(detail))
	last, err := json.Marshal(rep.result)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(last))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "kimperf:", err)
	os.Exit(1)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run prints.
type report struct {
	detail map[string]any
	result result
}

// run sets the workload up setupReps times (keeping the last set-up),
// warms it up, measures an untraced window and, with tracing, a traced
// one, then runs the end-of-run correctness checks.
func run(cfg config) (*report, error) {
	newWorkload, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, workloadNames())
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	base, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	var w workload
	var setups []float64
	var spent time.Duration
	for rep := 0; rep < cfg.scale.setupReps || (spent < cfg.scale.setupBudget && rep < maxSetupReps); rep++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", rep, err)
			}
		}
		dir := filepath.Join(base, fmt.Sprintf("setup%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		w = newWorkload(cfg.scale, cfg.seed)
		t0 := time.Now()
		if err := w.setup(dir); err != nil {
			_ = w.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	defer func() {
		if w != nil { // an error return; the error already says what failed
			_ = w.close()
		}
	}()

	clients := make([]*clientLoop, w.clients())
	for i := range clients {
		clients[i] = newLoop(i, cfg.seed)
	}
	warm := time.Duration(cfg.seconds * float64(time.Second) / 5)
	if warm < 200*time.Millisecond {
		warm = 200 * time.Millisecond
	}
	if warm > 2*time.Second {
		warm = 2 * time.Second
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	warmup, err := runWindow(w, clients, warm, false)
	if err != nil {
		return nil, err
	}
	warmup.free()
	plain, err := runWindow(w, clients, window, false)
	if err != nil {
		return nil, err
	}
	defer plain.free()
	var traced *windowStats
	if cfg.trace {
		if traced, err = runWindow(w, clients, window, true); err != nil {
			return nil, err
		}
		defer traced.free()
	}
	end := newLoop(len(clients), cfg.seed)
	w.finish(end)
	err = w.close()
	w = nil
	if err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}

	all := append(append([]*clientLoop{}, clients...), end)
	var attempted, failed int64
	var mismatches []string
	for _, c := range all {
		attempted += c.totalAttempted
		failed += c.totalFailed
		mismatches = append(mismatches, c.mismatches...)
	}
	for _, m := range mismatches {
		fmt.Fprintln(os.Stderr, "kimperf: mismatch:", m)
	}
	if attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}

	setupS := median(append([]float64(nil), setups...))
	detail := map[string]any{
		"workload": cfg.workload,
		"meta":     runMeta(cfg, base),
		"setup_s":  setups,
		"named":    namedMetrics(plain, setupS),
	}
	res := result{
		Correct:   len(mismatches) == 0,
		Attempted: attempted,
		Failed:    failed,
	}
	if cfg.trace {
		detail["named_traced"] = namedMetrics(traced, setupS)
		res.Metrics = layerMetrics(plain, traced)
		path, err := writeSpans(cfg, clients)
		if err != nil {
			return nil, err
		}
		detail["spans_file"] = path
		detail["spans_dropped"] = traced.spans.dropped
	} else {
		res.Metrics = endToEnd(plain, setupS)
	}
	return &report{detail: detail, result: res}, nil
}
