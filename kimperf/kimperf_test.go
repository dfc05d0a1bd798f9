package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// tinyScale runs every workload in well under a second of set-up.
var tinyScale = scale{
	wireReadObjs:  64,
	wireWriteObjs: 16,
	oo1Parts:      400,
	oo1Roots:      4,
	hierPerClass:  40,
	scatterObjs:   600,
	setupReps:     1,
}

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkloadsTiny runs every workload at tiny scale, untraced and
// traced: every correctness check must pass, nothing may fail, and the
// printed metrics must be exactly the ones BENCHMARK.json declares, with
// the declared units.
func TestWorkloadsTiny(t *testing.T) {
	b := loadBenchmark(t)
	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	sort.Strings(declared)
	if len(names) != len(declared) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}
	for i := range names {
		if names[i] != declared[i] {
			t.Fatalf("workloads %v, BENCHMARK.json declares %v", names, declared)
		}
	}
	units := func(ms []struct{ Name, Unit string }) map[string]string {
		out := make(map[string]string, len(ms))
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	e2e, layer := units(b.EndToEnd), units(b.PerLayer)

	for _, name := range names {
		for _, trace := range []bool{false, true} {
			name, trace := name, trace
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				rep, err := run(config{
					workload: name, seed: 5, seconds: 0.5, trace: trace,
					scale: tinyScale, workDir: t.TempDir(),
				})
				if err != nil {
					t.Fatal(err)
				}
				r := rep.result
				if !r.Correct {
					t.Fatal("a correctness check failed (mismatches are on stderr)")
				}
				if r.Attempted == 0 || r.Failed != 0 {
					t.Fatalf("attempted %d, failed %d: want some attempted and none failed", r.Attempted, r.Failed)
				}
				want := e2e
				if trace {
					want = layer
				}
				for n, m := range r.Metrics {
					if u, ok := want[n]; !ok {
						t.Errorf("printed metric %q is not in BENCHMARK.json", n)
					} else if u != m.Unit {
						t.Errorf("metric %q printed with unit %q, BENCHMARK.json says %q", n, m.Unit, u)
					}
				}
				for n := range want {
					if _, ok := r.Metrics[n]; !ok {
						t.Errorf("BENCHMARK.json metric %q was not printed", n)
					}
				}
			})
		}
	}
}

// TestSelfTime checks the tracer's self-time bookkeeping: a parent's self
// time is its duration minus its children's, so the self times of a span
// tree add up to the root's duration.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.begin(spOp)
	tr.begin(spCoreFetch)
	time.Sleep(time.Millisecond)
	tr.end()
	tr.begin(spSchemaGet)
	tr.end()
	time.Sleep(time.Millisecond)
	tr.end()
	tot := tr.totals
	if tot.count[spOp] != 1 || tot.count[spCoreFetch] != 1 || tot.count[spSchemaGet] != 1 {
		t.Fatalf("counts %v", tot.count)
	}
	if sum := tot.self[spOp] + tot.self[spCoreFetch] + tot.self[spSchemaGet]; sum != tot.total[spOp] {
		t.Fatalf("self times add up to %d ns, root lasted %d ns", sum, tot.total[spOp])
	}
	if tot.self[spOp] < int64(time.Millisecond) || tot.self[spCoreFetch] < int64(time.Millisecond) {
		t.Fatalf("self times %v miss the sleeps", tot.self)
	}
	if len(tr.spans) != 3 || tr.spans[2].parent != -1 || tr.spans[0].parent != tr.spans[2].id {
		t.Fatalf("span tree %+v", tr.spans)
	}
}
