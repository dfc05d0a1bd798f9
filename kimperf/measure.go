package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"oodb/internal/obs"
	"oodb/internal/server/client"
	"oodb/internal/shard"
	"oodb/internal/txn"
)

// kind is an operation type. Each kind belongs to one of the two streams
// every workload reports: main (reads or queries) or side (commits or
// traversals).
type kind int

const (
	kGet          kind = iota // wire Get of one attribute
	kFetch                    // wire Fetch of a whole object
	kLookup                   // embedded Fetch plus one attribute read
	kSnapQuery                // embedded query in a snapshot transaction
	kLockedQuery              // embedded query under class S locks
	kScatterQuery             // scatter query through the shard router
	kTraversal                // OO1 closure traversal
	kCommit                   // one durable commit
	numKinds
)

const (
	mainStream = 0
	sideStream = 1
)

var kindStream = [numKinds]int{
	kGet: mainStream, kFetch: mainStream, kLookup: mainStream,
	kSnapQuery: mainStream, kLockedQuery: mainStream, kScatterQuery: mainStream,
	kTraversal: sideStream, kCommit: sideStream,
}

// clientLoop is one closed-loop client goroutine's state. Only its own
// goroutine touches it while a window runs.
type clientLoop struct {
	id  int
	rng *rand.Rand
	n   int     // operations issued so far, across windows
	tr  *tracer // nil outside the traced window

	buf                         *sampleBuf // this window's successful operations
	windowStart                 time.Time
	attempted, failed           int64 // this window
	totalAttempted, totalFailed int64
	mismatches                  []string

	// Traced-window accumulators read from obs around single operations.
	rowsExamined, rowsReturned uint64 // row-returning queries
	legNs, legs                uint64 // member-side scatter legs
}

func newLoop(id int, seed int64) *clientLoop {
	return &clientLoop{id: id, rng: rand.New(rand.NewSource(seed*7919 + int64(id)*104729 + 1))}
}

func (c *clientLoop) resetWindow() {
	c.attempted, c.failed = 0, 0
	c.rowsExamined, c.rowsReturned, c.legNs, c.legs = 0, 0, 0, 0
}

// done records one attempted operation of kind k that started at t0. A
// failed operation is counted and never retried; it has no latency.
func (c *clientLoop) done(k kind, t0 time.Time, err error) bool {
	end := time.Now()
	c.n++
	c.attempted++
	c.totalAttempted++
	if err != nil {
		c.failed++
		c.totalFailed++
		if !expectedFailure(err) && c.totalFailed <= 5 {
			fmt.Fprintf(os.Stderr, "kimperf: client %d: unexpected error: %v\n", c.id, err)
		}
		return false
	}
	if c.buf != nil {
		c.buf.add(sample{d: int64(end.Sub(t0)), at: int64(end.Sub(c.windowStart)), k: k})
	}
	return true
}

// mismatch records a wrong answer; the run then reports correct=false.
func (c *clientLoop) mismatch(format string, args ...any) {
	if len(c.mismatches) < 20 {
		c.mismatches = append(c.mismatches, fmt.Sprintf(format, args...))
	}
}

// expectedFailure reports the failures a closed loop can meet by design:
// deadlock victims, admission sheds and partial scatter answers.
func expectedFailure(err error) bool {
	var pe *shard.PartialError
	return errors.Is(err, txn.ErrDeadlock) || client.Retryable(err) || errors.As(err, &pe)
}

// workload is one benchmark workload. setup builds everything in dir;
// step runs one operation of client c; finish runs the end-of-run checks.
type workload interface {
	setup(dir string) error
	clients() int
	step(c *clientLoop)
	finish(c *clientLoop)
	close() error
}

// workloads maps each workload's name to its constructor.
var workloads = map[string]func(sc scale, seed int64) workload{
	"wire-oltp":  newWireOLTP,
	"oo1-nav":    newOO1Nav,
	"query-mvcc": newQueryMVCC,
	"scatter":    newScatter,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// windowStats is one measurement window.
type windowStats struct {
	elapsed       time.Duration
	bufs          []*sampleBuf  // one per client
	count         [numKinds]int // successful operations by kind
	dropped       int64         // samples that did not fit a buffer
	attempted     int64
	failed        int64
	before, after obs.Snapshot
	rtBefore      runtime.MemStats
	rtAfter       runtime.MemStats
	heapPeak      uint64
	cpu           time.Duration // process CPU time, user and system
	spans         spanTotals
	rowsExamined  uint64
	rowsReturned  uint64
	legNs, legs   uint64
}

// runWindow runs every client's closed loop for d and collects the
// window's latencies, obs deltas and runtime deltas. traced gives each
// client a span recorder for the window.
func runWindow(w workload, clients []*clientLoop, d time.Duration, traced bool) (*windowStats, error) {
	ws := &windowStats{}
	for _, c := range clients {
		c.resetWindow()
		c.tr = nil
		if traced {
			c.tr = newTracer()
		}
		buf, err := newSampleBuf()
		if err != nil {
			ws.free()
			return nil, err
		}
		c.buf = buf
		ws.bufs = append(ws.bufs, buf)
	}
	runtime.GC()
	stopHeap := make(chan struct{})
	heapDone := make(chan uint64)
	go sampleHeap(stopHeap, heapDone)

	runtime.ReadMemStats(&ws.rtBefore)
	ws.before = obs.TakeSnapshot()
	cpu0 := processCPU()
	t0 := time.Now()
	deadline := t0.Add(d)
	for _, c := range clients {
		c.windowStart = t0
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *clientLoop) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				w.step(c)
			}
		}(c)
	}
	wg.Wait()
	ws.elapsed = time.Since(t0)
	ws.cpu = processCPU() - cpu0
	ws.after = obs.TakeSnapshot()
	runtime.ReadMemStats(&ws.rtAfter)
	close(stopHeap)
	ws.heapPeak = <-heapDone

	for _, c := range clients {
		for _, smp := range c.buf.s {
			ws.count[smp.k]++
		}
		ws.dropped += c.buf.dropped
		c.buf = nil
		ws.attempted += c.attempted
		ws.failed += c.failed
		ws.rowsExamined += c.rowsExamined
		ws.rowsReturned += c.rowsReturned
		ws.legNs += c.legNs
		ws.legs += c.legs
		if c.tr != nil {
			ws.spans.add(c.tr)
		}
	}
	return ws, nil
}

// free releases the window's sample buffers.
func (ws *windowStats) free() {
	for _, b := range ws.bufs {
		_ = b.free() // unmapping memory this process mapped cannot fail usefully
	}
	ws.bufs = nil
}

// processCPU is the CPU time the process has used, user and system.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleHeap samples the live heap (as the last GC marked it, so garbage
// awaiting collection does not count) every 10ms until stop and sends the
// peak.
func sampleHeap(stop <-chan struct{}, out chan<- uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > peak {
			peak = v
		}
		select {
		case <-stop:
			out <- peak
			return
		case <-t.C:
		}
	}
}

// subWindows is how many equal slices a window is cut into. Rates and
// percentiles are computed per slice and reported as the median over the
// slices, so a burst of host noise in one slice moves the figure little.
const subWindows = 10

// streamStats is a set of operations' rate and latency percentiles, each
// the median over the window's slices.
type streamStats struct {
	n             int
	perS          float64
	p50, p90, p99 float64 // ns

	// Per slice, for the report line.
	sliceN   []int
	sliceP50 []float64 // µs
	sliceP90 []float64 // µs
}

func (ws *windowStats) stats(ks ...kind) streamStats {
	want := make(map[kind]bool, len(ks))
	for _, k := range ks {
		want[k] = true
	}
	slices := make([][]int64, subWindows)
	st := streamStats{}
	for _, b := range ws.bufs {
		for _, smp := range b.s {
			if !want[smp.k] {
				continue
			}
			i := int(smp.at * subWindows / int64(ws.elapsed))
			if i >= subWindows {
				i = subWindows - 1
			}
			slices[i] = append(slices[i], smp.d)
			st.n++
		}
	}
	var rate, p50, p90, p99 []float64
	sliceS := ws.elapsed.Seconds() / subWindows
	for _, sl := range slices {
		sort.Slice(sl, func(i, j int) bool { return sl[i] < sl[j] })
		rate = append(rate, float64(len(sl))/sliceS)
		st.sliceN = append(st.sliceN, len(sl))
		if len(sl) == 0 {
			continue
		}
		st.sliceP50 = append(st.sliceP50, quantile(sl, 0.50)/1e3)
		st.sliceP90 = append(st.sliceP90, quantile(sl, 0.90)/1e3)
		p50 = append(p50, quantile(sl, 0.50))
		p90 = append(p90, quantile(sl, 0.90))
		p99 = append(p99, quantile(sl, 0.99))
	}
	st.perS, st.p50, st.p90, st.p99 = median(rate), median(p50), median(p90), median(p99)
	return st
}

// stream is stats over every kind of one stream.
func (ws *windowStats) stream(s int) streamStats {
	var ks []kind
	for k := kind(0); k < numKinds; k++ {
		if kindStream[k] == s {
			ks = append(ks, k)
		}
	}
	return ws.stats(ks...)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if len(xs)%2 == 1 {
		return xs[len(xs)/2]
	}
	return (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
}

// quantile is the nearest-rank q-quantile of sorted (0 if empty).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// endToEnd is the --trace 0 metric set: the same names on every workload.
// The main stream is the workload's reads (wire-oltp, oo1-nav) or queries
// (query-mvcc, scatter); the side stream its commits (wire-oltp,
// query-mvcc, scatter) or traversals (oo1-nav). The main tail is p90: a
// p99 needs 1000 samples, which the query streams do not reach. The side
// stream's rate and tail are reported under their per-operation names
// only: commit rates and tails follow the shared disk's fsync latency and
// the host's CPU steal too closely to gate on (README.md).
func endToEnd(ws *windowStats, setupS float64) map[string]metric {
	main, side := ws.stream(mainStream), ws.stream(sideStream)
	return map[string]metric{
		"setup_s":       {setupS, "s"},
		"main_per_s":    {main.perS, "1/s"},
		"main_p50_us":   {main.p50 / 1e3, "us"},
		"main_p90_us":   {main.p90 / 1e3, "us"},
		"side_p50_us":   {side.p50 / 1e3, "us"},
		"success_share": {1 - float64(ws.failed)/float64(max64(ws.attempted, 1)), "share"},
		"heap_peak_mb":  {float64(ws.heapPeak) / (1 << 20), "MiB"},
	}
}

// namedMetrics reports the window under the per-operation names of the
// benchmark's design (read_*, commit_*, query_*, ...), each only where its
// operation runs, with its sample count. A p99 needs 1000 samples in each
// slice; below that the tail is reported as p90.
func namedMetrics(ws *windowStats, setupS float64) map[string]any {
	out := map[string]any{
		"setup_s":      setupS,
		"failed_share": float64(ws.failed) / float64(max64(ws.attempted, 1)),
		"attempted":    ws.attempted,
		"heap_peak_mb": float64(ws.heapPeak) / (1 << 20),
		"window_s":     ws.elapsed.Seconds(),
		"cpu_s":        ws.cpu.Seconds(),
	}
	for name, s := range map[string]int{"main": mainStream, "side": sideStream} {
		st := ws.stream(s)
		out["slices_"+name] = map[string]any{"n": st.sliceN, "p50_us": st.sliceP50, "p90_us": st.sliceP90}
	}
	if ws.dropped > 0 {
		out["samples_dropped"] = ws.dropped
	}
	family := func(name string, div float64, unit string, ks ...kind) {
		st := ws.stats(ks...)
		if st.n == 0 {
			return
		}
		out[name+"_per_s"] = st.perS
		out[name+"_p50_"+unit] = st.p50 / div
		if st.n >= 1000*subWindows {
			out[name+"_p99_"+unit] = st.p99 / div
		} else {
			out[name+"_p90_"+unit] = st.p90 / div
		}
		out[name+"_samples"] = st.n
	}
	family("read", 1e3, "us", kGet, kFetch, kLookup)
	family("commit", 1e3, "us", kCommit)
	family("query", 1e6, "ms", kSnapQuery, kLockedQuery, kScatterQuery)
	if st := ws.stats(kSnapQuery); st.n > 0 {
		out["snapshot_query_p50_ms"] = st.p50 / 1e6
	}
	if st := ws.stats(kLockedQuery); st.n > 0 {
		out["locked_query_p50_ms"] = st.p50 / 1e6
	}
	family("traversal", 1e6, "ms", kTraversal)
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// runMeta describes the host and settings a run was measured under.
func runMeta(cfg config, dir string) map[string]any {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+modified"
			}
		}
	}
	return map[string]any{
		"cpus":         runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"kernel":       kernelRelease(),
		"temp_fs":      fsType(dir),
		"flush_policy": "engine default: fsync at every commit (scatter members load with NoSync, then reopen with the default)",
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"git_commit":   commit,
		"load_shape":   "closed loop, one process, at most 2 client goroutines and 2 connections",
	}
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Release))
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}
