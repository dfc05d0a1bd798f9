package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName names a call the benchmark makes into a layer's public
// function. Spans are recorded only from the benchmark's own code, around
// those calls; the engine is not instrumented for them.
type spanName uint8

const (
	spOp           spanName = iota // one benchmark operation (the root)
	spClientGet                    // client.Client.Get
	spClientFetch                  // client.Client.Fetch / FetchFresh
	spClientUpd                    // client.Client.Update
	spClientIns                    // client.Client.Insert
	spClientDel                    // client.Client.Delete
	spClientBegin                  // client.Client.Begin
	spClientCommit                 // client.Client.Commit
	spCoreFetch                    // oodb.DB.Fetch / core.Tx.Fetch
	spSchemaGet                    // oodb.DB.Get (attribute resolution)
	spCoreBegin                    // oodb.DB.Begin
	spCoreUpdate                   // core.Tx.Update, including its lock wait
	spCoreCommit                   // core.Tx.Commit of a write transaction
	spCoreEnd                      // core.Tx.Commit of a read-only transaction
	spTxnLock                      // core.Tx.LockClassScan on the plan scope
	spQueryRun                     // oodb.DB.Query / QuerySnapshot / QueryTx
	spQueryParse                   // query.Parse
	spShardQuery                   // shard.Router.Query
	spShardUpdate                  // shard.Router.Update
	numSpans
)

var spanInfo = [numSpans]struct{ name, layer string }{
	spOp:           {"bench.op", "bench"},
	spClientGet:    {"client.Get", "server"},
	spClientFetch:  {"client.Fetch", "server"},
	spClientUpd:    {"client.Update", "server"},
	spClientIns:    {"client.Insert", "server"},
	spClientDel:    {"client.Delete", "server"},
	spClientBegin:  {"client.Begin", "server"},
	spClientCommit: {"client.Commit", "server"},
	spCoreFetch:    {"core.Fetch", "core"},
	spSchemaGet:    {"schema.Get", "schema"},
	spCoreBegin:    {"core.Begin", "core"},
	spCoreUpdate:   {"core.Update", "core"},
	spCoreCommit:   {"core.Commit", "core"},
	spCoreEnd:      {"core.CommitReadOnly", "core"},
	spTxnLock:      {"txn.LockClassScan", "txn"},
	spQueryRun:     {"query.Run", "query"},
	spQueryParse:   {"query.Parse", "query"},
	spShardQuery:   {"shard.Query", "shard"},
	spShardUpdate:  {"shard.Update", "shard"},
}

// spanLayers are the layers self time is reported for, in report order.
var spanLayers = []string{"bench", "server", "core", "schema", "txn", "query", "shard"}

// maxSpans bounds the spans one client keeps for the span file; totals
// cover every span regardless.
const maxSpans = 100000

type span struct {
	id, parent int32
	req        uint32
	name       spanName
	start, end int64 // ns since the tracer started
}

type openSpan struct {
	id, parent int32
	name       spanName
	start      int64
	child      int64 // ns covered by already-closed child spans
}

// tracer records one client goroutine's spans. Begin and end nest like a
// stack. A nil tracer records nothing, so untraced windows pay one nil
// check per call site.
type tracer struct {
	base   time.Time
	req    uint32
	nextID int32
	stack  []openSpan
	spans  []span
	totals spanTotals
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 4096)}
}

// begin opens a span. A root span (spOp) starts a new request id.
func (t *tracer) begin(n spanName) {
	if t == nil {
		return
	}
	if n == spOp {
		t.req++
	}
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1].id
	}
	t.nextID++
	t.stack = append(t.stack, openSpan{id: t.nextID, parent: parent, name: n, start: int64(time.Since(t.base))})
}

// end closes the innermost open span and charges its self time: its
// duration minus the part its child spans cover.
func (t *tracer) end() {
	if t == nil {
		return
	}
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	now := int64(time.Since(t.base))
	d := now - top.start
	t.totals.count[top.name]++
	t.totals.total[top.name] += d
	t.totals.self[top.name] += d - top.child
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].child += d
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{id: top.id, parent: top.parent, req: t.req, name: top.name, start: top.start, end: now})
	} else {
		t.totals.dropped++
	}
}

// spanTotals sums spans by name.
type spanTotals struct {
	count, total, self [numSpans]int64
	dropped            int64
}

func (s *spanTotals) add(t *tracer) {
	for i := range s.count {
		s.count[i] += t.totals.count[i]
		s.total[i] += t.totals.total[i]
		s.self[i] += t.totals.self[i]
	}
	s.dropped += t.totals.dropped
}

// meanUs is the mean duration of the named spans in µs (0 if none).
func (s *spanTotals) meanUs(names ...spanName) float64 {
	var n, d int64
	for _, nm := range names {
		n += s.count[nm]
		d += s.total[nm]
	}
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n) / 1e3
}

// layerSelfNs is the summed self time of every span of layer.
func (s *spanTotals) layerSelfNs(layer string) int64 {
	var d int64
	for i := range s.self {
		if spanInfo[i].layer == layer {
			d += s.self[i]
		}
	}
	return d
}

// writeSpans writes the traced window's kept spans, one JSON object a
// line, and returns the file's path.
func writeSpans(cfg config, clients []*clientLoop) (string, error) {
	path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	for _, c := range clients {
		if c.tr == nil {
			continue
		}
		for _, s := range c.tr.spans {
			fmt.Fprintf(bw, `{"client":%d,"req":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				c.id, s.req, s.id, s.parent, spanInfo[s.name].name, s.start, s.end)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
