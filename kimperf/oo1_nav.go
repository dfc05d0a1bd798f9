package main

// oo1-nav: the paper's own benchmark (§5.6, OO1) and the one workload
// whose working set is larger than the cache. The fragmented OO1 graph is
// built with a large pool, then reopened with a pool of about a quarter
// of the class's pages. One client runs full closure traversals from
// seeded roots; the other runs random part lookups (Fetch plus one
// attribute read). Read-only: server, wal and query do no work here.

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"time"

	"oodb"
	"oodb/internal/bench"
)

const (
	oo1Conn      = 3
	oo1NoisePer  = 4
	oo1BuildPool = 8192
)

type oo1Nav struct {
	sc   scale
	seed int64

	db    *oodb.DB
	g     *bench.OO1
	pages int // heap pages of the Part segment
	pool  int // buffer pool pages after the reopen

	roots     []int    // seeded traversal roots (pids)
	refVisits []int    // per root, computed with the large pool
	refHash   []uint64 // per root
	refX      []int64  // x of every pid

	seen map[oodb.OID]bool // traversal client only
}

func newOO1Nav(sc scale, seed int64) workload { return &oo1Nav{sc: sc, seed: seed} }

func (w *oo1Nav) clients() int { return 2 }

func (w *oo1Nav) setup(dir string) error {
	db, err := oodb.Open(dir, oodb.Options{PoolPages: oo1BuildPool})
	if err != nil {
		return err
	}
	g, err := bench.BuildOO1(db, w.sc.oo1Parts, oo1Conn, oo1NoisePer, w.seed)
	if err != nil {
		return errors.Join(err, db.Close())
	}
	w.g = g
	r := rand.New(rand.NewSource(w.seed))
	w.roots = r.Perm(g.N)[:w.sc.oo1Roots]
	for _, pid := range w.roots {
		visits, hash, err := g.Closure(db, pid)
		if err != nil {
			return errors.Join(err, db.Close())
		}
		w.refVisits = append(w.refVisits, visits)
		w.refHash = append(w.refHash, hash)
	}
	w.refX = make([]int64, g.N)
	for pid, oid := range g.Parts {
		obj, err := db.Fetch(oid)
		if err != nil {
			return errors.Join(err, db.Close())
		}
		v, err := db.Get(obj, "x")
		if err != nil {
			return errors.Join(err, db.Close())
		}
		w.refX[pid], _ = v.AsInt()
	}
	cls, err := db.ClassByName("Part")
	if err != nil {
		return errors.Join(err, db.Close())
	}
	info, err := db.Engine().SegmentInfo(cls.ID)
	if err != nil {
		return errors.Join(err, db.Close())
	}
	w.pages = info.Pages
	if err := db.Close(); err != nil {
		return err
	}
	w.pool = w.pages / 4
	if w.pool < 16 {
		w.pool = 16
	}
	w.db, err = oodb.Open(dir, oodb.Options{PoolPages: w.pool})
	return err
}

func (w *oo1Nav) step(c *clientLoop) {
	if c.id == 0 {
		w.traverse(c)
	} else {
		w.lookup(c)
	}
}

func (w *oo1Nav) traverse(c *clientLoop) {
	i := c.rng.Intn(len(w.roots))
	c.tr.begin(spOp)
	t0 := time.Now()
	visits, hash, err := w.closure(c.tr, w.roots[i])
	if c.done(kTraversal, t0, err) && (visits != w.refVisits[i] || hash != w.refHash[i]) {
		c.mismatch("closure from pid %d: %d visits hash %x, want %d visits hash %x",
			w.roots[i], visits, hash, w.refVisits[i], w.refHash[i])
	}
	c.tr.end()
}

// closure is bench.OO1.Closure with a span around every call into the
// engine: the same depth-first order, one DB.Fetch per visit, and the
// same order-sensitive FNV-1a fingerprint of the visited pids.
func (w *oo1Nav) closure(tr *tracer, rootPid int) (int, uint64, error) {
	if w.seen == nil {
		w.seen = make(map[oodb.OID]bool, w.g.N)
	}
	seen := w.seen
	clear(seen)
	h := fnv.New64a()
	var buf [8]byte
	stack := []oodb.OID{w.g.Parts[rootPid]}
	visited := 0
	for len(stack) > 0 {
		oid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[oid] {
			continue
		}
		seen[oid] = true
		tr.begin(spCoreFetch)
		obj, err := w.db.Fetch(oid)
		tr.end()
		if err != nil {
			return visited, 0, err
		}
		visited++
		tr.begin(spSchemaGet)
		pidV, err := w.db.Get(obj, "pid")
		tr.end()
		if err != nil {
			return visited, 0, err
		}
		pid, _ := pidV.AsInt()
		for b := 0; b < 8; b++ {
			buf[b] = byte(uint64(pid) >> (8 * b))
		}
		_, _ = h.Write(buf[:])
		tr.begin(spSchemaGet)
		to, err := w.db.Get(obj, "to")
		tr.end()
		if err != nil {
			return visited, 0, err
		}
		members, _ := to.AsSet()
		for j := len(members) - 1; j >= 0; j-- {
			if ref, ok := members[j].AsRef(); ok && !seen[ref] {
				stack = append(stack, ref)
			}
		}
	}
	return visited, h.Sum64(), nil
}

func (w *oo1Nav) lookup(c *clientLoop) {
	pid := c.rng.Intn(w.g.N)
	tr := c.tr
	tr.begin(spOp)
	defer tr.end()
	t0 := time.Now()
	tr.begin(spCoreFetch)
	obj, err := w.db.Fetch(w.g.Parts[pid])
	tr.end()
	var x oodb.Value
	if err == nil {
		tr.begin(spSchemaGet)
		x, err = w.db.Get(obj, "x")
		tr.end()
	}
	if c.done(kLookup, t0, err) {
		if got, _ := x.AsInt(); got != w.refX[pid] {
			c.mismatch("lookup pid %d: x %d, want %d", pid, got, w.refX[pid])
		}
	}
}

// finish traverses from every root once more with the small pool.
func (w *oo1Nav) finish(c *clientLoop) {
	for i, pid := range w.roots {
		t0 := time.Now()
		visits, hash, err := w.closure(nil, pid)
		if c.done(kTraversal, t0, err) && (visits != w.refVisits[i] || hash != w.refHash[i]) {
			c.mismatch("final closure from pid %d: %d visits hash %x, want %d visits hash %x",
				pid, visits, hash, w.refVisits[i], w.refHash[i])
		}
	}
}

func (w *oo1Nav) close() error {
	if w.db == nil {
		return nil
	}
	return w.db.Close()
}
