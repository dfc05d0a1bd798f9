package main

// scatter: the only workload through the shard layer. Two kimsrv members
// run in-process behind a shard.Router; Part objects are spread over them
// by the router's ring, and each member indexes weight. One client sends
// scatter queries (a two-sided range on weight returning ~150 rows, the
// same with ORDER BY weight LIMIT 10, and COUNT/AVG) and, every 4th
// operation, a routed durable Update of weight: index maintenance under
// locked readers (router legs run locked Query on the members).
//
// Members load with NoSync (one fsync per routed insert would dominate
// set-up), then close and reopen with the engine default of an fsync at
// every commit before anything is measured.

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"oodb"
	"oodb/internal/model"
	"oodb/internal/obs"
	"oodb/internal/query"
	"oodb/internal/server"
	"oodb/internal/server/client"
	"oodb/internal/shard"
)

const (
	scatterMembers  = 2
	scatterWeights  = 20000
	scatterRangeW   = 150
	scatterCheckLos = 8 // range parameters compared against the reference before timing
)

type scatterMember struct {
	dir string
	db  *oodb.DB
	srv *server.Server
}

type scatterW struct {
	sc   scale
	seed int64

	members []*scatterMember
	router  *shard.Router

	// The benchmark's model of the data, kept in step with every
	// acknowledged routed update; every answer is checked against it.
	oids    []model.OID
	names   []string
	weights []int64

	qn int // queries issued (single client)
}

func newScatter(sc scale, seed int64) workload { return &scatterW{sc: sc, seed: seed} }

func (w *scatterW) clients() int { return 1 }

func defineParts(db *oodb.DB) error {
	if _, err := db.DefineClass("Part", nil,
		oodb.Attr{Name: "name", Domain: "String"},
		oodb.Attr{Name: "weight", Domain: "Integer"},
	); err != nil {
		return err
	}
	return db.CreateIndex("part_weight", "Part", []string{"weight"}, false)
}

// start opens every member with opts and puts a router in front of them.
func (w *scatterW) start(opts oodb.Options) error {
	var addrs []string
	for _, m := range w.members {
		db, err := oodb.Open(m.dir, opts)
		if err != nil {
			return err
		}
		m.db = db
		m.srv = server.New(db, server.Options{MaxSessions: 4})
		if err := m.srv.Start(); err != nil {
			return err
		}
		addrs = append(addrs, m.srv.Addr().String())
	}
	r, err := shard.New(addrs, shard.Options{Client: client.Options{Role: "bench"}})
	if err != nil {
		return err
	}
	w.router = r
	return nil
}

// stop closes the router and every member.
func (w *scatterW) stop() error {
	var errs []error
	if w.router != nil {
		errs = append(errs, w.router.Close())
		w.router = nil
	}
	for _, m := range w.members {
		if m.srv != nil {
			errs = append(errs, m.srv.Drain(5*time.Second))
			m.srv = nil
		}
		if m.db != nil {
			errs = append(errs, m.db.Close())
			m.db = nil
		}
	}
	return errors.Join(errs...)
}

func (w *scatterW) setup(dir string) error {
	for i := 0; i < scatterMembers; i++ {
		m := &scatterMember{dir: filepath.Join(dir, fmt.Sprintf("member%d", i))}
		w.members = append(w.members, m)
	}
	if err := w.start(oodb.Options{NoSync: true}); err != nil {
		return err
	}
	for _, m := range w.members {
		if err := defineParts(m.db); err != nil {
			return err
		}
	}
	if err := w.router.Refresh(); err != nil {
		return err
	}
	r := newLoop(-1, w.seed).rng
	for i := 0; i < w.sc.scatterObjs; i++ {
		name := fmt.Sprintf("part-%06d", i)
		weight := int64(r.Intn(scatterWeights))
		oid, err := w.router.Insert("Part", map[string]model.Value{
			"name": model.String(name), "weight": model.Int(weight),
		})
		if err != nil {
			return err
		}
		w.oids = append(w.oids, oid)
		w.names = append(w.names, name)
		w.weights = append(w.weights, weight)
	}
	if err := w.stop(); err != nil {
		return err
	}
	if err := w.start(oodb.Options{}); err != nil {
		return err
	}
	return w.checkReference(filepath.Join(dir, "reference"))
}

// checkReference loads the same rows into one embedded database and
// requires every query of the mix to fingerprint-match it through the
// router, and the benchmark's model too.
func (w *scatterW) checkReference(dir string) error {
	ref, err := oodb.Open(dir, oodb.Options{NoSync: true})
	if err != nil {
		return err
	}
	defer ref.Close()
	if err := defineParts(ref); err != nil {
		return err
	}
	if err := ref.Do(func(tx *oodb.Tx) error {
		for i := range w.oids {
			if _, err := tx.Insert("Part", oodb.Attrs{
				"name": oodb.String(w.names[i]), "weight": oodb.Int(w.weights[i]),
			}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	for i := 0; i < scatterCheckLos; i++ {
		lo := i * (scatterWeights - scatterRangeW) / scatterCheckLos
		for k := 0; k < 3; k++ {
			src := scatterQuery(k, lo)
			got, err := w.router.Query(src)
			if err != nil {
				return err
			}
			want, err := ref.Query(src)
			if err != nil {
				return err
			}
			// Under ORDER BY ... LIMIT, rows tied on weight at the cut may
			// differ by name, so that query compares weights only.
			cols := 0
			if k == 1 {
				cols = 1
			}
			if fingerprint(want.Rows, cols) != fingerprintShard(got.Rows, cols) {
				return fmt.Errorf("%s: sharded answer differs from the single-database reference", src)
			}
			if err := w.check(k, lo, got); err != nil {
				return fmt.Errorf("%s: %w", src, err)
			}
		}
	}
	return nil
}

func scatterQuery(k, lo int) string {
	switch k {
	case 0:
		return fmt.Sprintf("SELECT name, weight FROM Part WHERE weight >= %d AND weight < %d", lo, lo+scatterRangeW)
	case 1:
		return fmt.Sprintf("SELECT name, weight FROM Part WHERE weight >= %d AND weight < %d ORDER BY weight LIMIT 10",
			lo, lo+scatterRangeW)
	default:
		return "SELECT COUNT(*), AVG(weight) FROM Part"
	}
}

// check compares a scatter answer with the model.
func (w *scatterW) check(k, lo int, res *shard.Result) error {
	if k == 2 {
		if len(res.Rows) != 1 || len(res.Rows[0].Values) != 2 {
			return fmt.Errorf("aggregate: %d rows", len(res.Rows))
		}
		count, _ := res.Rows[0].Values[0].AsInt()
		avg, _ := res.Rows[0].Values[1].AsFloat()
		want := float64(sumOf(w.weights)) / float64(len(w.weights))
		if count != int64(len(w.weights)) || math.Abs(avg-want) > 1e-9*want {
			return fmt.Errorf("aggregate: COUNT %d AVG %v, want %d %v", count, avg, len(w.weights), want)
		}
		return nil
	}
	var in []string // "weight name" of every model row in range
	for i, wt := range w.weights {
		if wt >= int64(lo) && wt < int64(lo+scatterRangeW) {
			in = append(in, fmt.Sprintf("%08d %s", wt, w.names[i]))
		}
	}
	sort.Strings(in)
	got := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		name, _ := row.Values[0].AsString()
		wt, _ := row.Values[1].AsInt()
		got[i] = fmt.Sprintf("%08d %s", wt, name)
	}
	if k == 0 {
		sort.Strings(got)
		if strings.Join(got, ",") != strings.Join(in, ",") {
			return fmt.Errorf("range [%d,%d): %d rows differ from the %d expected", lo, lo+scatterRangeW, len(got), len(in))
		}
		return nil
	}
	// ORDER BY weight LIMIT 10: the weights must be the 10 smallest in
	// order, and each row must exist (names tie-break arbitrarily).
	if len(got) != min(10, len(in)) {
		return fmt.Errorf("order-by [%d,%d): %d rows, want %d", lo, lo+scatterRangeW, len(got), min(10, len(in)))
	}
	have := make(map[string]bool, len(in))
	for _, s := range in {
		have[s] = true
	}
	for i, s := range got {
		if s[:8] != in[i][:8] || !have[s] {
			return fmt.Errorf("order-by [%d,%d): row %d is %q, want weight %s", lo, lo+scatterRangeW, i, s, in[i][:8])
		}
	}
	return nil
}

// fingerprintShard is fingerprint over router rows.
func fingerprintShard(rows []shard.Row, skip int) uint64 {
	qr := make([]query.Row, len(rows))
	for i, r := range rows {
		qr[i] = query.Row{Values: r.Values}
	}
	return fingerprint(qr, skip)
}

func (w *scatterW) step(c *clientLoop) {
	tr := c.tr
	if c.n%4 == 3 {
		i := c.rng.Intn(len(w.oids))
		nw := int64(c.rng.Intn(scatterWeights))
		tr.begin(spOp)
		t0 := time.Now()
		tr.begin(spShardUpdate)
		err := w.router.Update(w.oids[i], map[string]model.Value{"weight": model.Int(nw)})
		tr.end()
		if c.done(kCommit, t0, err) {
			w.weights[i] = nw
		} else {
			w.resync(i)
		}
		tr.end()
		return
	}
	k := w.qn % 3
	w.qn++
	lo := c.rng.Intn(scatterWeights - scatterRangeW)
	src := scatterQuery(k, lo)
	var before obsPoint
	if tr != nil {
		before = readObsPoint()
	}
	tr.begin(spOp)
	if tr != nil {
		tr.begin(spQueryParse)
		_, perr := query.Parse(src)
		tr.end()
		if perr != nil {
			c.mismatch("parse %s: %v", src, perr)
		}
	}
	t0 := time.Now()
	tr.begin(spShardQuery)
	res, err := w.router.Query(src)
	tr.end()
	ok := c.done(kScatterQuery, t0, err)
	tr.end()
	if tr != nil {
		after := readObsPoint()
		c.legNs += after.serverNs - before.serverNs
		c.legs += after.serverReqs - before.serverReqs
		if k < 2 && ok {
			c.rowsExamined += after.examined - before.examined
			c.rowsReturned += uint64(len(res.Rows))
		}
	}
	if ok {
		if cerr := w.check(k, lo, res); cerr != nil {
			c.mismatch("scatter %s: %v", src, cerr)
		}
	}
}

// resync re-reads object i after a failed update, whose outcome is
// unknown, so the model follows whatever the member holds.
func (w *scatterW) resync(i int) {
	v, err := w.router.Get(w.oids[i], "weight")
	if err == nil {
		w.weights[i], _ = v.AsInt()
	}
}

// finish re-checks every query kind once more with the client stopped.
func (w *scatterW) finish(c *clientLoop) {
	for i := 0; i < scatterCheckLos; i++ {
		lo := (i*7919 + int(w.seed)) % (scatterWeights - scatterRangeW)
		for k := 0; k < 3; k++ {
			t0 := time.Now()
			res, err := w.router.Query(scatterQuery(k, lo))
			if c.done(kScatterQuery, t0, err) {
				if cerr := w.check(k, lo, res); cerr != nil {
					c.mismatch("final scatter %s: %v", scatterQuery(k, lo), cerr)
				}
			}
		}
	}
}

func (w *scatterW) close() error { return w.stop() }

// obsPoint is the handful of obs values read around one scatter query.
type obsPoint struct {
	serverNs, serverReqs, examined uint64
}

func readObsPoint() obsPoint {
	s := obs.TakeSnapshot()
	h := s.Histograms["server_request_latency_ns"]
	return obsPoint{serverNs: h.Sum, serverReqs: h.Count, examined: s.Counters["query_scan_rows_examined"]}
}
