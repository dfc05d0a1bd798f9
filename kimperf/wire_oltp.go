package main

// wire-oltp: the point-operation serving path. kimsrv runs in-process on
// loopback with two sessions. The reader sends Zipf-skewed Get (80%) and
// Fetch (20%) requests over a read-only preloaded set that fits both the
// buffer pool and the session's workspace cache; the writer sends
// autocommit Updates and Begin/Insert/Delete/Update/Commit transactions on
// a disjoint key range. Each transaction deletes the object inserted
// wireRing transactions before, so the database stays the same size
// however many transactions a run gets through. The ranges must stay disjoint: by design another
// session's write does not evict the reader's cached copy (DESIGN.md,
// kimsrv section), so a shared range would make the reader's answers stale
// by design rather than wrong.

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"oodb"
	"oodb/internal/server"
	"oodb/internal/server/client"
)

type wireOLTP struct {
	sc   scale
	seed int64

	db             *oodb.DB
	srv            *server.Server
	reader, writer *client.Client
	readOIDs       []oodb.OID // index i holds readVal(i)
	writeOIDs      []oodb.OID

	// Reader and writer state; each is touched only by its own goroutine.
	zipf      *rand.Zipf
	writeSeq  int64
	lastWrite map[oodb.OID]int64 // writer: last committed val per object
	ring      []oodb.OID         // writer: live inserts, val = their key
	deleted   []oodb.OID         // writer: a sample of deleted inserts
}

// wireRing is how many of its inserts the writer keeps alive.
const wireRing = 64

func newWireOLTP(sc scale, seed int64) workload {
	return &wireOLTP{sc: sc, seed: seed, lastWrite: make(map[oodb.OID]int64)}
}

func (w *wireOLTP) clients() int { return 2 }

// readVal is the value preloaded into read object i.
func (w *wireOLTP) readVal(i int) int64 {
	return int64((uint64(i)*0x9E3779B97F4A7C15 ^ uint64(w.seed)) % 1_000_000_007)
}

func (w *wireOLTP) setup(dir string) error {
	db, err := oodb.Open(dir, oodb.Options{})
	if err != nil {
		return err
	}
	w.db = db
	if _, err := db.DefineClass("Item", nil,
		oodb.Attr{Name: "key", Domain: "Integer"},
		oodb.Attr{Name: "val", Domain: "Integer"},
	); err != nil {
		return err
	}
	insert := func(n int, val func(i int) int64, out *[]oodb.OID, keyBase int) error {
		for lo := 0; lo < n; lo += 512 {
			err := db.Do(func(tx *oodb.Tx) error {
				for i := lo; i < n && i < lo+512; i++ {
					oid, err := tx.Insert("Item", oodb.Attrs{
						"key": oodb.Int(int64(keyBase + i)), "val": oodb.Int(val(i)),
					})
					if err != nil {
						return err
					}
					*out = append(*out, oid)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := insert(w.sc.wireReadObjs, w.readVal, &w.readOIDs, 0); err != nil {
		return err
	}
	if err := insert(w.sc.wireWriteObjs, func(int) int64 { return 0 }, &w.writeOIDs, w.sc.wireReadObjs); err != nil {
		return err
	}
	w.srv = server.New(db, server.Options{MaxSessions: 4})
	if err := w.srv.Start(); err != nil {
		return err
	}
	addr := w.srv.Addr().String()
	if w.reader, err = client.Dial(addr, client.Options{Role: "bench"}); err != nil {
		return err
	}
	w.writer, err = client.Dial(addr, client.Options{Role: "bench"})
	return err
}

func (w *wireOLTP) step(c *clientLoop) {
	if c.id == 0 {
		w.read(c)
	} else {
		w.write(c)
	}
}

func (w *wireOLTP) read(c *clientLoop) {
	if w.zipf == nil {
		w.zipf = rand.NewZipf(c.rng, 1.1, 1, uint64(len(w.readOIDs)-1))
	}
	i := int(w.zipf.Uint64())
	oid, want := w.readOIDs[i], w.readVal(i)
	tr := c.tr
	tr.begin(spOp)
	defer tr.end()
	if c.rng.Intn(5) > 0 {
		t0 := time.Now()
		tr.begin(spClientGet)
		v, err := w.reader.Get(oid, "val")
		tr.end()
		if c.done(kGet, t0, err) {
			if got, _ := v.AsInt(); got != want {
				c.mismatch("wire Get %v: val %d, want %d", oid, got, want)
			}
		}
		return
	}
	t0 := time.Now()
	tr.begin(spClientFetch)
	obj, err := w.reader.Fetch(oid)
	tr.end()
	if c.done(kFetch, t0, err) {
		got, _ := obj.Attrs["val"].AsInt()
		key, _ := obj.Attrs["key"].AsInt()
		if got != want || key != int64(i) {
			c.mismatch("wire Fetch %v: key %d val %d, want key %d val %d", oid, key, got, i, want)
		}
	}
}

// write alternates an autocommit Update with an explicit transaction that
// inserts one object, deletes the oldest live insert once wireRing are
// alive, and updates another object. Each is one durable commit.
func (w *wireOLTP) write(c *clientLoop) {
	w.writeSeq++
	seq := w.writeSeq
	oid := w.writeOIDs[c.rng.Intn(len(w.writeOIDs))]
	tr := c.tr
	tr.begin(spOp)
	defer tr.end()
	t0 := time.Now()
	if c.n%2 == 0 {
		tr.begin(spClientUpd)
		err := w.writer.Update(oid, oodb.Attrs{"val": oodb.Int(seq)})
		tr.end()
		if c.done(kCommit, t0, err) {
			w.lastWrite[oid] = seq
		}
		return
	}
	key := int64(w.sc.wireReadObjs+w.sc.wireWriteObjs) + seq
	var newOID oodb.OID
	full := len(w.ring) == wireRing
	err := func() error {
		tr.begin(spClientBegin)
		err := w.writer.Begin()
		tr.end()
		if err != nil {
			return err
		}
		tr.begin(spClientIns)
		newOID, err = w.writer.Insert("Item", oodb.Attrs{"key": oodb.Int(key), "val": oodb.Int(key)})
		tr.end()
		if err == nil && full {
			tr.begin(spClientDel)
			err = w.writer.Delete(w.ring[0])
			tr.end()
		}
		if err == nil {
			tr.begin(spClientUpd)
			err = w.writer.Update(oid, oodb.Attrs{"val": oodb.Int(seq)})
			tr.end()
		}
		if err != nil {
			return errors.Join(err, w.writer.Abort())
		}
		tr.begin(spClientCommit)
		err = w.writer.Commit()
		tr.end()
		return err
	}()
	if c.done(kCommit, t0, err) {
		w.lastWrite[oid] = seq
		if full {
			if len(w.deleted) < wireRing {
				w.deleted = append(w.deleted, w.ring[0])
			}
			w.ring = w.ring[1:]
		}
		w.ring = append(w.ring, newOID)
	}
}

// finish re-reads, bypassing the session cache, every object the writer
// wrote and the inserts it kept, checks that deleted inserts are gone, and
// re-reads a sample of the read set through the reader's session.
func (w *wireOLTP) finish(c *clientLoop) {
	for oid, want := range w.lastWrite {
		t0 := time.Now()
		obj, err := w.writer.FetchFresh(oid)
		if c.done(kFetch, t0, err) {
			if got, _ := obj.Attrs["val"].AsInt(); got != want {
				c.mismatch("FetchFresh %v after the run: val %d, want last write %d", oid, got, want)
			}
		}
	}
	for _, oid := range w.ring {
		t0 := time.Now()
		obj, err := w.writer.FetchFresh(oid)
		if c.done(kFetch, t0, err) {
			key, _ := obj.Attrs["key"].AsInt()
			val, _ := obj.Attrs["val"].AsInt()
			if key != val {
				c.mismatch("FetchFresh %v after the run: inserted key %d val %d differ", oid, key, val)
			}
		}
	}
	for _, oid := range w.deleted {
		t0 := time.Now()
		_, err := w.writer.FetchFresh(oid)
		if errors.Is(err, client.ErrNotFound) {
			err = nil
		} else if err == nil {
			c.mismatch("FetchFresh %v after the run: deleted insert still reads back", oid)
		}
		c.done(kFetch, t0, err)
	}
	for i := 0; i < len(w.readOIDs); i += 97 {
		t0 := time.Now()
		v, err := w.reader.Get(w.readOIDs[i], "val")
		if c.done(kGet, t0, err) {
			if got, _ := v.AsInt(); got != w.readVal(i) {
				c.mismatch("reader Get %v after the run: val %d, want %d", w.readOIDs[i], got, w.readVal(i))
			}
		}
	}
	if len(w.lastWrite) == 0 {
		c.mismatch("wire-oltp: the writer committed nothing")
	}
}

func (w *wireOLTP) close() error {
	var errs []error
	for _, cl := range []*client.Client{w.reader, w.writer} {
		if cl != nil {
			errs = append(errs, cl.Close())
		}
	}
	if w.srv != nil {
		errs = append(errs, w.srv.Drain(5*time.Second))
	}
	if w.db != nil {
		if err := w.db.Close(); err != nil {
			errs = append(errs, fmt.Errorf("close db: %w", err))
		}
	}
	return errors.Join(errs...)
}
