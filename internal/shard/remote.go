package shard

import (
	"errors"
	"fmt"

	"oodb/internal/federation"
	"oodb/internal/model"
	"oodb/internal/query"
	"oodb/internal/server/client"
)

// RemoteSource adapts one remote kimsrv into a federation member: the
// served database joins a federation exactly like an in-process DB. It
// speaks the kimw wire protocol through a Redialer, so a member that
// restarts (or a connection that latches closed) heals transparently.
//
// Two evaluation paths, as for OOSource:
//
//   - RunQuery (federation.QueryableSource) ships the whole parsed query
//     to the member as one wire query — predicate pushdown. The WHERE
//     clause, ORDER BY and LIMIT execute next to the data under the
//     member's planner and indexes; one round-trip returns only the
//     matching projected rows.
//   - Scan (federation.Source) is the lenient fallback: it enumerates
//     the class over the wire and fetches each instance, presenting
//     entities whose nested paths dereference lazily with further
//     fetches. Slow, but semantically the common-model evaluator.
//
// OIDs and reference values surface in the member's local OID space: a
// RemoteSource is one member seen alone. The Router, not the source,
// owns the global OID space.
type RemoteSource struct {
	rd *client.Redialer
}

// NewRemoteSource returns a federation member backed by the kimsrv at
// addr. No connection is made until the first use.
func NewRemoteSource(addr string, opts client.Options) *RemoteSource {
	return &RemoteSource{rd: client.NewRedialer(addr, opts, client.RedialOptions{})}
}

// newRemoteSourceOn shares an existing Redialer (the Router reuses its
// members' connections).
func newRemoteSourceOn(rd *client.Redialer) *RemoteSource {
	return &RemoteSource{rd: rd}
}

// Close closes the underlying connection.
func (s *RemoteSource) Close() error { return s.rd.Close() }

// Addr returns the member's dial address.
func (s *RemoteSource) Addr() string { return s.rd.Addr() }

// Ping checks liveness end-to-end through the member's session worker.
func (s *RemoteSource) Ping() error {
	return s.rd.DoIdempotent(func(c *client.Client) error { return c.Ping() })
}

// Classes implements federation.Source over the wire.
func (s *RemoteSource) Classes() []string {
	var names []string
	err := s.rd.DoIdempotent(func(c *client.Client) error {
		var err error
		names, err = c.Classes()
		return err
	})
	if err != nil {
		return nil
	}
	return names
}

// Scan implements federation.Source: enumerate the class with a wire
// query (hierarchy-scoped, like OOSource.Scan), then fetch each
// instance. fn receives entities that resolve nested paths with further
// wire fetches.
func (s *RemoteSource) Scan(class string, fn func(federation.Entity) bool) error {
	var res *client.Result
	err := s.rd.DoIdempotent(func(c *client.Client) error {
		var err error
		res, err = c.Query("SELECT * FROM " + class)
		return err
	})
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		ent := &remoteEntity{src: s, oid: row.OID}
		if !fn(ent) {
			return nil
		}
	}
	return nil
}

// RunQuery implements federation.QueryableSource: ship the query over
// the wire. Engine-side rejections (unknown attribute, bad request)
// decline the pushdown so the federation falls back to the lenient Scan
// path — the same contract OOSource keeps. Connection-level and
// availability errors are real errors: the fallback path would fail the
// same way, so failing fast is honest.
func (s *RemoteSource) RunQuery(q *query.Query) (*federation.Result, bool, error) {
	if !federation.Pushdownable(q) {
		return nil, false, nil
	}
	var wire *client.Result
	err := s.rd.DoIdempotent(func(c *client.Client) error {
		var err error
		wire, err = c.Query(q.String())
		return err
	})
	if err != nil {
		if errors.Is(err, client.ErrNotFound) || errors.Is(err, client.ErrBadRequest) ||
			errors.Is(err, client.ErrServer) {
			return nil, false, nil
		}
		return nil, false, err
	}
	res := &federation.Result{Cols: wire.Cols, Rows: make([]federation.Row, 0, len(wire.Rows))}
	for _, row := range wire.Rows {
		res.Rows = append(res.Rows, federation.Row{
			Entity: &remoteEntity{src: s, oid: row.OID},
			Values: row.Values,
		})
	}
	return res, true, nil
}

// fetch reads one object over the wire.
func (s *RemoteSource) fetch(oid model.OID) (*client.Object, bool) {
	var obj *client.Object
	err := s.rd.DoIdempotent(func(c *client.Client) error {
		var err error
		obj, err = c.Fetch(oid)
		return err
	})
	return obj, err == nil
}

// remoteEntity is one remote object viewed through the common model. The
// object body is fetched lazily on the first Get and cached; nested path
// steps dereference with further fetches.
type remoteEntity struct {
	src *RemoteSource
	oid model.OID
	obj *client.Object
}

// Get resolves a path by the common model's walk (query.WalkPath); an
// unknown attribute, or an object that cannot be fetched, is (Null, false).
func (e *remoteEntity) Get(path []string) (model.Value, bool) {
	if e.obj == nil {
		obj, ok := e.src.fetch(e.oid)
		if !ok {
			return model.Null, false
		}
		e.obj = obj
	}
	v, err := query.WalkPath(e.obj, path, remoteAttr, e.src.fetch)
	return v, err == nil
}

// remoteAttr reads one attribute of a fetched object; a fetch carries
// every effective attribute, so a missing one is unknown to its class.
func remoteAttr(o *client.Object, name string) (model.Value, error) {
	v, ok := o.Attrs[name]
	if !ok {
		return model.Null, fmt.Errorf("shard: %s has no attribute %q", o.Class, name)
	}
	return v, nil
}
