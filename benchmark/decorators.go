package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	ga "gameauthority"
	"gameauthority/internal/store"
)

// opStat counts calls into one operation and the time spent in them.
type opStat struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (o *opStat) add(d time.Duration) {
	o.calls.Add(1)
	o.ns.Add(d.Nanoseconds())
}

// opSnap is an opStat read at one instant; deltas of two snapshots cover
// one phase.
type opSnap struct{ calls, ns int64 }

func (o *opStat) snap() opSnap { return opSnap{o.calls.Load(), o.ns.Load()} }

func (s opSnap) sub(o opSnap) opSnap { return opSnap{s.calls - o.calls, s.ns - o.ns} }

// meanUS is the mean call time in microseconds.
func (s opSnap) meanUS() float64 { return ratio(float64(s.ns)/1e3, float64(s.calls)) }

// --- Store decorator ---------------------------------------------------------------

// The store operations the decorator times.
const (
	opCreateSession = iota
	opAppend
	opPutSnapshot
	opDelete
	opIDs
	opLoad
	opLoadSession
	opSnapshots
	opSync
	opClose
	numStoreOps
)

// timedStore decorates the ga.Store handed to WithStore: every call is
// forwarded unchanged, then counted and timed. The optional capabilities
// the authority probes for (existence checks and group commit) and the
// file store's fsync counters are forwarded too, so wrapping changes
// nothing the authority can observe.
type timedStore struct {
	inner ga.Store
	ops   [numStoreOps]opStat
	// observe, when set, sees every Append and PutSnapshot with its
	// session id and interval: the calls a play blocks on, which the
	// traced run attributes to requests by session.
	observe func(op int, id string, start, end time.Time)
}

func newTimedStore(inner ga.Store) *timedStore { return &timedStore{inner: inner} }

func (s *timedStore) since(op int, t0 time.Time) { s.ops[op].add(time.Since(t0)) }

func (s *timedStore) CreateSession(id string, spec []byte) error {
	defer s.since(opCreateSession, time.Now())
	return s.inner.CreateSession(id, spec)
}

func (s *timedStore) Append(id string, rec ga.Record) error {
	t0 := time.Now()
	err := s.inner.Append(id, rec)
	s.blocking(opAppend, id, t0)
	return err
}

func (s *timedStore) PutSnapshot(id string, rounds int, payload []byte) error {
	t0 := time.Now()
	err := s.inner.PutSnapshot(id, rounds, payload)
	s.blocking(opPutSnapshot, id, t0)
	return err
}

// blocking books a call a play waits on and shows it to observe.
func (s *timedStore) blocking(op int, id string, t0 time.Time) {
	t1 := time.Now()
	s.ops[op].add(t1.Sub(t0))
	if s.observe != nil {
		s.observe(op, id, t0, t1)
	}
}

func (s *timedStore) Delete(id string) error {
	defer s.since(opDelete, time.Now())
	return s.inner.Delete(id)
}

func (s *timedStore) IDs() ([]string, error) {
	defer s.since(opIDs, time.Now())
	return s.inner.IDs()
}

func (s *timedStore) Load() ([]store.SessionState, error) {
	defer s.since(opLoad, time.Now())
	return s.inner.Load()
}

func (s *timedStore) LoadSession(id string) (store.SessionState, bool, error) {
	defer s.since(opLoadSession, time.Now())
	return s.inner.LoadSession(id)
}

func (s *timedStore) Snapshots() ([]store.SnapshotInfo, error) {
	defer s.since(opSnapshots, time.Now())
	return s.inner.Snapshots()
}

func (s *timedStore) Sync() error {
	defer s.since(opSync, time.Now())
	return s.inner.Sync()
}

func (s *timedStore) Close() error {
	defer s.since(opClose, time.Now())
	return s.inner.Close()
}

// Has forwards the cheap existence probe, falling back to LoadSession on
// a backend without one (what the authority itself would do).
func (s *timedStore) Has(id string) (bool, error) {
	if h, ok := s.inner.(interface{ Has(string) (bool, error) }); ok {
		return h.Has(id)
	}
	_, ok, err := s.inner.LoadSession(id)
	return ok, err
}

// SetGroupCommit forwards group-commit arming to a backend that has a
// committer; on any other backend it is the same no-op the authority
// would get.
func (s *timedStore) SetGroupCommit(window time.Duration, maxBatch int, onEpoch func(synced, parked int)) {
	if g, ok := s.inner.(interface {
		SetGroupCommit(time.Duration, int, func(synced, parked int))
	}); ok {
		g.SetGroupCommit(window, maxBatch, onEpoch)
	}
}

// fsyncs reports the backend's WAL fsync and commit-epoch counts (0 for a
// backend that does not count them).
func (s *timedStore) fsyncs() (fsyncs, epochs int64) {
	if c, ok := s.inner.(interface {
		Fsyncs() int64
		CommitEpochs() int64
	}); ok {
		return c.Fsyncs(), c.CommitEpochs()
	}
	return 0, 0
}

// storeSnap is every store counter at one instant.
type storeSnap struct {
	ops    [numStoreOps]opSnap
	fsyncs int64
}

func (s *timedStore) snap() storeSnap {
	var out storeSnap
	for i := range s.ops {
		out.ops[i] = s.ops[i].snap()
	}
	out.fsyncs, _ = s.fsyncs()
	return out
}

func (a storeSnap) sub(b storeSnap) storeSnap {
	for i := range a.ops {
		a.ops[i] = a.ops[i].sub(b.ops[i])
	}
	a.fsyncs -= b.fsyncs
	return a
}

// --- Conn decorator ----------------------------------------------------------------

// connStats counts the bytes and time of every Read and Write on the
// connections of one side (client or server).
type connStats struct {
	reads, writes           opStat
	bytesRead, bytesWritten atomic.Int64
}

type connSnap struct {
	reads, writes           opSnap
	bytesRead, bytesWritten int64
}

func (c *connStats) snap() connSnap {
	return connSnap{c.reads.snap(), c.writes.snap(), c.bytesRead.Load(), c.bytesWritten.Load()}
}

func (a connSnap) sub(b connSnap) connSnap {
	return connSnap{a.reads.sub(b.reads), a.writes.sub(b.writes),
		a.bytesRead - b.bytesRead, a.bytesWritten - b.bytesWritten}
}

// connOwners maps a client connection's local address to the load client
// it serves, so the server side of the same TCP connection (whose remote
// address it is) can attribute its I/O to that client's request.
type connOwners struct{ m sync.Map }

func (o *connOwners) set(addr string, client int) { o.m.Store(addr, client) }

func (o *connOwners) get(addr string) int {
	if v, ok := o.m.Load(addr); ok {
		return v.(int)
	}
	return -1
}

// timedConn decorates a net.Conn: Read and Write are forwarded unchanged,
// then counted, timed and, in a traced run, recorded as spans of the
// request in flight on the connection's client. Every other method is
// the embedded connection's own.
type timedConn struct {
	net.Conn
	stats            *connStats
	tr               *tracer
	readSpan, wrSpan string
	// client is the load client this connection serves. A server-side
	// connection resolves it on first use from owners: the accept can
	// return before the dialer has registered its address, but no byte
	// arrives before it has.
	client atomic.Int64
	owners *connOwners
}

const unresolved = -2

func (c *timedConn) owner() int {
	id := c.client.Load()
	if id == unresolved {
		id = int64(c.owners.get(c.RemoteAddr().String()))
		c.client.Store(id)
	}
	return int(id)
}

// newClientConn wraps a load client's connection and registers its local
// address so the server side can find the client.
func newClientConn(c net.Conn, client int, st *connStats, tr *tracer, owners *connOwners) *timedConn {
	owners.set(c.LocalAddr().String(), client)
	tc := &timedConn{Conn: c, stats: st, tr: tr, readSpan: "conn.client_read", wrSpan: "conn.client_write"}
	tc.client.Store(int64(client))
	return tc
}

func (c *timedConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	t1 := time.Now()
	c.stats.reads.add(t1.Sub(t0))
	c.stats.bytesRead.Add(int64(n))
	if n > 0 {
		client := c.owner()
		c.tr.child(c.tr.inflight(client), client, c.readSpan, t0, t1)
	}
	return n, err
}

func (c *timedConn) Write(p []byte) (int, error) {
	client := c.owner()
	id := c.tr.inflight(client)
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	t1 := time.Now()
	c.stats.writes.add(t1.Sub(t0))
	c.stats.bytesWritten.Add(int64(n))
	c.tr.child(id, client, c.wrSpan, t0, t1)
	return n, err
}

// timedListener wraps every accepted connection in a server-side
// timedConn, resolving its client from the owners table by the peer's
// address.
type timedListener struct {
	net.Listener
	stats  *connStats
	tr     *tracer
	owners *connOwners
}

func (l *timedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &timedConn{Conn: c, stats: l.stats, tr: l.tr, owners: l.owners,
		readSpan: "conn.server_read", wrSpan: "conn.server_write"}
	tc.client.Store(unresolved)
	return tc, nil
}
