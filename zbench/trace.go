package main

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zerber/internal/auth"
	"zerber/internal/client"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/posting"
	"zerber/internal/store"
	"zerber/internal/transport"
)

// The tracer records spans around calls into each layer's public
// functions, from outside the program: client-side transport.API
// wrappers, a server-side transport.API wrapper installed before
// ServeBinary, a store.Store wrapper handed to server.New, and the
// benchmark's own timing of client and peer calls. A query's span rides
// its context down to every client-side server call; a server handler
// is tied to the client call that caused it by matching the pending
// call with the same server, method and arguments (the binary wire
// carries no span ID). Aggregates are kept in memory and turned into
// per-layer metrics when the run ends.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu   sync.Mutex
	pend map[string][]*callRec // client calls not yet claimed by a server handler
	agg  layerAgg

	wireBytes atomic.Int64 // bytes across the servers' accepted connections
}

// layerAgg sums what the spans recorded. Times are nanoseconds.
type layerAgg struct {
	// Search side, per traced search.
	searches      int
	clientSelf    int64 // client call minus the time its server calls cover
	fanoutWait    int64 // time covered by the client call's successful server calls
	rank          int64 // ranking.TopK on the exact path
	elements      int
	falsePos      int
	recHits       int
	recMisses     int
	blocks        int
	calls         int   // client-side server calls, stragglers included
	paired        int   // completed calls matched to their server handler
	wire          int64 // completed client call minus its server handler
	lookupHandler int64 // server-side lookup handlers
	storeRead     int64 // Scan and ScanRange

	// Mutation side, per traced mutation.
	mutations     int
	mutTime       int64 // peer call
	peerApply     int64 // the peer's Apply calls, client side
	shares        int   // shares the peer sent
	storeUpsert   int64
	storeDeleteIf int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), pend: map[string][]*callRec{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// take returns the aggregates recorded so far and starts afresh.
func (t *tracer) take() layerAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg
	t.agg = layerAgg{}
	return a
}

// querySpan is one search's span; its server calls attach to it.
type querySpan struct {
	start int64
	mu    sync.Mutex
	ivs   [][2]int64 // intervals of completed server calls
	calls int
	wire  int64
	pairs int
}

type spanKey struct{}

func withSpan(ctx context.Context, q *querySpan) context.Context {
	if q == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, q)
}

func spanOf(ctx context.Context) *querySpan {
	q, _ := ctx.Value(spanKey{}).(*querySpan)
	return q
}

// beginQuery opens a search span, or returns nil with tracing off.
func (t *tracer) beginQuery() *querySpan {
	if t == nil || !t.on.Load() {
		return nil
	}
	return &querySpan{start: t.now()}
}

// covered is the length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum, hi int64
	started := false
	var lo int64
	for _, iv := range ivs {
		if !started || iv[0] > hi {
			if started {
				sum += hi - lo
			}
			lo, hi, started = iv[0], iv[1], true
		} else if iv[1] > hi {
			hi = iv[1]
		}
	}
	if started {
		sum += hi - lo
	}
	return sum
}

// endQuery closes a search span at clientEnd (the end of the client
// call) and adds rank, the time of a separate ranking call, if any; st
// is what the search reported about itself.
func (t *tracer) endQuery(q *querySpan, clientEnd, rank int64, st client.Stats) {
	if q == nil {
		return
	}
	q.mu.Lock()
	wait := covered(q.ivs)
	calls, wire, pairs := q.calls, q.wire, q.pairs
	q.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	a := &t.agg
	a.searches++
	a.clientSelf += clientEnd - q.start - wait
	a.fanoutWait += wait
	a.rank += rank
	a.elements += st.ElementsFetched
	a.falsePos += st.FalsePositives
	a.recHits += st.ReconstructorHits
	a.recMisses += st.ReconstructorMisses
	a.blocks += st.TA.BlocksFetched
	a.calls += calls
	a.wire += wire
	a.paired += pairs
}

// mutation records one peer call and the Apply traffic it caused. The
// peer serializes its mutations and the benchmark issues them from one
// goroutine, so every peer-side Apply between two mutations belongs to
// the one in between.
func (t *tracer) mutation(d int64) {
	t.mu.Lock()
	t.agg.mutations++
	t.agg.mutTime += d
	t.mu.Unlock()
}

// callRec pairs one client-side server call with its server handler.
type callRec struct {
	claimed bool
	handler int64 // server handler duration, set once it returns
	done    bool
}

func callKey(server int, method string, tok auth.Token, args string) string {
	return fmt.Sprintf("%d|%s|%s|%s", server, method, tok, args)
}

func listsArg(lists []merging.ListID) string {
	var sb strings.Builder
	for _, l := range lists {
		fmt.Fprintf(&sb, "%d,", l)
	}
	return sb.String()
}

// register announces a client call about to be sent.
func (t *tracer) register(key string) *callRec {
	r := &callRec{}
	t.mu.Lock()
	t.pend[key] = append(t.pend[key], r)
	t.mu.Unlock()
	return r
}

// finish withdraws a call's announcement and returns its server
// handler's duration if the handler has returned.
func (t *tracer) finish(key string, r *callRec) (int64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !r.claimed {
		t.unpend(key, r)
	}
	return r.handler, r.done
}

func (t *tracer) unpend(key string, r *callRec) {
	q := t.pend[key]
	for i, x := range q {
		if x == r {
			q = append(q[:i], q[i+1:]...)
			break
		}
	}
	if len(q) == 0 {
		delete(t.pend, key)
	} else {
		t.pend[key] = q
	}
}

// claim lets a server handler take the oldest pending call with its key.
func (t *tracer) claim(key string) *callRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.pend[key]
	if len(q) == 0 {
		return nil
	}
	r := q[0]
	r.claimed = true
	t.unpend(key, r)
	return r
}

// clientAPI wraps a dialed server for one caller: the search client
// (peer false) or a peer (peer true).
type clientAPI struct {
	transport.API
	t      *tracer
	server int
	peer   bool
}

// search times one client-side search call and attaches it to the
// query span in ctx.
func (c *clientAPI) search(ctx context.Context, key string, call func() error) error {
	q := spanOf(ctx)
	if q == nil {
		return call()
	}
	q.mu.Lock()
	q.calls++ // counted at the start: a straggler may outlive its query
	q.mu.Unlock()
	r := c.t.register(key)
	t0 := c.t.now()
	err := call()
	t1 := c.t.now()
	handler, done := c.t.finish(key, r)
	q.mu.Lock()
	if err == nil {
		q.ivs = append(q.ivs, [2]int64{t0, t1})
		if done {
			q.pairs++
			q.wire += (t1 - t0) - handler
		}
	}
	q.mu.Unlock()
	return err
}

func (c *clientAPI) GetPostingLists(ctx context.Context, tok auth.Token, lists []merging.ListID) (map[merging.ListID][]posting.EncryptedShare, error) {
	var out map[merging.ListID][]posting.EncryptedShare
	err := c.search(ctx, callKey(c.server, "lists", tok, listsArg(lists)), func() error {
		var err error
		out, err = c.API.GetPostingLists(ctx, tok, lists)
		return err
	})
	return out, err
}

func (c *clientAPI) GetPostingBlocks(ctx context.Context, tok auth.Token, list merging.ListID, from, n int) (transport.BlockPage, error) {
	var out transport.BlockPage
	err := c.search(ctx, callKey(c.server, "blocks", tok, fmt.Sprintf("%d,%d,%d", list, from, n)), func() error {
		var err error
		out, err = c.API.GetPostingBlocks(ctx, tok, list, from, n)
		return err
	})
	return out, err
}

func (c *clientAPI) Apply(ctx context.Context, tok auth.Token, op transport.OpID, inserts []transport.InsertOp, deletes []transport.DeleteOp) error {
	if !c.peer || !c.t.on.Load() {
		return c.API.Apply(ctx, tok, op, inserts, deletes)
	}
	t0 := c.t.now()
	err := c.API.Apply(ctx, tok, op, inserts, deletes)
	d := c.t.now() - t0
	c.t.mu.Lock()
	c.t.agg.peerApply += d
	c.t.agg.shares += len(inserts)
	c.t.mu.Unlock()
	return err
}

// serverAPI wraps one index server before ServeBinary.
type serverAPI struct {
	api    transport.API
	t      *tracer
	server int
}

func (s *serverAPI) XCoord() field.Element { return s.api.XCoord() }

func (s *serverAPI) Insert(ctx context.Context, tok auth.Token, ops []transport.InsertOp) error {
	return s.api.Insert(ctx, tok, ops)
}

func (s *serverAPI) Delete(ctx context.Context, tok auth.Token, ops []transport.DeleteOp) error {
	return s.api.Delete(ctx, tok, ops)
}

// handle times a lookup handler and reports its duration to the client
// call it serves.
func (s *serverAPI) handle(key string, call func()) {
	if !s.t.on.Load() {
		call()
		return
	}
	r := s.t.claim(key)
	t0 := s.t.now()
	call()
	d := s.t.now() - t0
	s.t.mu.Lock()
	s.t.agg.lookupHandler += d
	if r != nil {
		r.handler, r.done = d, true
	}
	s.t.mu.Unlock()
}

func (s *serverAPI) GetPostingLists(ctx context.Context, tok auth.Token, lists []merging.ListID) (out map[merging.ListID][]posting.EncryptedShare, err error) {
	s.handle(callKey(s.server, "lists", tok, listsArg(lists)), func() {
		out, err = s.api.GetPostingLists(ctx, tok, lists)
	})
	return out, err
}

func (s *serverAPI) GetPostingBlocks(ctx context.Context, tok auth.Token, list merging.ListID, from, n int) (out transport.BlockPage, err error) {
	s.handle(callKey(s.server, "blocks", tok, fmt.Sprintf("%d,%d,%d", list, from, n)), func() {
		out, err = s.api.GetPostingBlocks(ctx, tok, list, from, n)
	})
	return out, err
}

func (s *serverAPI) Apply(ctx context.Context, tok auth.Token, op transport.OpID, inserts []transport.InsertOp, deletes []transport.DeleteOp) error {
	return s.api.Apply(ctx, tok, op, inserts, deletes)
}

// tracedStore wraps the store.Store handed to server.New.
type tracedStore struct {
	store.Store
	t *tracer
}

func (s *tracedStore) timed(sum *int64, call func()) {
	if !s.t.on.Load() {
		call()
		return
	}
	t0 := s.t.now()
	call()
	d := s.t.now() - t0
	s.t.mu.Lock()
	*sum += d
	s.t.mu.Unlock()
}

func (s *tracedStore) Scan(lid merging.ListID, keep func(posting.EncryptedShare) bool) (out []posting.EncryptedShare) {
	s.timed(&s.t.agg.storeRead, func() { out = s.Store.Scan(lid, keep) })
	return out
}

func (s *tracedStore) ScanRange(lid merging.ListID, from, n int, keep func(posting.EncryptedShare) bool) (out []posting.EncryptedShare, total int, next uint8) {
	s.timed(&s.t.agg.storeRead, func() { out, total, next = s.Store.ScanRange(lid, from, n, keep) })
	return out, total, next
}

func (s *tracedStore) Upsert(lid merging.ListID, shares []posting.EncryptedShare) (added int) {
	s.timed(&s.t.agg.storeUpsert, func() { added = s.Store.Upsert(lid, shares) })
	return added
}

func (s *tracedStore) DeleteIf(lid merging.ListID, gid posting.GlobalID, allow func(posting.EncryptedShare) bool) (found, deleted bool) {
	s.timed(&s.t.agg.storeDeleteIf, func() { found, deleted = s.Store.DeleteIf(lid, gid, allow) })
	return found, deleted
}

// countingListener counts the bytes crossing every accepted connection.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}
