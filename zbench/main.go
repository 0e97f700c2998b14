// Command zbench is Zerber's benchmark. It builds an n=3, k=2 cluster in
// this process, with every index server behind a loopback listener that
// speaks the binary wire, drives it through client.Client and peer.Peer,
// checks every answer against a plain inverted index built apart from
// Zerber, and prints one JSON line of metrics.
//
//	zbench --workload search-full --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and reference figures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"zerber/internal/auth"
	"zerber/internal/ranking"
)

// workload fixes what a run exercises. Offered rates sit below the
// capacity measured at the commit that introduced the benchmark.
type workload struct {
	engine     string  // "sharded" or "disk"
	topk       bool    // searches use SearchTopK instead of exact Search
	searchRate float64 // open-loop searches per second
	mutateRate float64 // open-loop mutations per second
	mixed      bool    // mutations run beside searches instead of after them
}

var workloads = map[string]workload{
	"search-full": {engine: "sharded", searchRate: 60, mutateRate: 60},
	"search-topk": {engine: "sharded", topk: true, searchRate: 120, mutateRate: 60},
	"mixed-disk":  {engine: "disk", searchRate: 35, mutateRate: 35, mixed: true},
}

// Setups per untraced run; setup_s is their median.
const setupReps = 5

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "search-full, search-topk or mixed-disk")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 10, "measured time per run")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: zbench --workload search-full|search-topk|mixed-disk --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run is one benchmark run: set up, measure the phases, check answers.
func run(w workload, seed int64, d time.Duration, traced bool) (*result, error) {
	in := makeInputs(seed)
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(".bench_build", "zbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// The plain index is built before the cluster, so that the heap the
	// inputs and the reference hold is in the baseline heap_mb subtracts.
	ix := newPlainIndex()
	for i := 0; i < numDocs; i++ {
		ix.put(in.docs[i].ID, in.docs[i].Group, in.counts[i])
	}
	base := liveHeap()

	var t *tracer
	reps := setupReps
	if traced {
		t, reps = newTracer(), 1
	}
	var c *cluster
	var setups []float64
	for r := 0; r < reps; r++ {
		if c != nil {
			c.close()
			if err := os.RemoveAll(c.dir); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		c, err = buildCluster(in, w.engine, filepath.Join(root, fmt.Sprintf("setup%d", r)), t)
		if err != nil {
			return nil, fmt.Errorf("building cluster: %w", err)
		}
		built := time.Since(t0)
		if err := c.preload(in); err != nil {
			c.close()
			return nil, fmt.Errorf("preloading: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		fmt.Fprintf(os.Stderr, "zbench: setup %d took %.2fs (cluster %.2fs, preload %.2fs)\n", r, setups[r], built.Seconds(), setups[r]-built.Seconds())
	}
	defer c.close()

	if err := ix.checkStored(c.totals()); err != nil {
		return nil, fmt.Errorf("after preload: %w", err)
	}
	heap := liveHeap() - base

	b := &bench{in: in, c: c, t: t, w: w, ix: ix, gen: newMutGen(in, seed+3), m: map[string]metric{}}
	if err := b.phases(d); err != nil {
		return nil, err
	}
	res := &result{Correct: len(b.bad) == 0, Attempted: b.attempted, Failed: b.failed}
	for _, e := range b.bad {
		fmt.Fprintln(os.Stderr, "zbench: check failed:", e)
	}
	if traced {
		res.Metrics = b.layerMetrics()
		return res, nil
	}
	disk, err := c.diskBytes()
	if err != nil {
		return nil, err
	}
	sort.Float64s(setups)
	b.put("setup_s", setups[len(setups)/2], "s")
	b.put("heap_mb", heap/(1<<20), "MB")
	b.put("disk_mb", float64(disk)/(1<<20), "MB")
	res.Metrics = b.m
	return res, nil
}

// liveHeap forces a GC and returns the bytes of live heap objects.
func liveHeap() float64 {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc)
}

// bench holds one run's state between phases.
type bench struct {
	in  *inputs
	c   *cluster
	t   *tracer
	w   workload
	ix  *plainIndex
	gen *mutGen

	attempted, failed int
	bad               []string
	m                 map[string]metric

	acked []ackedMut // mutations in issue order, with their outcome

	// Traced runs only.
	overheadPct          float64
	searchLag, mutateLag float64
	bytesPerQuery        float64
}

func (b *bench) put(name string, v float64, unit string) { b.m[name] = metric{Value: v, Unit: unit} }

// fail records a failed check; the run reports correct=false.
func (b *bench) fail(err error) {
	if len(b.bad) < 20 {
		b.bad = append(b.bad, err.Error())
	} else {
		b.bad = append(b.bad[:20], "further failures omitted")
	}
}

// phases runs the workload's timed phases and checks after each one.
// Read workloads: closed-loop searches (capacity), open-loop searches
// (latency), then a short open-loop mutation phase that feeds the
// traced write-path metrics and the checks after quiescence. mixed-disk:
// closed-loop searches, then mutations and searches side by side.
func (b *bench) phases(d time.Duration) error {
	closedD := d / 2
	runtime.GC()
	b.closedPhase(closedD)
	runtime.GC()
	if b.w.mixed {
		res := openLoop(d-closedD,
			stream{rate: b.w.searchRate, workers: 1, op: b.search},
			b.mutationStream())
		b.checkInFlight(res[0].results)
		b.searchLatency(res[0])
		b.mutateLatency(res[1])
		return b.quiesce()
	}
	openD := d * 35 / 100
	res := openLoop(openD, stream{rate: b.w.searchRate, workers: runtime.GOMAXPROCS(0), op: b.search})
	b.checkAnswers(res[0].results)
	b.searchLatency(res[0])
	runtime.GC()
	res = openLoop(d-closedD-openD, b.mutationStream())
	b.mutateLatency(res[0])
	return b.quiesce()
}

// closedPhase measures search capacity with GOMAXPROCS searches in
// flight. A traced run alternates untraced and traced slices and
// reports the difference as the tracing overhead.
func (b *bench) closedPhase(d time.Duration) {
	workers := runtime.GOMAXPROCS(0)
	if b.t == nil {
		var qps []float64
		offset := 0
		for w := 0; w < windows; w++ {
			res, took := closedLoop(d/windows, workers, offset, b.search)
			offset += len(res)
			b.checkAnswers(res)
			qps = append(qps, float64(len(res))/took.Seconds())
		}
		sort.Float64s(qps)
		b.put("search_qps", qps[len(qps)/2], "1/s")
		return
	}
	const slices = 4
	var n [2]int
	var took [2]time.Duration
	offset := 0
	for s := 0; s < slices; s++ {
		on := s%2 == 1
		b.t.on.Store(on)
		bytes0 := b.t.wireBytes.Load()
		res, dt := closedLoop(d/slices, workers, offset, b.search)
		offset += len(res)
		b.checkAnswers(res)
		k := 0
		if on {
			k = 1
			b.bytesPerQuery += float64(b.t.wireBytes.Load() - bytes0)
		}
		n[k] += len(res)
		took[k] += dt
	}
	b.bytesPerQuery /= float64(max(n[1], 1))
	b.t.on.Store(true)
	b.overheadPct = 100 * (float64(n[0])/took[0].Seconds()/(float64(n[1])/took[1].Seconds()) - 1)
}

// search runs query i of the sequence on the workload's read path.
func (b *bench) search(i int) ([]ranking.ScoredDoc, error) {
	q := b.in.queries[i%len(b.in.queries)]
	tok := b.c.toks[q.who]
	span := b.t.beginQuery()
	ctx := withSpan(context.Background(), span)
	if b.w.topk {
		docs, st, err := b.c.client.SearchTopKContext(ctx, tok, q.terms, resultK)
		if span != nil && err == nil {
			b.t.endQuery(span, b.t.now(), 0, st)
		}
		return docs, err
	}
	if span == nil {
		docs, _, err := b.c.client.SearchContext(ctx, tok, q.terms, resultK)
		return docs, err
	}
	// Traced exact search: Retrieve and ranking.TopK timed apart, the
	// same composition Client.SearchContext performs.
	lists, st, err := b.c.client.RetrieveContext(ctx, tok, q.terms)
	if err != nil {
		return nil, err
	}
	end := b.t.now()
	docs := rankLists(q.terms, lists)
	b.t.endQuery(span, end, b.t.now()-end, st)
	return docs, nil
}

// rankLists ranks retrieved postings by TF-IDF over the searcher's
// personalized statistics. It must stay the composition
// Client.SearchContext performs; quiesce checks that both agree.
func rankLists(terms []string, lists map[string][]ranking.Posting) []ranking.ScoredDoc {
	dfs := make(map[string]int, len(lists))
	docs := map[uint32]struct{}{}
	for t, ps := range lists {
		dfs[t] = len(ps)
		for _, p := range ps {
			docs[p.DocID] = struct{}{}
		}
	}
	return ranking.TopK(ranking.Input{Query: terms, Lists: lists, NumDocs: len(docs), DocFreq: dfs}, resultK)
}

// checkAnswers counts the results and checks every successful answer
// against the plain index: exact equality on the top-k path, the
// TF-IDF properties on the exact path.
func (b *bench) checkAnswers(res []opResult) {
	for _, r := range res {
		b.attempted++
		if r.err != nil {
			b.failed++
			b.fail(fmt.Errorf("search %d: %w", r.i, r.err))
			continue
		}
		q := b.in.queries[r.i%len(b.in.queries)]
		s := b.in.searchers[q.who]
		if err := b.ix.checkAnswer(s, q.terms, resultK, b.w.topk, r.docs); err != nil {
			b.fail(fmt.Errorf("search %d: %w", r.i, err))
		}
	}
}

// checkInFlight checks answers given while mutations were in flight,
// when an update may legitimately show both generations of a document:
// every returned document must belong to one of the searcher's groups.
func (b *bench) checkInFlight(res []opResult) {
	groupOf := func(id uint32) auth.GroupID {
		if id < 1 || int(id) > len(b.in.docs) {
			return 0 // no such document: in no searcher's groups
		}
		return b.in.docs[id-1].Group
	}
	for _, r := range res {
		b.attempted++
		if r.err != nil {
			b.failed++
			b.fail(fmt.Errorf("search %d: %w", r.i, r.err))
			continue
		}
		q := b.in.queries[r.i%len(b.in.queries)]
		if err := checkACL(b.in.searchers[q.who], groupOf, r.docs); err != nil {
			b.fail(fmt.Errorf("search %d: %w", r.i, err))
		}
	}
}

// mutationStream is the open-loop owner stream: one worker, because one
// peer serializes its mutations, issuing the generator's sequence.
// Acknowledged mutations are applied to the plain index at quiescence.
func (b *bench) mutationStream() stream {
	return stream{rate: b.w.mutateRate, workers: 1, prepare: func(int) func() ([]ranking.ScoredDoc, error) {
		m := b.gen.next()
		return func() ([]ranking.ScoredDoc, error) {
			t0 := time.Now()
			p := b.c.peers[0]
			var err error
			switch m.kind {
			case "delete":
				err = p.DeleteDocument(b.c.writer, m.doc.ID)
			default:
				err = p.IndexDocument(b.c.writer, m.doc)
			}
			if b.t != nil && b.t.on.Load() {
				b.t.mutation(int64(time.Since(t0)))
			}
			b.acked = append(b.acked, ackedMut{m: m, err: err})
			return nil, err
		}
	}}
}

// windows is how many equal windows a phase is cut into; capacity and
// median latency are the median over windows.
const windows = 5

// searchLatency reports the open-loop search latency on standard error
// only: on a shared two-vCPU machine even its median spread wider
// between runs than any bound the benchmark may set.
func (b *bench) searchLatency(r streamResult) {
	fmt.Fprintf(os.Stderr, "zbench: search p50 %.3f ms, p99 %.3f ms over %d searches\n",
		windowedMedian(r.latency, windows), ms(percentile(r.latency, 0.99)), len(r.latency))
	b.searchLag = ms(percentile(r.lag, 0.99))
}

// mutateLatency is searchLatency for the owner's mutations, whose
// journal fsync adds the machine's disk contention. setup_s and the
// traced peer.* and store.* metrics cover the write path instead.
func (b *bench) mutateLatency(r streamResult) {
	fmt.Fprintf(os.Stderr, "zbench: mutate p50 %.3f ms, p99 %.3f ms over %d mutations\n",
		windowedMedian(r.latency, windows), ms(percentile(r.latency, 0.99)), len(r.latency))
	b.mutateLag = ms(percentile(r.lag, 0.99))
}

// quiesce applies the acknowledged mutations to the plain index, then
// checks the cluster against it: no operation left pending, exactly one
// stored element per posting on every server, and exact answers.
func (b *bench) quiesce() error {
	if b.t != nil {
		b.t.on.Store(false)
	}
	for _, a := range b.acked {
		b.attempted++
		if a.err != nil {
			b.failed++
			b.fail(fmt.Errorf("%s doc %d: %w", a.m.kind, a.m.doc.ID, a.err))
			continue
		}
		if a.m.kind == "delete" {
			b.ix.remove(a.m.doc.ID)
		} else {
			b.ix.put(a.m.doc.ID, a.m.doc.Group, a.m.counts)
		}
	}
	if n := b.c.peers[0].PendingOps(); n != 0 {
		b.fail(fmt.Errorf("quiescence: %d mutations still pending", n))
	}
	if err := b.ix.checkStored(b.c.totals()); err != nil {
		b.fail(fmt.Errorf("quiescence: %w", err))
	}
	for i := 0; i < quiesceQueries; i++ {
		q := b.in.queries[i]
		s := b.in.searchers[q.who]
		lists, _, err := b.c.client.Retrieve(b.c.toks[q.who], q.terms)
		if err != nil {
			return fmt.Errorf("quiescence retrieve %d: %w", i, err)
		}
		if err := b.ix.checkPostings(s, q.terms, lists); err != nil {
			b.fail(fmt.Errorf("quiescence query %d: %w", i, err))
		}
		docs, err := b.search(i)
		if err != nil {
			return fmt.Errorf("quiescence search %d: %w", i, err)
		}
		if err = b.ix.checkAnswer(s, q.terms, resultK, b.w.topk, docs); err == nil && !b.w.topk {
			err = sameRanking(rankLists(q.terms, lists), docs)
		}
		if err != nil {
			b.fail(fmt.Errorf("quiescence query %d: %w", i, err))
		}
	}
	return nil
}

// sameRanking requires the traced exact path's ranking (rankLists) to
// equal Client.SearchContext's answer on the same postings.
func sameRanking(traced, search []ranking.ScoredDoc) error {
	if len(traced) != len(search) {
		return fmt.Errorf("rankLists gave %d results, SearchContext %d", len(traced), len(search))
	}
	for i := range search {
		if traced[i] != search[i] {
			return fmt.Errorf("rankLists rank %d is %+v, SearchContext's %+v", i, traced[i], search[i])
		}
	}
	return nil
}

// quiesceQueries is how many queries are checked exactly after the
// mutations, outside every timed phase.
const quiesceQueries = 200

type ackedMut struct {
	m   mutation
	err error
}

// layerMetrics turns the traced run's spans into per-layer metrics.
// Search-side times are per traced search, mutation-side times per
// traced mutation.
func (b *bench) layerMetrics() map[string]metric {
	a := b.t.take()
	div := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	perOp := func(ns int64, n int) float64 { return div(float64(ns), float64(n)) / 1e6 }
	q, m := float64(a.searches), float64(a.mutations)
	var diskBytes, liveBytes float64
	compactions := 0
	for _, d := range b.c.disks {
		if d != nil {
			st := d.Stats()
			diskBytes += float64(st.DiskBytes)
			liveBytes += float64(st.LiveBytes)
			compactions += st.Compactions
		}
	}
	b.m = map[string]metric{}
	b.put("client.join_decrypt_ms", perOp(a.clientSelf, a.searches), "ms")
	b.put("client.fanout_wait_ms", perOp(a.fanoutWait, a.searches), "ms")
	b.put("client.elements_per_query", div(float64(a.elements), q), "count")
	b.put("client.useful_ratio", 1-div(float64(a.falsePos), float64(a.elements)), "ratio")
	b.put("client.reccache_hit_ratio", div(float64(a.recHits), float64(a.recHits+a.recMisses)), "ratio")
	b.put("client.blocks_per_query", div(float64(a.blocks), q), "count")
	b.put("ranking.topk_share", div(float64(a.rank), float64(a.clientSelf+a.rank)), "ratio")
	b.put("transport.wire_ms", perOp(a.wire, a.paired), "ms")
	b.put("transport.calls_per_query", div(float64(a.calls), q), "count")
	b.put("transport.bytes_per_query", b.bytesPerQuery, "B")
	b.put("server.policy_ms", perOp(a.lookupHandler-a.storeRead, a.searches), "ms")
	b.put("store.read_ms", perOp(a.storeRead, a.searches), "ms")
	b.put("store.upsert_ms", perOp(a.storeUpsert, a.mutations), "ms")
	b.put("store.deleteif_ms", perOp(a.storeDeleteIf, a.mutations), "ms")
	b.put("store.disk_bytes_per_live_byte", div(diskBytes, liveBytes), "ratio")
	b.put("store.compactions", float64(compactions), "count")
	b.put("peer.self_ms", perOp(a.mutTime-a.peerApply, a.mutations), "ms")
	b.put("peer.apply_wait_ms", perOp(a.peerApply, a.mutations), "ms")
	b.put("peer.shares_per_mutation", div(float64(a.shares), m), "count")
	b.put("gen.search_lag_p99_ms", b.searchLag, "ms")
	b.put("gen.mutate_lag_p99_ms", b.mutateLag, "ms")
	b.put("trace.overhead_pct", b.overheadPct, "%")
	return b.m
}
