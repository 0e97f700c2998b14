package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zerber/internal/ranking"
)

// opResult is one completed operation: its index in the phase's
// sequence, the answer to check later, and its error, if any.
type opResult struct {
	i    int
	docs []ranking.ScoredDoc
	err  error
}

// closedLoop runs op(first), op(first+1), ... from workers goroutines, each
// issuing its next operation when the previous one returns, until d has
// passed. It returns every result and the time the phase took.
func closedLoop(d time.Duration, workers, first int, op func(i int) ([]ranking.ScoredDoc, error)) ([]opResult, time.Duration) {
	var next atomic.Int64
	next.Store(int64(first))
	per := make([][]opResult, workers)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				docs, err := op(i)
				per[w] = append(per[w], opResult{i: i, docs: docs, err: err})
			}
		}()
	}
	wg.Wait()
	return merge(per), time.Since(start)
}

// stream is one open-loop arrival process: operation i is due at
// start + i/rate, whatever happened to the ones before it.
type stream struct {
	rate    float64 // operations per second
	workers int
	op      func(i int) ([]ranking.ScoredDoc, error)
	// prepare, if set, runs before waiting for the due time and returns
	// the operation to execute; its cost is not part of the latency.
	prepare func(i int) func() ([]ranking.ScoredDoc, error)
}

// streamResult holds what one stream measured; latency and lag are
// indexed by operation, so index order is due-time order.
type streamResult struct {
	results []opResult
	latency []time.Duration // from due time to completion
	lag     []time.Duration // from due time to the actual start
}

// openLoop runs the streams side by side for d. Each operation's
// latency is timed from its due time, so a stall is charged to every
// operation queued behind it; lag records how late the generator ran.
func openLoop(d time.Duration, streams ...stream) []streamResult {
	out := make([]streamResult, len(streams))
	per := make([][][]opResult, len(streams)) // stream -> worker -> results
	start := time.Now()
	var wg sync.WaitGroup
	for s, st := range streams {
		n := int(st.rate * d.Seconds())
		out[s].latency = make([]time.Duration, n)
		out[s].lag = make([]time.Duration, n)
		next := new(atomic.Int64)
		per[s] = make([][]opResult, st.workers)
		for w := range per[s] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= n {
						return
					}
					due := start.Add(time.Duration(float64(i) / st.rate * float64(time.Second)))
					run := func() ([]ranking.ScoredDoc, error) { return st.op(i) }
					if st.prepare != nil {
						run = st.prepare(i)
					}
					time.Sleep(time.Until(due))
					began := time.Now()
					docs, err := run()
					out[s].latency[i] = time.Since(due)
					out[s].lag[i] = began.Sub(due)
					per[s][w] = append(per[s][w], opResult{i, docs, err})
				}
			}()
		}
	}
	wg.Wait()
	for s := range per {
		out[s].results = merge(per[s])
	}
	return out
}

func merge(per [][]opResult) []opResult {
	var out []opResult
	for _, p := range per {
		out = append(out, p...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].i < out[b].i })
	return out
}

// windowedMedian splits ds into windows contiguous runs and returns the
// median of their medians, in ms, so that a disturbance confined to a
// minority of windows does not move it.
func windowedMedian(ds []time.Duration, windows int) float64 {
	meds := make([]time.Duration, windows)
	for w := range meds {
		meds[w] = percentile(ds[w*len(ds)/windows:(w+1)*len(ds)/windows], 0.5)
	}
	return ms(percentile(meds, 0.5))
}

// percentile returns the q-quantile of ds by nearest rank.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
