package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"zerber/internal/auth"
	"zerber/internal/invindex"
	"zerber/internal/posting"
	"zerber/internal/ranking"
)

// plainIndex is the reference the answers are checked against: an
// ordinary inverted index (invindex, the paper's plaintext baseline)
// over the generated term bags plus an ACL check, built without any
// Zerber code path (no merging, sharing, transport or client). It is
// updated after each acknowledged mutation.
type plainIndex struct {
	idx   *invindex.Index
	group []auth.GroupID // doc ID -> group; 0 (no group) for no live doc
	// passed holds, per search mode, searcher and query, the last answer
	// checkAnswer accepted. Any change to the index clears it.
	passed map[string][]ranking.ScoredDoc
}

func newPlainIndex() *plainIndex {
	return &plainIndex{idx: invindex.New(), passed: map[string][]ranking.ScoredDoc{}}
}

// put indexes (or replaces) a document.
func (x *plainIndex) put(id uint32, g auth.GroupID, bag map[string]int) {
	x.idx.Add(id, bag)
	if int(id) >= len(x.group) {
		x.group = append(x.group, make([]auth.GroupID, int(id)+1-len(x.group))...)
	}
	x.group[id] = g
	clear(x.passed)
}

// remove deletes a document; removing an absent one is a no-op.
func (x *plainIndex) remove(id uint32) {
	x.idx.Remove(id)
	if int(id) < len(x.group) {
		x.group[id] = 0
	}
	clear(x.passed)
}

// groupOf returns a live document's group, 0 for any other ID.
func (x *plainIndex) groupOf(id uint32) auth.GroupID {
	if int(id) < len(x.group) {
		return x.group[id]
	}
	return 0
}

// checkAnswer checks a search answer with checkTopK (topk) or
// checkTFIDF. The same query repeats often in a Zipfian sequence, so an
// answer identical to one already accepted for the same searcher and
// query, with the index unchanged since, is accepted without
// recomputing the reference.
func (x *plainIndex) checkAnswer(s searcher, terms []string, k int, topk bool, got []ranking.ScoredDoc) error {
	key := fmt.Sprintf("%t\x00%d\x00%s\x00%s", topk, k, s.user, strings.Join(terms, "\x00"))
	if prev, ok := x.passed[key]; ok && slices.Equal(prev, got) {
		return nil
	}
	var err error
	if topk {
		err = x.checkTopK(s, terms, k, got)
	} else {
		err = x.checkTFIDF(s, terms, k, got)
	}
	if err == nil {
		x.passed[key] = got
	}
	return err
}

// accessible returns the postings of each distinct query term that the
// searcher may see, with term frequencies clamped to the packed width.
func (x *plainIndex) accessible(s searcher, terms []string) map[string][]ranking.Posting {
	var may []bool // group -> searcher is a member
	for g := range s.groups {
		if int(g) >= len(may) {
			may = append(may, make([]bool, int(g)+1-len(may))...)
		}
		may[g] = true
	}
	out := make(map[string][]ranking.Posting, len(terms))
	for _, t := range terms {
		if _, dup := out[t]; dup {
			continue
		}
		ps := []ranking.Posting{}
		for _, p := range x.idx.Lookup(t) {
			if g := int(x.groupOf(p.DocID)); g < len(may) && may[g] {
				ps = append(ps, ranking.Posting{DocID: p.DocID, TF: posting.ClampTF(int(p.TF))})
			}
		}
		out[t] = ps
	}
	return out
}

// Scores are dense, indexed by doc ID. Every real score is positive, so
// 0 marks a document outside the answer set.

// freqSumTopK is the answer SearchTopK must return exactly: accessible
// documents scored by summed clamped term frequency, ties by ascending
// document ID, cut to k.
func (x *plainIndex) freqSumTopK(s searcher, terms []string, k int) []ranking.ScoredDoc {
	scores := make([]float64, len(x.group))
	for _, ps := range x.accessible(s, terms) {
		for _, p := range ps {
			scores[p.DocID] += float64(p.TF)
		}
	}
	return cut(scores, k)
}

// tfidfScores scores every accessible document with tf·ln(1+N/df): N is
// the number of accessible documents across the query's terms and df a
// term's accessible list length.
func (x *plainIndex) tfidfScores(s searcher, terms []string) []float64 {
	acc := x.accessible(s, terms)
	seen := make([]bool, len(x.group))
	n := 0
	for _, ps := range acc {
		for _, p := range ps {
			if !seen[p.DocID] {
				seen[p.DocID] = true
				n++
			}
		}
	}
	scores := make([]float64, len(x.group))
	for _, ps := range acc {
		if len(ps) == 0 {
			continue
		}
		idf := math.Log(1 + float64(n)/float64(len(ps)))
		for _, p := range ps {
			scores[p.DocID] += float64(p.TF) * idf
		}
	}
	return scores
}

// cut returns the k best scores, ordered descending with ties by
// ascending doc ID. It keeps a sorted window of k instead of sorting all
// scores: most documents lose to the current k-th at one comparison.
func cut(scores []float64, k int) []ranking.ScoredDoc {
	before := func(a, b ranking.ScoredDoc) bool {
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.DocID < b.DocID
	}
	out := make([]ranking.ScoredDoc, 0, k+1)
	for id, sc := range scores {
		d := ranking.ScoredDoc{DocID: uint32(id), Score: sc}
		if sc == 0 || (len(out) == k && !before(d, out[k-1])) {
			continue
		}
		i := sort.Search(len(out), func(i int) bool { return before(d, out[i]) })
		out = slices.Insert(out, i, d)
		if len(out) > k {
			out = out[:k]
		}
	}
	return out
}

// checkTopK requires got to equal the frequency-sum top k exactly.
func (x *plainIndex) checkTopK(s searcher, terms []string, k int, got []ranking.ScoredDoc) error {
	want := x.freqSumTopK(s, terms, k)
	if len(got) != len(want) {
		return fmt.Errorf("top-k %v: %d results, want %d", terms, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("top-k %v: rank %d is %+v, want %+v", terms, i, got[i], want[i])
		}
	}
	return nil
}

// relTol is the relative score tolerance of the TF-IDF check.
const relTol = 1e-9

// checkTFIDF checks an exact search answer against the independent
// TF-IDF scores: its length is min(k, answer set), each returned score
// matches, and no unreturned document scores above the lowest returned
// one (which tolerates any order among ties).
func (x *plainIndex) checkTFIDF(s searcher, terms []string, k int, got []ranking.ScoredDoc) error {
	scores := x.tfidfScores(s, terms)
	answers := 0
	for _, sc := range scores {
		if sc > 0 {
			answers++
		}
	}
	if want := min(k, answers); len(got) != want {
		return fmt.Errorf("tf-idf %v: %d results, want %d", terms, len(got), want)
	}
	returned := make(map[uint32]bool, len(got))
	lowest := math.Inf(1)
	for _, r := range got {
		if int(r.DocID) >= len(scores) || scores[r.DocID] == 0 {
			return fmt.Errorf("tf-idf %v: doc %d is not in the accessible answer set", terms, r.DocID)
		}
		if returned[r.DocID] {
			return fmt.Errorf("tf-idf %v: doc %d returned twice", terms, r.DocID)
		}
		returned[r.DocID] = true
		want := scores[r.DocID]
		if math.Abs(r.Score-want) > relTol*math.Abs(want) {
			return fmt.Errorf("tf-idf %v: doc %d scored %.17g, want %.17g", terms, r.DocID, r.Score, want)
		}
		lowest = min(lowest, want)
	}
	for id, sc := range scores {
		if !returned[uint32(id)] && sc > lowest*(1+relTol) {
			return fmt.Errorf("tf-idf %v: unreturned doc %d scores %.17g above the lowest returned %.17g", terms, id, sc, lowest)
		}
	}
	return nil
}

// checkPostings requires a Retrieve answer to equal the accessible
// postings of every query term exactly: each wanted posting once, and
// nothing else.
func (x *plainIndex) checkPostings(s searcher, terms []string, got map[string][]ranking.Posting) error {
	for t, ps := range x.accessible(s, terms) {
		have := got[t]
		if len(have) != len(ps) {
			return fmt.Errorf("retrieve %q: %d postings, want %d", t, len(have), len(ps))
		}
		want := make(map[uint32]uint16, len(ps))
		for _, p := range ps {
			want[p.DocID] = p.TF
		}
		for _, p := range have {
			tf, ok := want[p.DocID]
			if !ok || tf != p.TF {
				return fmt.Errorf("retrieve %q: posting (doc %d, tf %d) not in the plain index or returned twice", t, p.DocID, p.TF)
			}
			delete(want, p.DocID)
		}
	}
	return nil
}

// checkACL requires every returned document to belong to one of the
// searcher's groups; groupOf is the fixed document-to-group assignment.
func checkACL(s searcher, groupOf func(uint32) auth.GroupID, got []ranking.ScoredDoc) error {
	for _, r := range got {
		if !s.groups[groupOf(r.DocID)] {
			return fmt.Errorf("acl: doc %d of group %d returned to %s", r.DocID, groupOf(r.DocID), s.user)
		}
	}
	return nil
}

// checkStored requires each server to hold exactly one share per live
// posting: a surplus is an orphaned element, a deficit a lost one.
func (x *plainIndex) checkStored(totals []int) error {
	total := x.idx.TotalPostings()
	for i, n := range totals {
		if n != total {
			return fmt.Errorf("server %d stores %d elements, the plain index has %d postings", i+1, n, total)
		}
	}
	return nil
}
