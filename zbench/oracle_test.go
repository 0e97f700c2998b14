package main

import (
	"slices"
	"testing"

	"zerber/internal/auth"
	"zerber/internal/ranking"
)

// fixture is a small plain index: docs 1-12 in group 1, docs 13-14 in
// group 2, all containing "a" and some "b", searched by a group-1 user.
func fixture() (*plainIndex, searcher) {
	x := newPlainIndex()
	for id := uint32(1); id <= 14; id++ {
		g := auth.GroupID(1)
		if id > 12 {
			g = 2
		}
		bag := map[string]int{"a": int(id%4) + 1, "z": 1}
		if id%3 == 0 {
			bag["b"] = int(id)
		}
		x.put(id, g, bag)
	}
	return x, searcher{user: "u", groups: map[auth.GroupID]bool{1: true}}
}

var terms = []string{"a", "b"}

// tfidfAnswer is a correct exact-search answer built from the
// independent scores.
func tfidfAnswer(x *plainIndex, s searcher) []ranking.ScoredDoc {
	return cut(x.tfidfScores(s, terms), resultK)
}

func TestChecksAcceptCorrectAnswers(t *testing.T) {
	x, s := fixture()
	if err := x.checkTopK(s, terms, resultK, x.freqSumTopK(s, terms, resultK)); err != nil {
		t.Fatal(err)
	}
	if err := x.checkTFIDF(s, terms, resultK, tfidfAnswer(x, s)); err != nil {
		t.Fatal(err)
	}
	n := x.idx.TotalPostings()
	if err := x.checkStored([]int{n, n, n}); err != nil {
		t.Fatal(err)
	}
}

func TestDroppedDocFails(t *testing.T) {
	x, s := fixture()
	top := x.freqSumTopK(s, terms, resultK)
	dropped := append(append([]ranking.ScoredDoc(nil), top[:3]...), top[4:]...)
	if x.checkTopK(s, terms, resultK, dropped) == nil {
		t.Error("top-k check accepted an answer missing a document")
	}
	full := tfidfAnswer(x, s)
	if x.checkTFIDF(s, terms, resultK, full[:len(full)-1]) == nil {
		t.Error("tf-idf check accepted a short answer")
	}
	// Same length, but the best document replaced by the 11th.
	all := cut(x.tfidfScores(s, terms), 100)
	swapped := append(append([]ranking.ScoredDoc(nil), all[1:resultK]...), all[resultK])
	if x.checkTFIDF(s, terms, resultK, swapped) == nil {
		t.Error("tf-idf check accepted an answer that skips a higher-scoring document")
	}
}

func TestPerturbedScoreFails(t *testing.T) {
	x, s := fixture()
	top := x.freqSumTopK(s, terms, resultK)
	top[2].Score++
	if x.checkTopK(s, terms, resultK, top) == nil {
		t.Error("top-k check accepted a wrong score")
	}
	ans := tfidfAnswer(x, s)
	ans[5].Score *= 1 + 1e-6
	if x.checkTFIDF(s, terms, resultK, ans) == nil {
		t.Error("tf-idf check accepted a score off by 1e-6 relative")
	}
}

func TestLeakedDocFails(t *testing.T) {
	x, s := fixture()
	groupOf := x.groupOf
	ans := tfidfAnswer(x, s)
	ans[len(ans)-1] = ranking.ScoredDoc{DocID: 13, Score: ans[len(ans)-1].Score}
	if checkACL(s, groupOf, ans) == nil {
		t.Error("acl check accepted a document of a group the searcher is not in")
	}
	if x.checkTFIDF(s, terms, resultK, ans) == nil {
		t.Error("tf-idf check accepted an inaccessible document")
	}
	if x.checkPostings(s, []string{"a"}, map[string][]ranking.Posting{"a": {{DocID: 13, TF: 2}}}) == nil {
		t.Error("postings check accepted an inaccessible posting")
	}
}

// A Retrieve answer of the right length that repeats one posting and
// drops another must fail.
func TestDuplicatedPostingFails(t *testing.T) {
	x, s := fixture()
	var ps []ranking.Posting
	for id := uint32(1); id <= 12; id++ {
		ps = append(ps, ranking.Posting{DocID: id, TF: uint16(id%4) + 1})
	}
	if err := x.checkPostings(s, []string{"a"}, map[string][]ranking.Posting{"a": ps}); err != nil {
		t.Fatal(err)
	}
	ps[4] = ps[3]
	if x.checkPostings(s, []string{"a"}, map[string][]ranking.Posting{"a": ps}) == nil {
		t.Error("postings check accepted a duplicated posting in place of a dropped one")
	}
}

// An accepted answer is remembered, but neither a different answer to
// the same query nor the same answer after the index changed may pass
// on the strength of it.
func TestRememberedAnswerNeedsSameAnswerAndIndex(t *testing.T) {
	x, s := fixture()
	ans := tfidfAnswer(x, s)
	if err := x.checkAnswer(s, terms, resultK, false, ans); err != nil {
		t.Fatal(err)
	}
	if err := x.checkAnswer(s, terms, resultK, false, ans); err != nil {
		t.Fatalf("the same correct answer failed the second time: %v", err)
	}
	bad := append([]ranking.ScoredDoc(nil), ans...)
	bad[0].Score++
	if x.checkAnswer(s, terms, resultK, false, bad) == nil {
		t.Error("a perturbed answer passed after a correct one to the same query")
	}
	x.put(ans[0].DocID, 1, map[string]int{"z": 1})
	if x.checkAnswer(s, terms, resultK, false, ans) == nil {
		t.Error("a remembered answer passed after the index changed under it")
	}
}

func TestExtraStoredElementFails(t *testing.T) {
	x, _ := fixture()
	n := x.idx.TotalPostings()
	if x.checkStored([]int{n, n + 1, n}) == nil {
		t.Error("stored-element check accepted an orphaned element")
	}
	if x.checkStored([]int{n, n, n - 1}) == nil {
		t.Error("stored-element check accepted a lost element")
	}
}

func TestPlainIndexFollowsMutations(t *testing.T) {
	x, s := fixture()
	before := x.idx.TotalPostings()
	x.put(3, 1, map[string]int{"b": 9})
	x.remove(6)
	if got, want := x.idx.TotalPostings(), before-3+1-3; got != want {
		t.Fatalf("total %d after update and delete, want %d", got, want)
	}
	acc := x.accessible(s, []string{"b", "z"})
	if !slices.Contains(acc["b"], ranking.Posting{DocID: 3, TF: 9}) || len(acc["b"]) != 3 || len(acc["z"]) != 10 {
		t.Fatalf("accessible postings after mutations: %v", acc)
	}
}
