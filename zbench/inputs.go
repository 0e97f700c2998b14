package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"zerber/internal/auth"
	"zerber/internal/corpus"
	"zerber/internal/peer"
)

// Reference sizes. Every input below is a pure function of the seed.
const (
	numDocs      = 5000 // documents preloaded before any phase
	reserveDocs  = 1000 // generated but only ever indexed by mutations
	vocabSize    = 20000
	numGroups    = 16
	meanDocLen   = 80 // mean distinct terms per document
	numSearchers = 8
	queryLogLen  = 20000
	resultK      = 10 // results per search
	numPeers     = 2  // preload peers; peer 0 also runs every mutation
	preloadBatch = 100
)

// searcher is one querying user and the groups it belongs to.
type searcher struct {
	user   auth.UserID
	groups map[auth.GroupID]bool
}

// query is one search of the fixed sequence: who asks, and for what.
type query struct {
	who   int
	terms []string
}

// inputs are the generated corpus, users and query sequence of one seed.
type inputs struct {
	seed      int64
	docs      []peer.Document  // docs[i].ID == i+1
	counts    []map[string]int // counts[i] is the term bag of docs[i]
	docFreqs  map[string]int   // over all generated documents
	vocab     []string         // terms by document-frequency rank
	searchers []searcher
	queries   []query
}

// makeInputs builds the synthetic-ODP corpus, the searchers and the
// Zipfian query sequence for one seed.
func makeInputs(seed int64) *inputs {
	corp := corpus.SyntheticODP(corpus.ODPConfig{
		Seed:       seed,
		NumDocs:    numDocs + reserveDocs,
		VocabSize:  vocabSize,
		NumGroups:  numGroups,
		MeanDocLen: meanDocLen,
	})
	in := &inputs{seed: seed, docFreqs: corp.DocFreqs(), vocab: corp.Vocab}
	for _, d := range corp.Docs {
		in.counts = append(in.counts, d.Counts)
		in.docs = append(in.docs, peer.Document{
			ID:      d.ID,
			Name:    fmt.Sprintf("doc%d", d.ID),
			Content: contentOf(d.Counts),
			Group:   auth.GroupID(d.Group),
		})
	}

	rng := rand.New(rand.NewSource(seed + 2))
	for i := 0; i < numSearchers; i++ {
		s := searcher{user: auth.UserID(fmt.Sprintf("searcher-%d", i)), groups: map[auth.GroupID]bool{}}
		for g := 1; g <= numGroups; g++ {
			if rng.Float64() < 0.5 {
				s.groups[auth.GroupID(g)] = true
			}
		}
		if len(s.groups) == 0 {
			s.groups[auth.GroupID(rng.Intn(numGroups)+1)] = true
		}
		in.searchers = append(in.searchers, s)
	}

	qlog := corpus.SyntheticQueryLog(corpus.QueryLogConfig{Seed: seed + 1, NumQueries: queryLogLen}, corp.Vocab)
	for _, terms := range qlog.Queries {
		in.queries = append(in.queries, query{who: rng.Intn(numSearchers), terms: terms})
	}
	return in
}

// contentOf renders a term bag as document text whose tokenization
// yields exactly that bag.
func contentOf(counts map[string]int) string {
	terms := make([]string, 0, len(counts))
	for t := range counts {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	var sb strings.Builder
	for _, t := range terms {
		for c := 0; c < counts[t]; c++ {
			sb.WriteString(t)
			sb.WriteByte(' ')
		}
	}
	return sb.String()
}

// mutation is one owner-side operation of the mutation sequence.
type mutation struct {
	kind   string // "index", "update" or "delete"
	doc    peer.Document
	counts map[string]int // the post-state term bag (nil for delete)
}

// mutGen generates the seeded index/update/delete sequence of peer 0
// around a steady live-document count. It tracks only its own view of
// which documents are live, so the sequence is fixed by the seed alone.
type mutGen struct {
	in     *inputs
	rng    *rand.Rand
	live   []uint32 // doc IDs currently indexed by peer 0
	idle   []uint32 // peer-0 doc IDs not indexed (reserve or deleted)
	counts map[uint32]map[string]int
	target int
}

// newMutGen starts the sequence from the preloaded state: peer 0 owns
// the even-indexed preloaded documents and all reserve documents.
func newMutGen(in *inputs, seed int64) *mutGen {
	g := &mutGen{in: in, rng: rand.New(rand.NewSource(seed)), counts: map[uint32]map[string]int{}}
	for i := 0; i < numDocs; i += numPeers {
		g.live = append(g.live, in.docs[i].ID)
		g.counts[in.docs[i].ID] = in.counts[i]
	}
	for i := numDocs; i < len(in.docs); i++ {
		g.idle = append(g.idle, in.docs[i].ID)
	}
	g.target = len(g.live)
	return g
}

// next returns the following mutation: half updates, and indexes and
// deletes in equal shares that hold the live count near its start.
func (g *mutGen) next() mutation {
	r := g.rng.Float64()
	switch {
	case len(g.live) < g.target-50 || (r < 0.25 && len(g.live) < g.target+50):
		j := g.rng.Intn(len(g.idle))
		id := g.idle[j]
		g.idle[j] = g.idle[len(g.idle)-1]
		g.idle = g.idle[:len(g.idle)-1]
		g.live = append(g.live, id)
		c := g.counts[id]
		if c == nil {
			c = g.in.counts[id-1]
		}
		g.counts[id] = c
		return g.mutationOf("index", id, c)
	case r < 0.5:
		j := g.rng.Intn(len(g.live))
		id := g.live[j]
		g.live[j] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		g.idle = append(g.idle, id)
		return mutation{kind: "delete", doc: peer.Document{ID: id}}
	default:
		id := g.live[g.rng.Intn(len(g.live))]
		c := g.edit(g.counts[id])
		g.counts[id] = c
		return g.mutationOf("update", id, c)
	}
}

func (g *mutGen) mutationOf(kind string, id uint32, c map[string]int) mutation {
	d := g.in.docs[id-1]
	return mutation{kind: kind, doc: peer.Document{ID: id, Name: d.Name, Content: contentOf(c), Group: d.Group}, counts: c}
}

// edit returns a changed copy of a term bag: about a tenth of the terms
// change frequency, a twentieth disappear, and a few vocabulary terms
// (Zipf-weighted towards frequent ones) are added.
func (g *mutGen) edit(old map[string]int) map[string]int {
	c := make(map[string]int, len(old)+4)
	for t, n := range old {
		switch r := g.rng.Float64(); {
		case r < 0.05 && len(old) > 5:
		case r < 0.15:
			c[t] = 1 + g.rng.Intn(6)
		default:
			c[t] = n
		}
	}
	for a := 0; a < 4; a++ {
		rank := int(float64(len(g.in.vocab)) * g.rng.Float64() * g.rng.Float64() * g.rng.Float64())
		c[g.in.vocab[rank]] += 1 + g.rng.Intn(3)
	}
	return c
}
