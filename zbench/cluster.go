package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"zerber/internal/auth"
	"zerber/internal/client"
	"zerber/internal/confidential"
	"zerber/internal/field"
	"zerber/internal/merging"
	"zerber/internal/peer"
	"zerber/internal/server"
	"zerber/internal/store"
	"zerber/internal/transport"
	"zerber/internal/vocab"
)

const (
	numServers = 3
	threshold  = 2 // Shamir k
	// diskCacheBytes is the Disk engine's payload cache, well below each
	// server's live data (about 24 B per share, roughly 10 MB per server).
	diskCacheBytes = 2 << 20
)

// cluster is an n=3, k=2 Zerber deployment inside this process: every
// index server listens on loopback and speaks the binary wire; the
// search client and the peers reach it through dialed transport.APIs.
type cluster struct {
	table   *merging.Table
	voc     *vocab.Vocabulary
	servers []*server.Server
	disks   []*store.Disk // nil entries on the sharded engine
	bins    []*transport.BinaryServer
	conns   []*transport.BinaryClient
	client  *client.Client
	peers   []*peer.Peer
	writer  auth.Token
	toks    []auth.Token // per searcher
	dir     string
}

// buildCluster starts the servers on engine ("sharded" or "disk") under
// dir, dials them, and creates the search client and the journaled
// preload peers. With t non-nil every layer boundary is wrapped.
func buildCluster(in *inputs, engine, dir string, t *tracer) (*cluster, error) {
	dist, err := confidential.NewDistribution(in.docFreqs)
	if err != nil {
		return nil, err
	}
	m := max(1, dist.Len()/8)
	table, err := merging.Build(dist, merging.Options{Heuristic: merging.DFM, M: m, R: max(1, float64(m)/4), Seed: in.seed})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &cluster{table: table, voc: vocab.NewFromTerms(table.ListedTerms()), dir: dir}
	svc, err := auth.NewService(time.Hour)
	if err != nil {
		return nil, err
	}
	groups := auth.NewGroupTable()
	for g := 1; g <= numGroups; g++ {
		groups.Add("writer", auth.GroupID(g))
	}
	c.writer = svc.Issue("writer")
	for _, s := range in.searchers {
		for g := range s.groups {
			groups.Add(s.user, g)
		}
		c.toks = append(c.toks, svc.Issue(s.user))
	}

	var searchAPIs, peerAPIs []transport.API
	for i := 0; i < numServers; i++ {
		var st store.Store
		var disk *store.Disk
		if engine == "disk" {
			disk, err = store.OpenDisk(filepath.Join(dir, fmt.Sprintf("ix%d", i+1)), store.DiskOptions{CacheBytes: diskCacheBytes})
			if err != nil {
				c.close()
				return nil, err
			}
			st = disk
		} else {
			st = store.NewSharded(0)
		}
		c.disks = append(c.disks, disk)
		if t != nil {
			st = &tracedStore{Store: st, t: t}
		}
		srv := server.New(server.Config{Name: fmt.Sprintf("ix%d", i+1), X: field.Element(i + 1), Auth: svc, Groups: groups, Store: st})
		c.servers = append(c.servers, srv)
		var api transport.API = srv
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		if t != nil {
			api = &serverAPI{api: srv, t: t, server: i}
			ln = countingListener{Listener: ln, n: &t.wireBytes}
		}
		c.bins = append(c.bins, transport.ServeBinary(ln, api))
		conn, err := transport.DialBinary(ln.Addr().String(), 30*time.Second)
		if err != nil {
			c.close()
			return nil, err
		}
		c.conns = append(c.conns, conn)
		if t != nil {
			searchAPIs = append(searchAPIs, &clientAPI{API: conn, t: t, server: i})
			peerAPIs = append(peerAPIs, &clientAPI{API: conn, t: t, server: i, peer: true})
		} else {
			searchAPIs = append(searchAPIs, conn)
			peerAPIs = append(peerAPIs, conn)
		}
	}
	if c.client, err = client.New(searchAPIs, threshold, table, c.voc); err != nil {
		c.close()
		return nil, err
	}
	for i := 0; i < numPeers; i++ {
		p, err := peer.New(peer.Config{
			Name:        fmt.Sprintf("site%d", i),
			Servers:     peerAPIs,
			K:           threshold,
			Table:       table,
			Vocab:       c.voc,
			JournalPath: filepath.Join(dir, fmt.Sprintf("site%d.journal", i)),
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.peers = append(c.peers, p)
	}
	return c, nil
}

// preload indexes the first numDocs documents through the peers, each
// owning every numPeers-th document, in batches. The peers flush in
// turn, not concurrently: concurrent owners leave the servers' lists in
// different orders within an impact bucket, and SearchTopK is then not
// exact (see README.md, "Known fault").
func (c *cluster) preload(in *inputs) error {
	for p, pr := range c.peers {
		b := pr.NewBatch()
		for i := p; i < numDocs; i += numPeers {
			if err := b.Add(in.docs[i]); err != nil {
				return err
			}
			if b.Len() == preloadBatch {
				if err := b.Flush(c.writer); err != nil {
					return err
				}
			}
		}
		if err := b.Flush(c.writer); err != nil {
			return err
		}
	}
	return nil
}

// totals returns each server's stored element count.
func (c *cluster) totals() []int {
	out := make([]int, len(c.servers))
	for i, s := range c.servers {
		out[i] = s.TotalElements()
	}
	return out
}

// diskBytes is what the run leaves on disk: segment files and journals.
func (c *cluster) diskBytes() (int64, error) {
	var n int64
	err := filepath.WalkDir(c.dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// close stops everything the cluster started and waits for it.
func (c *cluster) close() {
	for _, p := range c.peers {
		p.Close()
	}
	for _, conn := range c.conns {
		conn.Close()
	}
	for _, b := range c.bins {
		b.Close()
	}
	for _, d := range c.disks {
		if d != nil {
			d.Close()
		}
	}
}
