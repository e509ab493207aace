package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fvp"
	"fvp/internal/cluster"
	"fvp/internal/simd"
	"fvp/internal/simd/client"
	"fvp/internal/store"
	"fvp/internal/store/disk"
)

// dataRoot holds the benchmark's on-disk stores, inside the checkout.
const dataRoot = ".bench_build"

// clusterOpts configure an in-process cluster. The zero value is fvpd's
// defaults: NumCPU workers, no batch window, no replication.
type clusterOpts struct {
	workers, queue int
	run            simd.RunFunc
	wrapStores     func(store.Stores) store.Stores
	wrapHandler    func(http.Handler) http.Handler
}

// svcCluster is a two-node fvpd cluster on disk-backed stores, each node
// served over loopback HTTP.
type svcCluster struct {
	dir   string
	urls  []string
	srvs  []*httptest.Server
	svcs  []*simd.Service
	nodes []*cluster.Node
}

// swapHandler lets a server (and so its URL) exist before the node it
// serves: peers name each other by URL.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// startCluster opens fresh stores under a new directory in parent and
// starts both nodes. The caller must close it.
func startCluster(parent string, o clusterOpts) (_ *svcCluster, err error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "svc-")
	if err != nil {
		return nil, err
	}
	c := &svcCluster{dir: dir}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	ids := []string{"a", "b"}
	peers := map[string]string{}
	shs := make([]*swapHandler, len(ids))
	for i, id := range ids {
		shs[i] = &swapHandler{}
		srv := httptest.NewServer(shs[i])
		c.srvs = append(c.srvs, srv)
		c.urls = append(c.urls, srv.URL)
		peers[id] = srv.URL
	}
	for i, id := range ids {
		stores, err := disk.Open(filepath.Join(dir, id), disk.Options{CacheEntries: simd.DefaultCacheSize})
		if err != nil {
			return nil, fmt.Errorf("open stores: %w", err)
		}
		if o.wrapStores != nil {
			stores = o.wrapStores(stores)
		}
		svc := simd.New(simd.Config{Workers: o.workers, QueueSize: o.queue, Stores: stores, NodeID: id, Run: o.run})
		c.svcs = append(c.svcs, svc)
		node, err := cluster.New(cluster.Config{Service: svc, Self: id, Peers: peers})
		if err != nil {
			return nil, fmt.Errorf("start node %s: %w", id, err)
		}
		c.nodes = append(c.nodes, node)
		h := node.Handler()
		if o.wrapHandler != nil {
			h = o.wrapHandler(h)
		}
		shs[i].mu.Lock()
		shs[i].h = h
		shs[i].mu.Unlock()
	}
	return c, nil
}

// close stops the servers (waiting out in-flight requests), then the
// services, and removes the stores.
func (c *svcCluster) close() {
	for _, s := range c.srvs {
		s.Close()
	}
	for _, s := range c.svcs {
		s.Close()
	}
	os.RemoveAll(c.dir)
}

// counts sums the nodes' cache hit and miss counters.
func (c *svcCluster) counts() (hits, misses uint64) {
	for _, s := range c.svcs {
		st := s.Snapshot()
		hits += st.CacheHits
		misses += st.CacheMisses
	}
	return hits, misses
}

// step is one request a client sends. repeat marks a spec this client
// already completed, which the service must answer from its cache.
type step struct {
	spec   fvp.RunSpec
	repeat bool
}

// wireRequest encodes a spec for the wire, with sampling knobs in the
// versioned nested block.
func wireRequest(s fvp.RunSpec) simd.RunRequest {
	req := simd.RunRequest{RunSpec: s}
	if s.SampleUnits != 0 {
		req.Sampling = &simd.SamplingSpec{Units: s.SampleUnits, UnitInsts: s.SampleUnitInsts, WarmupInsts: s.SampleWarmupInsts, Seed: s.SampleSeed}
		req.SampleUnits, req.SampleUnitInsts, req.SampleWarmupInsts, req.SampleSeed = 0, 0, 0, 0
	}
	return req
}

// loopStats is the outcome of a closed loop.
type loopStats struct {
	attempted, failed int64
	hitLat, missLat   []float64 // seconds, of completed repeats and unique specs
	wall              float64
}

// closedLoop runs clients goroutines; each sends next(client, k) for
// k = 0, 1, ... with fvp's client, waiting for each answer before sending
// the next, until next reports no more steps or ctx ends. Client c's k-th
// request enters node (c+k) mod 2, so requests are answered both by the
// node they entered and across a forward hop. It checks every answer and
// records failed checks in r; refused, failed or non-2xx requests count
// as failed attempts.
func closedLoop(ctx context.Context, c *svcCluster, clients int, next func(client, k int) (step, bool), r *report) loopStats {
	tr := &http.Transport{MaxIdleConnsPerHost: clients}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	nodes := make([]*client.Client, len(c.urls))
	for i, u := range c.urls {
		nodes[i] = client.New(u)
		nodes[i].HTTPClient = hc
	}

	per := make([]loopStats, clients)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards r
	start := time.Now()
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			st := &per[cl]
			answers := map[string]fvp.Metrics{} // spec key -> its first answer
			for k := 0; ctx.Err() == nil; k++ {
				s, ok := next(cl, k)
				if !ok {
					return
				}
				t0 := time.Now()
				jobs, err := nodes[(cl+k)%len(nodes)].Submit(ctx, []simd.RunRequest{wireRequest(s.spec)}, true)
				d := time.Since(t0).Seconds()
				st.attempted++
				if err != nil {
					st.failed++
					continue
				}
				key := simd.SpecKey(s.spec)
				problem := ""
				switch {
				case len(jobs) != 1 || jobs[0].State != simd.StateDone || jobs[0].Metrics == nil:
					problem = "2xx response without metrics"
				case jobs[0].Cached != s.repeat:
					problem = fmt.Sprintf("cached=%v, want %v", jobs[0].Cached, s.repeat)
				case s.repeat && metricsJSON(*jobs[0].Metrics) != metricsJSON(answers[key]):
					problem = "cached metrics differ from the first answer"
				}
				if problem != "" {
					st.failed++
					mu.Lock()
					r.fail("%s: %s", specLabel(s.spec), problem)
					mu.Unlock()
					continue
				}
				if s.repeat {
					st.hitLat = append(st.hitLat, d)
				} else {
					answers[key] = *jobs[0].Metrics
					st.missLat = append(st.missLat, d)
				}
			}
		}(cl)
	}
	wg.Wait()
	out := loopStats{wall: time.Since(start).Seconds()}
	for _, p := range per {
		out.attempted += p.attempted
		out.failed += p.failed
		out.hitLat = append(out.hitLat, p.hitLat...)
		out.missLat = append(out.missLat, p.missLat...)
	}
	hits, misses := c.counts()
	if hits != uint64(len(out.hitLat)) || misses != uint64(len(out.missLat)) {
		r.fail("service counted %d hits / %d misses, the clients sent %d repeats / %d unique specs that were answered", hits, misses, len(out.hitLat), len(out.missLat))
	}
	return out
}
