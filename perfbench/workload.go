package main

import (
	"fmt"
	"math/rand/v2"

	"gbc/internal/graph"
)

// graphSpec is one Barabási–Albert graph a workload serves. Seed is the
// generator seed. It is fixed per workload rather than drawn from the
// workload seed: AdaAlg stops at whole iterations, and on BA-60k two graph
// seeds differ by one iteration (10368 against 11406 samples per solve) often
// enough that per-run medians would split into two levels 10% apart. Fixing
// the graph and the solver seed pool fixes the work per request; the
// workload seed drives the request order, the serve-mix step order and cold
// seeds, and the patch-mix deltas.
type graphSpec struct {
	Name   string
	N      int
	Degree int
	Seed   uint64
	// File graphs are written to .gbcsr during set-up and registered by
	// path (mmap); the others are registered as server-side generators.
	File bool
}

// solveSpec fixes the AdaAlg request shape sent for one graph.
type solveSpec struct {
	K       int
	Epsilon float64
	// Workers is sent as the request's workers field; 0 leaves it out.
	Workers int
	// Pool is the fixed solver seed pool: warm-up solves each seed once,
	// so every later request on a pool seed finds its warm sets.
	Pool []uint64
}

type workload struct {
	Name    string
	Clients int
	// Shards is the number of in-process shard workers behind the
	// coordinator; 0 serves every solve locally.
	Shards int
	Graphs []graphSpec
	Solves map[string]solveSpec
	// Primary names the graph the layer probes run on.
	Primary string
}

const (
	wSolveLocal   = "solve-local"
	wServeMix     = "serve-mix"
	wPatchMix     = "patch-mix"
	wSolveSharded = "solve-sharded"
)

var workloadNames = []string{wSolveLocal, wServeMix, wPatchMix, wSolveSharded}

// newWorkload returns the named workload. tiny shrinks every graph twenty
// times for smoke tests; full is the benchmark proper.
//
// Every solve grows its samples on one thread: workers:1, or a single
// shard worker. On a 2-vCPU host shared with other tenants, a solve split
// over both vCPUs waits for whichever one a neighbour slows: with a busy
// loop on one vCPU, workers:2 solves and two-shard growth took 50% longer
// at the median and 60% at the p90, while workers:1 solves kept their
// median. Run to run that swing exceeded the end-to-end bounds. Parallel
// growth is measured per layer instead (sampling.ns_per_sample.w2 and
// fast_w2, shard.grow_range over two workers).
func newWorkload(name string, tiny bool) (*workload, error) {
	g60 := graphSpec{Name: "ba60k", N: 60000, Degree: 4, Seed: 60001, File: true}
	local := solveSpec{K: 30, Epsilon: 0.15, Workers: 1, Pool: []uint64{1, 2, 3, 4}}
	var w *workload
	switch name {
	case wSolveLocal:
		// The sampler does nearly all the work; cache, coalescing, repair
		// and shards sit idle.
		w = &workload{
			Clients: 1, Graphs: []graphSpec{g60},
			Solves: map[string]solveSpec{g60.Name: local},
		}
	case wSolveSharded:
		sharded := local
		sharded.Workers = 0
		// Growth runs on the shard worker: the only workload that drives
		// the shard layer and the wire arena codec end to end.
		w = &workload{
			Clients: 1, Shards: 1, Graphs: []graphSpec{g60},
			Solves: map[string]solveSpec{g60.Name: sharded},
		}
	case wServeMix:
		small := graphSpec{Name: "ba5k", N: 5000, Degree: 4, Seed: 5001}
		large := graphSpec{Name: "ba20k", N: 20000, Degree: 4, Seed: 20001}
		// Scheduler lanes, single flight, the result cache, the registry
		// and marshalling carry most of the cost; pool and shards are idle.
		w = &workload{
			Clients: 2, Graphs: []graphSpec{small, large},
			Solves: map[string]solveSpec{
				small.Name: {K: 10, Epsilon: 0.3, Workers: 1, Pool: []uint64{1, 2, 3, 4}},
				large.Name: {K: 20, Epsilon: 0.2, Workers: 1, Pool: []uint64{1, 2, 3, 4}},
			},
			Primary: large.Name,
		}
	case wPatchMix:
		g30 := graphSpec{Name: "ba30k", N: 30000, Degree: 4, Seed: 30001}
		// The only write path: versions, delta chains and warm-set repair.
		w = &workload{
			Clients: 1, Graphs: []graphSpec{g30},
			Solves: map[string]solveSpec{
				g30.Name: {K: 20, Epsilon: 0.2, Workers: 1, Pool: []uint64{1, 2}},
			},
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	w.Name = name
	if w.Primary == "" {
		w.Primary = w.Graphs[0].Name
	}
	if tiny {
		for i := range w.Graphs {
			w.Graphs[i].N /= 20
		}
	}
	return w, nil
}

func (w *workload) graph(name string) graphSpec {
	for _, g := range w.Graphs {
		if g.Name == name {
			return g
		}
	}
	panic("perfbench: unknown graph " + name)
}

// topkRequest is the body of POST /v1/topk as the benchmark sends it.
type topkRequest struct {
	Graph     string  `json:"graph"`
	K         int     `json:"k"`
	Epsilon   float64 `json:"epsilon"`
	Seed      uint64  `json:"seed"`
	Workers   int     `json:"workers,omitempty"`
	Sampling  string  `json:"sampling"`
	Freshness string  `json:"freshness"`
}

// Request classes. A pair is the same fresh request sent by both clients
// at once, answered by one solve and one coalesced run.
const (
	classWarm  = "warm"
	classCold  = "cold"
	classCache = "cache"
	classPair  = "pair"
	classPatch = "patch"
)

// op is one client's request in a step.
type op struct {
	Class string
	Req   topkRequest
	// Patch ops carry the graph name and the seed their delta is drawn
	// from; the delta itself depends on the current version, so it is made
	// when the op runs.
	Graph     string
	DeltaSeed uint64
}

// step holds one op per client; all of a step's ops start together and
// the next step starts when every one of them has its reply.
type step []op

// sequence generates a workload's steps: a pure function of the workload
// and its seed.
type sequence struct {
	w       *workload
	rng     *rand.Rand
	queue   []step
	rr      map[string]int // round-robin cursor into each graph's pool
	coldCtr uint64
	seed    uint64
	// blocks counts the blocks generated so far.
	blocks int
}

func newSequence(w *workload, seed uint64) *sequence {
	return &sequence{
		w:    w,
		rng:  rand.New(rand.NewPCG(seed, 0x5eed_ba5e)),
		rr:   make(map[string]int),
		seed: seed,
	}
}

func (s *sequence) next() step {
	if len(s.queue) == 0 {
		s.queue = s.block()
		s.blocks++
	}
	st := s.queue[0]
	s.queue = s.queue[1:]
	return st
}

func (s *sequence) request(graph string, seed uint64, freshness string) topkRequest {
	sp := s.w.Solves[graph]
	return topkRequest{
		Graph: graph, K: sp.K, Epsilon: sp.Epsilon, Seed: seed,
		Workers: sp.Workers, Sampling: "deterministic", Freshness: freshness,
	}
}

// poolSeed walks the graph's pool round-robin, one cursor per class, so
// every block spreads its requests evenly over the pool whatever order the
// block is shuffled into.
func (s *sequence) poolSeed(class, graph string) uint64 {
	pool := s.w.Solves[graph].Pool
	cursor := class + "/" + graph
	i := s.rr[cursor]
	s.rr[cursor] = i + 1
	return pool[i%len(pool)]
}

func (s *sequence) warm(graph string) op {
	return op{Class: classWarm, Req: s.request(graph, s.poolSeed(classWarm, graph), "exact")}
}

func (s *sequence) cache(graph string) op {
	return op{Class: classCache, Req: s.request(graph, s.poolSeed(classCache, graph), "any")}
}

// maxCold caps the cold solves of a run. The server never evicts a warm
// family, so without a cap the memory they hold would grow with the number
// of blocks a run completes, and peak RSS would track host speed.
const maxCold = 32

// cold returns a solve on a seed no earlier request used, so the server
// builds a new warm family for it; past maxCold it returns a warm solve.
func (s *sequence) cold(graph string) op {
	if s.coldCtr == maxCold {
		return s.warm(graph)
	}
	s.coldCtr++
	seed := 1<<40 | s.seed<<16 | s.coldCtr
	return op{Class: classCold, Req: s.request(graph, seed, "exact")}
}

func (s *sequence) shuffle(steps []step) []step {
	s.rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	return steps
}

// block returns the next run of steps. Every block of a workload has the
// same composition (except that serve-mix's cold slots send warm solves
// once maxCold is reached); only the order, the cold seeds and the deltas
// vary.
func (s *sequence) block() []step {
	switch s.w.Name {
	case wServeMix:
		return s.serveMixBlock()
	case wPatchMix:
		return s.patchCycle()
	default:
		g := s.w.Graphs[0].Name
		pool := s.w.Solves[g].Pool
		steps := make([]step, len(pool))
		for i, seed := range pool {
			steps[i] = step{{Class: classWarm, Req: s.request(g, seed, "exact")}}
		}
		return s.shuffle(steps)
	}
}

// serveMixBlock is twenty lockstep steps of two clients. Per block: 20
// solves and 16 cache repeats, 4 of the solves with a coalesced follower.
// Sorted by latency the solves fall into the small graph's two pool sample
// counts (6 each), its 2 cold solves and the large graph's 6 solves, so the
// p50 lies inside the second group and the p90 inside the last. No step
// runs two different solves at once: a concurrent pair would be a slower
// class of its own and put a percentile on the edge between two classes.
func (s *sequence) serveMixBlock() []step {
	small, large := s.w.Graphs[0].Name, s.w.Graphs[1].Name
	var steps []step
	pair := func(g string) step {
		o := s.warm(g)
		o.Class = classPair
		return step{o, o}
	}
	cacheGraph := func(i int) string {
		if i%2 == 0 {
			return small
		}
		return large
	}
	for range 3 {
		steps = append(steps, pair(small))
	}
	steps = append(steps, pair(large))
	for i := range 9 {
		steps = append(steps, step{s.warm(small), s.cache(cacheGraph(i))})
	}
	for i := range 5 {
		steps = append(steps, step{s.warm(large), s.cache(cacheGraph(i + 1))})
	}
	for i := range 2 {
		steps = append(steps, step{s.cold(small), s.cache(cacheGraph(i))})
	}
	return s.shuffle(steps)
}

// patchCycle is one PATCH, a fresh solve on the new version for each pool
// seed in shuffled order, and a cache repeat of one of them.
func (s *sequence) patchCycle() []step {
	g := s.w.Graphs[0].Name
	pool := append([]uint64(nil), s.w.Solves[g].Pool...)
	s.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	steps := []step{{{Class: classPatch, Graph: g, DeltaSeed: s.rng.Uint64()}}}
	for _, seed := range pool {
		steps = append(steps, step{{Class: classWarm, Req: s.request(g, seed, "exact")}})
	}
	repeat := pool[s.rng.IntN(len(pool))]
	return append(steps, step{{Class: classCache, Req: s.request(g, repeat, "any")}})
}

// Delta size of one patch-mix PATCH.
const (
	patchInserts = 2
	patchDeletes = 2
)

// makeDelta draws a valid delta against g from seed: deletions of existing
// edges whose endpoints both keep another edge, and insertions of absent
// edges, no edge named twice.
func makeDelta(g *graph.Graph, seed uint64, inserts, deletes int) *graph.Delta {
	r := rand.New(rand.NewPCG(seed, 0xde17a))
	n := g.N()
	seen := make(map[[2]int32]bool)
	fresh := func(u, v int32) bool {
		if v < u {
			u, v = v, u
		}
		k := [2]int32{u, v}
		if seen[k] {
			return false
		}
		seen[k] = true
		return true
	}
	d := &graph.Delta{}
	for len(d.Delete) < deletes {
		u := int32(r.IntN(n))
		nb := g.OutNeighbors(u)
		if len(nb) < 2 {
			continue
		}
		v := nb[r.IntN(len(nb))]
		if g.OutDegree(v) < 2 || !fresh(u, v) {
			continue
		}
		d.Delete = append(d.Delete, graph.DeltaEdge{U: u, V: v})
	}
	for len(d.Insert) < inserts {
		u, v := int32(r.IntN(n)), int32(r.IntN(n))
		if u == v || g.HasEdge(u, v) || !fresh(u, v) {
			continue
		}
		d.Insert = append(d.Insert, graph.DeltaEdge{U: u, V: v})
	}
	return d
}
