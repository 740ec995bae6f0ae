package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"gbc/internal/core"
	"gbc/internal/coverage"
	"gbc/internal/graph"
	"gbc/internal/obs"
	"gbc/internal/sampling"
	"gbc/internal/shard"
	"gbc/internal/wire"
	"gbc/internal/xrand"
)

// probeSizes sets how much work each layer probe does per repetition.
type probeSizes struct {
	growSamples  int // samples per sampling growth probe
	arenaSamples int // samples per wire/shard probe
	reps         int
}

// probes times single calls into each layer on the workload's primary
// graph, recording one span per call. Each metric is the median over reps.
type probes struct {
	ctx   context.Context
	tr    *tracer
	g     *graph.Graph
	spec  solveSpec
	dir   string
	sizes probeSizes
	out   map[string]float64
}

func (p *probes) timed(name string, parent int, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	p.tr.add(name, parent, 0, start, end)
	return end.Sub(start), err
}

// repeat runs fn reps times under one parent span and returns the median
// duration in the unit given.
func (p *probes) repeat(name string, unit time.Duration, fn func(i int) error) (float64, error) {
	parentStart := time.Now()
	parent := p.tr.reserve("probe."+name, 0, 0)
	var ds []float64
	for i := 0; i < p.sizes.reps; i++ {
		d, err := p.timed(name, parent, func() error { return fn(i) })
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, float64(d)/float64(unit))
	}
	p.tr.finish(parent, parentStart, time.Now())
	return median(ds), nil
}

func runProbes(ctx context.Context, tr *tracer, g *graph.Graph, spec solveSpec, path, dir string, sizes probeSizes) (map[string]float64, error) {
	p := &probes{ctx: ctx, tr: tr, g: g, spec: spec, dir: dir, sizes: sizes, out: make(map[string]float64)}
	if err := p.graphOpen(path); err != nil {
		return nil, err
	}
	for _, probe := range []func() error{p.applyDelta, p.growth, p.coreSolve, p.arenaCodec, p.shardRange} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

// graphOpen times graph.OpenCSR on the workload's .gbcsr file, writing one
// first for graphs the server generates itself.
func (p *probes) graphOpen(path string) error {
	if path == "" {
		path = filepath.Join(p.dir, "probe.gbcsr")
		if err := p.g.WriteCSRFile(path); err != nil {
			return err
		}
	}
	v, err := p.repeat("graph.open", time.Millisecond, func(int) error {
		g, err := graph.OpenCSR(path)
		if err != nil {
			return err
		}
		return g.Close()
	})
	p.out["graph.open_ms"] = v
	return err
}

func (p *probes) applyDelta() error {
	deltas := make([]*graph.Delta, p.sizes.reps)
	for i := range deltas {
		deltas[i] = makeDelta(p.g, uint64(i+1), patchInserts, patchDeletes)
	}
	v, err := p.repeat("graph.apply_delta", time.Microsecond, func(i int) error {
		_, err := graph.ApplyDelta(p.g, deltas[i])
		return err
	})
	p.out["graph.apply_delta_us"] = v
	return err
}

func (p *probes) newSet(workers int, mode sampling.Mode) *sampling.Set {
	s := sampling.NewBidirectionalSet(p.g, xrand.New(7))
	s.Workers, s.Mode = workers, mode
	return s
}

// growth times Set.GrowToCtx after Reset for three configurations, then
// greedy and repair on a set of the same size.
func (p *probes) growth() error {
	L := p.sizes.growSamples
	for _, c := range []struct {
		name    string
		workers int
		mode    sampling.Mode
	}{
		{"w1", 1, sampling.Deterministic},
		{"w2", 2, sampling.Deterministic},
		{"fast_w2", 2, sampling.Fast},
	} {
		s := p.newSet(c.workers, c.mode)
		if err := s.GrowToCtx(p.ctx, L); err != nil { // warm the pool and arenas
			return err
		}
		v, err := p.repeat("sampling.grow."+c.name, time.Nanosecond, func(int) error {
			s.Reset()
			return s.GrowToCtx(p.ctx, L)
		})
		if err != nil {
			return err
		}
		p.out["sampling.ns_per_sample."+c.name] = v / float64(L)
	}

	s := p.newSet(1, sampling.Deterministic)
	if err := s.GrowToCtx(p.ctx, L); err != nil {
		return err
	}
	cov := s.Coverage()
	v, err := p.repeat("coverage.greedy", time.Millisecond, func(int) error {
		cov.Greedy(p.spec.K)
		return nil
	})
	if err != nil {
		return err
	}
	p.out["coverage.greedy_ms"] = v
	p.out["coverage.arena_bytes_per_sample"] = float64(cov.MemoryFootprint()) / float64(cov.Len())

	// A chain of versions, each one delta past the previous, so every
	// repetition repairs the set forward by one patch.
	deltas := make([]*graph.Delta, p.sizes.reps)
	versions := make([]*graph.Graph, p.sizes.reps)
	cur := p.g
	for i := range deltas {
		deltas[i] = makeDelta(cur, uint64(100+i), patchInserts, patchDeletes)
		if cur, err = graph.ApplyDelta(cur, deltas[i]); err != nil {
			return err
		}
		versions[i] = cur
	}
	v, err = p.repeat("sampling.repair", time.Millisecond, func(i int) error {
		_, err := s.Repair(versions[i], deltas[i])
		return err
	})
	p.out["sampling.repair_ms"] = v
	return err
}

// timedGrower is a sampling.RemoteGrower that draws in-process with a
// sampling.Drawer — the draw state the pool workers use — so every growth
// chunk of a core.Solve becomes one exactly timed span, the child of the
// outer iteration it belongs to.
type timedGrower struct {
	p       *probes
	it      *iterSpans
	drawers map[[2]uint64]*sampling.Drawer
	arena   coverage.PathArena
}

func (t *timedGrower) GrowRange(ctx context.Context, seed0, seed1 uint64, start, count int) ([]*coverage.PathArena, error) {
	d := t.drawers[[2]uint64{seed0, seed1}]
	if d == nil {
		var err error
		if d, err = sampling.NewDrawer(t.p.g, wire.SamplerBidirectional, seed0, seed1); err != nil {
			return nil, err
		}
		t.drawers[[2]uint64{seed0, seed1}] = d
	}
	t.arena.Reset()
	_, err := t.p.timed("core.grow", t.it.open(), func() error {
		return d.DrawRange(ctx, &t.arena, start, count)
	})
	return []*coverage.PathArena{&t.arena}, err
}

// iterSpans turns the Observer's iteration callbacks into one span per
// outer iteration: a span opens at the first event after the previous
// iteration ended and closes at the OnIteration callback.
type iterSpans struct {
	tr     *tracer
	solve  int
	start  time.Time
	cur    int
	closed []int
}

func (s *iterSpans) open() int {
	if s.cur == 0 {
		s.cur = s.tr.reserve("core.iteration", s.solve, 0)
	}
	return s.cur
}

func (s *iterSpans) onIteration(obs.IterationEvent) {
	now := time.Now()
	id := s.open()
	s.tr.finish(id, s.start, now)
	s.closed = append(s.closed, id)
	s.cur, s.start = 0, now
}

// coreSolve runs core.Solve with an Observer whose iteration callbacks
// close one span per outer iteration; the growth chunks inside each
// iteration are the timed grower's spans. Iteration self time is then
// greedy, commit, merge, validation and the stopping rule.
func (p *probes) coreSolve() error {
	var solves, grows, iters, counts []float64
	var res *core.Result
	for i := 0; i < p.sizes.reps; i++ {
		solveStart := time.Now()
		it := &iterSpans{tr: p.tr, solve: p.tr.reserve("core.solve", 0, 0), start: solveStart}
		grower := &timedGrower{p: p, it: it, drawers: make(map[[2]uint64]*sampling.Drawer)}
		opts := core.Options{
			K: p.spec.K, Epsilon: p.spec.Epsilon, Seed: p.spec.Pool[0],
			Sampling: core.SamplingDeterministic,
			SamplerSet: func(g *graph.Graph, r *xrand.Rand) *sampling.Set {
				s := sampling.NewBidirectionalSet(g, r)
				s.Remote = grower
				return s
			},
			Observer: obs.ObserverFuncs{Iteration: it.onIteration},
		}
		var err error
		if res, err = core.Solve(p.ctx, p.g, opts); err != nil {
			return fmt.Errorf("core.solve: %w", err)
		}
		solveEnd := time.Now()
		p.tr.finish(it.solve, solveStart, solveEnd)

		spans := p.tr.snapshot()
		self := selfTimes(spans)
		var growSum, iterSelf time.Duration
		for _, id := range it.closed {
			iterSelf += self[id]
		}
		for _, s := range spans {
			if s.Name == "core.grow" && s.Parent != 0 && spans[s.Parent-1].Parent == it.solve {
				growSum += s.dur()
			}
		}
		solves = append(solves, float64(solveEnd.Sub(solveStart))/1e6)
		grows = append(grows, float64(growSum)/1e6)
		iters = append(iters, float64(iterSelf)/1e6)
		counts = append(counts, float64(len(it.closed)))
	}
	p.out["core.solve_ms"] = median(solves)
	p.out["core.grow_self_ms"] = median(grows)
	p.out["core.iter_self_ms"] = median(iters)
	p.out["core.iterations"] = median(counts)

	v, err := p.repeatN("wire.result_marshal", 50*p.sizes.reps, time.Microsecond, func() error {
		_, err := json.Marshal(wire.FromResult(core.AlgAdaAlg, p.spec.K, res, nil))
		return err
	})
	p.out["wire.result_marshal_us"] = v
	return err
}

// repeatN is repeat for calls too short to span one by one: it records a
// single span around n calls and returns the mean per call.
func (p *probes) repeatN(name string, n int, unit time.Duration, fn func() error) (float64, error) {
	d, err := p.timed(name, 0, func() error {
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	})
	return float64(d) / float64(unit) / float64(n), err
}

// arenaCodec times the shard payload codec on one drawn block.
func (p *probes) arenaCodec() error {
	n := p.sizes.arenaSamples
	d, err := sampling.NewDrawer(p.g, wire.SamplerBidirectional, 11, 13)
	if err != nil {
		return err
	}
	var arena coverage.PathArena
	arena.Reset()
	if err := d.DrawRange(p.ctx, &arena, 0, n); err != nil {
		return err
	}
	payload := &wire.ArenaPayload{Count: arena.Len(), Offsets: arena.Offsets, Nodes: arena.Nodes, Obs: arena.Obs}
	var buf []byte
	v, err := p.repeat("wire.arena_encode", time.Nanosecond, func(int) error {
		buf = payload.AppendBinary(buf[:0])
		return nil
	})
	if err != nil {
		return err
	}
	p.out["wire.arena_encode_ns_per_sample"] = v / float64(n)
	p.out["wire.arena_bytes_per_sample"] = float64(len(buf)) / float64(n)
	v, err = p.repeat("wire.arena_decode", time.Nanosecond, func(int) error {
		_, err := wire.DecodeArenaPayload(buf)
		return err
	})
	p.out["wire.arena_decode_ns_per_sample"] = v / float64(n)
	return err
}

// shardRange times Grower.GrowRange over two in-process shard workers
// against a local Drawer.DrawRange of the same ranges: the difference is
// encode, transport, decode and fan-out.
func (p *probes) shardRange() error {
	n := p.sizes.arenaSamples
	var urls []string
	var lns []*listener
	var workers []*shard.Worker
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, l := range lns {
			l.stop(ctx)
		}
		for _, wk := range workers {
			wk.Close()
		}
	}()
	for range 2 {
		wk := shard.NewWorker(nil, false)
		wk.AddGraph("probe", p.g)
		l, url, err := serve(wk.Handler())
		if err != nil {
			return err
		}
		workers, lns, urls = append(workers, wk), append(lns, l), append(urls, url)
	}
	grower := shard.NewCluster(shard.Config{Shards: urls}).Grower("probe", wire.SamplerBidirectional)
	if _, err := grower.GrowRange(p.ctx, 11, 13, 0, n); err != nil { // open connections, build drawers
		return err
	}
	v, err := p.repeat("shard.grow_range", time.Millisecond, func(i int) error {
		_, err := grower.GrowRange(p.ctx, 11, 13, (i+1)*n, n)
		return err
	})
	if err != nil {
		return err
	}
	p.out["shard.grow_range_ms_per_ksample"] = v * 1000 / float64(n)
	d, err := sampling.NewDrawer(p.g, wire.SamplerBidirectional, 11, 13)
	if err != nil {
		return err
	}
	var arena coverage.PathArena
	v, err = p.repeat("shard.draw_range", time.Millisecond, func(i int) error {
		arena.Reset()
		return d.DrawRange(p.ctx, &arena, (i+1)*n, n)
	})
	p.out["shard.draw_range_ms_per_ksample"] = v * 1000 / float64(n)
	return err
}
