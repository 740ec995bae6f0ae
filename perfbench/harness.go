package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gbc/internal/gen"
	"gbc/internal/graph"
	"gbc/internal/server"
	"gbc/internal/shard"
	"gbc/internal/xrand"
)

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	hs   *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	l := &listener{hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return l, "http://" + ln.Addr().String(), nil
}

// stop closes the listener and waits for the serving goroutine to exit.
func (l *listener) stop(ctx context.Context) {
	l.hs.Shutdown(ctx)
	<-l.done
}

// harness is one set-up of a workload: the graphs, an in-process gbcd on
// a loopback listener and, for solve-sharded, a shard worker.
type harness struct {
	dir     string
	srv     *server.Server
	front   *listener
	workers []*shard.Worker
	wlns    []*listener
	api     *api
	// base holds the generator's own copy of every graph at version 1.
	base map[string]*graph.Graph
}

// setup builds a harness and fills its warm state: every pool seed of
// every graph is solved once, which builds the warm sets, primes the
// result cache for cache repeats and pages in mapped graph files.
func setup(w *workload, dir string) (h *harness, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	h = &harness{dir: dir, base: make(map[string]*graph.Graph)}
	defer func() {
		if err != nil {
			h.close()
			h = nil
		}
	}()
	for _, gs := range w.Graphs {
		g := gen.BarabasiAlbert(gs.N, gs.Degree, xrand.New(gs.Seed))
		h.base[gs.Name] = g
		if gs.File {
			if err := g.WriteCSRFile(h.graphPath(gs.Name)); err != nil {
				return h, fmt.Errorf("write %s: %w", gs.Name, err)
			}
		}
	}
	cfg := server.Config{}
	for range w.Shards {
		wk := shard.NewWorker(nil, true)
		h.workers = append(h.workers, wk)
		l, url, err := serve(wk.Handler())
		if err != nil {
			return h, err
		}
		h.wlns = append(h.wlns, l)
		cfg.Shards = append(cfg.Shards, url)
	}
	h.srv = server.New(cfg)
	var url string
	if h.front, url, err = serve(h.srv.Handler()); err != nil {
		return h, err
	}
	h.api = newAPI(url)
	for _, gs := range w.Graphs {
		req := graphRequest{Name: gs.Name}
		if gs.File {
			req.Path = h.graphPath(gs.Name)
		} else {
			req.Generator, req.N, req.Degree, req.Seed = "ba", gs.N, gs.Degree, gs.Seed
		}
		if err := h.api.callJSON(http.MethodPost, "/v1/graphs", req, nil); err != nil {
			return h, err
		}
	}
	seq := newSequence(w, 0)
	for _, gs := range w.Graphs {
		for _, seed := range w.Solves[gs.Name].Pool {
			req := seq.request(gs.Name, seed, "exact")
			resp, status, err := h.api.topk(req)
			if err != nil || status != http.StatusOK || !resp.Result.Converged {
				return h, fmt.Errorf("warm-up solve %s seed %d: status %d: %v", gs.Name, seed, status, err)
			}
		}
	}
	return h, nil
}

func (h *harness) graphPath(name string) string {
	return filepath.Join(h.dir, name+".gbcsr")
}

// close stops every server the harness started and waits for them.
func (h *harness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if h.api != nil {
		h.api.close()
	}
	if h.front != nil {
		h.front.stop(ctx)
	}
	if h.srv != nil {
		h.srv.Shutdown(ctx)
	}
	for _, l := range h.wlns {
		l.stop(ctx)
	}
	for _, wk := range h.workers {
		wk.Close()
	}
}

// record is the outcome of one request of the timed phase.
type record struct {
	ID     int64
	Class  string
	Served string // servedFrom, or "patch"
	Status int
	RTT    time.Duration
	// Elapsed is the solver time the server reports (result.elapsedMillis).
	Elapsed time.Duration
	Key     answerKey
	Result  *answer
	Traced  bool
	// Err says why the request failed; empty for a correct answer.
	Err string
}

// graphState tracks one graph's versions on the client side: the current
// version, the generator's copy of it, and every delta applied so far
// (deltas[i] takes version i+1 to i+2).
type graphState struct {
	version int
	tracked *graph.Graph
	deltas  []*graph.Delta
}

// runner runs steps against a harness and keeps the records.
type runner struct {
	h      *harness
	seq    *sequence
	graphs map[string]*graphState
	nextID int64
	recs   []record
}

func newRunner(h *harness, seq *sequence) *runner {
	d := &runner{h: h, seq: seq, graphs: make(map[string]*graphState)}
	for name, g := range h.base {
		d.graphs[name] = &graphState{version: 1, tracked: g}
	}
	return d
}

// phase runs steps until the deadline has passed and at least minSolves
// requests were answered by a fresh solve, and returns the phase's wall
// time. Records land in d.recs. With a tracer, every other block of
// steps runs untraced, so traced and untraced requests see the same host
// load and the same mix, and their difference is the tracing overhead.
func (d *runner) phase(seconds float64, minSolves int, tracer *tracer) time.Duration {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	solves := 0
	for time.Now().Before(deadline) || solves < minSolves {
		st := d.seq.next()
		tr := tracer
		if d.seq.blocks%2 == 0 {
			tr = nil
		}
		recs := make([]record, len(st))
		for i := range recs {
			d.nextID++
			recs[i].ID = d.nextID
		}
		stepStart := time.Now()
		stepID := tr.reserve("bench.step", 0, 0)
		if len(st) == 1 {
			d.exec(st[0], &recs[0], tr, stepID)
		} else {
			var wg sync.WaitGroup
			for i := range st {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					d.exec(st[i], &recs[i], tr, stepID)
				}(i)
			}
			wg.Wait()
		}
		tr.finish(stepID, stepStart, time.Now())
		for _, r := range recs {
			if r.Served == "solve" && r.Err == "" {
				solves++
			}
		}
		d.recs = append(d.recs, recs...)
	}
	return time.Since(start)
}

// exec runs one op and fills rec. Patch ops only run on single-client
// workloads, so the graph state is never shared between goroutines; topk
// ops only read it.
func (d *runner) exec(o op, rec *record, tr *tracer, parent int) {
	rec.Class = o.Class
	rec.Traced = tr != nil
	if o.Class == classPatch {
		d.execPatch(o, rec, tr, parent)
		return
	}
	gst := d.graphs[o.Req.Graph]
	start := time.Now()
	resp, status, err := d.h.api.topk(o.Req)
	end := time.Now()
	tr.add("server.request", parent, rec.ID, start, end)
	rec.RTT, rec.Status = end.Sub(start), status
	rec.Key = keyFor(o.Req, gst.version)
	switch {
	case err != nil:
		rec.Err = err.Error()
		return
	case status != http.StatusOK:
		rec.Err = fmt.Sprintf("status %d", status)
		return
	}
	rec.Served = resp.ServedFrom
	rec.Elapsed = time.Duration(resp.Result.ElapsedMillis * float64(time.Millisecond))
	rec.Result = answerOf(resp.Result)
	rec.Err = checkAnswer(o.Req, resp, gst.version, gst.tracked.N())
}

func (d *runner) execPatch(o op, rec *record, tr *tracer, parent int) {
	gst := d.graphs[o.Graph]
	delta := makeDelta(gst.tracked, o.DeltaSeed, patchInserts, patchDeletes)
	start := time.Now()
	resp, status, err := d.h.api.patch(o.Graph, delta, gst.version)
	end := time.Now()
	tr.add("server.patch", parent, rec.ID, start, end)
	rec.RTT, rec.Status, rec.Served = end.Sub(start), status, classPatch
	switch {
	case err != nil:
		rec.Err = err.Error()
		return
	case status != http.StatusOK:
		rec.Err = fmt.Sprintf("status %d", status)
		return
	case resp.Version != gst.version+1:
		rec.Err = fmt.Sprintf("patch moved to version %d, want %d", resp.Version, gst.version+1)
		return
	}
	applyStart := time.Now()
	ng, err := graph.ApplyDelta(gst.tracked, delta)
	tr.add("graph.apply_delta", parent, rec.ID, applyStart, time.Now())
	if err != nil {
		rec.Err = "apply delta to the generator's copy: " + err.Error()
		return
	}
	gst.tracked = ng
	gst.deltas = append(gst.deltas, delta)
	gst.version++
}

// checkAnswer checks one 200 answer on its own: converged, K distinct
// in-range ids, the expected graph version and the pinned sampling mode.
func checkAnswer(req topkRequest, resp *topkResponse, version, n int) string {
	res := resp.Result
	switch {
	case resp.GraphVersion != version:
		return fmt.Sprintf("graphVersion %d, want %d", resp.GraphVersion, version)
	case !res.Converged:
		return "not converged: " + res.StopReason.String()
	case len(res.Group) != req.K:
		return fmt.Sprintf("group has %d ids, want %d", len(res.Group), req.K)
	case res.SamplingMode.String() != req.Sampling:
		return "sampling mode " + res.SamplingMode.String()
	}
	seen := make(map[int64]bool, len(res.Group))
	for _, v := range res.Group {
		if v < 0 || v >= int64(n) || seen[v] {
			return fmt.Sprintf("group id %d repeated or out of [0,%d)", v, n)
		}
		seen[v] = true
	}
	return ""
}
