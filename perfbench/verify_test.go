package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"gbc/internal/core"
	"gbc/internal/gen"
	"gbc/internal/graph"
	"gbc/internal/wire"
	"gbc/internal/xrand"
)

func solved(t *testing.T, g *graph.Graph, k answerKey) *answer {
	t.Helper()
	res, err := core.Solve(context.Background(), g, core.Options{K: k.K, Epsilon: k.Epsilon, Seed: k.Seed})
	if err != nil {
		t.Fatal(err)
	}
	return answerOf(wire.FromResult(core.AlgAdaAlg, k.K, res, nil))
}

func TestVerifyFlagsWrongAnswers(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, xrand.New(1))
	d := makeDelta(g, 9, patchInserts, patchDeletes)
	g2, err := graph.ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	v1 := answerKey{Graph: "g", Version: 1, Seed: 1, K: 5, Epsilon: 0.3}
	v2 := v1
	v2.Version = 2
	good1, good2 := solved(t, g, v1), solved(t, g2, v2)
	bad := *good2
	bad.Estimate++ // one bit off
	recs := []record{
		{Key: v1, Result: good1},
		{Key: v2, Result: &bad},
		{Key: v2, Result: &bad},
	}
	answers := distinctAnswers(recs)
	states := map[string]*graphState{"g": {deltas: []*graph.Delta{d}}}
	n, err := verify(recs, answers, map[string]*graph.Graph{"g": g}, states, 1)
	if err != nil || n != 2 {
		t.Fatalf("verify checked %d keys: %v", n, err)
	}
	if recs[0].Err != "" || recs[1].Err == "" || recs[2].Err == "" {
		t.Fatalf("errors %q %q %q: want only the version-2 answers flagged", recs[0].Err, recs[1].Err, recs[2].Err)
	}
}

func TestDistinctAnswersFlagsDisagreement(t *testing.T) {
	k := answerKey{Graph: "g", Version: 1, Seed: 1, K: 2, Epsilon: 0.3}
	a := &answer{Group: []int64{1, 2}, Samples: 10}
	b := &answer{Group: []int64{2, 1}, Samples: 10}
	recs := []record{{Key: k, Result: a}, {Key: k, Result: a}, {Key: k, Result: b}}
	distinctAnswers(recs)
	if recs[0].Err != "" || recs[1].Err != "" || recs[2].Err == "" {
		t.Fatalf("errors %q %q %q", recs[0].Err, recs[1].Err, recs[2].Err)
	}
}

func TestRepeatCheckFlagsChangedCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state", "w.json")
	k1 := answerKey{Graph: "g", Version: 1, Seed: 1, K: 2, Epsilon: 0.3}
	k2 := k1
	k2.Seed = 2
	mk := func(samples1, samples2 int) ([]record, map[answerKey]*answer) {
		a1, a2 := &answer{Samples: samples1}, &answer{Samples: samples2}
		recs := []record{{Key: k1, Result: a1}, {Key: k2, Result: a2}}
		return recs, map[answerKey]*answer{k1: a1, k2: a2}
	}
	recs, answers := mk(100, 200)
	if n, err := repeatCheck(path, recs, answers); err != nil || n != 0 {
		t.Fatalf("first run matched %d: %v", n, err)
	}
	recs, answers = mk(100, 200)
	if n, err := repeatCheck(path, recs, answers); err != nil || n != 2 || recs[0].Err != "" || recs[1].Err != "" {
		t.Fatalf("identical rerun: matched %d, err %v, records %+v", n, err, recs)
	}
	recs, answers = mk(100, 201)
	if n, err := repeatCheck(path, recs, answers); err != nil || n != 1 || recs[0].Err != "" || recs[1].Err == "" {
		t.Fatalf("changed rerun: matched %d, err %v, records %+v", n, err, recs)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}
