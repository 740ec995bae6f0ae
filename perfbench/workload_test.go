package main

import (
	"reflect"
	"testing"

	"gbc/internal/gen"
	"gbc/internal/graph"
	"gbc/internal/xrand"
)

func steps(t *testing.T, name string, seed uint64, n int) []step {
	t.Helper()
	w, err := newWorkload(name, false)
	if err != nil {
		t.Fatal(err)
	}
	seq := newSequence(w, seed)
	out := make([]step, n)
	for i := range out {
		out[i] = seq.next()
	}
	return out
}

func TestSequenceIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, b := steps(t, name, 42, 200), steps(t, name, 42, 200)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two sequences of seed 42 differ", name)
		}
		if c := steps(t, name, 43, 200); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 42 and 43 give the same sequence", name)
		}
	}
}

func TestServeMixBlockComposition(t *testing.T) {
	// Every block of twenty steps has the same mix whatever the seed.
	for _, seed := range []uint64{1, 2, 3} {
		counts := make(map[string]int)
		for _, st := range steps(t, wServeMix, seed, 20) {
			if len(st) != 2 {
				t.Fatalf("serve-mix step has %d ops, want 2", len(st))
			}
			if st[0].Class == classPair && st[0] != st[1] {
				t.Fatalf("pair step sends different requests: %+v", st)
			}
			for _, o := range st {
				counts[o.Class+"/"+o.Req.Graph]++
			}
		}
		want := map[string]int{
			"pair/ba5k": 6, "pair/ba20k": 2,
			"warm/ba5k": 9, "warm/ba20k": 5,
			"cold/ba5k":  2,
			"cache/ba5k": 8, "cache/ba20k": 8,
		}
		if !reflect.DeepEqual(counts, want) {
			t.Errorf("seed %d: block mix %v, want %v", seed, counts, want)
		}
	}
}

func TestRequestsArePinned(t *testing.T) {
	for _, name := range workloadNames {
		w, _ := newWorkload(name, false)
		for _, st := range steps(t, name, 5, 60) {
			for _, o := range st {
				if o.Class == classPatch {
					continue
				}
				if o.Req.Sampling != "deterministic" {
					t.Fatalf("%s: request not pinned to deterministic sampling: %+v", name, o.Req)
				}
				if o.Req.Workers > 1 {
					t.Fatalf("%s: request asks for %d workers, want one", name, o.Req.Workers)
				}
				if o.Class != classCold && !contains(w.Solves[o.Req.Graph].Pool, o.Req.Seed) {
					t.Fatalf("%s: %s request seed %d is outside the pool", name, o.Class, o.Req.Seed)
				}
			}
		}
	}
}

func contains(xs []uint64, x uint64) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func TestMakeDeltaIsValidAndDeterministic(t *testing.T) {
	g := gen.BarabasiAlbert(500, 3, xrand.New(1))
	for seed := uint64(1); seed <= 20; seed++ {
		d := makeDelta(g, seed, patchInserts, patchDeletes)
		if len(d.Insert) != patchInserts || len(d.Delete) != patchDeletes {
			t.Fatalf("delta has %d inserts, %d deletes", len(d.Insert), len(d.Delete))
		}
		if err := d.Validate(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(d, makeDelta(g, seed, patchInserts, patchDeletes)) {
			t.Fatalf("seed %d: two deltas differ", seed)
		}
		ng, err := graph.ApplyDelta(g, d)
		if err != nil {
			t.Fatal(err)
		}
		g = ng
	}
}
