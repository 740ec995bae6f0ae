package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"gbc/internal/core"
	"gbc/internal/graph"
	"gbc/internal/wire"
)

// answerKey names one distinct answer: AdaAlg on a graph version with a
// seed, K and ε. Deterministic sampling makes the answer a pure function
// of the key.
type answerKey struct {
	Graph   string
	Version int
	Seed    uint64
	K       int
	Epsilon float64
}

func keyFor(req topkRequest, version int) answerKey {
	return answerKey{req.Graph, version, req.Seed, req.K, req.Epsilon}
}

func (k answerKey) String() string {
	return fmt.Sprintf("%s@v%d/seed=%d/k=%d/eps=%g", k.Graph, k.Version, k.Seed, k.K, k.Epsilon)
}

// answer is the part of a result that must match bit for bit; float
// fields are compared by their bits.
type answer struct {
	Group                              []int64
	Estimate, Normalized, Biased       uint64
	Samples, SamplesS, SamplesT, Iters int
	StopReason                         string
}

func answerOf(r wire.Result) *answer {
	return &answer{
		Group:    r.Group,
		Estimate: math.Float64bits(r.Estimate), Normalized: math.Float64bits(r.NormalizedEstimate),
		Biased:  math.Float64bits(r.BiasedEstimate),
		Samples: r.Samples, SamplesS: r.SamplesOptimize, SamplesT: r.SamplesValidate,
		Iters: r.Iterations, StopReason: r.StopReason.String(),
	}
}

func (a *answer) equal(b *answer) bool {
	return slices.Equal(a.Group, b.Group) &&
		a.Estimate == b.Estimate && a.Normalized == b.Normalized && a.Biased == b.Biased &&
		a.Samples == b.Samples && a.SamplesS == b.SamplesS && a.SamplesT == b.SamplesT &&
		a.Iters == b.Iters && a.StopReason == b.StopReason
}

// distinctAnswers groups the records' answers by key and marks every
// record whose answer differs from the first one seen for its key.
func distinctAnswers(recs []record) map[answerKey]*answer {
	out := make(map[answerKey]*answer)
	for i := range recs {
		r := &recs[i]
		if r.Result == nil || r.Err != "" {
			continue
		}
		if first, ok := out[r.Key]; !ok {
			out[r.Key] = r.Result
		} else if !first.equal(r.Result) {
			r.Err = "answer differs from an earlier answer to the same request"
		}
	}
	return out
}

// verify recomputes every distinct answer with an in-process core.Solve on
// the same graph version (patched versions are rebuilt from the base graph
// with graph.ApplyDelta) and marks the records of every key that
// mismatches. It returns the number of keys checked.
func verify(recs []record, answers map[answerKey]*answer, base map[string]*graph.Graph,
	states map[string]*graphState, workers int) (int, error) {
	keys := make([]answerKey, 0, len(answers))
	for k := range answers {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Graph != b.Graph {
			return a.Graph < b.Graph
		}
		if a.Version != b.Version {
			return a.Version < b.Version
		}
		return a.Seed < b.Seed
	})
	bad := make(map[answerKey]string)
	var g *graph.Graph
	cur := answerKey{}
	for _, k := range keys {
		if g == nil || k.Graph != cur.Graph {
			g, cur = base[k.Graph], answerKey{Graph: k.Graph, Version: 1}
		}
		for cur.Version < k.Version {
			st := states[k.Graph]
			if st == nil || cur.Version-1 >= len(st.deltas) {
				return 0, fmt.Errorf("no delta recorded for %s version %d", k.Graph, cur.Version)
			}
			ng, err := graph.ApplyDelta(g, st.deltas[cur.Version-1])
			if err != nil {
				return 0, fmt.Errorf("rebuild %s version %d: %w", k.Graph, cur.Version+1, err)
			}
			g = ng
			cur.Version++
		}
		res, err := core.Solve(context.Background(), g, core.Options{
			K: k.K, Epsilon: k.Epsilon, Seed: k.Seed, Workers: workers,
			Sampling: core.SamplingDeterministic,
		})
		if err != nil {
			return 0, fmt.Errorf("reference solve %v: %w", k, err)
		}
		want := answerOf(wire.FromResult(core.AlgAdaAlg, k.K, res, nil))
		if !want.equal(answers[k]) {
			bad[k] = fmt.Sprintf("answer differs from the in-process solve (samples %d, want %d)",
				answers[k].Samples, want.Samples)
		}
	}
	for i := range recs {
		if msg, ok := bad[recs[i].Key]; ok && recs[i].Result != nil && recs[i].Err == "" {
			recs[i].Err = msg
		}
	}
	return len(keys), nil
}

// repeatCheck compares this run's samples per distinct answer with the
// counts an earlier run of the same workload, size and seed recorded in
// path, marks the records whose count changed, and stores the merged
// counts. It returns how many keys matched an earlier count.
func repeatCheck(path string, recs []record, answers map[answerKey]*answer) (int, error) {
	prev := make(map[string]int)
	buf, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(buf, &prev); err != nil {
			return 0, fmt.Errorf("read %s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return 0, err
	}
	matched := 0
	changed := make(map[answerKey]int)
	for k, a := range answers {
		if n, ok := prev[k.String()]; ok {
			if n != a.Samples {
				changed[k] = n
			} else {
				matched++
			}
		}
		prev[k.String()] = a.Samples
	}
	for i := range recs {
		if n, ok := changed[recs[i].Key]; ok && recs[i].Err == "" {
			recs[i].Err = fmt.Sprintf("samples %d, an earlier run of this seed drew %d", recs[i].Result.Samples, n)
		}
	}
	out, err := json.MarshalIndent(prev, "", " ")
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	return matched, os.WriteFile(path, out, 0o644)
}
