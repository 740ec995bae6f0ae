package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(buf, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one tiny-size benchmark and returns its result line.
func runTiny(t *testing.T, out, workload, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "1", "--size", "tiny", "--trace", trace, "--out", out}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s: exit %d: %s", workload, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line %q: %v", workload, lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: %+v\n%s", workload, res, stdout.String())
	}
	return res
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	spec := loadSpec(t)
	units := make(map[string]string)
	for _, m := range spec.EndToEnd {
		units[m.Name] = m.Unit
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		out := t.TempDir()
		res := runTiny(t, out, w, "0")
		for name, m := range res.Metrics {
			if units[name] != m.Unit {
				t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", w, name, m.Unit, units[name])
			}
		}
		for name := range units {
			if _, ok := res.Metrics[name]; !ok && name != "solve_p90_ms" { // tiny runs are too short for a p90
				t.Errorf("%s: end-to-end metric %s missing", w, name)
			}
		}
		// A second run of the same seed must draw the same samples per
		// answer, and the run's temporary files must be gone.
		runTiny(t, out, w, "0")
		if left, _ := filepath.Glob(filepath.Join(out, "tmp", "*")); len(left) != 0 {
			t.Errorf("%s: temporary files left behind: %v", w, left)
		}
	}
}

func TestSmokeTraceEmitsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	spec := loadSpec(t)
	out := t.TempDir()
	res := runTiny(t, out, wSolveSharded, "1")
	if len(res.Metrics) != len(spec.PerLayer) {
		t.Errorf("trace run emits %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("per-layer metric %s: got %+v, want unit %q", m.Name, got, m.Unit)
		}
	}
	// The trace holds spans of every layer of the repository.
	buf, err := os.ReadFile(filepath.Join(out, "traces", "solve-sharded-seed3.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, layer := range []string{"graph.", "sampling.", "coverage.", "core.", "wire.", "shard.", "server."} {
		if !bytes.Contains(buf, []byte(`"name":"`+layer)) {
			t.Errorf("trace has no %s span", layer)
		}
	}
}
