// Command perfbench is the gbc serving benchmark. It starts an in-process
// gbcd on a loopback listener (for solve-sharded, a coordinator and two
// in-process shard workers), drives one workload's closed-loop request mix
// against it for a fixed time, checks every answer, and prints the
// end-to-end metrics, or with --trace 1 the per-layer metrics, as the last
// line of its output. Run it from the repository root through run.sh,
// which builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload solve-local --seed 1 --seconds 20 --trace 0
//
// README.md lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
	out      string
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envInfo is recorded with every result.
type envInfo struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Size       string  `json:"size"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var size string
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 replays the workload with spans and prints the per-layer metrics")
	fs.StringVar(&size, "size", "full", "full, or tiny for smoke tests (graphs 20 times smaller)")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for temporary files, traces and results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 || size != "full" && size != "tiny" || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: want --trace 0|1, --size full|tiny and --seconds > 0")
		return 2
	}
	cfg.trace, cfg.tiny = trace == 1, size == "tiny"
	res, env, err := bench(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := appendResult(cfg.out, env, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func bench(cfg config, stdout io.Writer) (*result, envInfo, error) {
	nproc := runtime.NumCPU()
	w, err := newWorkload(cfg.workload, cfg.tiny)
	if err != nil {
		return nil, envInfo{}, err
	}
	env := envInfo{
		Nproc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Workload: w.Name, Seed: cfg.seed, Clients: w.Clients,
		Seconds: cfg.seconds, Trace: cfg.trace, Size: map[bool]string{false: "full", true: "tiny"}[cfg.tiny],
	}
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envLine)

	dir := filepath.Join(cfg.out, "tmp", fmt.Sprintf("%s-%d-%d", w.Name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, env, err
	}
	defer os.RemoveAll(dir)

	setupReps, minSolves := 5, p90Min
	sizes := probeSizes{growSamples: 8192, arenaSamples: 4096, reps: 5}
	if cfg.tiny {
		setupReps, minSolves = 1, 0
		sizes = probeSizes{growSamples: 512, arenaSamples: 256, reps: 2}
	}
	start := time.Now()
	h, err := setup(w, filepath.Join(dir, "0"))
	if err != nil {
		return nil, env, fmt.Errorf("set-up: %w", err)
	}
	setups := []float64{time.Since(start).Seconds()}
	defer h.close()

	d := newRunner(h, newSequence(w, cfg.seed))
	metrics := make(map[string]metric)
	var tr *tracer
	if !cfg.trace {
		wall := d.phase(cfg.seconds, minSolves, nil)
		rss, err := peakRSSMB() // before any verification work
		if err != nil {
			return nil, env, err
		}
		endToEnd(metrics, d.recs, wall, rss)
	} else {
		before, err := h.api.stats()
		if err != nil {
			return nil, env, err
		}
		tr = newTracer()
		d.phase(cfg.seconds, 0, tr)
		after, err := h.api.stats()
		if err != nil {
			return nil, env, err
		}
		warm := 0
		for _, gs := range w.Graphs {
			n, err := h.api.warmSets(gs.Name)
			if err != nil {
				return nil, env, err
			}
			warm += n
		}
		path := ""
		if w.graph(w.Primary).File {
			path = h.graphPath(w.Primary)
		}
		probed, err := runProbes(context.Background(), tr, h.base[w.Primary], w.Solves[w.Primary], path, dir, sizes)
		if err != nil {
			return nil, env, err
		}
		perLayer(metrics, d.recs, before, after, warm, probed)
		metrics["trace.spans"] = metric{float64(len(tr.snapshot())), "count"}
	}

	if !cfg.trace {
		// setup_s is the median of several set-ups. The others run after
		// the timed phase and the peak RSS reading, so that reading holds
		// the memory of one set-up only.
		for i := 1; i < setupReps; i++ {
			start := time.Now()
			extra, err := setup(w, filepath.Join(dir, strconv.Itoa(i)))
			if err != nil {
				return nil, env, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(start).Seconds())
			extra.close()
		}
		metrics["setup_s"] = metric{median(setups), "s"}
	}

	answers := distinctAnswers(d.recs)
	workers := min(2, nproc)
	checked, err := verify(d.recs, answers, h.base, d.graphs, workers)
	if err != nil {
		return nil, env, err
	}
	statePath := filepath.Join(cfg.out, "state", fmt.Sprintf("%s-%s-seed%d.json", w.Name, env.Size, cfg.seed))
	repeated, err := repeatCheck(statePath, d.recs, answers)
	if err != nil {
		return nil, env, err
	}
	if tr != nil {
		tracePath := filepath.Join(cfg.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.Name, cfg.seed))
		if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
			return nil, env, err
		}
		if err := tr.write(tracePath); err != nil {
			return nil, env, err
		}
		fmt.Fprintf(stdout, "spans %d written to %s: %s\n", len(tr.snapshot()), tracePath, strings.Join(spanNames(tr.snapshot()), " "))
	}

	res := &result{Attempted: len(d.recs), Metrics: metrics}
	classes := make(map[string]int)
	for _, r := range d.recs {
		classes[r.Class+"/"+r.Served]++
		if r.Err != "" {
			if res.Failed < 5 {
				fmt.Fprintf(stdout, "failed: request %d (%s %v): %s\n", r.ID, r.Class, r.Key, r.Err)
			}
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(stdout, "requests %d failed %d; class/servedFrom %v\n", res.Attempted, res.Failed, classes)
	fmt.Fprintf(stdout, "set-ups %v s; answers verified against core.Solve %d; sample counts repeated from an earlier run %d\n",
		round3(setups), checked, repeated)
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %-36s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	return res, env, nil
}

// appendResult keeps every result with its environment in results.jsonl.
func appendResult(out string, env envInfo, res *result) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(out, "results.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Env    envInfo `json:"env"`
		Result *result `json:"result"`
	}{env, res})
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commit names the source revision when the benchmark runs in a git
// checkout, and "unknown" otherwise.
func commit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

func round3(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1000+0.5)) / 1000
	}
	return out
}
