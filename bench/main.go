// Command bench is the repository's end-to-end benchmark: it builds
// cmd/overton, generates data and trains its own models from a seed,
// starts real `overton serve` / `overton route` child processes, drives
// them from one generator process, verifies the outputs, and prints
// every metric by name and unit. BENCHMARK.json at the repo root pins
// the workloads and metrics; README.md in this directory explains them.
//
//	bash bench/run.sh                        # all workloads, end-to-end metrics
//	bash bench/run.sh -trace 1               # all workloads, per-layer metrics + trace files
//	bash bench/run.sh -workload serve_light -seed 7 -seconds 10 -trace 0
//	bash bench/run.sh -compare a.json b.json # verdict per workload x metric
//
// (`go run -C bench . <flags>` is the same thing without the wrapper.)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "all", "workload name from BENCHMARK.json, or all")
	seed := flag.Int64("seed", 1, "seed for the generated data and traffic")
	seconds := flag.Int("seconds", 10, "measured seconds per workload run")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics with tracing off, 1 = traced run with per-layer metrics")
	compare := flag.Bool("compare", false, "compare two results files given as arguments")
	out := flag.String("out", "", "results file to append runs to (default bench/out/results.json)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two results files")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments; see -h")
		return 2
	}

	var selected []workloadDef
	if *workload == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*workload); ok {
		selected = []workloadDef{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}

	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	outDir := filepath.Join(e.root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	resultsPath := *out
	if resultsPath == "" {
		resultsPath = filepath.Join(outDir, "results.json")
	}

	// On SIGINT/SIGTERM the context cancels, the run in flight unwinds
	// through its deferred tear-down, and cleanupAll catches anything a
	// half-finished set-up left behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer cleanupAll()

	code := 0
	var last runResult
	for _, w := range selected {
		if ctx.Err() != nil {
			return 130
		}
		res := e.runWorkload(ctx, w, *seed, *seconds, *trace == 1, outDir)
		if ctx.Err() != nil {
			return 130 // interrupted: the run says nothing about the system
		}
		printResult(os.Stdout, res)
		if err := appendResult(resultsPath, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", w.Name, res.Error)
			code = 1
		}
		last = res
	}
	if len(selected) == 1 {
		// The contract's result line: last line of standard output.
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int64                  `json:"attempted"`
			Failed    int64                  `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, last.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return code
}

// printResult prints every metric of a run by name and unit.
func printResult(w *os.File, res runResult) {
	mode := "end-to-end"
	if res.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  attempted %d failed %d correct %v\n",
		res.Workload, res.Seed, mode, res.Attempted, res.Failed, res.Correct)
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, m := range defs {
		if v, ok := res.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "  %-30s %14.4f %s\n", m.Name, v.Value, v.Unit)
		}
	}
	keys := make([]string, 0, len(res.Detail))
	for k := range res.Detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  (%s = %.4f)\n", k, res.Detail[k])
	}
}

// resultsFile is the on-disk form -compare reads: every run appended in
// order, so several runs of one workload give medians and spreads.
type resultsFile struct {
	Runs []runResult `json:"runs"`
}

func readResults(path string) (resultsFile, error) {
	var rf resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// appendResult adds res to the results file at path, creating it when
// missing.
func appendResult(path string, res runResult) error {
	rf, err := readResults(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	rf.Runs = append(rf.Runs, res)
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
