// Command perfbench is quark's end-to-end benchmark. It builds one of
// three closed-loop workloads through the engine's public API, times a
// window of commits from a single writer, checks that the engine
// delivered exactly what the workload implies, and prints its metrics.
//
//	perfbench --workload paper-grouped --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object
// holding the end-to-end metrics; with --trace 1 it holds the per-layer
// metrics, taken from Stats counters over an untraced window and from
// spans recorded around public calls and hooks over a traced window (the
// span dump is written under .bench_build/spans). Everything the
// benchmark writes stays under .bench_build in the working directory.
// See README.md for what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// workDir holds everything a run writes: outbox logs and span dumps.
const workDir = ".bench_build"

func main() {
	wl := flag.String("workload", "", "paper-grouped, bulk-agg or durable-fleet")
	seed := flag.Int64("seed", 1, "seed of the workload's data and operation stream")
	seconds := flag.Int("seconds", 20, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if err := run(*wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed int64, length time.Duration, traced bool) error {
	build, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %v)", name, names)
	}
	if length <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	env := map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    length.Seconds(),
		"trace":      traced,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
	}
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(envLine))

	r, setup, err := buildRepeated(build, seed)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer r.close()

	if err := warmUp(r); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	res := result{Metrics: map[string]metric{}}
	var fails failures
	if !traced {
		w, err := measure(r, length, nil)
		if err != nil {
			return err
		}
		fails.add(w.fails)
		fails.add(r.finish())
		res.Attempted = w.commits
		endToEnd(res.Metrics, setup, w)
		w = window{} // the samples grow with throughput: drop them first
		res.Metrics["live_heap_mb"] = metric{liveHeapMB(), "MiB"}
	} else {
		// Half the window untraced (counts and the overhead baseline), half
		// traced (spans); both on the same warm engine.
		plain, err := measure(r, length/2, nil)
		if err != nil {
			return err
		}
		tr := newTracer()
		tw, err := measure(r, length/2, tr)
		if err != nil {
			return err
		}
		fails.add(plain.fails)
		fails.add(tw.fails)
		fails.add(r.finish())
		ts, err := tr.summarize(r, tw)
		if err != nil {
			fails.check(false, "trace: %v", err)
		}
		dump := fmt.Sprintf("%s/spans/%s-seed%d.jsonl", workDir, name, seed)
		if err := tr.dump(dump, env, ts); err != nil {
			return fmt.Errorf("writing span dump: %w", err)
		}
		res.Attempted = plain.commits + tw.commits
		perLayer(res.Metrics, setup, plain, tw, ts)
	}
	res.Failed = fails.ops + fails.violations
	res.Correct = fails.ok()
	if traced {
		res.Metrics["fail_ratio"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
	}
	printTable(os.Stderr, res)
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed:", fails.String())
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(2)
	}
	return nil
}

// printTable writes the metrics, one per line, for a reader.
func printTable(f *os.File, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(f, "%-40s %16.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(f, "%-40s %16d\n%-40s %16d\n", "attempted", res.Attempted, "failed", res.Failed)
}
