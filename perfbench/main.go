// Command perfbench is the repository benchmark. It runs one workload
// per process — fleet (the open-loop simulated service), apps (the
// simulated Redis and TinyProxy models) or acopy (real-hardware
// asynchronous copies) — and prints one JSON result line as the last
// line of standard output.
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) report the per-layer metrics. Metric names and units are
// fixed in metrics.go and must match BENCHMARK.json at the repository
// root. Workload inputs are generated from -seed; the same seed gives
// the same inputs and, on the simulated workloads, bit-identical
// simulated results.
//
// Usage (normally through run.py, which builds this binary):
//
//	perfbench -workload fleet -seed 1 -seconds 20 -trace 0 -out .bench_out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// heldOutSeed is never used while tuning the benchmark or a change;
// claims of a gain must also hold on it.
const heldOutSeed = 20261017

type options struct {
	seed    uint64
	seconds float64
	trace   bool
	out     string
}

// report is what a workload hands back: operation counts, metric
// values by name, and free-form metadata for the run record.
type report struct {
	attempted, failed int64
	errs              []string
	values            map[string]float64
	meta              map[string]any
}

func newReport() *report {
	return &report{values: map[string]float64{}, meta: map[string]any{}}
}

// failN records n failed operations with their reason (the first few
// reasons are kept for the run record).
func (r *report) failN(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(options) (*report, error){
	"fleet": runFleet,
	"apps":  runApps,
	"acopy": runACopy,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "fleet, apps or acopy")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_out", "directory for the run record and span export")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	rep, err := run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if !opts.trace {
		rep.values["host_peak_rss_mb"] = peakRSSMB()
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	res := resultOut{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricOut{Value: rep.values[d.name], Unit: d.unit}
	}

	meta := hostMeta()
	for k, v := range rep.meta {
		meta[k] = v
	}
	meta["workload"] = *workload
	meta["seed"] = *seed
	meta["held_out_seed"] = heldOutSeed
	meta["seconds"] = *seconds
	meta["trace"] = opts.trace
	meta["errors"] = rep.errs
	record := map[string]any{"meta": meta, "result": res}
	name := fmt.Sprintf("run-%s-seed%d-trace%d.json", *workload, *seed, *trace)
	if err := writeJSON(filepath.Join(*out, name), record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	metaLine, _ := json.Marshal(map[string]any{"meta": meta})
	fmt.Println(string(metaLine))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write run record: %w", err)
	}
	return nil
}

// hostMeta describes the machine a run was measured on.
func hostMeta() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  model,
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// repeat runs fn until the budget would be overrun by one more
// repetition of the length of the last one, and at least minReps
// times. It returns the number of repetitions made.
func repeat(budget time.Duration, minReps int, fn func(rep int) error) (int, error) {
	start := time.Now()
	var last time.Duration
	rep := 0
	for rep < minReps || time.Since(start)+last <= budget {
		t := time.Now()
		if err := fn(rep); err != nil {
			return rep, err
		}
		last = time.Since(t)
		rep++
	}
	return rep, nil
}
