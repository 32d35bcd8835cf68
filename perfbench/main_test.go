package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricsMatchBenchmarkJSON pins the metric tables to the
// repository's BENCHMARK.json: same names, same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		want := map[string]string{}
		for _, d := range defs {
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("%s metric %q has a bad name or unit %q", kind, d.name, d.unit)
			}
			if _, dup := want[d.name]; dup {
				t.Errorf("%s metric %q listed twice", kind, d.name)
			}
			want[d.name] = d.unit
		}
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program emits %d", kind, len(got), len(want))
		}
		for _, m := range got {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %q (%s) in BENCHMARK.json: program emits unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}

// TestSmoke runs every workload once untraced and once traced with the
// smallest budget: every operation must succeed and every end-to-end
// metric must be measured.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulated workloads")
	}
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				rep, err := run(options{seed: 7, seconds: 0.01, trace: trace, out: t.TempDir()})
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if rep.attempted == 0 || rep.failed != 0 {
					t.Fatalf("trace=%v: %d of %d operations failed: %v", trace, rep.failed, rep.attempted, rep.errs)
				}
				if trace {
					if rep.values["host_share.other"] == 1 {
						t.Errorf("profile attributed nothing to a layer")
					}
					continue
				}
				for _, d := range endToEnd {
					if d.name != "host_peak_rss_mb" && rep.values[d.name] <= 0 {
						t.Errorf("%s = %v, want > 0", d.name, rep.values[d.name])
					}
				}
			}
		})
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.chanrecv", "copier/internal/sim.(*Proc).yield"}, "runtime_sched"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice", "copier/internal/mem.NewPhysMem"}, "mem"},
		{[]string{"runtime.mallocgc", "copier/internal/core.(*Service).dispatch"}, "runtime_gc"},
		{[]string{"internal/runtime/maps.(*Map).getWithKey", "copier/internal/core.(*ATCache).lookup"}, "runtime_maps"},
		{[]string{"copier/internal/cycles.Mul", "copier/internal/hw.(*DMAChannel).xferDur"}, "hw"},
		{[]string{"runtime.memmove", "copier/internal/acopy.(*Copier).copyTask"}, "acopy"},
		{[]string{"copier/internal/apps/redis.serveOne"}, "apps"},
		{[]string{"time.Now", "main.(*timeline).cut"}, "other"},
	} {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}
