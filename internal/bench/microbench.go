package bench

import (
	"runtime"
	"testing"

	"copier/internal/acopy"
	"copier/internal/core"
	"copier/internal/cycles"
	"copier/internal/mem"
	"copier/internal/sim"
)

// MicroResult is one hot-path microbenchmark data point, serialized
// into BENCH_results.json by `copierbench -benchjson` (see `make
// bench`). NsPerOp and AllocsPerOp track the simulator/service/acopy
// fast paths; SimBytesPerSec reports payload bytes moved per wall
// second for the benchmarks that copy data (simulated bytes for the
// service workload, real bytes for the acopy runtime) and is zero for
// pure scheduling benchmarks.
type MicroResult struct {
	Name            string  `json:"name"`
	Iterations      int     `json:"iterations"`
	NsPerOp         float64 `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	AllocBytesPerOp int64   `json:"alloc_bytes_per_op"`
	SimBytesPerSec  float64 `json:"sim_bytes_per_sec,omitempty"`
}

// FleetSLO is the open-loop fleet experiment's SLO summary for one
// topology configuration: completion-latency quantiles against the
// scheduled arrivals, shed count, and per-node DMA engine
// utilization. Emitted alongside the microbenchmarks so latency-tail
// regressions in the sharded service show up in trend tracking, not
// just throughput regressions.
type FleetSLO struct {
	Config        string    `json:"config"`
	Submitted     int       `json:"submitted"`
	Shed          int       `json:"shed"`
	P50Us         float64   `json:"p50_us"`
	P99Us         float64   `json:"p99_us"`
	P999Us        float64   `json:"p999_us"`
	MeanUs        float64   `json:"mean_us"`
	NodeUtil      []float64 `json:"node_util"`
	RemoteDMAFrac float64   `json:"remote_dma_frac"`
}

// ChaosSLO is the chaosfleet experiment's degraded-mode summary for
// one configuration: terminal-state accounting (the zero-loss
// invariant), shed counts by reason, tail latency of accepted work,
// and time-to-recover after the permanent engine death. Emitted
// alongside the microbenchmarks so resilience regressions (loss,
// unbounded degradation, slower recovery) show up in trend tracking.
type ChaosSLO struct {
	Config        string  `json:"config"`
	Accepted      int     `json:"accepted"`
	Completed     int     `json:"completed"`
	Rejected      int     `json:"rejected"`
	DeadlineShed  int     `json:"deadline_shed"`
	Failed        int     `json:"failed"`
	Lost          int     `json:"lost"`
	P50Us         float64 `json:"p50_us"`
	P99Us         float64 `json:"p99_us"`
	DegradedP99Us float64 `json:"degraded_p99_us,omitempty"`
	EngineDeaths  int64   `json:"engine_deaths"`
	Resteered     int64   `json:"resteered"`
	Quarantines   int64   `json:"quarantines"`
	RecoverUs     float64 `json:"recover_us,omitempty"`
}

// ParallelResult is one point of the parallel-speedup series: the
// sharded fleet (fleetpar.go) timed at a host worker count. The
// simulated work and the output bytes are identical at every point —
// the shards=1-vs-N identity goldens enforce that — so NsPerOp
// isolates the wall-clock effect of the conservative parallel event
// loop. Speedup is relative to the series' serial point on the same
// host and is bounded above by min(shards, CPUs).
type ParallelResult struct {
	Workers int     `json:"workers"`
	NsPerOp float64 `json:"ns_per_op"`
	Speedup float64 `json:"speedup"`
}

// MicroReport is the top-level BENCH_results.json document.
type MicroReport struct {
	Schema string `json:"schema"`
	Go     string `json:"go"`
	// CPUs records the host's logical CPU count — the context needed
	// to judge the parallel series (a single-CPU host cannot speed
	// up, no matter how well the windows scale).
	CPUs     int              `json:"cpus"`
	Results  []MicroResult    `json:"results"`
	Fleet    []FleetSLO       `json:"fleet,omitempty"`
	Chaos    []ChaosSLO       `json:"chaos,omitempty"`
	Parallel []ParallelResult `json:"parallel,omitempty"`
}

func micro(name string, simBytesPerOp int64, fn func(b *testing.B)) MicroResult {
	r := testing.Benchmark(fn)
	m := MicroResult{
		Name:            name,
		Iterations:      r.N,
		NsPerOp:         float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp:     r.AllocsPerOp(),
		AllocBytesPerOp: r.AllocedBytesPerOp(),
	}
	if simBytesPerOp > 0 && r.T > 0 {
		m.SimBytesPerSec = float64(simBytesPerOp) * float64(r.N) / r.T.Seconds()
	}
	return m
}

// ATCacheMissEvict is the body of the core/atcache-miss-evict row and
// of core.BenchmarkATCacheEvict: a default-size (4096-entry) ATCache
// is filled, then every op is a write miss on a page never cached
// followed by the InsertW that evicts the least recently used entry.
func ATCacheMissEvict(b *testing.B) {
	as := mem.NewAddrSpace(mem.NewPhysMem(1 << 20))
	c := core.NewATCache(0)
	const full = 4096
	for vpn := uint64(0); vpn < full; vpn++ {
		c.InsertW(as, vpn, mem.Frame(vpn), true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vpn := uint64(full + i)
		if _, ok := c.LookupW(as, vpn); ok {
			b.Fatal("hit on a never-cached page")
		}
		c.InsertW(as, vpn, mem.Frame(vpn), true)
	}
}

// IdleSweep is the body of the core/idle-sweep row and of
// core.BenchmarkIdleSweep: one service thread polls 12 clients that
// never submit, and every op is one empty ThreadMain poll sweep
// (serveOnce, the CFS pick and the poll iteration cost). The NAPI
// budget is raised past the run so the thread never sleeps.
func IdleSweep(b *testing.B) {
	const clients = 12
	const period = sim.Time(cycles.SchedulePick + cycles.PollIteration)
	env := sim.NewEnv()
	pm := mem.NewPhysMem(1 << 20)
	cfg := core.DefaultConfig()
	cfg.NAPIBudget = 1 << 30
	svc := core.NewService(env, pm, cfg)
	as := mem.NewAddrSpace(pm)
	for i := 0; i < clients; i++ {
		svc.NewClient("idle", as, as, nil)
	}
	env.Go("copierd", func(p *sim.Proc) { svc.ThreadMain(benchCtx{p}, 0) })
	// Past the activation's XSave and into the sweep loop. Sweeps then
	// complete once per period, so any window of N periods holds N.
	for svc.Stats.PollSweeps < 2 {
		if err := env.Run(env.Now() + period); err != nil {
			b.Fatal(err)
		}
	}
	before := svc.Stats.PollSweeps
	b.ReportAllocs()
	b.ResetTimer()
	if err := env.Run(env.Now() + sim.Time(b.N)*period); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if got := svc.Stats.PollSweeps - before; got != int64(b.N) {
		b.Fatalf("%d poll sweeps in %d periods", got, b.N)
	}
	svc.Stop()
	if err := env.Run(sim.Infinity); err != nil {
		b.Fatal(err)
	}
}

// LoneWait is the body of the sim/lone-wait row and of
// sim.BenchmarkLoneWait: a single process calling Wait(1), so every
// wake-up is the next event and Wait returns without a coroutine
// switch.
func LoneWait(b *testing.B) {
	e := sim.NewEnv()
	n := b.N
	e.Go("p", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Wait(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(sim.Infinity); err != nil {
		b.Fatal(err)
	}
}

// RunMicrobenches runs the hot-path microbenchmarks covering the three
// layers this repo optimizes — the simulator event queue, the service
// ring/dispatch path, and the acopy userspace runtime — and returns
// their results. These mirror the Benchmark* functions in the package
// test files so the same numbers are reproducible with `go test
// -bench`; this entry point exists so a normal binary can emit them as
// JSON for trend tracking.
func RunMicrobenches() MicroReport {
	var results []MicroResult

	// Simulator: one Schedule plus the Run loop that pops and fires it
	// (mirrors sim.BenchmarkEventSchedulePop).
	results = append(results, micro("sim/event-schedule-pop", 0, func(b *testing.B) {
		e := sim.NewEnv()
		nop := func() {}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Schedule(1, nop)
			if err := e.Run(sim.Infinity); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Simulator: sustained 64-deep event queue with pseudo-random
	// reinsertion (mirrors sim.BenchmarkEventLoopDepth64) — the
	// steady-state heap load of a busy service run.
	results = append(results, micro("sim/event-loop-depth64", 0, func(b *testing.B) {
		e := sim.NewEnv()
		const depth = 64
		fired := 0
		n := b.N
		rnd := uint64(1)
		next := func() sim.Time {
			rnd = rnd*6364136223846793005 + 1442695040888963407
			// 1..1024: Schedule rejects nothing, but a zero delay
			// would re-fire at the same instant and skew the depth.
			return sim.Time(rnd%1024 + 1)
		}
		var fn func()
		fn = func() {
			fired++
			if fired <= n {
				e.Schedule(next(), fn)
			}
		}
		for i := 0; i < depth; i++ {
			e.Schedule(next(), fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if err := e.Run(sim.Infinity); err != nil {
			b.Fatal(err)
		}
	}))

	// Simulator: coroutine handoff (mirrors sim.BenchmarkProcPingPong).
	results = append(results, micro("sim/proc-ping-pong", 0, func(b *testing.B) {
		e := sim.NewEnv()
		n := b.N
		for p := 0; p < 2; p++ {
			e.Go("p", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					p.Wait(1)
				}
			})
		}
		b.ReportAllocs()
		b.ResetTimer()
		if err := e.Run(sim.Infinity); err != nil {
			b.Fatal(err)
		}
	}))

	// Simulator: a lone process waiting, resumed without a switch
	// (sim.BenchmarkLoneWait runs the same body).
	results = append(results, micro("sim/lone-wait", 0, LoneWait))

	// Service ring: batched drain — 16 publishes, one PopN, one tail
	// update (mirrors core.BenchmarkRingPopN; one op = one 16-task
	// round).
	results = append(results, micro("core/ring-popn16", 0, func(b *testing.B) {
		r := core.NewRing(1024)
		t := &core.Task{}
		var buf [16]*core.Task
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 16; j++ {
				r.Push(t)
			}
			if got := r.PopN(buf[:]); got != 16 {
				b.Fatalf("PopN = %d", got)
			}
		}
	}))

	// ATCache: one write miss plus the InsertW that evicts the LRU
	// entry of a full 4096-entry cache (core.BenchmarkATCacheEvict
	// runs the same body).
	results = append(results, micro("core/atcache-miss-evict", 0, ATCacheMissEvict))

	// Service poll loop: one empty sweep over 12 idle clients on one
	// thread (core.BenchmarkIdleSweep runs the same body).
	results = append(results, micro("core/idle-sweep", 0, IdleSweep))

	// Service end-to-end: one op drives 40 back-to-back 64KB copies
	// through submit → admit → dispatch → completion on the simulated
	// machine; SimBytesPerSec is simulated payload per wall second, the
	// figure of merit for the whole dispatch stack. The world (env,
	// page tables, descriptors, buffers) persists across ops and the
	// task objects are recycled with Task.Reuse, so AllocsPerOp
	// measures the steady-state dispatch path, not setup.
	const svcSize, svcTasks = 64 << 10, 40
	results = append(results, micro("service/throughput-64k", svcSize*svcTasks, func(b *testing.B) {
		ss := newSteadyService(svcSize, svcTasks)
		defer ss.Close()
		ss.Op() // warm the dispatch-path scratch buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ss.Op()
		}
	}))

	// acopy runtime: pooled-handle submit → worker copy → Wait →
	// Release round-trip at two sizes (mirrors
	// acopy.BenchmarkAMemcpyWait); real bytes moved per wall second.
	workers := runtime.GOMAXPROCS(0) - 1
	if workers < 1 {
		workers = 1
	}
	if workers > 2 {
		workers = 2
	}
	for _, size := range []int{4 << 10, 64 << 10} {
		name := "acopy/amemcpy-4k"
		if size == 64<<10 {
			name = "acopy/amemcpy-64k"
		}
		size := size
		results = append(results, micro(name, int64(size), func(b *testing.B) {
			cp := acopy.New(workers)
			defer cp.Close()
			src := make([]byte, size)
			dst := make([]byte, size)
			for i := range src {
				src[i] = byte(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := cp.AMemcpy(dst, src)
				h.Wait()
				h.Release()
			}
		}))
	}

	// Fleet SLO summary: the Quick-scale open-loop sweep (fleet.go),
	// reported in microseconds. Simulated time, so the numbers are
	// machine-independent and byte-stable run to run.
	var fleet []FleetSLO
	for _, r := range FleetQuickResults() {
		fleet = append(fleet, FleetSLO{
			Config:        r.Name,
			Submitted:     r.Submitted,
			Shed:          r.Shed,
			P50Us:         cycles.ToMicroseconds(sim.Time(r.P50)),
			P99Us:         cycles.ToMicroseconds(sim.Time(r.P99)),
			P999Us:        cycles.ToMicroseconds(sim.Time(r.P999)),
			MeanUs:        cycles.ToMicroseconds(sim.Time(r.Mean)),
			NodeUtil:      r.NodeUtil,
			RemoteDMAFrac: r.RemoteDMAFrac,
		})
	}

	// Chaosfleet degraded-mode SLO summary: the Quick-scale worst-day
	// sweep (chaosfleet.go). Simulated time, byte-stable run to run.
	var chaos []ChaosSLO
	for _, r := range ChaosFleetQuickResults() {
		chaos = append(chaos, ChaosSLO{
			Config:        r.Name,
			Accepted:      r.Accepted,
			Completed:     r.Completed,
			Rejected:      r.Rejected,
			DeadlineShed:  r.DeadlineShed,
			Failed:        r.Failed,
			Lost:          r.Lost,
			P50Us:         cycles.ToMicroseconds(sim.Time(r.P50)),
			P99Us:         cycles.ToMicroseconds(sim.Time(r.P99)),
			DegradedP99Us: cycles.ToMicroseconds(sim.Time(r.DegradedP99)),
			EngineDeaths:  r.EngineDeaths,
			Resteered:     r.Resteered,
			Quarantines:   r.Quarantines,
			RecoverUs:     cycles.ToMicroseconds(r.TimeToRecover),
		})
	}

	// Parallel event loop: wall-clock the sharded fleet at increasing
	// host worker counts. The per-point simulation is identical; only
	// the host threading changes.
	var parallel []ParallelResult
	var serialNs float64
	for _, w := range []int{1, 2, 4} {
		w := w
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				FleetParRun(w)
			}
		})
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if w == 1 {
			serialNs = ns
		}
		pr := ParallelResult{Workers: w, NsPerOp: ns}
		if serialNs > 0 {
			pr.Speedup = serialNs / ns
		}
		parallel = append(parallel, pr)
	}

	return MicroReport{
		Schema:   "copier-microbench/v1",
		Go:       runtime.Version(),
		CPUs:     runtime.NumCPU(),
		Results:  results,
		Fleet:    fleet,
		Chaos:    chaos,
		Parallel: parallel,
	}
}
