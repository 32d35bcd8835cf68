package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"time"

	"copier/internal/core"
	"copier/internal/cycles"
	"copier/internal/mem"
	"copier/internal/sim"
	"copier/internal/topo"
	"copier/internal/units"
)

// The fleet workload: an open-loop simulated service on a 4-node NUMA
// machine. 48 clients submit on a seeded Poisson schedule with
// periodic 8x bursts, so the service idles and polls between bursts
// and drains a backlog inside them. kernel and acopy do no work here.
const (
	fleetNodes        = 4
	fleetCoresPerNode = 2
	fleetMemPerNode   = 64 << 20
	fleetClients      = 48
	fleetArrivals     = 1000
	fleetMeanGap      = 20_000 // cycles, ~6.9 µs
	fleetBurstPeriod  = 64     // arrivals per burst window
	fleetBurstLen     = 16     // arrivals at the burst rate per window
	fleetBurstFactor  = 8
	fleetRunLimit     = sim.Time(100_000_000_000)
)

// fleetSizes is the copy-size mix. 64 KB copies are half of it, so
// the median falls inside one class instead of on the boundary between
// two, where it would jump between their latencies from seed to seed.
var fleetSizes = []units.Bytes{4 << 10, 16 << 10, 64 << 10, 64 << 10, 64 << 10, 256 << 10}

type arrival struct {
	at     sim.Time
	client int
	size   units.Bytes
}

// lane draws the i-th value of one seeded stream.
func lane(seed, stream uint64, i int) uint64 {
	return splitmix64(splitmix64(seed^stream) + uint64(i))
}

// shuffled returns the k-th seeded permutation of 0..n-1.
func shuffled(seed, stream uint64, k, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(lane(seed, stream, k*n+i) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// fleetSchedule draws the arrival schedule for a seed: exponential
// gaps, and clients and sizes dealt from shuffled decks, so that every
// 48 consecutive arrivals come from all 48 clients and every 6 carry
// the whole size mix.
func fleetSchedule(seed uint64) []arrival {
	out := make([]arrival, fleetArrivals)
	var clients, sizes []int
	var now sim.Time
	for i := range out {
		if i%fleetClients == 0 {
			clients = shuffled(seed, 2, i/fleetClients, fleetClients)
		}
		if i%len(fleetSizes) == 0 {
			sizes = shuffled(seed, 3, i/len(fleetSizes), len(fleetSizes))
		}
		u := float64(lane(seed, 1, i)>>11) / (1 << 53)
		gap := sim.Time(-math.Log1p(-u) * fleetMeanGap)
		if i%fleetBurstPeriod < fleetBurstLen {
			gap /= fleetBurstFactor
		}
		if gap < 1 {
			gap = 1
		}
		now += gap
		out[i] = arrival{
			at:     now,
			client: clients[i%fleetClients],
			size:   fleetSizes[sizes[i%len(fleetSizes)]],
		}
	}
	return out
}

// benchCtx is the service threads' execution context. Every method
// that yields to the simulator is a hand-off; with a timeline it is
// counted and its host time charged to sim until a process resumes.
type benchCtx struct {
	p  *sim.Proc
	tl *timeline
}

func (c benchCtx) call() {
	if c.tl != nil {
		c.tl.ctxCalls++
		c.tl.switchTo(kSim)
	}
}

func (c benchCtx) ret() { c.tl.switchTo(kCore) }

func (c benchCtx) Exec(d sim.Time)     { c.call(); c.p.Wait(d); c.ret() }
func (c benchCtx) Block(s *sim.Signal) { c.call(); s.Wait(c.p); c.ret() }
func (c benchCtx) SpinUntil(s *sim.Signal) {
	c.call()
	s.Wait(c.p)
	c.ret()
}
func (c benchCtx) BlockTimeout(s *sim.Signal, d sim.Time) bool {
	c.call()
	ok := s.WaitTimeout(c.p, d)
	c.ret()
	return ok
}
func (c benchCtx) Now() sim.Time { return c.p.Now() }
func (c benchCtx) Env() *sim.Env { return c.p.Env() }

type fleetClient struct {
	c        *core.Client
	as       *mem.AddrSpace
	src, dst mem.VA
	core     int // submitting core within the client's node
}

// fleetRep is the outcome of one simulated run of the schedule.
type fleetRep struct {
	setup, memSetup, run time.Duration
	accepted, completed  int
	shed, badData        int
	failedTasks          int
	lat                  []int64 // virtual cycles from scheduled arrival, by arrival
	lateness             sim.Time
	end                  sim.Time
	stats                core.Stats
	atHits, atMisses     int64
	dmaBusy              int64
	leakedPages          int
	digest               uint64
}

// fleetOnce builds the world, runs the whole schedule and checks every
// completed copy against its client's source pattern.
func fleetOnce(sched []arrival, patterns [][]byte, tl *timeline) (*fleetRep, error) {
	r := &fleetRep{lat: make([]int64, len(sched))}
	tl.begin("fleet.build")
	tl.switchTo(kBuild)
	t0 := time.Now()
	var memTime time.Duration
	memCall := func(f func() error) error {
		t := time.Now()
		err := f()
		memTime += time.Since(t)
		return err
	}

	tp := topo.NUMA(fleetNodes, fleetCoresPerNode, fleetMemPerNode)
	nn := tp.Nodes()
	env := sim.NewEnv()
	var pm *mem.PhysMem
	if err := memCall(func() error {
		pm = mem.NewPhysMem(tp.TotalMem())
		return pm.ConfigureNodes(nn)
	}); err != nil {
		return nil, fmt.Errorf("fleet: configure nodes: %w", err)
	}
	cfg := core.DefaultConfig()
	cfg.Topo = tp
	svc := core.NewService(env, pm, cfg)
	maxSize := fleetSizes[len(fleetSizes)-1]
	clients := make([]fleetClient, fleetClients)
	for i := range clients {
		node := i % nn
		var fc fleetClient
		err := memCall(func() error {
			fc.as = mem.NewAddrSpace(pm)
			fc.as.SetHomeNode(node)
			fc.src = fc.as.MMap(maxSize, mem.PermRead|mem.PermWrite, "src")
			fc.dst = fc.as.MMap(maxSize, mem.PermRead|mem.PermWrite, "dst")
			if _, err := fc.as.Populate(fc.src, maxSize, true); err != nil {
				return err
			}
			if _, err := fc.as.Populate(fc.dst, maxSize, true); err != nil {
				return err
			}
			return fc.as.WriteAt(fc.src, patterns[i])
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: client %d memory: %w", i, err)
		}
		fc.c = svc.NewClientOn(fmt.Sprintf("fleet-%d", i), fc.as, fc.as, nil, node)
		fc.c.EnableShards(tp.CoresPerNode())
		fc.core = (i / nn) % tp.CoresPerNode()
		clients[i] = fc
	}

	doneSig := sim.NewSignal("fleet-done")
	readBuf := make([]byte, maxSize)
	tasks := make([]*core.Task, len(sched))
	for i, a := range sched {
		fc := clients[a.client]
		task := &core.Task{
			Src: fc.src, Dst: fc.dst, SrcAS: fc.as, DstAS: fc.as, Len: a.size,
			Desc: core.NewDescriptor(fc.dst, a.size, core.DefaultSegSize),
		}
		task.Handler = &core.Handler{Kernel: true, Fn: func() {
			prev := tl.enter(kHandler)
			r.lat[i] = int64(env.Now() - a.at)
			buf := readBuf[:a.size]
			if task.Err() != nil {
				r.failedTasks++
			} else if err := fc.as.ReadAt(fc.dst, buf); err != nil || !bytes.Equal(buf, patterns[a.client][:a.size]) {
				r.badData++
			}
			r.completed++
			doneSig.Broadcast(env)
			tl.switchTo(prev)
		}}
		tasks[i] = task
	}

	env.Go("fleet-generator", func(p *sim.Proc) {
		tl.switchTo(kGen)
		for i, a := range sched {
			if a.at > p.Now() {
				tl.switchTo(kSim)
				p.Wait(a.at - p.Now())
				tl.switchTo(kGen)
			}
			if late := p.Now() - a.at; late > r.lateness {
				r.lateness = late
			}
			fc := clients[a.client]
			tl.switchTo(kSubmit)
			ok := fc.c.SubmitCopyOn(fc.core, tasks[i])
			tl.switchTo(kGen)
			if ok {
				r.accepted++
			} else {
				r.shed++
			}
		}
		for r.completed < r.accepted {
			tl.switchTo(kSim)
			doneSig.Wait(p)
			tl.switchTo(kGen)
		}
		svc.Stop()
		tl.switchTo(kSim)
	})
	for slot := 0; slot < nn; slot++ {
		env.Go("copierd", func(p *sim.Proc) {
			tl.switchTo(kCore)
			svc.ThreadMain(benchCtx{p, tl}, slot)
			tl.switchTo(kSim)
		})
	}
	r.setup = time.Since(t0)
	r.memSetup = memTime
	tl.switchTo(kBench)
	tl.end()

	tl.begin("fleet.run")
	tl.switchTo(kSim)
	t1 := time.Now()
	err := env.Run(fleetRunLimit)
	r.run = time.Since(t1)
	tl.switchTo(kBench)
	tl.end()
	var dl *sim.DeadlockError
	if err != nil && !errors.As(err, &dl) {
		return nil, fmt.Errorf("fleet: run: %w", err)
	}

	r.end = env.Now()
	r.stats = svc.Stats
	at := svc.ATCacheStats()
	r.atHits, r.atMisses = at.Hits, at.Misses
	for _, d := range svc.DMAs() {
		r.dmaBusy += d.BusyCycles
	}
	for _, fc := range clients {
		r.leakedPages += fc.as.AuditLeaks().PinnedPages
	}
	d := newDigest()
	d.add(r.lat...)
	d.add(int64(r.end), int64(r.accepted), int64(r.shed), int64(r.completed), int64(r.lateness))
	d.addString(fmt.Sprintf("%+v", r.stats))
	r.digest = d.sum()
	return r, nil
}

// fleetSchedules is how many seeded schedules one run simulates; their
// latencies are pooled, so the p99 rests on fleetSchedules*10 samples
// beyond it.
const fleetSchedules = 6

func runFleet(opts options) (*report, error) {
	scheds := make([][]arrival, fleetSchedules)
	for k := range scheds {
		scheds[k] = fleetSchedule(lane(opts.seed, 5, k))
	}
	patterns := make([][]byte, fleetClients)
	for i := range patterns {
		patterns[i] = make([]byte, fleetSizes[len(fleetSizes)-1])
		fillPattern(patterns[i], lane(opts.seed, 4, i))
	}
	rep := newReport()
	firsts := make([]*fleetRep, fleetSchedules)
	var setups, memSetups, nsPerVus []float64
	// measure cycles through the schedules from the first, at least
	// minReps times, and returns each schedule's median run time.
	measure := func(budget time.Duration, minReps int, tl *timeline) ([]float64, int, error) {
		runs := make([][]float64, fleetSchedules)
		reps, err := repeat(budget, minReps, func(i int) error {
			k := i % fleetSchedules
			tl.settle()
			r, err := fleetOnce(scheds[k], patterns, tl)
			if err != nil {
				return err
			}
			if firsts[k] == nil {
				firsts[k] = r
			} else if r.digest != firsts[k].digest {
				return fmt.Errorf("nondeterministic: schedule %d of seed %d gave digest %x, then %x",
					k, opts.seed, firsts[k].digest, r.digest)
			}
			rep.attempted += int64(len(r.lat))
			checkFleetRep(rep, r)
			runs[k] = append(runs[k], r.run.Seconds())
			if tl == nil {
				setups = append(setups, r.setup.Seconds())
				memSetups = append(memSetups, r.memSetup.Seconds())
				nsPerVus = append(nsPerVus, float64(r.run.Nanoseconds())/cycles.ToMicroseconds(r.end))
			}
			return nil
		})
		med := make([]float64, 0, fleetSchedules)
		for _, rs := range runs {
			if len(rs) > 0 {
				med = append(med, median(rs))
			}
		}
		return med, reps, err
	}
	// opsPerSec is tasks completed per host second over the first n
	// schedules.
	opsPerSec := func(runs []float64, n int) float64 {
		var secs float64
		for _, s := range runs[:n] {
			secs += s
		}
		return float64(n*fleetArrivals) / secs
	}

	budget := time.Duration(opts.seconds * float64(time.Second))
	v := rep.values
	if !opts.trace {
		runs, _, err := measure(budget, fleetSchedules+1, nil)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		v["ops_per_s"] = opsPerSec(runs, fleetSchedules)
	} else {
		plain, _, err := measure(budget/2, 1, nil)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		err = traced(opts, "fleet", rep, func(tl *timeline) error {
			runs, reps, err := measure(budget/2, 1, tl)
			if err != nil {
				return fmt.Errorf("fleet: %w", err)
			}
			n := min(len(runs), len(plain))
			v["obs.trace_overhead"] = 1 - opsPerSec(runs, n)/opsPerSec(plain, n)
			v["sim.ctx_calls"] = float64(tl.ctxCalls) / float64(reps)
			if tl.ctxCalls > 0 {
				v["sim.ctx_host_ns"] = float64(tl.self[kSim]) / float64(tl.ctxCalls)
			}
			v["core.submit_ns"] = tl.perCall(kSubmit)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	var lat []float64
	for _, r := range firsts {
		if r == nil {
			continue
		}
		for _, l := range r.lat {
			lat = append(lat, cycles.ToMicroseconds(sim.Time(l)))
		}
	}
	first := firsts[0]
	v["setup_s"] = median(setups)
	v["success_rate"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)
	v["latency_n"] = float64(len(lat))
	v["latency_p50_us"] = quantile(lat, 0.50)
	if len(lat) >= minP99Samples {
		v["latency_p99_us"] = quantile(lat, 0.99)
	}
	st := first.stats
	v["sim.host_ns_per_vus"] = median(nsPerVus)
	v["sim.virtual_ms"] = cycles.ToMicroseconds(first.end) / 1000
	v["mem.setup_s"] = median(memSetups)
	v["mem.leaked_pinned_pages"] = float64(first.leakedPages)
	v["hw.dma_busy_frac"] = float64(first.dmaBusy) / float64(int64(first.end)*fleetNodes)
	v["hw.dma_mb"] = float64(st.DMABytes) / 1e6
	v["hw.cpu_copy_mb"] = float64(st.AVXBytes) / 1e6
	setCoreStats(v, st, first.atHits, first.atMisses)
	v["core.shed"] += float64(first.shed)
	digests := make([]string, 0, fleetSchedules)
	for _, r := range firsts {
		if r != nil {
			digests = append(digests, fmt.Sprintf("%016x", r.digest))
			v["fleet.gen_lateness_cycles"] = max(v["fleet.gen_lateness_cycles"], float64(r.lateness))
		}
	}
	rep.meta["digests"] = digests
	rep.meta["latency_n"] = len(lat)
	return rep, nil
}

// checkFleetRep counts a repetition's failed operations: shed or
// failed tasks, tasks that never completed, and bad destination bytes.
// A late generator or leaked pins fail every operation of the run.
func checkFleetRep(rep *report, r *fleetRep) {
	if r.lateness != 0 || r.leakedPages != 0 {
		rep.failN(int64(len(r.lat)), "fleet: generator %d cycles late, %d pinned pages leaked", r.lateness, r.leakedPages)
		return
	}
	rep.failN(int64(r.shed), "fleet: %d tasks shed at admission", r.shed)
	rep.failN(int64(r.failedTasks), "fleet: %d tasks completed with an error", r.failedTasks)
	rep.failN(int64(r.badData), "fleet: %d destinations differ from the source pattern", r.badData)
	rep.failN(int64(r.accepted-r.completed), "fleet: %d accepted tasks never completed", r.accepted-r.completed)
}

// setCoreStats writes the core per-layer metrics from service
// counters and ATCache hits and misses.
func setCoreStats(v map[string]float64, st core.Stats, hits, misses int64) {
	v["core.poll_sweeps"] = float64(st.PollSweeps)
	if st.TasksExecuted > 0 {
		v["core.sweeps_per_task"] = float64(st.PollSweeps) / float64(st.TasksExecuted)
	}
	if hits+misses > 0 {
		v["core.atcache_hit_rate"] = float64(hits) / float64(hits+misses)
	}
	v["core.atcache_misses"] = float64(misses)
	v["core.shed"] = float64(st.OverloadShed + st.DeadlineShed + st.BrownoutShed)
	v["core.retried_chunks"] = float64(st.RetriedChunks)
	v["core.failed_tasks"] = float64(st.FailedTasks)
	if st.DMABytes > 0 {
		v["core.remote_dma_frac"] = float64(st.RemoteDMABytes) / float64(st.DMABytes)
	}
	v["core.promotions"] = float64(st.Promotions)
	v["core.absorbed_mb"] = float64(st.AbsorbedBytes) / 1e6
	v["core.syncs_served"] = float64(st.SyncsServed)
}
