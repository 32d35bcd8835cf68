package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"copier/internal/apps/proxy"
	"copier/internal/apps/redis"
	"copier/internal/core"
	"copier/internal/cycles"
	"copier/internal/obs"
	"copier/internal/sim"
	"copier/internal/units"
)

// The apps workload: closed-loop simulated applications on the
// single-node kernel machine — Redis SET and GET with 16 KB values and
// 4 clients, and TinyProxy with 16 KB messages and 4 flows — each in
// Copier mode and in sync mode, so the kernel syscall path is used
// both ways. The seed picks the Redis key-space size and the value and
// message size.
const (
	appValue      = 16 << 10
	appClients    = 4
	appOpsPerFlow = 250
	appRedisCores = appClients + 3 // clients, server, Copier core, spare
	appProxyFlows = 4
	appMinKeys    = 8
	appKeyChoices = 25
)

// appInput is what the seed draws: the Redis key count, and the value
// and message size, 16 KB ± 512 B in 128-byte steps.
type appInput struct {
	keys int
	size units.Bytes
}

func appInputs(seed uint64) appInput {
	return appInput{
		keys: appMinKeys + int(lane(seed, 6, 0)%appKeyChoices),
		size: appValue + 128*(units.Bytes(lane(seed, 6, 1)%9)-4),
	}
}

// appCase is one app model in one mode.
type appCase struct {
	name   string // the apps.host_s metric suffix
	copier bool
	want   int // operations configured
	run    func(in appInput) (appOut, error)
}

// appOut is what one app run returns.
type appOut struct {
	ops              int
	lat              []sim.Time // Redis request latencies
	elapsed          sim.Time
	stats            core.Stats
	copyCycles, busy int64
	coreCycles       int64 // cores × elapsed, for busy fractions
	setup, run       time.Duration
	virtual          sim.Time
	atHits, atMisses int64
	digest           uint64
}

func redisCase(op string, copier bool) appCase {
	mode, name := redis.ModeSync, "redis_"+op+"-sync"
	if copier {
		mode, name = redis.ModeCopier, "redis_"+op+"-copier"
	}
	return appCase{name: name, copier: copier, want: appClients * appOpsPerFlow, run: func(in appInput) (appOut, error) {
		res := redis.Run(redis.Config{Mode: mode, ValueSize: in.size, Op: op, Clients: appClients,
			OpsPerClient: appOpsPerFlow, Cores: appRedisCores, Keys: in.keys})
		return appOut{
			ops: len(res.Latencies), lat: res.Latencies,
			elapsed: res.Elapsed, stats: res.CopierStats, copyCycles: res.CopyCycles, busy: res.TotalBusy,
			coreCycles: int64(res.Elapsed) * appRedisCores,
		}, nil
	}}
}

func proxyCase(copier bool) appCase {
	mode, name := proxy.ModeSync, "proxy-sync"
	if copier {
		mode, name = proxy.ModeCopier, "proxy-copier"
	}
	return appCase{name: name, copier: copier, want: appProxyFlows * appOpsPerFlow, run: func(in appInput) (appOut, error) {
		res := proxy.Run(proxy.Config{Mode: mode, MsgSize: in.size, Flows: appProxyFlows, MsgsPerFlow: appOpsPerFlow})
		return appOut{ops: len(res.Latencies), elapsed: res.Elapsed, stats: res.Stats}, nil
	}}
}

var appCases = []appCase{
	redisCase("set", true), redisCase("set", false),
	redisCase("get", true), redisCase("get", false),
	proxyCase(true), proxyCase(false),
}

// runApp runs one case, timing its world build (from the call until the
// simulation's first event) apart from its simulation. A panic while
// building is a failed run; a panic inside a simulated thread ends the
// process, which run.py reports as a failed run.
func runApp(c appCase, in appInput, tl *timeline) (out appOut, err error) {
	var env *sim.Env
	var first time.Time
	prev := sim.OnNewEnv
	sim.OnNewEnv = func(e *sim.Env) {
		if prev != nil {
			prev(e)
		}
		env = e
		e.Schedule(0, func() {
			first = time.Now()
			tl.switchTo(kAppRun)
		})
	}
	defer func() {
		sim.OnNewEnv = prev
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: %v", c.name, r)
		}
	}()
	tl.begin(c.name)
	tl.switchTo(kAppBuild)
	t0 := time.Now()
	out, err = c.run(in)
	done := time.Now()
	tl.switchTo(kBench)
	tl.end()
	if err != nil || env == nil || first.IsZero() {
		return out, fmt.Errorf("%s: no simulation ran: %v", c.name, err)
	}
	out.setup, out.run = first.Sub(t0), done.Sub(first)
	out.virtual = env.Now()
	if r := env.Recorder(); r != nil {
		out.atHits, out.atMisses = r.CountOf(obs.EvATCacheHit), r.CountOf(obs.EvATCacheMiss)
	}
	d := newDigest()
	for _, l := range out.lat {
		d.add(int64(l))
	}
	d.add(int64(out.elapsed), int64(out.virtual), int64(out.ops), out.copyCycles, out.busy)
	d.addString(fmt.Sprintf("%+v", out.stats))
	out.digest = d.sum()
	return out, nil
}

func runApps(opts options) (*report, error) {
	in := appInputs(opts.seed)
	rep := newReport()
	firsts := make([]*appOut, len(appCases))
	hostS := make([][]float64, len(appCases))
	var setups []float64
	// round runs every case once; it returns requests per host second.
	round := func(tl *timeline) (float64, error) {
		var ops int
		var secs float64
		for i, c := range appCases {
			tl.settle()
			out, err := runApp(c, in, tl)
			rep.attempted += int64(c.want)
			if err != nil {
				rep.failN(int64(c.want), "apps: %v", err)
				continue
			}
			rep.failN(int64(c.want-out.ops), "apps: %s completed %d of %d operations", c.name, out.ops, c.want)
			if firsts[i] == nil {
				firsts[i] = &out
			} else if out.digest != firsts[i].digest {
				return 0, fmt.Errorf("apps: nondeterministic: %s gave digest %x, then %x", c.name, firsts[i].digest, out.digest)
			}
			ops += out.ops
			secs += out.run.Seconds()
			if tl == nil {
				hostS[i] = append(hostS[i], out.run.Seconds())
				setups = append(setups, out.setup.Seconds())
			}
		}
		return float64(ops) / secs, nil
	}
	measure := func(budget time.Duration, minRounds int, tl *timeline) (float64, error) {
		var rates []float64
		_, err := repeat(budget, minRounds, func(int) error {
			r, err := round(tl)
			rates = append(rates, r)
			return err
		})
		if tl == nil {
			rep.meta["round_ops_per_s"] = rates
		}
		return median(rates), err
	}

	budget := time.Duration(opts.seconds * float64(time.Second))
	v := rep.values
	if !opts.trace {
		r, err := measure(budget, 2, nil)
		if err != nil {
			return nil, err
		}
		v["ops_per_s"] = r
	} else {
		plain, err := measure(budget/2, 1, nil)
		if err != nil {
			return nil, err
		}
		err = traced(opts, "apps", rep, func(tl *timeline) error {
			r, err := measure(budget/2, 1, tl)
			v["obs.trace_overhead"] = 1 - r/plain
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	for _, f := range firsts {
		if f == nil {
			return rep, nil // every case failed; the failures are counted
		}
	}

	var lat []float64
	var st core.Stats
	var hits, misses, copyCycles, busy, coreCycles int64
	var runNs, virtual float64
	speedup := 1.0
	for i, c := range appCases {
		f := firsts[i]
		if c.copier {
			lat = appendMicros(lat, f.lat)
			addStats(&st, f.stats)
			hits += f.atHits
			misses += f.atMisses
			speedup *= float64(firsts[i+1].elapsed) / float64(f.elapsed) // the sync case follows
		}
		copyCycles += f.copyCycles
		busy += f.busy
		coreCycles += f.coreCycles
		virtual += cycles.ToMicroseconds(f.virtual)
		runNs += median(hostS[i]) * 1e9
		v["apps.host_s."+c.name] = median(hostS[i])
	}
	v["setup_s"] = median(setups)
	v["success_rate"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)
	v["latency_n"] = float64(len(lat))
	v["latency_p50_us"] = quantile(lat, 0.50)
	if len(lat) >= minP99Samples {
		v["latency_p99_us"] = quantile(lat, 0.99)
	}
	v["apps.sim_speedup_vs_sync"] = math.Pow(speedup, 1/float64(len(appCases)/2))
	v["sim.host_ns_per_vus"] = runNs / virtual
	v["sim.virtual_ms"] = virtual / 1000
	v["mem.setup_s"] = median(setups)
	v["hw.dma_mb"] = float64(st.DMABytes) / 1e6
	v["hw.cpu_copy_mb"] = float64(st.AVXBytes) / 1e6
	// ATCache counts come from the recorders of traced runs.
	setCoreStats(v, st, hits, misses)
	v["kernel.core_busy_frac"] = float64(busy) / float64(coreCycles)
	v["kernel.sync_copy_frac"] = float64(copyCycles) / float64(busy)
	digests := map[string]string{}
	for i, c := range appCases {
		digests[c.name] = fmt.Sprintf("%016x", firsts[i].digest)
	}
	rep.meta["digests"] = digests
	rep.meta["redis_keys"] = in.keys
	rep.meta["value_bytes"] = in.size
	rep.meta["latency_n"] = len(lat)
	return rep, nil
}

func appendMicros(dst []float64, ls []sim.Time) []float64 {
	for _, l := range ls {
		dst = append(dst, cycles.ToMicroseconds(l))
	}
	return dst
}

// addStats adds b's counters to a (core.Stats holds only int64
// counters).
func addStats(a *core.Stats, b core.Stats) {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetInt(va.Field(i).Int() + vb.Field(i).Int())
	}
}
