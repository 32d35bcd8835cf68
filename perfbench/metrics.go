package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sort"
)

type metricDef struct{ name, unit string }

// endToEnd is reported by every untraced run, on every workload. The
// latency pair is the latency the workload's user sees: simulated
// (virtual µs at 2.9 GHz) on fleet and apps, host µs on acopy.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"host_peak_rss_mb", "MB"},
	{"success_rate", "frac"},
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
}

// perLayer is reported by every traced run, on every workload. A
// layer that does no work on a workload reports 0 there.
var perLayer = []metricDef{
	{"latency_n", "count"},
	{"sim.ctx_calls", "count"},
	{"sim.ctx_host_ns", "ns"},
	{"sim.host_ns_per_vus", "ns"},
	{"sim.virtual_ms", "ms"},
	{"mem.setup_s", "s"},
	{"mem.leaked_pinned_pages", "count"},
	{"hw.dma_busy_frac", "frac"},
	{"hw.dma_mb", "MB"},
	{"hw.cpu_copy_mb", "MB"},
	{"core.submit_ns", "ns"},
	{"core.poll_sweeps", "count"},
	{"core.sweeps_per_task", "count"},
	{"core.atcache_hit_rate", "frac"},
	{"core.atcache_misses", "count"},
	{"core.shed", "count"},
	{"core.retried_chunks", "count"},
	{"core.failed_tasks", "count"},
	{"core.remote_dma_frac", "frac"},
	{"core.promotions", "count"},
	{"core.absorbed_mb", "MB"},
	{"core.syncs_served", "count"},
	{"fleet.gen_lateness_cycles", "cycles"},
	{"kernel.core_busy_frac", "frac"},
	{"kernel.sync_copy_frac", "frac"},
	{"apps.sim_speedup_vs_sync", "ratio"},
	{"apps.host_s.redis_set-copier", "s"},
	{"apps.host_s.redis_set-sync", "s"},
	{"apps.host_s.redis_get-copier", "s"},
	{"apps.host_s.redis_get-sync", "s"},
	{"apps.host_s.proxy-copier", "s"},
	{"apps.host_s.proxy-sync", "s"},
	{"acopy.overlap_gain.64k", "ratio"},
	{"acopy.overlap_gain.1m", "ratio"},
	{"acopy.overlap_gain.8m", "ratio"},
	{"acopy.submit_ns.4k", "ns"},
	{"acopy.submit_ns.64k", "ns"},
	{"acopy.submit_ns.1m", "ns"},
	{"acopy.submit_ns.8m", "ns"},
	{"acopy.csync_ns.4k", "ns"},
	{"acopy.csync_ns.64k", "ns"},
	{"acopy.csync_ns.1m", "ns"},
	{"acopy.csync_ns.8m", "ns"},
	{"acopy.wait_ns.4k", "ns"},
	{"acopy.wait_ns.64k", "ns"},
	{"acopy.wait_ns.1m", "ns"},
	{"acopy.wait_ns.8m", "ns"},
	{"acopy.consume_ns.4k", "ns"},
	{"acopy.consume_ns.64k", "ns"},
	{"acopy.consume_ns.1m", "ns"},
	{"acopy.consume_ns.8m", "ns"},
	{"acopy.sync_ns.4k", "ns"},
	{"acopy.sync_ns.64k", "ns"},
	{"acopy.sync_ns.1m", "ns"},
	{"acopy.sync_ns.8m", "ns"},
	{"obs.events.sim", "count"},
	{"obs.events.core", "count"},
	{"obs.events.hw", "count"},
	{"obs.events.kernel", "count"},
	{"obs.trace_overhead", "frac"},
	{"host_share.sim", "frac"},
	{"host_share.core", "frac"},
	{"host_share.mem", "frac"},
	{"host_share.hw", "frac"},
	{"host_share.kernel", "frac"},
	{"host_share.apps", "frac"},
	{"host_share.acopy", "frac"},
	{"host_share.runtime_sched", "frac"},
	{"host_share.runtime_gc", "frac"},
	{"host_share.runtime_maps", "frac"},
	{"host_share.other", "frac"},
}

// quantile returns the exact nearest-rank q-quantile of xs (sorted in
// place): the smallest sample with at least q·n samples at or below
// it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// minP99Samples is the sample count below which a p99 would rest on
// fewer than ten samples beyond it; runs refuse to report one.
const minP99Samples = 1000

// digest accumulates a run's simulated outputs; two runs with one
// seed must produce equal digests.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) add(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

func (d digest) addString(s string) { d.h.Write([]byte(s)) }

func (d digest) sum() uint64 { return d.h.Sum64() }

// splitmix64 keys every generated input from the seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fillPattern writes seeded bytes into p.
func fillPattern(p []byte, seed uint64) {
	var b [8]byte
	for i := 0; i < len(p); i += 8 {
		binary.LittleEndian.PutUint64(b[:], splitmix64(seed^uint64(i)))
		copy(p[i:], b[:])
	}
}
