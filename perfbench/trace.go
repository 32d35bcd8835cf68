package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"copier/internal/obs"
	"copier/internal/sim"
)

// kind labels a stretch of host time by the layer that ran in it.
type kind uint8

const (
	kBench    kind = iota // the benchmark's own code between layer calls
	kSim                  // sim: coroutine hand-off and event loop, from a Ctx or Wait call until a process resumes
	kCore                 // core: a service thread's code between its Ctx calls
	kSubmit               // core: Client.SubmitCopyOn
	kHandler              // a completion handler (benchmark code called by core)
	kGen                  // the fleet arrival generator process's own code
	kBuild                // world build: mem, hw and core construction
	kAppBuild             // an app model's world build, from Run until its first event
	kAppRun               // an app model's simulation, from its first event until Run returns
	kAMemcpy              // acopy: Copier.AMemcpy
	kCSync                // acopy: Handle.CSync
	kWait                 // acopy: Handle.Wait
	kConsume              // the consume loop over landed bytes
	kSyncCopy             // the plain copy of the sync control
	numKinds
)

var kindNames = [numKinds]string{
	"bench", "sim.handoff", "core.thread", "core.submit", "bench.handler", "bench.generator",
	"build", "apps.build", "apps.run", "acopy.amemcpy", "acopy.csync", "acopy.wait",
	"bench.consume", "bench.sync_copy",
}

// maxSegments bounds the segments kept for export; totals per kind
// always cover every segment.
const maxSegments = 1 << 16

type segment struct {
	kind       kind
	parent     int32 // index into timeline.spans, -1 for none
	start, end int64 // ns since the timeline started
}

type coarseSpan struct {
	name       string
	parent     int32
	start, end int64
	children   int64 // ns covered by direct children
}

// timeline partitions a traced run's host time into segments, each
// owned by one kind. Every simulated process runs on the single
// simulator thread and hands over control only inside sim calls, so
// the segments never overlap: a segment is a leaf span and its self
// time is its length. Coarse spans (world build, Env.Run, one app
// run, one acopy block) nest around segments; their self time is
// their length minus their children's. A nil *timeline records
// nothing, which is how untraced runs use it.
type timeline struct {
	t0       time.Time
	last     int64
	cur      kind
	self     [numKinds]int64
	entries  [numKinds]int64
	segs     []segment
	dropped  int64
	spans    []coarseSpan
	open     []int32
	ctxCalls int64
	profiles []*bytes.Buffer // CPU profiles, one per stretch between settles
}

func newTimeline() *timeline { return &timeline{t0: time.Now()} }

func (t *timeline) now() int64 { return int64(time.Since(t.t0)) }

func (t *timeline) parent() int32 {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// cut closes the current segment at the present instant and returns
// its length in ns.
func (t *timeline) cut() int64 {
	now := t.now()
	d := now - t.last
	t.self[t.cur] += d
	if t.cur != kBench {
		p := t.parent()
		if p >= 0 {
			t.spans[p].children += d
		}
		if len(t.segs) < maxSegments {
			t.segs = append(t.segs, segment{t.cur, p, t.last, now})
		} else {
			t.dropped++
		}
	}
	t.last = now
	return d
}

// switchTo closes the current segment, opens one of kind k and returns
// the closed segment's length in ns.
func (t *timeline) switchTo(k kind) int64 {
	if t == nil {
		return 0
	}
	d := t.cut()
	t.cur = k
	t.entries[k]++
	return d
}

// enter switches to k and returns the kind to restore with switchTo.
func (t *timeline) enter(k kind) kind {
	if t == nil {
		return kBench
	}
	prev := t.cur
	t.switchTo(k)
	return prev
}

// begin opens a coarse span. The current segment is closed first so
// that segments never straddle a coarse boundary.
func (t *timeline) begin(name string) {
	if t == nil {
		return
	}
	t.cut()
	t.spans = append(t.spans, coarseSpan{name: name, parent: t.parent(), start: t.last})
	t.open = append(t.open, int32(len(t.spans)-1))
}

// end closes the innermost coarse span.
func (t *timeline) end() {
	if t == nil {
		return
	}
	t.cut()
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.end = t.last
	if s.parent >= 0 {
		t.spans[s.parent].children += s.end - s.start
	}
}

// settle collects the garbage of the previous repetition and returns
// free memory to the OS, so that every repetition starts from the same
// heap, pays for its own page faults and none pays for another's
// collection. A traced run pauses its CPU profile meanwhile: the forced
// collection is the benchmark's, not the workload's.
func (t *timeline) settle() {
	if t == nil {
		debug.FreeOSMemory()
		return
	}
	pprof.StopCPUProfile()
	debug.FreeOSMemory()
	t.startProfile()
}

func (t *timeline) startProfile() {
	b := new(bytes.Buffer)
	t.profiles = append(t.profiles, b)
	if err := pprof.StartCPUProfile(b); err != nil {
		panic(fmt.Sprintf("perfbench: start CPU profile: %v", err)) // only one profile runs at a time
	}
}

// perCall is the mean self time in ns of kind k's segments.
func (t *timeline) perCall(k kind) float64 {
	if t.entries[k] == 0 {
		return 0
	}
	return float64(t.self[k]) / float64(t.entries[k])
}

// export writes the spans as JSON: totals per kind, every coarse span
// with its self time, and the first maxSegments segments.
func (t *timeline) export(path string) error {
	type kindOut struct {
		Segments int64 `json:"segments"`
		SelfNs   int64 `json:"self_ns"`
	}
	type spanOut struct {
		Name    string `json:"name"`
		Parent  int32  `json:"parent"`
		StartNs int64  `json:"start_ns"`
		DurNs   int64  `json:"dur_ns"`
		SelfNs  int64  `json:"self_ns"`
	}
	kinds := map[string]kindOut{}
	for k := kind(0); k < numKinds; k++ {
		if t.entries[k] > 0 || t.self[k] > 0 {
			kinds[kindNames[k]] = kindOut{t.entries[k], t.self[k]}
		}
	}
	coarse := make([]spanOut, len(t.spans))
	for i, s := range t.spans {
		coarse[i] = spanOut{s.name, s.parent, s.start, s.end - s.start, s.end - s.start - s.children}
	}
	segs := make([]spanOut, len(t.segs))
	for i, s := range t.segs {
		segs[i] = spanOut{kindNames[s.kind], s.parent, s.start, s.end - s.start, s.end - s.start}
	}
	return writeJSON(path, map[string]any{
		"kinds":            kinds,
		"coarse":           coarse,
		"segments":         segs,
		"segments_dropped": t.dropped,
	})
}

// traced runs fn with a timeline, an obs.Recorder on every simulation
// environment, and a CPU profile. It writes the span export and adds
// the recorder counts and the profile's layer shares to rep.
func traced(opts options, workload string, rep *report, fn func(tl *timeline) error) error {
	tl := newTimeline()
	var recs []*obs.Recorder
	sim.OnNewEnv = func(e *sim.Env) {
		r := obs.NewRecorder(1024) // counts cover every event; the ring is unused
		e.SetRecorder(r)
		recs = append(recs, r)
	}
	defer func() { sim.OnNewEnv = nil }()
	tl.startProfile()
	err := fn(tl)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	tl.switchTo(kBench)
	if len(recs) > 0 {
		// Counts per simulation environment (one per fleet schedule
		// run, one per app run), averaged over the traced half.
		for _, l := range []obs.Layer{obs.LayerSim, obs.LayerCore, obs.LayerHW, obs.LayerKernel} {
			var n int64
			for _, r := range recs {
				n += r.LayerCount(l)
			}
			rep.values["obs.events."+l.String()] = float64(n) / float64(len(recs))
		}
	}
	shares, samples, err := layerShares(tl.profiles)
	if err != nil {
		return err
	}
	for name, v := range shares {
		rep.values["host_share."+name] = v
	}
	rep.meta["profile_samples"] = samples
	rep.meta["segments_dropped"] = tl.dropped
	return tl.export(filepath.Join(opts.out, fmt.Sprintf("spans-%s-seed%d.json", workload, opts.seed)))
}
