package sim

import (
	"fmt"
	"strings"
	"testing"

	"copier/internal/obs"
)

// shardWorkload drives a small cross-shard workload and returns one
// log line per executed action, in a per-shard deterministic order.
// Each shard appends only to its own log slice, so the workload is
// race-free at any worker count and the assembled output must be
// byte-identical across worker counts.
func shardWorkload(t *testing.T, nshards, workers int, lookahead Time) string {
	t.Helper()
	set := NewShardSet(nshards, lookahead, workers)
	logs := make([][]string, nshards)
	for i := 0; i < nshards; i++ {
		i := i
		env := set.Shard(i)
		env.Go(fmt.Sprintf("driver%d", i), func(p *Proc) {
			for k := 0; k < 20; k++ {
				p.Wait(Time(500 + 37*i))
				logs[i] = append(logs[i], fmt.Sprintf("shard%d t=%d local k=%d", i, p.Now(), k))
				dst := (i + 1 + k%(nshards-1)) % nshards
				k := k
				set.Send(i, dst, lookahead+Time(13*i), func() {
					logs[dst] = append(logs[dst], fmt.Sprintf("shard%d t=%d cross from=%d k=%d", dst, set.Shard(dst).Now(), i, k))
				})
			}
		})
	}
	if err := set.Run(Infinity); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var b strings.Builder
	for i := range logs {
		for _, l := range logs[i] {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func TestShardSetByteIdentityAcrossWorkers(t *testing.T) {
	base := shardWorkload(t, 4, 1, 20000)
	if !strings.Contains(base, "cross from=") {
		t.Fatalf("workload produced no cross-shard events:\n%s", base)
	}
	for _, w := range []int{2, 3, 4, 7} {
		got := shardWorkload(t, 4, w, 20000)
		if got != base {
			t.Fatalf("workers=%d output differs from serial:\n--- serial ---\n%s--- workers=%d ---\n%s", w, base, w, got)
		}
	}
}

// Equal-time cross events from different sources must fire in source
// order, independent of worker count.
func TestShardSetEqualTimeSourceOrder(t *testing.T) {
	run := func(workers int) string {
		set := NewShardSet(3, 1000, workers)
		var got []string
		for _, src := range []int{1, 0} { // deliberately out of order
			src := src
			set.Send(src, 2, 1000, func() {
				got = append(got, fmt.Sprintf("from%d", src))
			})
		}
		if err := set.Run(Infinity); err != nil {
			t.Fatal(err)
		}
		return strings.Join(got, ",")
	}
	for _, w := range []int{1, 3} {
		if s := run(w); s != "from0,from1" {
			t.Fatalf("workers=%d: equal-time cross events ran as %q, want from0,from1", w, s)
		}
	}
}

func TestShardSetSendBelowLookaheadPanics(t *testing.T) {
	set := NewShardSet(2, 5000, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Send below lookahead did not panic")
		}
	}()
	set.Send(0, 1, 4999, func() {})
}

func TestShardSetDeadlockReport(t *testing.T) {
	set := NewShardSet(2, 1000, 1)
	sig := NewSignal("never")
	set.Shard(1).Go("stuck", func(p *Proc) { sig.Wait(p) })
	err := set.Run(Infinity)
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "shard1:stuck (signal:never)" {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

// A shard blocked on work that will arrive from another shard must not
// be reported as deadlocked while outboxes still hold events.
func TestShardSetCrossShardWake(t *testing.T) {
	set := NewShardSet(2, 1000, 1)
	sig := NewSignal("remote-done")
	woken := false
	set.Shard(1).Go("waiter", func(p *Proc) {
		sig.Wait(p)
		woken = true
	})
	env1 := set.Shard(1)
	set.Send(0, 1, 5000, func() { sig.Broadcast(env1) })
	if err := set.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if !woken {
		t.Fatal("cross-shard broadcast never woke the waiter")
	}
	if got := env1.Now(); got != 5000 {
		t.Fatalf("shard1 clock = %d, want 5000", got)
	}
}

// recorderStream renders a recorder's retained events for comparison.
func recorderStream(r *obs.Recorder) string {
	var b strings.Builder
	r.Events(func(e *obs.Event) {
		fmt.Fprintf(&b, "%d %d %s %s %d %d\n", e.T, e.Kind, e.Track, e.Name, e.A, e.B)
	})
	return b.String()
}

// With an ambient recorder installed through OnNewEnv, shard-private
// recordings must merge into an identical ambient stream at every
// worker count.
func TestShardSetRecorderMergeIdentity(t *testing.T) {
	run := func(workers int) string {
		amb := obs.NewRecorder(1 << 12)
		old := OnNewEnv
		OnNewEnv = func(e *Env) { e.SetRecorder(amb) }
		defer func() { OnNewEnv = old }()
		set := NewShardSet(3, 10000, workers)
		for i := 0; i < 3; i++ {
			i := i
			env := set.Shard(i)
			env.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for k := 0; k < 10; k++ {
					p.Wait(Time(700 + 11*i))
					env.Recorder().Emit(obs.Event{T: int64(p.Now()), Kind: obs.EvTaskSubmit, Layer: obs.LayerCore, Track: "t", Name: fmt.Sprintf("s%d", i), A: int64(k)})
				}
			})
		}
		if err := set.Run(Infinity); err != nil {
			t.Fatal(err)
		}
		return recorderStream(amb)
	}
	base := run(1)
	if base == "" {
		t.Fatal("no events merged into ambient recorder")
	}
	for _, w := range []int{2, 3} {
		if got := run(w); got != base {
			t.Fatalf("workers=%d ambient stream differs:\n--- serial ---\n%s--- workers=%d ---\n%s", w, base, w, got)
		}
	}
}

func TestRunJobsIdentityAndMergeOrder(t *testing.T) {
	run := func(workers int) string {
		amb := obs.NewRecorder(1 << 12)
		old := OnNewEnv
		OnNewEnv = func(e *Env) { e.SetRecorder(amb) }
		defer func() { OnNewEnv = old }()
		RunJobs(6, workers, func(jc *JobCtx) {
			env := jc.NewEnv()
			idx := jc.Index()
			env.Go("job", func(p *Proc) {
				for k := 0; k < 5; k++ {
					p.Wait(Time(100 + 3*idx))
					env.Recorder().Emit(obs.Event{T: int64(p.Now()), Kind: obs.EvTaskSubmit, Layer: obs.LayerCore, Track: "t", Name: fmt.Sprintf("job%d", idx), A: int64(k)})
				}
			})
			if err := env.Run(Infinity); err != nil {
				t.Error(err)
			}
		})
		return recorderStream(amb)
	}
	base := run(1)
	if !strings.Contains(base, "job5") {
		t.Fatalf("missing job output:\n%s", base)
	}
	// Merge is by job index: all of job0's events precede job1's even
	// though their virtual times overlap.
	if i0, i5 := strings.Index(base, "job0"), strings.Index(base, "job5"); i0 > i5 {
		t.Fatalf("job recordings not merged in job order:\n%s", base)
	}
	for _, w := range []int{2, 3, 6} {
		if got := run(w); got != base {
			t.Fatalf("workers=%d ambient stream differs from serial", w)
		}
	}
}

// TestShardSetHandoffStress is the -race stress for cross-shard
// handoff: many shards concurrently advancing windows, injecting
// events into each other at every opportunity, with procs blocking on
// signals woken by remote shards. Run with -race in scripts/check.sh.
func TestShardSetHandoffStress(t *testing.T) {
	const (
		nshards   = 8
		workers   = 4
		rounds    = 50
		lookahead = Time(2000)
	)
	set := NewShardSet(nshards, lookahead, workers)
	sigs := make([]*Signal, nshards)
	got := make([]int, nshards)
	want := make([]int, nshards)
	for i := range sigs {
		sigs[i] = NewSignal(fmt.Sprintf("s%d", i))
	}
	for i := 0; i < nshards; i++ {
		i := i
		env := set.Shard(i)
		env.Go("pump", func(p *Proc) {
			for k := 0; k < rounds; k++ {
				p.Wait(Time(100 + 7*i + k%13))
				for d := 0; d < nshards; d++ {
					if d == i {
						continue
					}
					d := d
					set.Send(i, d, lookahead+Time(i+k), func() {
						got[d]++
						sigs[d].Broadcast(set.Shard(d))
					})
				}
			}
		})
		env.Go("sink", func(p *Proc) {
			// WaitTimeout keeps a timer pending, so the shard never
			// looks drained while remote events are still in flight.
			for got[i] < want[i] {
				sigs[i].WaitTimeout(p, 10000)
			}
		})
		want[i] = (nshards - 1) * rounds
	}
	if err := set.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("shard %d received %d cross events, want %d", i, got[i], want[i])
		}
	}
	if set.CrossDelivered() != int64(nshards*(nshards-1)*rounds) {
		t.Fatalf("CrossDelivered = %d, want %d", set.CrossDelivered(), nshards*(nshards-1)*rounds)
	}
	if set.Windows() == 0 {
		t.Fatal("no windows executed")
	}
}

// TestShardSetProcsResumeAcrossWorkers is a -race test for resuming
// one coroutine from different host threads: with two workers, every
// lookahead window runs on fresh worker goroutines, and each proc
// waits across many windows. The result must match the serial run.
func TestShardSetProcsResumeAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		const nshards, lookahead = 4, Time(50)
		set := NewShardSet(nshards, lookahead, workers)
		sums := make([]Time, nshards)
		for i := 0; i < nshards; i++ {
			i := i
			for k := 0; k < 2; k++ {
				set.Shard(i).Go(fmt.Sprintf("w%d.%d", i, k), func(p *Proc) {
					for n := 0; n < 300; n++ {
						p.Wait(Time(17 + 5*i + 3*k))
						sums[i] += p.Now()
					}
				})
			}
		}
		if err := set.Run(Infinity); err != nil {
			t.Fatal(err)
		}
		if set.Windows() < 100 {
			t.Fatalf("workers=%d: only %d windows", workers, set.Windows())
		}
		return fmt.Sprint(sums)
	}
	if serial, par := run(1), run(2); par != serial {
		t.Fatalf("workers=2 sums %s, serial %s", par, serial)
	}
}
