package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// Tests for the lone-waiter path of Proc.Wait: when nothing else is
// due at or before a proc's wake-up, Wait advances the clock and
// returns without a coroutine switch. Each case checks the observed
// (time, label) order against a hand-written reference, and checks
// whether the wait switched by watching the schedule counter: the
// switch path schedules the wake-up, the lone path schedules nothing.

type stamp struct {
	at    Time
	label string
}

type stampLog []stamp

func (l *stampLog) add(e *Env, label string) { *l = append(*l, stamp{e.Now(), label}) }

func checkLog(t *testing.T, got, want stampLog) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// waitSwitched runs p.Wait(d) and reports whether it scheduled a
// wake-up (switch path) rather than returning directly.
func waitSwitched(p *Proc, d Time) bool {
	seq := p.env.seq
	p.Wait(d)
	return p.env.seq != seq
}

func TestLoneWaitSkipsSwitch(t *testing.T) {
	e := NewEnv()
	var log stampLog
	var switched []bool
	e.Go("p", func(p *Proc) {
		for _, d := range []Time{5, 0, 7} {
			switched = append(switched, waitSwitched(p, d))
			log.add(e, "p")
		}
	})
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	checkLog(t, log, stampLog{{5, "p"}, {5, "p"}, {12, "p"}})
	if !reflect.DeepEqual(switched, []bool{false, false, false}) {
		t.Fatalf("switched = %v, want no switch for a lone proc", switched)
	}
}

func TestLoneWaitTieSwitches(t *testing.T) {
	e := NewEnv()
	var log stampLog
	var switched []bool
	e.Schedule(10, func() { log.add(e, "ev10") })
	e.Schedule(20, func() { log.add(e, "ev20") })
	e.Go("p", func(p *Proc) {
		// Strictly before the head: lone.
		switched = append(switched, waitSwitched(p, 9))
		log.add(e, "p")
		// Exactly at the head: the older event runs first.
		switched = append(switched, waitSwitched(p, 1))
		log.add(e, "p")
		// Past the head: the event runs first.
		switched = append(switched, waitSwitched(p, 15))
		log.add(e, "p")
	})
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	checkLog(t, log, stampLog{{9, "p"}, {10, "ev10"}, {10, "p"}, {20, "ev20"}, {25, "p"}})
	if !reflect.DeepEqual(switched, []bool{false, true, true}) {
		t.Fatalf("switched = %v, want [false true true]", switched)
	}
}

func TestLoneWaitZero(t *testing.T) {
	e := NewEnv()
	var log stampLog
	var switched []bool
	e.Go("p", func(p *Proc) {
		// Nothing pending: Wait(0) is a no-op.
		switched = append(switched, waitSwitched(p, 0))
		log.add(e, "p")
		// An event this proc scheduled for now runs before it resumes.
		e.Schedule(0, func() { log.add(e, "ev") })
		switched = append(switched, waitSwitched(p, 0))
		log.add(e, "p")
	})
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	checkLog(t, log, stampLog{{0, "p"}, {0, "ev"}, {0, "p"}})
	if !reflect.DeepEqual(switched, []bool{false, true}) {
		t.Fatalf("switched = %v, want [false true]", switched)
	}
}

func TestLoneWaitCanceledHead(t *testing.T) {
	e := NewEnv()
	var log stampLog
	var switched []bool
	dead := e.Schedule(10, func() { log.add(e, "canceled") })
	dead.Cancel()
	e.Schedule(10, func() { log.add(e, "ev10") })
	e.Go("p", func(p *Proc) {
		// A canceled event still counts as pending: at its instant
		// the proc switches and the live event behind it runs first.
		switched = append(switched, waitSwitched(p, 10))
		log.add(e, "p")
		switched = append(switched, waitSwitched(p, 10))
		log.add(e, "p")
	})
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	checkLog(t, log, stampLog{{10, "ev10"}, {10, "p"}, {20, "p"}})
	if !reflect.DeepEqual(switched, []bool{true, false}) {
		t.Fatalf("switched = %v, want [true false]", switched)
	}
}

func TestLoneWaitRunUntil(t *testing.T) {
	e := NewEnv()
	var log stampLog
	e.Go("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Wait(10)
			log.add(e, "p")
		}
	})
	// A wake-up past until is left pending, and the clock stops at
	// until; one exactly at until runs.
	for _, step := range []struct{ until, now Time }{{25, 25}, {30, 30}, {Infinity, 50}} {
		if err := e.Run(step.until); err != nil {
			t.Fatal(err)
		}
		if e.Now() != step.now {
			t.Fatalf("Run(%d) left now = %d, want %d", step.until, e.Now(), step.now)
		}
	}
	checkLog(t, log, stampLog{{10, "p"}, {20, "p"}, {30, "p"}, {40, "p"}, {50, "p"}})
}

func TestLoneWaitSpawnMidWait(t *testing.T) {
	e := NewEnv()
	var log stampLog
	e.Go("a", func(p *Proc) {
		log.add(e, "a")
		e.Go("b", func(q *Proc) {
			log.add(e, "b")
			q.Wait(3) // a sleeps until 5: lone
			log.add(e, "b")
			q.Wait(3) // past a's wake-up: switch
			log.add(e, "b")
		})
		p.Wait(5) // b's start is pending at 0: switch
		log.add(e, "a")
		p.Wait(5)
		log.add(e, "a")
	})
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	checkLog(t, log, stampLog{{0, "a"}, {0, "b"}, {3, "b"}, {5, "a"}, {6, "b"}, {10, "a"}})
}

// TestLoneWaitMatchesSwitchPath runs random mixes of procs, waits,
// events, cancellations and spawns twice: under Env.Run, where lone
// waits skip the switch, and under a one-shard ShardSet, whose window
// loop always switches. The observed orders must be identical.
func TestLoneWaitMatchesSwitchPath(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		build := func(e *Env, log *stampLog) {
			rng := rand.New(rand.NewSource(seed))
			var body func(name string, steps int) func(p *Proc)
			body = func(name string, steps int) func(p *Proc) {
				return func(p *Proc) {
					for i := 0; i < steps; i++ {
						log.add(e, fmt.Sprintf("%s.%d", name, i))
						switch rng.Intn(8) {
						case 0:
							e.Schedule(Time(rng.Intn(4)), func() { log.add(e, name+".ev") })
						case 1:
							e.Schedule(Time(rng.Intn(4)), func() { log.add(e, name+".x") }).Cancel()
						case 2:
							e.Go(name+"c", body(name+"c", 1+rng.Intn(3)))
						}
						p.Wait(Time(rng.Intn(4)))
					}
				}
			}
			for i := 0; i < 1+rng.Intn(3); i++ {
				e.Go(fmt.Sprint(i), body(fmt.Sprint(i), 1+rng.Intn(6)))
			}
		}
		var lone, ref stampLog
		e := NewEnv()
		build(e, &lone)
		if err := e.Run(Infinity); err != nil {
			t.Fatal(err)
		}
		ss := NewShardSet(1, Infinity, 1)
		build(ss.Shard(0), &ref)
		if err := ss.Run(Infinity); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lone, ref) {
			t.Fatalf("seed %d: Env.Run order\n%v\nswitch-path order\n%v", seed, lone, ref)
		}
	}
}
