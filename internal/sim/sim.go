// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every higher layer of this repository — the simulated machine, the
// kernel, the Copier service and the application workloads — runs on top
// of this package. Time is virtual and measured in CPU cycles
// (sim.Time). Simulation processes are coroutines (iter.Pull): the
// event loop resumes one, and it runs until it blocks and switches
// straight back, so exactly one process runs at any instant; combined
// with a strictly ordered event heap this makes every run bit-for-bit
// reproducible.
//
// The design mirrors classic process-based simulators (SimPy, OMNeT++):
//
//   - Env owns the virtual clock and the event heap (a typed 4-ary
//     index heap with slot recycling — see eventq.go; the steady-state
//     schedule/pop cycle does not allocate).
//   - Proc is a coroutine; it advances time with Wait, or blocks on a
//     Signal/Queue until another process wakes it.
//   - Events scheduled for the same instant fire in scheduling order
//     (a monotone sequence number breaks ties), never concurrently.
package sim

import (
	"fmt"
	"iter"
	"sort"

	"copier/internal/obs"
)

// Time is a point in virtual time, measured in CPU cycles.
type Time int64

// Infinity is a time later than any event the simulator will produce.
const Infinity Time = 1<<63 - 1

// EventHandle allows a scheduled event to be canceled before it fires.
// Handles identify events by sequence number, so a handle outliving
// its event (whose arena slot may have been recycled) cancels nothing.
type EventHandle struct {
	q    *eventQueue
	slot int32
	seq  uint64
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op.
func (h EventHandle) Cancel() {
	if h.q == nil {
		return
	}
	if ev := &h.q.arena[h.slot]; ev.seq == h.seq {
		ev.canceled = true
	}
}

// Env is a simulation environment: a virtual clock plus an event heap.
// It is not safe for concurrent use from outside the simulation; all
// interaction happens from process bodies or between Run calls.
type Env struct {
	now     Time
	events  eventQueue
	seq     uint64
	procs   []*Proc // all spawned, for deadlock diagnosis
	nlive   int     // procs started and not yet finished
	running bool
	// horizon is Run's until while Run drives the loop, and -1
	// otherwise (before and between Run calls, and inside a ShardSet
	// window). Proc.Wait resumes a lone waiter without a switch only
	// up to it.
	horizon Time
	tracer  func(t Time, format string, args ...any)
	rec     *obs.Recorder
}

// OnNewEnv, when non-nil, is invoked on every environment NewEnv
// returns. The benchmark harness uses it to attach one observability
// recorder to every environment an experiment creates, however deep.
var OnNewEnv func(*Env)

// NewEnv returns an empty environment at time zero.
func NewEnv() *Env {
	e := newEnv()
	if OnNewEnv != nil {
		OnNewEnv(e)
	}
	return e
}

// newEnv is the one constructor behind NewEnv, JobCtx.NewEnv and
// NewShardSet; it runs no hook.
func newEnv() *Env { return &Env{horizon: -1} }

// SetRecorder attaches a typed-event recorder. A nil recorder (the
// default) disables structured recording; every emission site in the
// stack guards on the nil pointer, keeping the disabled path to one
// load and branch.
func (e *Env) SetRecorder(r *obs.Recorder) { e.rec = r }

// Recorder returns the attached recorder, or nil.
func (e *Env) Recorder() *obs.Recorder { return e.rec }

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// SetTracer installs a trace function invoked by Proc.Tracef. A nil
// tracer (the default) disables tracing.
func (e *Env) SetTracer(fn func(t Time, format string, args ...any)) { e.tracer = fn }

// Tracer returns the installed trace function, or nil.
func (e *Env) Tracer() func(t Time, format string, args ...any) { return e.tracer }

// badDelay reports a negative delay out of line: keeping the fmt
// boxing in a helper keeps the noalloc schedule/wait paths free of
// escape-analysis hits from the (never-taken) panic branch.
//
//go:noinline
func badDelay(who string, d Time) {
	panic(fmt.Sprintf("sim: %s: negative delay %d", who, d))
}

// Schedule registers fn to run at now+d. It may be called from process
// bodies or before Run. fn runs in the event loop, not in a process
// context; it must not block.
//
//copier:noalloc
func (e *Env) Schedule(d Time, fn func()) EventHandle {
	if d < 0 {
		badDelay("Schedule", d)
	}
	seq := e.seq
	e.seq++
	slot := e.events.schedule(e.now+d, seq, fn)
	return EventHandle{q: &e.events, slot: slot, seq: seq}
}

// Proc is a simulation process (a coroutine). Exactly one Proc runs at
// a time; a Proc gives up control by calling Wait or by blocking on one
// of the synchronization primitives in this package.
type Proc struct {
	env  *Env
	name string
	// next resumes the body's coroutine until it yields or returns;
	// yieldFn, called from inside the body, suspends it. Both are set
	// when the proc starts.
	next    func() (struct{}, bool)
	yieldFn func(struct{}) bool
	// blockedOn is a human-readable reason set while the proc is
	// waiting on a Signal/Queue; used in deadlock reports.
	blockedOn string
	finished  bool
	started   bool
	// handoffFn is the pre-allocated Schedule target for every wake
	// path (Wait, Broadcast, Queue.Release), so the steady-state
	// sleep/wake cycle allocates nothing.
	handoffFn func()
	// waitEpoch numbers this proc's blocking episodes: bumped on entry
	// and exit of every Signal wait, so a stale waiter entry (left
	// behind by a timeout) can never match the current episode.
	waitEpoch uint64
	// sigWoken records that the current episode's signal broadcast;
	// valid only while waitEpoch identifies a live episode.
	sigWoken bool
}

// Go spawns a new process whose body is fn. The process begins running
// at the current instant (after already-scheduled events at this
// instant). fn receives its own *Proc. A panic in fn comes out of the
// Run call that resumed the process, with its original value.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name}
	p.handoffFn = p.handoff
	e.procs = append(e.procs, p)
	e.nlive++
	e.Schedule(0, func() {
		p.started = true
		if r := e.rec; r != nil {
			r.Emit(obs.Event{T: int64(e.now), Kind: obs.EvProcStart, Layer: obs.LayerSim, Track: "sim:procs", Name: p.name})
		}
		//copiervet:ignore det-go iter.Pull is the sim.Proc coroutine itself; next and yield switch control directly, so exactly one process runs at a time
		p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
			p.yieldFn = yield
			fn(p)
			p.finished = true
			p.env.nlive--
			if r := p.env.rec; r != nil {
				r.Emit(obs.Event{T: int64(p.env.now), Kind: obs.EvProcEnd, Layer: obs.LayerSim, Track: "sim:procs", Name: p.name})
			}
		})
		p.handoff()
	})
	return p
}

// handoff transfers control from the event loop to p and returns when
// p yields back or finishes. Must be called from the event loop.
func (p *Proc) handoff() { p.next() }

// yield gives control back to the event loop and returns when resumed.
func (p *Proc) yield() { p.yieldFn(struct{}{}) }

// Env returns the environment this process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Wait advances virtual time by d cycles from this process's
// perspective: the process sleeps and other events run meanwhile.
//
// A lone waiter is resumed without a coroutine switch: when Run drives
// the loop, now+d is within its until, and every pending event is
// strictly later than now+d, the wake-up Wait would schedule is the
// next event Run pops, so advancing the clock and returning is the
// same (at, seq) order. A pending event at exactly now+d (even a
// canceled one) forces the switch, because its older seq runs first.
//
//copier:noalloc
func (p *Proc) Wait(d Time) {
	if d < 0 {
		badDelay(p.name, d)
	}
	e := p.env
	if t := e.now + d; t <= e.horizon && (e.events.empty() || e.events.peekAt() > t) {
		e.now = t
		return
	}
	// Otherwise d == 0 still yields, so same-instant events run first.
	e.Schedule(d, p.handoffFn)
	p.yield()
}

// Tracef emits a trace line through the environment tracer, if any.
func (p *Proc) Tracef(format string, args ...any) {
	if p.env.tracer != nil {
		p.env.tracer(p.env.now, "["+p.name+"] "+format, args...)
	}
}

// enterWait opens a blocking episode and returns its epoch.
func (p *Proc) enterWait() uint64 {
	p.waitEpoch++
	p.sigWoken = false
	return p.waitEpoch
}

// exitWait closes the episode, invalidating any waiter-list entries
// still referencing it.
func (p *Proc) exitWait() { p.waitEpoch++ }

// Signal is a broadcast condition variable for simulation processes.
// Waiters are released in FIFO order at the instant of the broadcast.
type Signal struct {
	name    string
	blocked string // precomputed "signal:<name>" label, so Wait never concatenates
	waiters []sigWaiter
}

// sigWaiter records one blocking episode by value: epoch pins which
// episode the entry belongs to, so entries surviving a timeout are
// recognized as stale instead of waking the proc spuriously.
type sigWaiter struct {
	p     *Proc
	epoch uint64
}

// NewSignal returns a named signal (the name appears in deadlock
// reports).
func NewSignal(name string) *Signal { return &Signal{name: name, blocked: "signal:" + name} }

// Wait blocks p until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	epoch := p.enterWait()
	s.waiters = append(s.waiters, sigWaiter{p: p, epoch: epoch})
	p.blockedOn = s.blocked
	p.yield()
	p.exitWait()
	p.blockedOn = ""
}

// WaitTimeout blocks p until the next Broadcast or until d elapses,
// whichever comes first. It reports whether the broadcast fired
// (false means the wait timed out).
func (s *Signal) WaitTimeout(p *Proc, d Time) bool {
	epoch := p.enterWait()
	s.waiters = append(s.waiters, sigWaiter{p: p, epoch: epoch})
	h := p.env.Schedule(d, func() {
		if p.waitEpoch == epoch && !p.sigWoken {
			p.handoff()
		}
	})
	p.blockedOn = s.blocked
	p.yield()
	woken := p.sigWoken
	p.exitWait()
	p.blockedOn = ""
	if woken {
		h.Cancel()
		return true
	}
	return false
}

// Broadcast wakes all current waiters. Each waiter resumes at the
// current instant, in the order it called Wait. May be called from a
// process body or an event callback.
func (s *Signal) Broadcast(e *Env) {
	ws := s.waiters
	// Truncate in place: no proc runs during this loop (wakes are
	// scheduled, not immediate), so the backing array is reusable for
	// the next round of waiters without reallocating.
	s.waiters = s.waiters[:0]
	for _, w := range ws {
		if w.epoch != w.p.waitEpoch {
			continue // stale entry: that episode already timed out
		}
		w.p.sigWoken = true
		e.Schedule(0, w.p.handoffFn)
	}
}

// NWaiting reports how many processes are blocked on the signal.
func (s *Signal) NWaiting() int {
	n := 0
	for _, w := range s.waiters {
		if w.epoch == w.p.waitEpoch {
			n++
		}
	}
	return n
}

// Queue is a FIFO wait queue releasing one waiter per Release call —
// the building block for resources and run queues.
type Queue struct {
	name    string
	blocked string // precomputed "queue:<name>" label
	waiters []*Proc
}

// NewQueue returns a named FIFO wait queue.
func NewQueue(name string) *Queue { return &Queue{name: name, blocked: "queue:" + name} }

// Wait appends p and blocks until a Release reaches it.
func (q *Queue) Wait(p *Proc) {
	q.waiters = append(q.waiters, p)
	p.blockedOn = q.blocked
	p.yield()
	p.blockedOn = ""
}

// Release wakes the oldest waiter, if any, and reports whether one was
// woken.
func (q *Queue) Release(e *Env) bool {
	if len(q.waiters) == 0 {
		return false
	}
	w := q.waiters[0]
	q.waiters = q.waiters[1:]
	e.Schedule(0, w.handoffFn)
	return true
}

// Len reports the number of blocked processes.
func (q *Queue) Len() int { return len(q.waiters) }

// Resource is a counting semaphore with FIFO admission.
type Resource struct {
	name     string
	capacity int
	inUse    int
	q        *Queue
}

// NewResource returns a resource with the given capacity (>=1).
func NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{name: name, capacity: capacity, q: NewQueue("res:" + name)}
}

// Acquire obtains one unit, blocking in FIFO order if none is free.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity {
		r.inUse++
		return
	}
	r.q.Wait(p)
	// Woken by Release, which transferred the unit to us.
}

// Release returns one unit, waking the oldest waiter if any.
func (r *Resource) Release(e *Env) {
	if r.q.Release(e) {
		return // unit transferred directly to the waiter
	}
	if r.inUse == 0 {
		panic("sim: release of idle resource " + r.name)
	}
	r.inUse--
}

// InUse reports how many units are currently held.
func (r *Resource) InUse() int { return r.inUse }

// NQueued reports how many processes are waiting for a unit.
func (r *Resource) NQueued() int { return r.q.Len() }

// DeadlockError reports processes still blocked when the event heap
// drained.
type DeadlockError struct {
	At      Time
	Blocked []string // "name (reason)" per blocked process
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%d: %d blocked: %v", d.At, len(d.Blocked), d.Blocked)
}

// Run executes events until the heap is empty or the clock passes
// until (use Infinity for "run to completion"). It returns a
// *DeadlockError if the heap drained while processes remain blocked.
func (e *Env) Run(until Time) error {
	if e.running {
		panic("sim: Run reentered")
	}
	e.running = true
	e.horizon = until
	defer func() { e.running, e.horizon = false, -1 }()
	for !e.events.empty() {
		if e.events.peekAt() > until {
			e.now = until
			return nil
		}
		at, fn, canceled := e.events.pop()
		if canceled {
			continue
		}
		e.now = at
		fn()
	}
	if e.nlive > 0 {
		var blocked []string
		for _, p := range e.procs {
			if p.started && !p.finished {
				blocked = append(blocked, fmt.Sprintf("%s (%s)", p.name, p.blockedOn))
			}
		}
		sort.Strings(blocked)
		return &DeadlockError{At: e.now, Blocked: blocked}
	}
	return nil
}
