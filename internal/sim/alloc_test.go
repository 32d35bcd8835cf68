package sim

import "testing"

// TestScheduleRunAllocFree pins the //copier:noalloc contract on the
// event loop dynamically: copiervet's alloclint proves no value
// *escapes* inside schedule/pop, and this test proves the whole warm
// cycle — including arena and free-list reuse — performs zero heap
// allocations per event.
func TestScheduleRunAllocFree(t *testing.T) {
	env := NewEnv()
	nop := func() {}
	// Warm the arena, free list and heap slice past steady state.
	for i := 0; i < 64; i++ {
		env.Schedule(Time(i), nop)
	}
	if err := env.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		env.Schedule(1, nop)
		if err := env.Run(Infinity); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("warm schedule/pop cycle allocates %.2f per event; want 0", avg)
	}
}

// TestProcWaitAllocFree pins the steady-state hand-off: a warm
// Wait — schedule, yield to the event loop, pop, resume — allocates
// nothing.
func TestProcWaitAllocFree(t *testing.T) {
	e := NewEnv()
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Wait(1)
		}
	})
	// Start the proc and warm the event arena.
	if err := e.Run(64); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := e.Run(e.Now() + 1); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("warm Wait/hand-off cycle allocates %.2f per wait; want 0", avg)
	}
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
}
