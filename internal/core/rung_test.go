package core

import (
	"testing"

	"copier/internal/cycles"
	"copier/internal/mem"
	"copier/internal/sim"
)

// parkedTask is a lazy copy far from expiry: admitted, never
// dispatched, so a sweep's effect on it is admission alone.
func parkedTask(h *harness, dst mem.VA) *Task {
	return &Task{SrcAS: h.uas, DstAS: h.uas, Dst: dst, Len: 64, Lazy: true, LazyDeadline: 1 << 40}
}

// A client that is quiet when a sweep starts but is rung while the
// sweep admits an earlier client is admitted in that same sweep: the
// admit pass checks rung at each client, not from a list taken at
// sweep start.
func TestSweepAdmitsClientRungMidSweep(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	late := h.svc.NewClient("late", h.uas, h.kas, nil)
	if !h.c.SubmitCopy(parkedTask(h, 0), false) {
		t.Fatal("submit failed")
	}
	if late.rung || !h.c.rung {
		t.Fatalf("rung before the sweep: first %v, late %v", h.c.rung, late.rung)
	}
	h.env.Go("submitter", func(p *sim.Proc) {
		// Lands inside the first client's admit drain (popCost yield).
		p.Wait(cycles.TaskPop / 2)
		if !late.SubmitCopy(parkedTask(h, 0), false) {
			t.Error("late submit failed")
		}
	})
	var worked bool
	h.env.Go("copierd", func(p *sim.Proc) { worked = h.svc.serveOnce(testCtx{p}, 0) })
	if err := h.env.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	if !worked {
		t.Fatal("sweep reported no work")
	}
	for _, c := range []*Client{h.c, late} {
		if c.PendingTasks() != 1 || c.U.Copy.Len() != 0 {
			t.Errorf("%s: pending %d, ring %d after one sweep; want admitted", c.Name, c.PendingTasks(), c.U.Copy.Len())
		}
		if c.rung {
			t.Errorf("%s: still rung with every ring empty", c.Name)
		}
	}
}

// A trap barrier caps user admissions; the capped user task keeps the
// client rung, sweep after sweep, until the return barrier lifts the
// cap and admit finds every ring empty.
func TestBarrierCapKeepsClientRung(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	ctx := nopCtx{h.env}
	h.c.SubmitBarrier(false)
	if !h.c.SubmitCopy(parkedTask(h, 0), false) {
		t.Fatal("submit failed")
	}
	for i := 0; i < 3; i++ {
		h.svc.serveOnce(ctx, 0)
		if !h.c.rung || h.c.U.Copy.Len() != 1 || h.c.PendingTasks() != 0 {
			t.Fatalf("sweep %d under the cap: rung %v, ring %d, pending %d; want rung, 1 queued, 0 admitted",
				i, h.c.rung, h.c.U.Copy.Len(), h.c.PendingTasks())
		}
	}
	h.c.SubmitBarrier(true)
	h.svc.serveOnce(ctx, 0)
	if h.c.rung || h.c.U.Copy.Len() != 0 || h.c.PendingTasks() != 1 {
		t.Fatalf("after the return barrier: rung %v, ring %d, pending %d; want quiet rings, 1 admitted",
			h.c.rung, h.c.U.Copy.Len(), h.c.PendingTasks())
	}
}

// A queued Sync Task keeps the client rung through admit, so the sync
// passes of the same sweep still serve it.
func TestSyncTaskKeepsClientRung(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	ctx := nopCtx{h.env}
	task := parkedTask(h, 0x1000)
	if !h.c.SubmitCopy(task, false) {
		t.Fatal("submit failed")
	}
	if !h.c.SubmitAbort(0x1000, 64, false) {
		t.Fatal("abort submit failed")
	}
	h.svc.serveOnce(ctx, 0)
	if !task.Aborted() || h.c.U.Sync.Len() != 0 {
		t.Fatalf("abort not served in the admitting sweep: aborted %v, sync ring %d", task.Aborted(), h.c.U.Sync.Len())
	}
	if h.c.rung {
		t.Fatal("still rung with every ring empty")
	}
}
