package core

import (
	"bytes"
	"testing"

	"copier/internal/mem"
	"copier/internal/sim"
	"copier/internal/topo"
	"copier/internal/units"
)

// numaHarness builds a sharded service over a multi-node machine with
// one service thread per node and one client homed on each node.
type numaHarness struct {
	env     *sim.Env
	pm      *mem.PhysMem
	svc     *Service
	clients []*Client
	spaces  []*mem.AddrSpace
}

func newNUMAHarness(t *testing.T, nodes int, cfg Config) *numaHarness {
	t.Helper()
	tp := topo.NUMA(nodes, 2, 32<<20)
	cfg.Topo = tp
	env := sim.NewEnv()
	pm := mem.NewPhysMem(tp.TotalMem())
	if err := pm.ConfigureNodes(nodes); err != nil {
		t.Fatal(err)
	}
	svc := NewService(env, pm, cfg)
	h := &numaHarness{env: env, pm: pm, svc: svc}
	for n := 0; n < nodes; n++ {
		as := mem.NewAddrSpace(pm)
		as.SetHomeNode(n)
		c := svc.NewClientOn("cl", as, as, nil, n)
		h.clients = append(h.clients, c)
		h.spaces = append(h.spaces, as)
	}
	return h
}

func (h *numaHarness) start() {
	for slot := 0; slot < h.svc.numNodes(); slot++ {
		s := slot
		h.env.Go("copierd", func(p *sim.Proc) {
			h.svc.ThreadMain(testCtx{p}, s)
		})
	}
}

func (h *numaHarness) run(t *testing.T, until sim.Time) {
	t.Helper()
	if err := h.env.Run(until); err != nil {
		t.Fatal(err)
	}
	h.svc.Stop()
	if err := h.env.Run(until + 10_000_000); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func (h *numaHarness) alloc(t *testing.T, node int, size int, fill byte) mem.VA {
	t.Helper()
	as := h.spaces[node]
	va := as.MMap(units.Bytes(size), mem.PermRead|mem.PermWrite, "buf")
	if _, err := as.Populate(va, units.Bytes(size), true); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteAt(va, bytes.Repeat([]byte{fill}, size)); err != nil {
		t.Fatal(err)
	}
	return va
}

// runFlatWorkload drives the same 12-task copy workload through a
// service configured by cfg and reports when the last task completed
// plus the executed-task count — the signature the flat-equivalence
// test compares.
func runFlatWorkload(t *testing.T, cfg Config) (sim.Time, int64, int64) {
	t.Helper()
	env := sim.NewEnv()
	pm := mem.NewPhysMem(64 << 20)
	svc := NewService(env, pm, cfg)
	as := mem.NewAddrSpace(pm)
	c := svc.NewClient("w", as, as, nil)

	const n = 48 << 10
	const tasks = 12
	type pair struct{ src, dst mem.VA }
	pairs := make([]pair, tasks)
	for i := range pairs {
		src := as.MMap(n, mem.PermRead|mem.PermWrite, "src")
		dst := as.MMap(n, mem.PermRead|mem.PermWrite, "dst")
		if _, err := as.Populate(src, n, true); err != nil {
			t.Fatal(err)
		}
		if _, err := as.Populate(dst, n, true); err != nil {
			t.Fatal(err)
		}
		pairs[i] = pair{src, dst}
	}
	var doneAt sim.Time
	done := 0
	env.Go("driver", func(p *sim.Proc) {
		for _, pr := range pairs {
			task := &Task{Src: pr.src, Dst: pr.dst, SrcAS: as, DstAS: as, Len: n}
			task.Handler = &Handler{Kernel: true, Fn: func() {
				done++
				doneAt = env.Now()
			}}
			if !c.SubmitCopy(task, false) {
				t.Error("submit failed")
			}
			p.Wait(2_000)
		}
	})
	env.Go("copierd", func(p *sim.Proc) {
		svc.ThreadMain(testCtx{p}, 0)
	})
	if err := env.Run(1_000_000_000); err != nil {
		t.Fatal(err)
	}
	svc.Stop()
	if err := env.Run(2_000_000_000); err != nil {
		t.Fatal(err)
	}
	if done != tasks {
		t.Fatalf("completed %d/%d tasks", done, tasks)
	}
	return doneAt, svc.Stats.TasksExecuted, svc.DMA().BytesCopied
}

// A single-node topology must reproduce the flat service cycle for
// cycle: same completion time, same stats, same engine traffic.
func TestSingleNodeTopologyMatchesFlatExactly(t *testing.T) {
	flatAt, flatExec, flatDMA := runFlatWorkload(t, DefaultConfig())

	cfg := DefaultConfig()
	cfg.Topo = topo.SingleNode(4, 64<<20)
	topoAt, topoExec, topoDMA := runFlatWorkload(t, cfg)

	if flatAt != topoAt {
		t.Errorf("completion time diverged: flat %d, single-node topo %d", flatAt, topoAt)
	}
	if flatExec != topoExec {
		t.Errorf("TasksExecuted diverged: flat %d, topo %d", flatExec, topoExec)
	}
	if flatDMA != topoDMA {
		t.Errorf("DMA bytes diverged: flat %d, topo %d", flatDMA, topoDMA)
	}
}

// Node-local traffic stays on the node's own engine: a client homed
// on node 2 copying node-2 memory must not touch any other engine.
func TestShardedServicePrefersLocalEngine(t *testing.T) {
	h := newNUMAHarness(t, 4, DefaultConfig())
	const n = 64 << 10
	src := h.alloc(t, 2, n, 0x5C)
	dst := h.alloc(t, 2, n, 0)
	task := &Task{Src: src, Dst: dst, SrcAS: h.spaces[2], DstAS: h.spaces[2], Len: n}
	if !h.clients[2].SubmitCopy(task, false) {
		t.Fatal("submit failed")
	}
	h.start()
	h.run(t, 50_000_000)
	if !task.Executed() {
		t.Fatal("task not executed")
	}
	if got := h.read(t, 2, dst, n); !bytes.Equal(got, bytes.Repeat([]byte{0x5C}, n)) {
		t.Fatal("data not copied")
	}
	for e, d := range h.svc.DMAs() {
		if e == 2 {
			if d.BytesCopied == 0 {
				t.Errorf("node-2 engine idle; DMA bytes went elsewhere")
			}
			continue
		}
		if d.BytesCopied != 0 {
			t.Errorf("engine %d copied %d bytes of node-2-local traffic", e, d.BytesCopied)
		}
	}
	if h.svc.Stats.RemoteSpills != 0 {
		t.Errorf("local workload spilled %d chunks", h.svc.Stats.RemoteSpills)
	}
}

func (h *numaHarness) read(t *testing.T, node int, va mem.VA, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	if err := h.spaces[node].ReadAt(va, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// Overloading one node's engine steers chunks to remote engines once
// the local queue's drain time exceeds the distance-scaled remote
// cost — and the spill counters record it.
func TestEngineSteeringSpillsUnderLoad(t *testing.T) {
	h := newNUMAHarness(t, 4, DefaultConfig())
	const n = 256 << 10
	const tasks = 6
	for i := 0; i < tasks; i++ {
		src := h.alloc(t, 0, n, byte(i+1))
		dst := h.alloc(t, 0, n, 0)
		task := &Task{Src: src, Dst: dst, SrcAS: h.spaces[0], DstAS: h.spaces[0], Len: n}
		if !h.clients[0].SubmitCopy(task, false) {
			t.Fatal("submit failed")
		}
	}
	h.start()
	h.run(t, 200_000_000)
	if h.svc.Stats.TasksExecuted != tasks {
		t.Fatalf("executed %d/%d", h.svc.Stats.TasksExecuted, tasks)
	}
	if h.svc.Stats.RemoteSpills == 0 {
		t.Error("no chunks spilled to remote engines under local overload")
	}
	if h.svc.Stats.RemoteDMABytes == 0 {
		t.Error("RemoteDMABytes not accounted")
	}
	var remote int64
	for e, d := range h.svc.DMAs() {
		if e != 0 {
			remote += d.BytesCopied
		}
	}
	if remote == 0 {
		t.Error("remote engines copied nothing despite recorded spills")
	}
}

// Per-core shard rings: tasks submitted via SubmitCopyOn are admitted
// in ring order and execute normally.
func TestQueueArraySubmitAndExecute(t *testing.T) {
	h := newNUMAHarness(t, 2, DefaultConfig())
	c := h.clients[1]
	c.EnableShards(4)
	const n = 16 << 10
	type buf struct{ src, dst mem.VA }
	bufs := make([]buf, 4)
	tasks := make([]*Task, 4)
	for i := range bufs {
		bufs[i] = buf{h.alloc(t, 1, n, byte(0x10+i)), h.alloc(t, 1, n, 0)}
		tasks[i] = &Task{Src: bufs[i].src, Dst: bufs[i].dst, SrcAS: h.spaces[1], DstAS: h.spaces[1], Len: n}
		tasks[i].Desc = NewDescriptor(tasks[i].Dst, tasks[i].Len, DefaultSegSize)
		if !c.SubmitCopyOn(i, tasks[i]) {
			t.Fatalf("shard submit %d failed", i)
		}
	}
	if got := c.Shards.Len(); got != 4 {
		t.Fatalf("Shards.Len = %d, want 4", got)
	}
	h.start()
	h.run(t, 50_000_000)
	for i, task := range tasks {
		if !task.Executed() {
			t.Errorf("shard task %d not executed", i)
		}
		want := bytes.Repeat([]byte{byte(0x10 + i)}, n)
		if !bytes.Equal(h.read(t, 1, bufs[i].dst, n), want) {
			t.Errorf("shard task %d data wrong", i)
		}
	}
}

// A full shard ring sheds: SubmitCopyOn returns false and the open-
// loop caller moves on.
func TestQueueArrayShedsWhenFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueLen = 2
	env := sim.NewEnv()
	pm := mem.NewPhysMem(4 << 20)
	svc := NewService(env, pm, cfg)
	as := mem.NewAddrSpace(pm)
	c := svc.NewClient("shed", as, as, nil)
	c.EnableShards(1)
	mk := func() *Task {
		task := &Task{Src: 0x1000, Dst: 0x2000, SrcAS: as, DstAS: as, Len: 64}
		task.Desc = NewDescriptor(task.Dst, task.Len, DefaultSegSize)
		return task
	}
	if !c.SubmitCopyOn(0, mk()) || !c.SubmitCopyOn(0, mk()) {
		t.Fatal("ring should hold 2 tasks")
	}
	if c.SubmitCopyOn(0, mk()) {
		t.Fatal("full ring accepted a third task")
	}
}

// Teardown reclaims queued shard tasks of a dead client.
func TestTeardownDrainsShardRings(t *testing.T) {
	h := newNUMAHarness(t, 2, DefaultConfig())
	c := h.clients[0]
	c.EnableShards(2)
	const n = 8 << 10
	for i := 0; i < 6; i++ {
		src := h.alloc(t, 0, n, 0xEE)
		dst := h.alloc(t, 0, n, 0)
		task := &Task{Src: src, Dst: dst, SrcAS: h.spaces[0], DstAS: h.spaces[0], Len: n}
		task.Desc = NewDescriptor(task.Dst, task.Len, DefaultSegSize)
		if !c.SubmitCopyOn(i%2, task) {
			t.Fatalf("submit %d failed", i)
		}
	}
	h.svc.KillClient(c)
	h.start()
	h.run(t, 50_000_000)
	if !c.Closed() {
		t.Fatal("client not closed by teardown")
	}
	if c.Shards.Len() != 0 {
		t.Fatalf("%d tasks leaked in shard rings", c.Shards.Len())
	}
	if h.svc.Stats.ReclaimedTasks == 0 {
		t.Error("teardown reclaimed nothing")
	}
}

// Alloc pin: the per-core submit path must not allocate (satellite:
// //copier:noalloc discipline extends to the queue arrays).
func TestSubmitCopyOnAllocFree(t *testing.T) {
	env := sim.NewEnv()
	pm := mem.NewPhysMem(4 << 20)
	svc := NewService(env, pm, DefaultConfig())
	as := mem.NewAddrSpace(pm)
	c := svc.NewClient("pin", as, as, nil)
	c.EnableShards(2)
	tasks := make([]*Task, 256)
	for i := range tasks {
		tasks[i] = &Task{Src: 0x1000, Dst: 0x2000, SrcAS: as, DstAS: as, Len: 64}
		tasks[i].Desc = NewDescriptor(tasks[i].Dst, tasks[i].Len, DefaultSegSize)
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		if !c.SubmitCopyOn(i&1, tasks[i]) {
			t.Fatal("submit failed")
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("SubmitCopyOn allocates %.1f objects per call, want 0", avg)
	}
}

// nopCtx runs service code outside any simulated thread: costs are
// dropped and nothing may block. It drives single serveOnce sweeps.
type nopCtx struct{ env *sim.Env }

func (c nopCtx) Exec(sim.Time)                           {}
func (c nopCtx) Block(*sim.Signal)                       { panic("nopCtx: Block") }
func (c nopCtx) BlockTimeout(*sim.Signal, sim.Time) bool { panic("nopCtx: BlockTimeout") }
func (c nopCtx) SpinUntil(*sim.Signal)                   { panic("nopCtx: SpinUntil") }
func (c nopCtx) Now() sim.Time                           { return c.env.Now() }
func (c nopCtx) Env() *sim.Env                           { return c.env }

// Alloc pin: an idle poll sweep of a sharded service with clients on
// every node allocates nothing, both one serveOnce at a time and as
// whole ThreadMain polling loops in virtual time. The NAPI budget is
// raised past the measured window so the threads only poll: the
// sleep itself goes through sim.Signal.WaitTimeout, outside core.
func TestIdleSweepAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NAPIBudget = 1 << 30
	h := newNUMAHarness(t, 4, cfg)
	for n := 0; n < 4; n++ {
		h.svc.NewClientOn("more", h.spaces[n], h.spaces[n], nil, n)
	}
	ctx := nopCtx{h.env}
	h.svc.activeThreads = 8
	sweep := func() {
		for slot := 0; slot < 8; slot++ {
			if h.svc.serveOnce(ctx, slot) {
				t.Fatalf("slot %d found work in an idle service", slot)
			}
		}
	}
	sweep()
	if avg := testing.AllocsPerRun(100, sweep); avg != 0 {
		t.Fatalf("idle serveOnce sweep allocates %.1f objects, want 0", avg)
	}

	h.svc.activeThreads = 0
	h.start()
	until := sim.Time(1_000_000)
	if err := h.env.Run(until); err != nil {
		t.Fatal(err)
	}
	sweeps := h.svc.Stats.PollSweeps
	avg := testing.AllocsPerRun(10, func() {
		until += 100_000
		if err := h.env.Run(until); err != nil {
			t.Fatal(err)
		}
	})
	if h.svc.Stats.PollSweeps == sweeps {
		t.Fatal("service threads did not poll")
	}
	if avg != 0 {
		t.Fatalf("idle ThreadMain polling allocates %.1f objects per 100k cycles, want 0", avg)
	}
	h.run(t, until)
}

// refClientsOf is clientsOf computed from scratch on every call, as
// it was before partitions were cached.
func refClientsOf(s *Service, slot int) []*Client {
	if nn := s.numNodes(); nn > 1 {
		node := slot % nn
		perNode := s.activeThreads / nn
		if perNode <= 0 {
			perNode = 1
		}
		rank := slot / nn
		var out []*Client
		i := 0
		for _, c := range s.clients {
			if c.Node != node {
				continue
			}
			if i%perNode == rank%perNode {
				out = append(out, c)
			}
			i++
		}
		return out
	}
	n := s.activeThreads
	if n <= 0 {
		n = 1
	}
	if n == 1 {
		return s.clients
	}
	var out []*Client
	for i, c := range s.clients {
		if i%n == slot {
			out = append(out, c)
		}
	}
	return out
}

// checkPartitions requires every slot's cached partition to equal a
// from-scratch recomputation, then leaves every slot's cache filled
// so the next change has stale entries to invalidate.
func checkPartitions(t *testing.T, s *Service, slots int, after string) {
	t.Helper()
	for slot := 0; slot < slots; slot++ {
		got, want := s.clientsOf(slot), refClientsOf(s, slot)
		if len(got) != len(want) {
			t.Fatalf("after %s: slot %d serves %d clients, want %d", after, slot, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("after %s: slot %d client %d = %s#%d, want %s#%d", after, slot, i,
					got[i].Name, got[i].ID, want[i].Name, want[i].ID)
			}
		}
	}
}

func TestClientPartitionCache(t *testing.T) {
	t.Run("sharded", func(t *testing.T) {
		h := newNUMAHarness(t, 4, DefaultConfig())
		s, ctx := h.svc, nopCtx{h.env}
		s.activeThreads = 8
		checkPartitions(t, s, 8, "setup")
		s.NewClient("flat", h.spaces[0], h.spaces[0], nil)
		checkPartitions(t, s, 8, "NewClient")
		var victims []*Client
		for n := 3; n >= 0; n-- {
			victims = append(victims, s.NewClientOn("on", h.spaces[n], h.spaces[n], nil, n))
			checkPartitions(t, s, 8, "NewClientOn")
		}
		for _, c := range []*Client{h.clients[2], victims[1], victims[3]} {
			s.KillClient(c)
			for slot := 0; slot < 8; slot++ {
				s.serveOnce(ctx, slot)
			}
			if !c.Closed() {
				t.Fatalf("%s#%d not torn down", c.Name, c.ID)
			}
			checkPartitions(t, s, 8, "KillClient")
		}
		s.activeThreads = 4
		checkPartitions(t, s, 8, "a thread-count change")
	})
	t.Run("flat-autoscale", func(t *testing.T) {
		h := newHarness(t, Config{EnableDMA: true, MaxThreads: 4})
		s := h.svc
		for i := 0; i < 6; i++ {
			s.NewClient("extra", h.uas, h.kas, nil)
		}
		s.activeThreads = 1
		checkPartitions(t, s, 4, "setup")
		// Backlog above HighLoad with a parked thread: autoscale
		// unparks one per call.
		s.parked = 1
		s.backlogBytes = 64 << 20
		for want := 2; want <= 4; want++ {
			s.autoscale()
			if s.activeThreads != want {
				t.Fatalf("activeThreads = %d, want %d", s.activeThreads, want)
			}
			checkPartitions(t, s, 4, "scale-up")
		}
		s.NewClient("late", h.uas, h.kas, nil)
		checkPartitions(t, s, 4, "NewClient at 4 threads")
		s.backlogBytes = 0
		for want := 3; want >= 1; want-- {
			s.autoscale()
			if s.activeThreads != want {
				t.Fatalf("activeThreads = %d, want %d", s.activeThreads, want)
			}
			checkPartitions(t, s, 4, "scale-down")
		}
	})
}
