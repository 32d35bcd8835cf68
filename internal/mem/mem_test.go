package mem

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"copier/internal/units"
)

func newPM() *PhysMem { return NewPhysMem(4 << 20) } // 1024 frames

func TestPhysAllocFreeCycle(t *testing.T) {
	pm := newPM()
	total := pm.NumFrames()
	fs, err := pm.AllocFrames(10)
	if err != nil {
		t.Fatal(err)
	}
	if pm.FreeFrames() != total-10 {
		t.Fatalf("free = %d", pm.FreeFrames())
	}
	for _, f := range fs {
		if pm.RefCount(f) != 1 {
			t.Fatalf("refcnt = %d", pm.RefCount(f))
		}
		pm.DecRef(f)
	}
	if pm.FreeFrames() != total {
		t.Fatalf("leak: free = %d of %d", pm.FreeFrames(), total)
	}
}

func TestPhysContiguousPolicy(t *testing.T) {
	pm := newPM()
	fs, err := pm.AllocFrames(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(fs); i++ {
		if !Contiguous(fs[i-1], fs[i]) {
			t.Fatalf("contiguous policy produced gap: %v", fs)
		}
	}
}

// TestContiguousFirstFitOrder pins the first-fit choices the
// contiguous policy makes as frames are freed below, inside and above
// the allocated prefix: the lowest free frame is always taken first,
// and a multi-frame run skips holes too short for it.
func TestContiguousFirstFitOrder(t *testing.T) {
	pm := NewPhysMem(16 * PageSize)
	if _, err := pm.AllocFrames(10); err != nil {
		t.Fatal(err)
	}
	var got []Frame
	for i, n := range []int{1, 1, 2, 1, 3, 1} {
		if i == 1 { // free below frames the allocator has passed over
			for _, f := range []Frame{7, 2, 4, 5} {
				pm.DecRef(f)
			}
		}
		fs, err := pm.AllocFrames(units.Pages(n))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fs...)
	}
	want := []Frame{10, 2, 4, 5, 7, 11, 12, 13, 14}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frames %v, want %v", got, want)
	}
	if pm.FreeFrames() != 1 {
		t.Fatalf("free frames %d, want 1", pm.FreeFrames())
	}
}

func TestPhysFragmentedPolicy(t *testing.T) {
	pm := newPM()
	pm.SetPolicy(AllocFragmented)
	fs, err := pm.AllocFrames(8)
	if err != nil {
		t.Fatal(err)
	}
	adjacent := 0
	for i := 1; i < len(fs); i++ {
		if Contiguous(fs[i-1], fs[i]) {
			adjacent++
		}
	}
	if adjacent > 1 {
		t.Fatalf("fragmented policy produced %d adjacent pairs: %v", adjacent, fs)
	}
}

func TestPhysExhaustion(t *testing.T) {
	pm := NewPhysMem(8 * PageSize)
	if _, err := pm.AllocFrames(9); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("err = %v, want ErrNoMemory", err)
	}
	if pm.FreeFrames() != 8 {
		t.Fatalf("failed alloc leaked frames: %d", pm.FreeFrames())
	}
}

// TestFrameZeroedOnAlloc: every frame freed after being dirtied reads
// back as zeros when taken again.
func TestFrameZeroedOnAlloc(t *testing.T) {
	const n = 67
	pm := NewPhysMem(n * PageSize)
	fs, err := pm.AllocFrames(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		b := pm.FrameBytes(f)
		if len(b) != PageSize {
			t.Fatalf("frame %d has %d bytes", f, len(b))
		}
		for i := range b {
			b[i] = byte(f) | 1
		}
	}
	for _, f := range fs {
		pm.DecRef(f)
	}
	again, err := pm.AllocFrames(n)
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, PageSize)
	for _, f := range again {
		if !bytes.Equal(pm.FrameBytes(f), zero) {
			t.Fatalf("reused frame %d not zeroed", f)
		}
	}
}

func TestDemandPagingAndRW(t *testing.T) {
	pm := newPM()
	as := NewAddrSpace(pm)
	va := as.MMap(3*PageSize, PermRead|PermWrite, "heap")
	if as.PTEOf(va) != nil {
		t.Fatal("page present before first touch")
	}
	msg := []byte("hello across a page boundary")
	addr := va + VA(PageSize-10)
	if err := as.WriteAt(addr, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := as.ReadAt(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
	if as.Faults[FaultDemandZero] != 2 {
		t.Fatalf("demand-zero faults = %d, want 2", as.Faults[FaultDemandZero])
	}
}

func TestClassify(t *testing.T) {
	pm := newPM()
	as := NewAddrSpace(pm)
	ro := as.MMap(PageSize, PermRead, "ro")
	rw := as.MMap(PageSize, PermRead|PermWrite, "rw")
	if k := as.Classify(rw, false); k != FaultDemandZero {
		t.Fatalf("untouched rw read = %v", k)
	}
	if k := as.Classify(ro, true); k != FaultPermission {
		t.Fatalf("ro write = %v", k)
	}
	if k := as.Classify(VA(0x1234), false); k != FaultBadAddress {
		t.Fatalf("wild = %v", k)
	}
	if err := as.WriteAt(rw, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if k := as.Classify(rw, true); k != FaultNone {
		t.Fatalf("present write = %v", k)
	}
}

func TestGuardPageBetweenVMAs(t *testing.T) {
	pm := newPM()
	as := NewAddrSpace(pm)
	a := as.MMap(PageSize, PermRead|PermWrite, "a")
	_ = as.MMap(PageSize, PermRead|PermWrite, "b")
	if err := as.WriteAt(a+PageSize, []byte{1}); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("guard page writable: %v", err)
	}
}

func TestForkCoWSemantics(t *testing.T) {
	pm := newPM()
	parent := NewAddrSpace(pm)
	va := parent.MMap(2*PageSize, PermRead|PermWrite, "data")
	if err := parent.WriteAt(va, []byte("parent data")); err != nil {
		t.Fatal(err)
	}
	child := parent.Fork()

	// Both see the same data, same frame.
	pf, _, _ := parent.Translate(va)
	cf, _, _ := child.Translate(va)
	if pf != cf {
		t.Fatal("fork did not share frames")
	}
	if pm.RefCount(pf) != 2 {
		t.Fatalf("refcnt = %d, want 2", pm.RefCount(pf))
	}

	// Child write breaks CoW; parent unaffected.
	if err := child.WriteAt(va, []byte("child!")); err != nil {
		t.Fatal(err)
	}
	if child.Faults[FaultCoW] != 1 {
		t.Fatalf("child CoW faults = %d", child.Faults[FaultCoW])
	}
	cf2, _, _ := child.Translate(va)
	if cf2 == pf {
		t.Fatal("CoW break did not allocate new frame")
	}
	buf := make([]byte, 11)
	if err := parent.ReadAt(va, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "parent data" {
		t.Fatalf("parent sees %q", buf)
	}
	// The child's copy holds the pre-write contents beyond the write.
	cbuf := make([]byte, 11)
	if err := child.ReadAt(va, cbuf); err != nil {
		t.Fatal(err)
	}
	if string(cbuf) != "child! data" {
		t.Fatalf("child sees %q", cbuf)
	}
}

func TestCoWSoleOwnerFastPath(t *testing.T) {
	pm := newPM()
	parent := NewAddrSpace(pm)
	va := parent.MMap(PageSize, PermRead|PermWrite, "d")
	if err := parent.WriteAt(va, []byte("x")); err != nil {
		t.Fatal(err)
	}
	child := parent.Fork()
	f0, _, _ := parent.Translate(va)
	// Drop the child's reference by unmapping.
	if err := child.MUnmap(va); err != nil {
		t.Fatal(err)
	}
	// Parent write: sole owner, no copy should happen.
	kind, copied, err := parent.HandleFault(va, true)
	if err != nil || kind != FaultCoW || copied != 0 {
		t.Fatalf("kind=%v copied=%d err=%v", kind, copied, err)
	}
	f1, _, _ := parent.Translate(va)
	if f1 != f0 {
		t.Fatal("sole-owner CoW reallocated frame")
	}
}

func TestPinPreventsRemapAndCoWBreak(t *testing.T) {
	pm := newPM()
	as := NewAddrSpace(pm)
	va := as.MMap(PageSize, PermRead|PermWrite, "buf")
	if err := as.WriteAt(va, []byte("z")); err != nil {
		t.Fatal(err)
	}
	if err := as.Pin(va, PageSize); err != nil {
		t.Fatal(err)
	}
	nf, _ := pm.AllocFrame()
	if err := as.ReplacePage(va, nf); err == nil {
		t.Fatal("remap of pinned page succeeded")
	}
	pm.DecRef(nf)
	as.Unpin(va, PageSize)
	nf2, _ := pm.AllocFrame()
	if err := as.ReplacePage(va, nf2); err != nil {
		t.Fatalf("remap after unpin: %v", err)
	}
	pm.DecRef(nf2)
}

func TestPinNonPresentFails(t *testing.T) {
	pm := newPM()
	as := NewAddrSpace(pm)
	va := as.MMap(2*PageSize, PermRead|PermWrite, "buf")
	if err := as.WriteAt(va, []byte("z")); err != nil {
		t.Fatal(err)
	}
	// Second page untouched: pin must fail and roll back the first.
	if err := as.Pin(va, 2*PageSize); err == nil {
		t.Fatal("pin of non-present page succeeded")
	}
	if as.PTEOf(va).Pinned != 0 {
		t.Fatal("failed pin left first page pinned")
	}
}

func TestContigRun(t *testing.T) {
	pm := newPM()
	as := NewAddrSpace(pm)
	va := as.MMap(8*PageSize, PermRead|PermWrite, "big")
	if _, err := as.Populate(va, 8*PageSize, true); err != nil {
		t.Fatal(err)
	}
	// Contiguous policy: the whole run should be contiguous.
	if run := as.ContigRun(va, 8*PageSize); run != 8*PageSize {
		t.Fatalf("run = %d, want full", run)
	}
	// From mid-page.
	if run := as.ContigRun(va+100, 1000); run != 1000 {
		t.Fatalf("mid-page capped run = %d", run)
	}
	// Break contiguity by remapping page 4.
	nf, _ := pm.AllocFrame()
	if err := as.ReplacePage(va+4*PageSize, nf); err != nil {
		t.Fatal(err)
	}
	pm.DecRef(nf)
	if run := as.ContigRun(va, 8*PageSize); run != 4*PageSize {
		t.Fatalf("run after remap = %d, want %d", run, 4*PageSize)
	}
}

func TestContigRunFragmented(t *testing.T) {
	pm := newPM()
	pm.SetPolicy(AllocFragmented)
	as := NewAddrSpace(pm)
	va := as.MMap(4*PageSize, PermRead|PermWrite, "frag")
	if _, err := as.Populate(va, 4*PageSize, true); err != nil {
		t.Fatal(err)
	}
	if run := as.ContigRun(va, 4*PageSize); run != PageSize {
		t.Fatalf("fragmented run = %d, want one page", run)
	}
}

func TestMappingChangeNotification(t *testing.T) {
	pm := newPM()
	as := NewAddrSpace(pm)
	va := as.MMap(PageSize, PermRead|PermWrite, "buf")
	if err := as.WriteAt(va, []byte("x")); err != nil {
		t.Fatal(err)
	}
	var notified []uint64
	as.OnMappingChange(func(vpn uint64) { notified = append(notified, vpn) })
	nf, _ := pm.AllocFrame()
	if err := as.ReplacePage(va, nf); err != nil {
		t.Fatal(err)
	}
	pm.DecRef(nf)
	if len(notified) != 1 || notified[0] != va.Page() {
		t.Fatalf("notified = %v", notified)
	}
	if err := as.MUnmap(va); err != nil {
		t.Fatal(err)
	}
	if len(notified) != 2 {
		t.Fatalf("unmap not notified: %v", notified)
	}
}

func TestMMapSharedCrossSpace(t *testing.T) {
	pm := newPM()
	a := NewAddrSpace(pm)
	b := NewAddrSpace(pm)
	va := a.MMap(2*PageSize, PermRead|PermWrite, "shm")
	if _, err := a.Populate(va, 2*PageSize, true); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteAt(va, []byte("shared payload")); err != nil {
		t.Fatal(err)
	}
	frames, err := a.FramesOf(va, 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	vb := b.MMapShared(frames, PermRead, "shm-ro")
	buf := make([]byte, 14)
	if err := b.ReadAt(vb, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "shared payload" {
		t.Fatalf("b sees %q", buf)
	}
	// Writes through a are visible in b (same frames).
	if err := a.WriteAt(va, []byte("UPDATE")); err != nil {
		t.Fatal(err)
	}
	if err := b.ReadAt(vb, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:6]) != "UPDATE" {
		t.Fatalf("b sees %q after update", buf)
	}
	// b cannot write a read-only shared mapping.
	if err := b.WriteAt(vb, []byte{1}); !errors.Is(err, ErrPermission) {
		t.Fatalf("ro write err = %v", err)
	}
}

func TestVAHelpers(t *testing.T) {
	v := VA(5*PageSize + 17)
	if v.Page() != 5 || v.Offset() != 17 || v.PageAligned() {
		t.Fatalf("VA helpers wrong: page=%d off=%d", v.Page(), v.Offset())
	}
	if !VA(2 * PageSize).PageAligned() {
		t.Fatal("aligned VA not detected")
	}
}

func TestFaultKindStrings(t *testing.T) {
	for k := FaultNone; k <= FaultPermission; k++ {
		if k.String() == "fault?" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

// Property: WriteAt then ReadAt round-trips arbitrary data at arbitrary
// in-VMA offsets.
func TestReadWriteRoundTripProperty(t *testing.T) {
	pm := NewPhysMem(16 << 20)
	as := NewAddrSpace(pm)
	const vmaLen = 64 * PageSize
	va := as.MMap(vmaLen, PermRead|PermWrite, "prop")
	f := func(off uint16, data []byte) bool {
		o := int64(off) % (vmaLen - int64(len(data)) - 1)
		if o < 0 {
			o = 0
		}
		if err := as.WriteAt(va+VA(o), data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := as.ReadAt(va+VA(o), got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: fork + divergent writes never corrupt the sibling.
func TestForkIsolationProperty(t *testing.T) {
	f := func(parentWrites, childWrites []byte) bool {
		pm := NewPhysMem(8 << 20)
		p := NewAddrSpace(pm)
		va := p.MMap(4*PageSize, PermRead|PermWrite, "d")
		base := bytes.Repeat([]byte{0xAB}, 2*PageSize)
		if err := p.WriteAt(va, base); err != nil {
			return false
		}
		c := p.Fork()
		if len(parentWrites) > 0 {
			if err := p.WriteAt(va+100, parentWrites); err != nil {
				return false
			}
		}
		if len(childWrites) > 0 {
			if err := c.WriteAt(va+200, childWrites); err != nil {
				return false
			}
		}
		pb := make([]byte, 2*PageSize)
		cb := make([]byte, 2*PageSize)
		if p.ReadAt(va, pb) != nil || c.ReadAt(va, cb) != nil {
			return false
		}
		wantP := append([]byte{}, base...)
		copy(wantP[100:], parentWrites)
		wantC := append([]byte{}, base...)
		copy(wantC[200:], childWrites)
		return bytes.Equal(pb, wantP) && bytes.Equal(cb, wantC)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFramesOfAndShared(t *testing.T) {
	pm := newPM()
	as := NewAddrSpace(pm)
	va := as.MMap(3*PageSize, PermRead|PermWrite, "x")
	if _, err := as.FramesOf(va, 3*PageSize); !errors.Is(err, ErrBadAddress) {
		t.Fatal("FramesOf of unpopulated range succeeded")
	}
	if _, err := as.Populate(va, 3*PageSize, true); err != nil {
		t.Fatal(err)
	}
	fs, err := as.FramesOf(va, 3*PageSize)
	if err != nil || len(fs) != 3 {
		t.Fatalf("frames = %v err = %v", fs, err)
	}
}

func TestMUnmapUnknown(t *testing.T) {
	pm := newPM()
	as := NewAddrSpace(pm)
	if err := as.MUnmap(VA(0xdead000)); err == nil {
		t.Fatal("munmap of unknown VMA succeeded")
	}
}

// TestPhysMemBacksLazily: a 1 GB physical memory costs host memory for
// its allocator tables and the frames a run touches, not for all of
// its frames.
func TestPhysMemBacksLazily(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pm := NewPhysMem(1 << 30)
	if _, err := pm.AllocFrame(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 8<<20 {
		t.Fatalf("NewPhysMem(1 GB) + one AllocFrame allocated %d bytes; want < 8 MB", d)
	}
	runtime.KeepAlive(pm)
}

// TestUntouchedFramesStayUnbacked: taking frames backs none of them; a
// frame is backed by the first FrameBytes on it and by nothing else,
// so a buffer allocated larger than the data written into it costs
// host memory only for the written frames.
func TestUntouchedFramesStayUnbacked(t *testing.T) {
	pm := NewPhysMem(64 * PageSize)
	fs, err := pm.AllocFrames(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs[:5] {
		pm.FrameBytes(f)[0] = 1
	}
	backed := 0
	for _, pg := range pm.pages {
		if pg != nil {
			backed++
		}
	}
	if backed != 5 {
		t.Fatalf("%d frames backed, want the 5 written", backed)
	}
	for _, f := range fs {
		pm.DecRef(f)
	}
	again, err := pm.AllocFrames(8)
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, PageSize)
	for _, f := range again {
		if !bytes.Equal(pm.FrameBytes(f), zero) {
			t.Fatalf("frame %d not zero after reuse", f)
		}
	}
}

// TestFragmentedStripingPinned pins the AllocFragmented frame sequence
// (stride 2, phase shift after wrap, reuse of freed frames) and an
// audit over a large lazily backed memory to the values the eagerly
// backed allocator produced.
func TestFragmentedStripingPinned(t *testing.T) {
	seq := func(from, to, step int) []Frame {
		var out []Frame
		for f := from; f <= to; f += step {
			out = append(out, Frame(f))
		}
		return out
	}
	pm := NewPhysMem(200 * PageSize)
	pm.SetPolicy(AllocFragmented)
	a, _ := pm.AllocFrames(70)
	b, _ := pm.AllocFrames(40)
	for _, f := range a[10:30] {
		pm.DecRef(f)
	}
	c, _ := pm.AllocFrames(60)
	for _, tc := range []struct {
		name      string
		got, want []Frame
	}{
		{"first", a, seq(0, 138, 2)},
		{"wrap", b, append(seq(140, 198, 2), seq(1, 19, 2)...)},
		{"after free", c, seq(21, 139, 2)},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s: frames %v, want %v", tc.name, tc.got, tc.want)
		}
	}
	if pm.FreeFrames() != 50 {
		t.Errorf("free frames %d, want 50", pm.FreeFrames())
	}

	big := NewPhysMem(1 << 30)
	big.SetPolicy(AllocFragmented)
	as := NewAddrSpace(big)
	va := as.MMap(100*PageSize, PermRead|PermWrite, "buf")
	if n, err := as.Populate(va, 100*PageSize, true); err != nil || n != 100 {
		t.Fatalf("Populate = %d, %v", n, err)
	}
	if err := as.Pin(va+60*PageSize, 10*PageSize); err != nil {
		t.Fatal(err)
	}
	if r := as.AuditLeaks(); r != (LeakReport{PinnedPages: 10, PinCount: 10, MappedPages: 100, VMAs: 1}) {
		t.Errorf("audit %+v", r)
	}
	fs, err := as.FramesOf(va+60*PageSize, 10*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if want := seq(120, 138, 2); !reflect.DeepEqual(fs, want) {
		t.Errorf("pinned frames %v, want %v", fs, want)
	}
	if big.FreeFrames() != 262044 {
		t.Errorf("free frames %d, want 262044", big.FreeFrames())
	}
	msg := []byte("crosses a page boundary")
	at := va + 64*PageSize - 5
	if err := as.WriteAt(at, msg); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, len(msg))
	if err := as.ReadAt(at, back); err != nil || !bytes.Equal(back, msg) {
		t.Fatalf("read back %q, %v", back, err)
	}
}
