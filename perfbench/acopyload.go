package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime/debug"
	"time"

	"copier/internal/acopy"
	"copier/internal/units"
)

// The acopy workload: real-hardware asynchronous copies, with no
// simulator code. Each operation copies one buffer with AMemcpy and
// consumes it chunk by chunk behind CSync; the sync control is a plain
// copy followed by the same consume. The two run in alternating blocks
// per size so that host drift cancels in their ratio. Small copies are
// bound by hand-off cost and large ones by memory bandwidth.

// acopyChunk is the consume granularity behind CSync.
const acopyChunk = 64 << 10

// acopyRTTOps is the number of 4 KB AMemcpy→Wait round trips timed
// one by one in each cycle; they feed the latency metrics.
const acopyRTTOps = 256

// acopyRTTBlock is how many consecutive round trips share one exact
// p50 and p99. The run reports the median over its blocks, so that a
// burst of noise from other tenants of the host moves one block, not
// the run, and memory stays the same however many blocks fit. Each
// block's p99 has ten samples beyond it.
const acopyRTTBlock = minP99Samples

// acopySetups is how many times a run builds the copier and buffers;
// setup_s is their median.
const acopySetups = 11

type acopySize struct {
	name string
	n    int
	reps int // operations per block, about a millisecond each
}

var acopySizes = []acopySize{
	{"4k", 4 << 10, 512},
	{"64k", 64 << 10, 64},
	{"1m", 1 << 20, 4},
	{"8m", 8 << 20, 1},
}

// acopyBufs holds one size's buffers: two seeded sources, so that each
// operation changes the destination, and their expected checksums.
type acopyBufs struct {
	src  [2][]byte
	want [2]uint64
	dst  []byte
}

// phaseNs accumulates per-size host time by call, in traced runs.
type phaseNs struct {
	submit, csync, wait, consume, sync int64
	ops, syncOps                       int64
}

// consume folds p into a position-sensitive checksum: the per-byte
// work standing in for parsing what a copy delivered.
func consume(sum uint64, p []byte) uint64 {
	for i := 0; i+8 <= len(p); i += 8 {
		sum = bits.RotateLeft64(sum, 5) ^ binary.LittleEndian.Uint64(p[i:])
	}
	return sum
}

// consumeAll is the checksum of consuming b in acopyChunk pieces.
func consumeAll(b []byte) uint64 {
	var sum uint64
	for off := 0; off < len(b); off += acopyChunk {
		sum = consume(sum, b[off:min(off+acopyChunk, len(b))])
	}
	return sum
}

type acopyWorld struct {
	cp   *acopy.Copier
	bufs []acopyBufs
}

func newACopyWorld(seed uint64) *acopyWorld {
	w := &acopyWorld{cp: acopy.New(1), bufs: make([]acopyBufs, len(acopySizes))}
	for i, s := range acopySizes {
		b := &w.bufs[i]
		for j := range b.src {
			b.src[j] = make([]byte, s.n)
			fillPattern(b.src[j], lane(seed, 7, 2*i+j))
			b.want[j] = consumeAll(b.src[j])
		}
		b.dst = make([]byte, s.n)
		// Warm the destination and the copier's handle pool.
		h := w.cp.AMemcpy(b.dst, b.src[0])
		h.Wait()
		h.Release()
	}
	return w
}

// overlapOp copies src into dst asynchronously, consuming each chunk
// as soon as CSync reports it landed, and returns the checksum.
func (w *acopyWorld) overlapOp(dst, src []byte, tl *timeline, ph *phaseNs) (uint64, error) {
	tl.switchTo(kAMemcpy)
	h := w.cp.AMemcpy(dst, src)
	ph.submit += tl.switchTo(kCSync)
	var sum uint64
	for off := 0; off < len(dst); off += acopyChunk {
		end := min(off+acopyChunk, len(dst))
		h.CSync(units.Bytes(off), units.Bytes(end-off))
		ph.csync += tl.switchTo(kConsume)
		sum = consume(sum, dst[off:end])
		ph.consume += tl.switchTo(kCSync)
	}
	ph.csync += tl.switchTo(kWait)
	h.Wait()
	ph.wait += tl.switchTo(kBench)
	err := h.Err()
	h.Release()
	return sum, err
}

// syncOp is the control: a plain copy, then the same consume.
func syncOp(dst, src []byte, tl *timeline, ph *phaseNs) uint64 {
	tl.switchTo(kSyncCopy)
	copy(dst, src)
	ph.sync += tl.switchTo(kConsume)
	sum := consumeAll(dst)
	ph.consume += tl.switchTo(kBench)
	return sum
}

// acopyStats is what a measurement collects.
type acopyStats struct {
	block  []float64 // the current block's 4 KB round trips, µs
	p50s   []float64 // per block of round trips
	p99s   []float64
	gains  [][]float64 // per size: sync block time / overlap block time
	ovRate []float64   // per cycle: overlap operations per second
	phases []phaseNs
}

func (w *acopyWorld) measure(budget time.Duration, tl *timeline, rep *report) (*acopyStats, error) {
	st := &acopyStats{
		gains:  make([][]float64, len(acopySizes)),
		phases: make([]phaseNs, len(acopySizes)),
		block:  make([]float64, 0, acopyRTTBlock),
	}
	check := func(got, want uint64, size, what string) {
		rep.attempted++
		if got != want {
			rep.failN(1, "acopy: %s %s checksum %x, want %x", size, what, got, want)
		}
	}
	rtt := &w.bufs[0]
	minCycles := (acopyRTTBlock + acopyRTTOps - 1) / acopyRTTOps
	_, err := repeat(budget, minCycles, func(cycle int) error {
		tl.begin("acopy.cycle")
		defer tl.end()
		var ovOps int
		var ovSecs float64
		for i, s := range acopySizes {
			b := &w.bufs[i]
			ph := &st.phases[i]
			var ovT, syncT time.Duration
			for phase := 0; phase < 2; phase++ {
				overlap := (phase+cycle+i)%2 == 0
				t := time.Now()
				for r := 0; r < s.reps; r++ {
					j := r % 2
					if overlap {
						sum, err := w.overlapOp(b.dst, b.src[j], tl, ph)
						if err != nil {
							return fmt.Errorf("acopy: %s copy failed: %w", s.name, err)
						}
						check(sum, b.want[j], s.name, "overlap")
					} else {
						check(syncOp(b.dst, b.src[j], tl, ph), b.want[j], s.name, "sync")
					}
				}
				if overlap {
					ovT = time.Since(t)
					ph.ops += int64(s.reps)
				} else {
					syncT = time.Since(t)
					ph.syncOps += int64(s.reps)
				}
				// The last operation of every block is compared in
				// full, outside the timed region.
				rep.attempted++
				if !bytes.Equal(b.dst, b.src[(s.reps-1)%2]) {
					rep.failN(1, "acopy: %s destination differs from its source", s.name)
				}
			}
			st.gains[i] = append(st.gains[i], syncT.Seconds()/ovT.Seconds())
			ovOps += s.reps
			ovSecs += ovT.Seconds()
		}
		st.ovRate = append(st.ovRate, float64(ovOps)/ovSecs)
		for r := 0; r < acopyRTTOps; r++ {
			j := r % 2
			tl.switchTo(kAMemcpy)
			t := time.Now()
			h := w.cp.AMemcpy(rtt.dst, rtt.src[j])
			h.Wait()
			d := time.Since(t)
			tl.switchTo(kBench)
			if err := h.Err(); err != nil {
				return fmt.Errorf("acopy: round trip failed: %w", err)
			}
			h.Release()
			check(consumeAll(rtt.dst), rtt.want[j], "4k", "round trip")
			st.block = append(st.block, float64(d.Nanoseconds())/1e3)
			if len(st.block) == acopyRTTBlock {
				st.p50s = append(st.p50s, quantile(st.block, 0.50))
				st.p99s = append(st.p99s, quantile(st.block, 0.99))
				st.block = st.block[:0]
			}
		}
		return nil
	})
	return st, err
}

func runACopy(opts options) (*report, error) {
	rep := newReport()
	var setups []float64
	var w *acopyWorld
	for i := 0; i < acopySetups; i++ {
		if w != nil {
			w.cp.Close()
			w = nil
		}
		debug.FreeOSMemory()
		t := time.Now()
		w = newACopyWorld(opts.seed)
		setups = append(setups, time.Since(t).Seconds())
	}
	defer w.cp.Close()

	budget := time.Duration(opts.seconds * float64(time.Second))
	v := rep.values
	var st *acopyStats
	var err error
	if !opts.trace {
		st, err = w.measure(budget, nil, rep)
		if err != nil {
			return nil, err
		}
	} else {
		if st, err = w.measure(budget/2, nil, rep); err != nil {
			return nil, err
		}
		err = traced(opts, "acopy", rep, func(tl *timeline) error {
			tst, err := w.measure(budget/2, tl, rep)
			if err != nil {
				return err
			}
			v["obs.trace_overhead"] = 1 - median(tst.ovRate)/median(st.ovRate)
			for i, s := range acopySizes {
				ph := tst.phases[i]
				ops := float64(ph.ops)
				v["acopy.submit_ns."+s.name] = float64(ph.submit) / ops
				v["acopy.csync_ns."+s.name] = float64(ph.csync) / ops
				v["acopy.wait_ns."+s.name] = float64(ph.wait) / ops
				v["acopy.consume_ns."+s.name] = float64(ph.consume) / float64(ph.ops+ph.syncOps)
				v["acopy.sync_ns."+s.name] = float64(ph.sync) / float64(ph.syncOps)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	v["setup_s"] = median(setups)
	v["ops_per_s"] = median(st.ovRate)
	v["latency_n"] = float64(len(st.p99s) * acopyRTTBlock)
	v["latency_p50_us"] = median(st.p50s)
	v["latency_p99_us"] = median(st.p99s)
	for i, s := range acopySizes {
		if i > 0 {
			v["acopy.overlap_gain."+s.name] = median(st.gains[i])
		}
	}
	v["success_rate"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)
	rep.meta["latency_n"] = len(st.p99s) * acopyRTTBlock
	rep.meta["overlap_gain_4k"] = median(st.gains[0])
	return rep, nil
}
