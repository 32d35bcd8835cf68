package core_test

import (
	"testing"

	"copier/internal/bench"
)

// BenchmarkIdleSweep measures one empty poll sweep of a service thread
// over 12 idle clients; the body is shared with the core/idle-sweep
// row of BENCH_results.json.
func BenchmarkIdleSweep(b *testing.B) { bench.IdleSweep(b) }
