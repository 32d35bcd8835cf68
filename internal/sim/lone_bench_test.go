package sim_test

import (
	"testing"

	"copier/internal/bench"
)

// BenchmarkLoneWait measures Wait on a process with nothing else
// pending, which returns without a coroutine switch; the body is
// shared with the sim/lone-wait row of BENCH_results.json.
func BenchmarkLoneWait(b *testing.B) { bench.LoneWait(b) }
