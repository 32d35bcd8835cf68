package core_test

import (
	"testing"

	"copier/internal/bench"
)

// BenchmarkATCacheEvict measures a miss plus an evicting insert on a
// full cache; the body is shared with the core/atcache-miss-evict row
// of BENCH_results.json.
func BenchmarkATCacheEvict(b *testing.B) { bench.ATCacheMissEvict(b) }
