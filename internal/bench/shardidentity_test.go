package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite "+digestFile+" from this build's serial output")

// digestFile pins the serial run of every identity experiment across
// commits: one "<sha256>  <id>" line per experiment, the hash taken
// over the printed tables followed by the Perfetto export. The
// determinism and identity checks compare two runs of one build, so
// only this file catches a host-side change that moves virtual time.
// Regenerate with: go test ./internal/bench -run TestShardIdentity -update
// (and record why in CHANGES.md).
const digestFile = "testdata/output.sha256"

// The shards=1-vs-N byte-identity goldens: the acceptance bar for the
// parallel event loop. Each experiment runs once serial and once on 4
// host worker threads; the printed tables AND the Perfetto export must
// match byte for byte. Conservative-lookahead windows (sim.ShardSet)
// and job pools (sim.RunJobs) are both constructed so that host
// scheduling can never reach the observable stream — these tests are
// what enforces that construction.
func testShardIdentity(t *testing.T, id string) {
	t.Helper()
	if testing.Short() {
		t.Skipf("runs %s twice", id)
	}
	SetWorkers(1)
	tbl1, exp1, _ := runTraced(t, id)
	checkDigest(t, id, tbl1, exp1)
	SetWorkers(4)
	defer SetWorkers(1)
	tbl4, exp4, _ := runTraced(t, id)

	if tbl1 != tbl4 {
		t.Errorf("printed series differ between 1 and 4 workers:\n%s", lineDiff(tbl1, tbl4))
	}
	if !bytes.Equal(exp1, exp4) {
		t.Errorf("obs exports differ between 1 and 4 workers:\n%s",
			lineDiff(string(exp1), string(exp4)))
	}
}

func TestShardIdentityFig9(t *testing.T)     { testShardIdentity(t, "fig9") }
func TestShardIdentityFig12b(t *testing.T)   { testShardIdentity(t, "fig12b") }
func TestShardIdentityChaos(t *testing.T)    { testShardIdentity(t, "chaos") }
func TestShardIdentityFleet(t *testing.T)    { testShardIdentity(t, "fleet") }
func TestShardIdentityFleetPar(t *testing.T) { testShardIdentity(t, "fleetpar") }

// checkDigest compares the hash of one experiment's serial output with
// its line in digestFile, or rewrites that line under -update.
func checkDigest(t *testing.T, id, tables string, export []byte) {
	t.Helper()
	h := sha256.New()
	h.Write([]byte(tables))
	h.Write(export)
	got := hex.EncodeToString(h.Sum(nil))
	want := map[string]string{}
	raw, err := os.ReadFile(digestFile)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatalf("reading %s: %v", digestFile, err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			want[f[1]] = f[0]
		}
	}
	if *update {
		want[id] = got
		ids := make([]string, 0, len(want))
		for k := range want {
			ids = append(ids, k)
		}
		sort.Strings(ids)
		var b strings.Builder
		for _, k := range ids {
			fmt.Fprintf(&b, "%s  %s\n", want[k], k)
		}
		if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want[id] != got {
		t.Errorf("%s output digest %s, %s pins %q: simulated output moved (if intended, rerun with -update and record why in CHANGES.md)",
			id, got, digestFile, want[id])
	}
}
