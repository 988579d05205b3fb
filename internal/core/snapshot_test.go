package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/uarch"
)

// TestSnapshotKeyedByConfigValue runs two jobs, each with a freshly built
// BeOp1() — equal configurations whose L4 pointers differ — and checks
// that they share one decoded snapshot and one analysis snapshot instead
// of each building (and pinning) its own. The snapshot bytes are counted.
func TestSnapshotKeyedByConfigValue(t *testing.T) {
	w := Workload{Video: "desktop", Frames: 2, Scale: 16, Seed: 0x5eed} // cold: unique seed
	reg := obs.Default()
	misses := func(cache string) int64 { return reg.Counter("core_cache_misses", "cache", cache).Load() }
	bytes := reg.Counter("core_cache_bytes", "cache", "snapshot")
	snap0, ana0, bytes0 := misses("snapshot"), misses("ana_snapshot"), bytes.Load()
	var reports [2]string
	for i := range reports {
		opt := codec.Defaults()
		opt.CRF, opt.Refs = 39, 1
		res, err := Run(context.Background(), Job{Workload: w, Options: opt, Config: uarch.BeOp1()})
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = fmt.Sprintf("%+v", *res.Report)
	}
	if d := misses("snapshot") - snap0; d != 1 {
		t.Errorf("snapshot misses %d, want 1", d)
	}
	if d := misses("ana_snapshot") - ana0; d != 1 {
		t.Errorf("ana_snapshot misses %d, want 1", d)
	}
	if d := bytes.Load() - bytes0; d < 16384<<10/64*8 {
		t.Errorf("snapshot bytes grew %d, want at least the L4 tag array", d)
	}
	if reports[0] != reports[1] {
		t.Errorf("shared snapshot changed the profile:\n%s\n%s", reports[0], reports[1])
	}
}
