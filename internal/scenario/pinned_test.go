package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"zipline/internal/netsim"
)

// updatePinned regenerates testdata/pinned from the code under test.
// The committed files were written by the commit before the control
// plane's install chains and netsim's event queues were unified; only
// an intended change of the event schedule may regenerate them.
var updatePinned = flag.Bool("update", false, "rewrite testdata/pinned from the current engine")

// armedEvictionSpec is lossy-control squeezed into a 64-identifier
// dictionary with a second power cycle on the encoder: armed
// eviction, abandoned installs, stale digests and a resync of each
// tier in one short run.
func armedEvictionSpec(t *testing.T) Spec {
	spec := preset(t, "lossy-control")
	spec.Codec.IDBits = 6
	spec.Faults.Restarts = append(spec.Faults.Restarts,
		netsim.RestartSpec{Switch: "enc", AtNs: 20_000_000, DownNs: 1_000_000})
	return spec
}

// armedTTLSpec is lossy-control with idle aging: the controller's TTL
// sweep writes both tiers while a fifth of the control messages are
// lost and the decoder power-cycles.
func armedTTLSpec(t *testing.T, seed int64) Spec {
	spec := preset(t, "lossy-control")
	spec.Seed = seed
	spec.DurationNs = 60 * int64(netsim.Millisecond)
	spec.Controller.TTLNs = 2 * int64(netsim.Millisecond)
	return spec
}

// pinnedSpecs are the schedules testdata/prefault does not reach: the
// armed chain, both eviction branches, armed aging and the ranged
// multi-controller build.
func pinnedSpecs(t *testing.T) map[string]Spec {
	evict := preset(t, "single")
	evict.Codec.IDBits = 6
	evict.Traffic[0].Records = 40_000
	return map[string]Spec{
		"lossy-control":         preset(t, "lossy-control"),
		"lossy-control-idbits6": armedEvictionSpec(t),
		"lossy-control-ttl":     armedTTLSpec(t, 1),
		"single-idbits6":        evict,
		"fat-tree":              preset(t, "fat-tree"),
	}
}

// TestPinnedSchedules holds armed, evicting and multi-controller runs
// to the bytes the pre-unification engine reported. A byte that moves
// means the refactored code schedules or draws differently: fix the
// code, never the file.
func TestPinnedSchedules(t *testing.T) {
	for name, spec := range pinnedSpecs(t) {
		name, spec := name, spec
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", "pinned", name+".json")
			got := encodeReport(t, mustBuild(t, spec).Run())
			if *updatePinned {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run go test ./internal/scenario -run TestPinnedSchedules -update to create it)", err)
			}
			if !bytes.Equal(got, golden) {
				t.Fatalf("report diverged from pinned schedule (%d vs %d bytes)", len(got), len(golden))
			}
		})
	}
}

// TestArmedTTLNeverStrands covers armed faults with a TTL: across
// twelve seeds the sweep must expire mappings and no compressed frame
// may reach a decoder that lacks its mapping.
func TestArmedTTLNeverStrands(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		r := mustBuild(t, armedTTLSpec(t, seed)).Run()
		if r.Faults == nil {
			t.Fatalf("seed %d: armed run produced no fault report", seed)
		}
		if n := r.Faults.StrandedCompressed; n != 0 {
			t.Errorf("seed %d: %d stranded compressed packets", seed, n)
		}
		if r.Learning.Expired == 0 {
			t.Errorf("seed %d: nothing expired: %+v", seed, r.Learning)
		}
	}
}
