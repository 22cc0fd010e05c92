package scenario

import (
	"testing"

	"zipline/internal/bitvec"
	"zipline/internal/netsim"
	"zipline/internal/tofino"
	"zipline/internal/zswitch"
)

// TestEncoderMappingsResolveAtEveryDecoder checks the protocol's
// invariant while the run is in progress instead of inferring it from
// the end counters: after every 50 µs slice of simulated time (far
// finer than one 800 µs table write, so no violation window fits
// between two probes), every basis→ID mapping any encoder holds must
// resolve at every managed decoder whose switch is up. Fault-free and
// armed runs go through the one install chain, so one test covers
// both, eviction and restarts included.
func TestEncoderMappingsResolveAtEveryDecoder(t *testing.T) {
	specs := map[string]Spec{
		"chain3":                preset(t, "chain3"),
		"fanin":                 preset(t, "fanin"),
		"lossy-control":         preset(t, "lossy-control"),
		"lossy-control-idbits6": armedEvictionSpec(t),
	}
	for name, spec := range specs {
		name, spec := name, spec
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc := mustBuild(t, spec)

			// Every basis digested so far, keyed as the tables key it.
			basisBits := sc.prog.Codec().BasisBits()
			var digested []string
			known := make(map[string]bool)
			for _, enc := range sc.encNames {
				sw := sc.switches[enc]
				prev := sw.OnDigest
				sw.OnDigest = func(ds []tofino.Digest) {
					for _, d := range ds {
						if d.Name != zswitch.DigestNewBasis {
							continue
						}
						b, _ := zswitch.SplitDigest(d.Data, (basisBits+7)/8)
						key := zswitch.BasisKey(bitvec.FromBytes(b, basisBits))
						if !known[key] {
							known[key] = true
							digested = append(digested, key)
						}
					}
					prev(ds)
				}
			}
			var decoders []string
			for _, sw := range spec.Switches {
				if sc.Ctl.IsDecoder(sc.pipes[sw.Name]) {
					decoders = append(decoders, sw.Name)
				}
			}

			probes := 0
			check := func() {
				for _, enc := range sc.encNames {
					encTbl, _ := sc.pipes[enc].Table(zswitch.TableBasisToID)
					for _, key := range digested {
						act, held := encTbl.Get([]byte(key))
						if !held {
							continue
						}
						var id uint32
						for _, b := range act {
							id = id<<8 | uint32(b)
						}
						idKey := zswitch.IDKey(id)
						for _, dec := range decoders {
							if sc.switches[dec].Down() {
								continue
							}
							probes++
							decTbl, _ := sc.pipes[dec].Table(zswitch.TableIDToBasis)
							if _, ok := decTbl.Get(idKey[:]); !ok {
								t.Fatalf("at %d ns: encoder %s maps a basis to id %d, which decoder %s cannot resolve",
									sc.Sim.Now(), enc, id, dec)
							}
						}
					}
				}
			}
			for sc.Sim.Pending() > 0 {
				sc.Sim.RunUntil(sc.Sim.Now() + 50*netsim.Microsecond)
				check()
			}
			if probes == 0 {
				t.Fatal("no encoder mapping was ever probed: the test checked nothing")
			}

			r := sc.Run() // the queue is drained: this only builds the report
			if r.Encode.DecodeMiss != 0 {
				t.Fatalf("decode misses: %d", r.Encode.DecodeMiss)
			}
			if r.Faults != nil && r.Faults.StrandedCompressed != 0 {
				t.Fatalf("stranded compressed packets: %d", r.Faults.StrandedCompressed)
			}
		})
	}
}
