package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestDumpSpecPinned: every flag combination the other tests use must
// resolve to the same spec it always has. The pinned files under
// testdata/dumpspec were written once by
//
//	go run ./cmd/zipline-sim <args> -dump-spec > cmd/zipline-sim/testdata/dumpspec/<name>.json
//
// (run from the repository root, with -scenario pointing at
// cmd/zipline-sim/testdata/scenario-chain3.json) and are never
// regenerated: a flag refactor that moves a byte is wrong.
func TestDumpSpecPinned(t *testing.T) {
	scenarioFile := filepath.Join("testdata", "scenario-chain3.json")
	cases := []struct {
		name string
		args []string
	}{
		{"run-faults", []string{"-preset", "chain3", "-records", "4000", "-control-loss", "0.1", "-restart", "dec@4+1"}},
		{"run-topo", []string{"-topo", "fat-tree:k=4", "-placement", "greedy", "-flows", "16"}},
		{"run-scenario", []string{"-scenario", scenarioFile, "-records", "2000"}},
		{"run-trace", []string{"-preset", "chain3", "-trace", "x.pcap", "-duration", "5", "-seed", "9"}},
		{"sweep-smoke", []string{"sweep", "-preset", "smoke", "-records", "500", "-trace", "x.pcap"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "dumpspec", tc.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var out, errb bytes.Buffer
			if code := run(append(tc.args, "-dump-spec"), &out, &errb); code != 0 {
				t.Fatalf("exit %d: %s", code, errb.String())
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("%v -dump-spec moved:\n%s\n--- want ---\n%s", tc.args, out.Bytes(), want)
			}
		})
	}
}
