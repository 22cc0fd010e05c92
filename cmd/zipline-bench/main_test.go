package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

// updateGolden regenerates testdata/quick-seed1.golden from the code
// under test. Only for an intended change to the printed tables: a
// refactor that moves a cell is wrong, not the golden.
var updateGolden = flag.Bool("update", false, "rewrite testdata/quick-seed1.golden from the current output")

// TestQuickTablesGolden pins every paper table, figure and ablation
// the command prints with -quick -seed 1, byte for byte. Each step is
// a function of its seed, so only the wall-clock "completed in" line
// is dropped.
func TestQuickTablesGolden(t *testing.T) {
	var got bytes.Buffer
	for _, step := range []string{"table1", "table2", "fig3", "fig4", "fig5", "learning", "ablations"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-run", step, "-quick", "-seed", "1"}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", step, code, stderr.String())
		}
		for _, line := range strings.SplitAfter(stdout.String(), "\n") {
			if !strings.HasPrefix(line, "completed in ") {
				got.WriteString(line)
			}
		}
	}
	const path = "testdata/quick-seed1.golden"
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./cmd/zipline-bench -run TestQuickTablesGolden -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from %s:\n got: %s\nwant: %s", i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, %s has %d", len(gl), path, len(wl))
	}
}

func TestRunTable1(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "table1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Table 1") || !strings.Contains(stdout.String(), "completed in") {
		t.Fatalf("output missing sections: %q", stdout.String())
	}
}

func TestRunTable2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "table2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "verified: syndrome == CRC-3") {
		t.Fatalf("verification line missing: %q", stdout.String())
	}
}

func TestUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown experiment") {
		t.Fatalf("stderr = %q", stderr.String())
	}
}

func TestBadFlagExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}
