package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zipline/internal/experiments"
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
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
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

func TestRunPerfWithJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	path := filepath.Join(t.TempDir(), "bench.json")
	if code := run([]string{"-run", "perf", "-quick", "-json", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "switch-encode") {
		t.Fatalf("perf table missing: %q", stdout.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep experiments.BenchArtifact
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if len(rep.Perf) < 6 {
		t.Fatalf("artifact has %d perf rows, want ≥ 6", len(rep.Perf))
	}
	byName := make(map[string]bool)
	for _, r := range rep.Perf {
		byName[r.Name] = true
		if r.NsPerOp <= 0 {
			t.Errorf("%s: ns/op = %v", r.Name, r.NsPerOp)
		}
	}
	for _, want := range []string{
		"codec-encode", "codec-decode", "crc-remainder-32B",
		"switch-encode", "switch-decode", "switch-forward", "scenario-perf",
	} {
		if !byName[want] {
			t.Errorf("artifact missing %q", want)
		}
	}
}

// writeArtifact serialises a perf artifact for the compare tests.
func writeArtifact(t *testing.T, name string, perf []experiments.PerfResult) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := (experiments.BenchArtifact{Seed: 1, Perf: perf}).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareWithinTolerance: small drops pass the gate, and
// fresh-only entries are not regressions.
func TestCompareWithinTolerance(t *testing.T) {
	old := writeArtifact(t, "old.json", []experiments.PerfResult{
		{Name: "switch-encode", NsPerOp: 100, PktsPerS: 1_000_000},
		{Name: "codec-encode", NsPerOp: 70, MBPerS: 400},
	})
	fresh := writeArtifact(t, "new.json", []experiments.PerfResult{
		{Name: "switch-encode", NsPerOp: 110, PktsPerS: 900_000},
		{Name: "codec-encode", NsPerOp: 68, MBPerS: 410},
		{Name: "brand-new-path", NsPerOp: 50, MBPerS: 100},
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", old, fresh, "-tolerance", "0.15"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "within 15% of the baseline") {
		t.Fatalf("verdict missing: %q", stdout.String())
	}
}

// TestCompareRegression: a >tolerance throughput drop must fail with
// exit 1 and name the path.
func TestCompareRegression(t *testing.T) {
	old := writeArtifact(t, "old.json", []experiments.PerfResult{
		{Name: "switch-encode", NsPerOp: 100, PktsPerS: 1_000_000},
	})
	fresh := writeArtifact(t, "new.json", []experiments.PerfResult{
		{Name: "switch-encode", NsPerOp: 200, PktsPerS: 500_000},
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", old, fresh}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1:\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "REGRESSION") || !strings.Contains(stdout.String(), "switch-encode") {
		t.Fatalf("regression report missing: %q", stdout.String())
	}
}

// TestCompareMissingEntry: a baseline path absent from the fresh run
// fails the gate (silently dropping a measurement is not a pass).
func TestCompareMissingEntry(t *testing.T) {
	old := writeArtifact(t, "old.json", []experiments.PerfResult{
		{Name: "switch-encode", NsPerOp: 100, PktsPerS: 1_000_000},
		{Name: "retired-path", NsPerOp: 10, MBPerS: 3200},
	})
	fresh := writeArtifact(t, "new.json", []experiments.PerfResult{
		{Name: "switch-encode", NsPerOp: 100, PktsPerS: 1_000_000},
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", old, fresh}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1:\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "MISSING FROM FRESH RUN") {
		t.Fatalf("missing-entry report absent: %q", stdout.String())
	}
}

// TestCompareBadUsage: -compare without the positional fresh path is
// a usage error.
func TestCompareBadUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", "only-old.json"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// TestCompareAgainstCommittedBaseline: the committed BENCH_PR3.json
// must parse and gate cleanly against itself (tolerance 0).
func TestCompareAgainstCommittedBaseline(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", "../../BENCH_PR3.json", "../../BENCH_PR3.json", "-tolerance", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, stdout.String(), stderr.String())
	}
}
