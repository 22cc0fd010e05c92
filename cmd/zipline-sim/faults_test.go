package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"zipline/internal/netsim"
)

func TestParseRestarts(t *testing.T) {
	got, err := parseRestarts("dec@10+2,enc@25.5,core@0+0.25")
	if err != nil {
		t.Fatal(err)
	}
	want := []netsim.RestartSpec{
		{Switch: "dec", AtNs: 10_000_000, DownNs: 2_000_000},
		{Switch: "enc", AtNs: 25_500_000}, // default reboot time
		{Switch: "core", AtNs: 0, DownNs: 250_000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}

	for _, bad := range []string{"dec", "@10", "dec@", "dec@x", "dec@-1", "dec@10+x", "dec@10+-2"} {
		if _, err := parseRestarts(bad); err == nil {
			t.Errorf("parseRestarts(%q) accepted", bad)
		}
	}
}

// TestFaultFlagsProduceFaultReport: the CLI fault flags must arm the
// model and surface the fault block in the JSON report.
func TestFaultFlagsProduceFaultReport(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-preset", "chain3", "-records", "4000",
		"-control-loss", "0.1", "-restart", "dec@4+1", "-json"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	var report struct {
		Faults *struct {
			StrandedCompressed uint64 `json:"stranded_compressed"`
			Resyncs            uint64 `json:"resyncs"`
			RecoveryTimeNs     int64  `json:"recovery_time_ns"`
		} `json:"faults"`
	}
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	if report.Faults == nil {
		t.Fatal("armed run emitted no faults block")
	}
	if report.Faults.StrandedCompressed != 0 {
		t.Fatalf("stranded = %d", report.Faults.StrandedCompressed)
	}
	if report.Faults.Resyncs != 1 || report.Faults.RecoveryTimeNs <= 0 {
		t.Fatalf("faults block = %+v", report.Faults)
	}
}

func TestBadFaultFlagsRejected(t *testing.T) {
	cases := [][]string{
		{"-preset", "chain3", "-restart", "nonsense"},
		{"-preset", "chain3", "-restart", "ghost@10+2"},    // unknown switch
		{"-preset", "chain3", "-control-loss", "1.5"},      // out of range
		{"-preset", "chain3", "-restart", "dec@1+9,dec@2"}, // overlapping windows
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestListIncludesLossyControl(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "lossy-control") {
		t.Fatalf("-list missing lossy-control:\n%s", out.String())
	}
}

// TestBadPlacementFlagRejected: -placement is the sweep param of the
// same name, so a strategy it does not know, or a base without a
// topology block, is a usage error before anything is built or dumped.
func TestBadPlacementFlagRejected(t *testing.T) {
	cases := [][]string{
		{"-topo", "fat-tree:k=4", "-placement", "nope", "-dump-spec"},
		{"-preset", "chain3", "-placement", "greedy", "-dump-spec"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("args %v: exit %d, want 2 (%s)", args, code, errb.String())
		}
	}
}
