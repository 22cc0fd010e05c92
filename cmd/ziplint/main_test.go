package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRepoClean runs the standalone checker over the whole module: the
// repo's own hot paths must satisfy the invariants ziplint enforces.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("standalone run shells out to go list")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"ziplint", "zipline/..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("ziplint found violations (exit %d):\n%s%s", code, stdout.String(), stderr.String())
	}
}

func TestVersionFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"ziplint", "-V=full"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-V=full exited %d: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "buildID=") {
		t.Fatalf("-V=full output missing buildID: %q", out)
	}
}

func TestFlagsHandshake(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"ziplint", "-flags"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-flags exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), `"Name"`) {
		t.Fatalf("-flags output not the vet JSON shape: %q", stdout.String())
	}
}

// TestJSONRejectedStandalone: -json only has a shape in the vet unit
// protocol; the standalone driver must refuse it rather than accept it
// and print plain text.
func TestJSONRejectedStandalone(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"ziplint", "-json", "zipline/internal/bitvec"}, &stdout, &stderr); code != 2 {
		t.Fatalf("standalone -json exited %d, want 2 (stdout %q, stderr %q)", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "-json") {
		t.Fatalf("stderr does not name the flag: %q", stderr.String())
	}
}
