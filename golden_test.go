package zipline

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"
)

// updateGolden regenerates testdata/golden from the code under test.
// The committed files were written by the commit that introduced this
// test, before any framing refactor: regenerate only when a wire-format
// change is intended.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current Writer")

const goldenDir = "testdata/golden"

// goldenInputLen is two full parallel segments plus a partial one (so a
// three-shard writer touches every shard) and a sub-chunk remainder (so
// every container ends in a raw tail group).
const goldenInputLen = 2*defaultSegmentBytes + 40_000 + 13

// goldenStream is one committed container and the Writer options that
// produce it.
type goldenStream struct {
	file string
	opts []Option
}

func goldenStreams(dict *Dict) []goldenStream {
	return []goldenStream{
		{"v1.zl", nil},
		{"v2-w3.zl", []Option{WithWorkers(3)}},
		{"v3-dict.zl", []Option{WithDict(dict)}},
		{"v3-dict-w3.zl", []Option{WithDict(dict), WithWorkers(3)}},
		{"v4-index.zl", []Option{WithIndex(0)}},
		{"v4-dict-index.zl", []Option{WithDict(dict), WithIndex(0)}},
	}
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatalf("%v (run go test -run TestGoldenStreams -update to create it)", err)
	}
	return b
}

func writeGolden(t *testing.T, name string, b []byte) {
	t.Helper()
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(goldenDir, name), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenStreams pins the wire bytes of all four container versions:
// the Writer must reproduce every committed stream byte for byte, and
// every decode surface must turn each one back into input.bin.
func TestGoldenStreams(t *testing.T) {
	if *updateGolden {
		input := sensorLikeData(goldenInputLen, 1414)
		dict, err := TrainDict(input[:1<<16], Config{})
		if err != nil {
			t.Fatal(err)
		}
		writeGolden(t, "input.bin", input)
		writeGolden(t, "dict.zldt", dict.Bytes())
	}
	input := readGolden(t, "input.bin")
	if len(input)%32 == 0 {
		t.Fatal("input.bin is a chunk multiple: no tail group would be pinned")
	}
	dict, err := LoadDict(readGolden(t, "dict.zldt"))
	if err != nil {
		t.Fatal(err)
	}

	for _, g := range goldenStreams(dict) {
		t.Run(g.file, func(t *testing.T) {
			var buf bytes.Buffer
			zw, err := NewWriter(&buf, g.opts...)
			if err != nil {
				t.Fatal(err)
			}
			// Uneven writes: framing must not depend on how the input
			// was sliced.
			if _, err := zw.Write(input[:1000]); err != nil {
				t.Fatal(err)
			}
			if _, err := zw.Write(input[1000:]); err != nil {
				t.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			if *updateGolden {
				writeGolden(t, g.file, buf.Bytes())
			}
			want := readGolden(t, g.file)
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("streaming Writer output (%d B) differs from %s (%d B)", buf.Len(), g.file, len(want))
			}
			if zw.set.workers == 1 {
				// EncodeAll is the serial engine whatever the workers
				// option says, so only serial files pin it.
				if got := zw.EncodeAll(input, nil); !bytes.Equal(got, want) {
					t.Fatalf("EncodeAll output (%d B) differs from %s (%d B)", len(got), g.file, len(want))
				}
			}

			for _, workers := range []int{1, 4} {
				opts := []Option{WithDict(dict), WithWorkers(workers)}
				for name, src := range map[string]io.Reader{
					"Read":             bytes.NewReader(want),
					"Read/nonseekable": iotest.OneByteReader(bytes.NewReader(want)),
				} {
					zr, err := NewReader(src, opts...)
					if err != nil {
						t.Fatal(err)
					}
					got, err := io.ReadAll(zr)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", name, workers, err)
					}
					if !bytes.Equal(got, input) {
						t.Fatalf("%s workers=%d: decoded bytes differ from input.bin", name, workers)
					}
					if err := zr.Close(); err != nil {
						t.Fatal(err)
					}
				}
				zr, err := NewReader(nil, opts...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := zr.DecodeAll(want, nil)
				if err != nil {
					t.Fatalf("DecodeAll workers=%d: %v", workers, err)
				}
				if !bytes.Equal(got, input) {
					t.Fatalf("DecodeAll workers=%d: decoded bytes differ from input.bin", workers)
				}
			}
		})
	}
}
