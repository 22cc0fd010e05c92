package zipline

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

func TestCodecPaperGeometry(t *testing.T) {
	c := MustCodec(Config{})
	if c.ChunkSize() != 32 {
		t.Fatalf("ChunkSize = %d", c.ChunkSize())
	}
	if c.BasisBits() != 247 || c.DeviationBits() != 8 {
		t.Fatalf("geometry = %d/%d", c.BasisBits(), c.DeviationBits())
	}
	if got := c.Config(); got.M != 8 || got.IDBits != 15 {
		t.Fatalf("defaults = %+v", got)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, m := range []int{3, 8, 12} {
		c, err := NewCodec(Config{M: m})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(m)))
		for trial := 0; trial < 50; trial++ {
			chunk := make([]byte, c.ChunkSize())
			rng.Read(chunk)
			s, err := c.Split(chunk)
			if err != nil {
				t.Fatal(err)
			}
			if len(s.Basis) != (c.BasisBits()+7)/8 {
				t.Fatalf("basis bytes = %d", len(s.Basis))
			}
			out, err := c.Merge(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, chunk) {
				t.Fatalf("m=%d: round trip failed", m)
			}
		}
	}
}

// TestNewCodecConcurrent builds codecs of several sizes from
// concurrent goroutines, the first of each size among them, and round
// trips a chunk through each: the Hamming code of one m is built once
// and shared, so under -race this checks that sharing.
func TestNewCodecConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, m := range []int{4, 8, 10} {
				c, err := NewCodec(Config{M: m})
				if err != nil {
					t.Error(err)
					return
				}
				chunk := bytes.Repeat([]byte{byte(g + m)}, c.ChunkSize())
				s, err := c.Split(chunk)
				if err != nil {
					t.Error(err)
					return
				}
				if out, err := c.Merge(s, nil); err != nil || !bytes.Equal(out, chunk) {
					t.Errorf("m=%d: round trip = %x, %v", m, out, err)
				}
			}
		}()
	}
	wg.Wait()
}

func TestCodecValidation(t *testing.T) {
	if _, err := NewCodec(Config{M: 2}); err == nil {
		t.Error("M=2 accepted")
	}
	if _, err := NewCodec(Config{M: 16}); err == nil {
		t.Error("M=16 accepted")
	}
	if _, err := NewCodec(Config{IDBits: 25}); err == nil {
		t.Error("IDBits=25 accepted")
	}
	c := MustCodec(Config{})
	if _, err := c.Split(make([]byte, 31)); err == nil {
		t.Error("short chunk accepted")
	}
	if _, err := c.Merge(Split{Basis: make([]byte, 5)}, nil); err == nil {
		t.Error("short basis accepted")
	}
}

func TestMustCodecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustCodec(Config{M: 99})
}

func TestBCHCodecPublicAPI(t *testing.T) {
	// T=2 selects the future-work BCH transform: same 32-byte chunks,
	// wider deviation, and losslessness for arbitrary input.
	c, err := NewCodec(Config{T: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.ChunkSize() != 32 || c.BasisBits() != 239 || c.DeviationBits() != 16 {
		t.Fatalf("geometry: %d/%d/%d", c.ChunkSize(), c.BasisBits(), c.DeviationBits())
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		chunk := make([]byte, 32)
		rng.Read(chunk)
		s, err := c.Split(chunk)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Merge(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, chunk) {
			t.Fatal("BCH codec round trip failed")
		}
	}
	if _, err := NewCodec(Config{T: 4}); err == nil {
		t.Error("T=4 accepted")
	}
}

func TestBCHStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	data := make([]byte, 20_000)
	rng.Read(data)
	comp, err := encodeFresh(data, Config{T: 2})
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeFresh(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("BCH stream round trip failed")
	}
}

func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
