// Command zipline compresses and decompresses files with generalized
// deduplication.
//
//	zipline -c [-m 8] [-idbits 15] < input > output.zl
//	zipline -c -p 8 < input > output.zl          # parallel (v2 container)
//	zipline -c -index < input > output.zl        # seekable (v4 container)
//	zipline -d < output.zl > input
//	zipline -d -p 4 < output.zl > input          # decode lanes; any sharded or indexed stream, pipes included
//	zipline -d -seek 4096:1024 < output.zl       # random access via the index
//	zipline -stats -c < input > /dev/null
//
// A fleet sharing a pre-trained basis dictionary (v3 container):
//
//	zipline -train -dict basis.zld < corpus      # train and write the dict
//	zipline -c -dict basis.zld < input > output.zl
//	zipline -d -dict basis.zld < output.zl > input
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"zipline"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable entry point: all errors propagate here, the
// single exit point, so deferred cleanup always executes and a failed
// output flush cannot be silently swallowed.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zipline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	compress := fs.Bool("c", false, "compress stdin to stdout")
	decompress := fs.Bool("d", false, "decompress stdin to stdout")
	train := fs.Bool("train", false, "train a shared dictionary from stdin and write it to the -dict path")
	m := fs.Int("m", 8, "Hamming parameter (3..15): chunks are 2^m bits")
	idBits := fs.Int("idbits", 15, "dictionary identifier width in bits (1..24)")
	workers := fs.Int("p", 1, "parallel workers: with -c, >1 compresses with the sharded container; with -d, the decode lanes a sharded or -index stream may use (default all CPUs); 0 = all CPUs")
	dictPath := fs.String("dict", "", "shared dictionary file: output of -train, input of -c/-d (its training configuration overrides -m/-idbits)")
	index := fs.Bool("index", false, "with -c: write the seekable v4 container (block index + dictionary checkpoints in a trailing footer)")
	seekSpec := fs.String("seek", "", "with -d: decompress only OFF:LEN — seek to uncompressed offset OFF and emit LEN bytes (needs a seekable input; fastest on -index streams)")
	showStats := fs.Bool("stats", false, "print chunk statistics to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	modes := 0
	for _, on := range []bool{*compress, *decompress, *train} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(stderr, "zipline: exactly one of -c, -d or -train is required")
		fs.Usage()
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "zipline: -p must be >= 0, got %d\n", *workers)
		return 2
	}
	if *index && !*compress {
		fmt.Fprintln(stderr, "zipline: -index only applies to -c")
		return 2
	}
	if *index && *workers != 1 {
		// The index records one dictionary timeline, which the sharded
		// v2 container does not have.
		fmt.Fprintln(stderr, "zipline: -index requires the serial writer (-p 1)")
		return 2
	}
	if *decompress {
		// Decoding defaults to every CPU; an explicit -p narrows it.
		explicit := false
		fs.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "p" })
		if !explicit {
			*workers = 0
		}
	}
	if *seekSpec != "" && !*decompress {
		fmt.Fprintln(stderr, "zipline: -seek only applies to -d")
		return 2
	}
	cfg := zipline.Config{M: *m, IDBits: *idBits}
	var err error
	switch {
	case *train:
		err = trainDict(stdin, *dictPath, cfg)
	case *seekSpec != "":
		err = seekRead(stdin, stdout, *seekSpec, cfg, *dictPath)
	default:
		err = pipe(stdin, stdout, stderr, *compress, cfg, *workers, *dictPath, *index, *showStats)
	}
	if err != nil {
		fmt.Fprintln(stderr, "zipline:", err)
		return 1
	}
	return 0
}

// trainDict builds a shared dictionary from the corpus on stdin and
// writes its serialized form to path.
func trainDict(stdin io.Reader, path string, cfg zipline.Config) error {
	if path == "" {
		return fmt.Errorf("-train needs -dict PATH to write the dictionary to")
	}
	corpus, err := io.ReadAll(stdin)
	if err != nil {
		return err
	}
	dict, err := zipline.TrainDict(corpus, cfg)
	if err != nil {
		return err
	}
	return os.WriteFile(path, dict.Bytes(), 0o644)
}

// loadDict reads a dictionary trained by -train; an empty path means
// no dictionary.
func loadDict(path string) (*zipline.Dict, error) {
	if path == "" {
		return nil, nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return zipline.LoadDict(raw)
}

// pipe streams stdin to stdout through one Writer or Reader — the
// serial and parallel paths are the same code, selected by options.
func pipe(stdin io.Reader, stdout, stderr io.Writer, compress bool, cfg zipline.Config, workers int, dictPath string, index, showStats bool) error {
	in := bufio.NewReaderSize(stdin, 1<<20)
	out := bufio.NewWriterSize(stdout, 1<<20)

	dict, err := loadDict(dictPath)
	if err != nil {
		return err
	}
	opts := []zipline.Option{zipline.WithDict(dict)}
	if dict == nil {
		// The dictionary carries its training configuration; flags
		// select one only when no dictionary is in play.
		opts = append(opts, zipline.WithConfig(cfg))
	}

	var n int64
	var stats *zipline.StreamStats
	if compress {
		opts = append(opts, zipline.WithWorkers(workers))
		if index {
			opts = append(opts, zipline.WithIndex(0))
		}
		zw, err := zipline.NewWriter(out, opts...)
		if err != nil {
			return err
		}
		stats = &zw.Stats
		if n, err = io.Copy(zw, in); err != nil {
			// Close releases the parallel workers; the copy error
			// explains the failure, so the close error is reported as
			// secondary noise rather than replacing it.
			if cerr := zw.Close(); cerr != nil {
				fmt.Fprintln(stderr, "zipline: close:", cerr)
			}
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
	} else {
		zr, err := zipline.NewReader(in, append(opts, zipline.WithWorkers(workers))...)
		if err != nil {
			return err
		}
		if n, err = io.Copy(out, zr); err != nil {
			if cerr := zr.Close(); cerr != nil {
				fmt.Fprintln(stderr, "zipline: close:", cerr)
			}
			return err
		}
		stats = &zr.Stats
		// A trailer/CRC failure surfaces on Close: it must reach the
		// exit code, not vanish in a defer.
		if err := zr.Close(); err != nil {
			return err
		}
	}
	// A full disk surfaces here: the flush error must reach the exit
	// code, not vanish in a defer.
	if err := out.Flush(); err != nil {
		return err
	}
	if showStats {
		fmt.Fprintf(stderr, "bytes=%d chunks=%d hits=%d misses=%d tail=%d\n",
			n, stats.Chunks, stats.Hits, stats.Misses, stats.TailBytes)
	}
	return nil
}

// seekRead decompresses the OFF:LEN window of a stream. Stdin is a
// pipe, so the whole compressed stream is buffered in memory to give
// the Reader the io.ReadSeeker that Seek requires; on v4 indexed
// streams the Seek jumps to the nearest dictionary checkpoint, on
// legacy containers it replays from the start of the stream.
func seekRead(stdin io.Reader, stdout io.Writer, spec string, cfg zipline.Config, dictPath string) error {
	offStr, lenStr, ok := strings.Cut(spec, ":")
	off, err1 := strconv.ParseInt(offStr, 10, 64)
	length, err2 := strconv.ParseInt(lenStr, 10, 64)
	if !ok || err1 != nil || err2 != nil || off < 0 || length < 0 {
		return fmt.Errorf("-seek wants OFF:LEN with non-negative integers, got %q", spec)
	}
	comp, err := io.ReadAll(stdin)
	if err != nil {
		return err
	}
	dict, err := loadDict(dictPath)
	if err != nil {
		return err
	}
	opts := []zipline.Option{zipline.WithDict(dict)}
	if dict == nil {
		opts = append(opts, zipline.WithConfig(cfg))
	}
	zr, err := zipline.NewReader(bytes.NewReader(comp), opts...)
	if err != nil {
		return err
	}
	out := bufio.NewWriterSize(stdout, 1<<20)
	if _, err := zr.Seek(off, io.SeekStart); errors.Is(err, zipline.ErrNoIndex) {
		// Pre-index container: no checkpoint to jump to, so decode
		// forward and throw away the prefix.
		if _, err := io.CopyN(io.Discard, zr, off); err != nil {
			return err
		}
	} else if err != nil {
		return err
	}
	if _, err := io.CopyN(out, zr, length); err != nil {
		return err
	}
	if err := zr.Close(); err != nil {
		return err
	}
	return out.Flush()
}
