package scenario

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"zipline/internal/netsim"
	"zipline/internal/packet"
	"zipline/internal/pcap"
)

// replayTrace is a loaded pcap capture ready for replay: one payload
// per captured frame, plus each frame's departure offset from the
// first capture timestamp. Loaded traces are shared (and cached)
// across concurrent scenario builds, so the contents are read-only.
type replayTrace struct {
	payloads [][]byte
	offsets  []netsim.Time
}

// cachedTrace pairs a parsed capture with the file identity it was
// read from, so edits on disk invalidate the entry.
type cachedTrace struct {
	size  int64
	mtime time.Time
	rt    *replayTrace
}

// traceCache deduplicates capture loading: a sweep runs the same pcap
// through every grid cell, and re-reading a multi-hundred-MB file once
// per cell (times one copy per worker) would dominate the sweep. It is
// a plain map under a mutex — ziplint bans sync.Map in deterministic
// packages because its internal promotion order is scheduling-derived.
var (
	traceMu    sync.Mutex
	traceCache = make(map[string]*cachedTrace)
)

// loadReplayTrace returns the parsed capture at path, reading it only
// when the cache has no entry for the file's current size+mtime.
func loadReplayTrace(path string) (*replayTrace, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	traceMu.Lock()
	if ct, ok := traceCache[path]; ok && ct.size == st.Size() && ct.mtime.Equal(st.ModTime()) {
		traceMu.Unlock()
		return ct.rt, nil
	}
	traceMu.Unlock()
	rt, err := readReplayTrace(path)
	if err != nil {
		return nil, err
	}
	// Concurrent loaders may race between the lookup and this store;
	// the parse is deterministic, so last-write-wins is fine.
	traceMu.Lock()
	traceCache[path] = &cachedTrace{size: st.Size(), mtime: st.ModTime(), rt: rt}
	traceMu.Unlock()
	return rt, nil
}

// readReplayTrace reads an Ethernet pcap (cmd/tracegen's output, or
// any capture of raw ZipLine traffic) into replayable form.
func readReplayTrace(path string) (*replayTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rd, err := pcap.NewReader(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, err
	}
	if rd.LinkType() != pcap.LinkTypeEthernet {
		return nil, fmt.Errorf("pcap %s: link type %d, want Ethernet (%d)", path, rd.LinkType(), pcap.LinkTypeEthernet)
	}
	rt := &replayTrace{}
	var ts0 int64
	for i := 0; ; i++ {
		ts, frame, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("pcap %s: %w", path, err)
		}
		_, payload, err := packet.ParseHeader(frame)
		if err != nil {
			return nil, fmt.Errorf("pcap %s: frame %d: %w", path, i, err)
		}
		if i == 0 {
			ts0 = ts
		}
		off := netsim.Time(ts - ts0)
		// Host.StreamTimed requires non-decreasing departure offsets;
		// reject out-of-order captures (merged multi-source pcaps)
		// here rather than silently clamp their timing.
		if n := len(rt.offsets); n > 0 && off < rt.offsets[n-1] {
			return nil, fmt.Errorf("pcap %s: frame %d: timestamp goes backwards (replay needs a time-ordered capture)", path, i)
		}
		rt.payloads = append(rt.payloads, payload)
		rt.offsets = append(rt.offsets, off)
	}
	if len(rt.payloads) == 0 {
		return nil, fmt.Errorf("pcap %s: no frames", path)
	}
	return rt, nil
}
