package main

import (
	"hash/fnv"
	"runtime"
	"time"
)

// workload is one named input and the driver that pushes it through
// the stack. Names are final: later issues refer to them.
type workload struct {
	name string
	why  string
	// setup generates the inputs from the seed and builds whatever the
	// passes need (dictionaries, servers, scenarios). It is timed as
	// setup_s. quick shrinks the inputs for the smoke test.
	setup func(seed int64, quick bool) (runner, error)
}

// runner holds one workload's inputs between passes.
type runner interface {
	// inputHash fingerprints the generated inputs.
	inputHash() uint64
	// pass does the workload's fixed work once through its top rung —
	// the same work on every commit — and verifies every op. With a
	// tracer it records one span per op and keeps what ladder needs.
	pass(tr *tracer) (passResult, error)
	// ladder replays the ops of the last traced pass through the
	// rungs beneath the top one and adds one sample of each rung's time
	// per op, under a key of the runner's own, and of each per-layer
	// metric that is not a difference of rungs, under its name.
	ladder(tr *tracer, layer samples) error
	// layers turns the run's rung times, keyed as ladder keyed them,
	// into the per-layer metrics that are differences or ratios of
	// rungs. Differences are taken between the rungs' reported times,
	// not pass by pass: rung noise is larger than most layers.
	layers(rungs map[string]float64) map[string]float64
	close()
}

// passResult is one pass's end-to-end view.
type passResult struct {
	attempted, failed int
	opsPerS           float64
	encodeMBs         float64
	decodeMBs         float64
	wireRatio         float64
	// top is the wall time of the top rung's timed sections.
	top time.Duration
}

var workloads = []workload{
	{"stream-sensor", "The paper's synthetic sensor trace through Writer and Reader: hit-dominated, so dictionary lookup, record packing and container framing do the work.", setupStream(sensorInput, 32<<20, true)},
	{"stream-noise", "Random bytes through the same Writer and Reader: every chunk misses, inserts and evicts, and records carry whole bases; a hit-path optimisation must leave it unchanged.", setupStream(noiseInput, 4<<20, false)},
	{"range-read", "Random 4 KiB ReadAt calls over an indexed container (the HTTP-range pattern): seekindex does the work here and none in the stream workloads.", setupRangeRead},
	{"gateway-http", "ziphttp middleware and transport over host loopback TCP, 2 closed-loop clients, bodies cycling 128 B to 64 KiB: per-request cost against codec cost, with a quarter served identity.", setupGateway},
	{"switch-line", "The DNS trace as smallest frames through encoder and decoder pipelines with an instant control plane: line speed is a packet rate, so per-packet cost dominates.", setupSwitchLine},
	{"sim-fabric", "The fat-tree-churn scenario (1024 hosts, 80 switches): netsim's event loop, controlplane and scenario dominate and the codec is a few percent.", setupSimFabric},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func mbPerS(bytes int, d time.Duration) float64 {
	return float64(bytes) / 1e6 / d.Seconds()
}

func perOp(d time.Duration, ops int) float64 {
	return float64(d.Nanoseconds()) / float64(ops)
}

func hashBytes(chunks ...[]byte) uint64 {
	h := fnv.New64a()
	for _, c := range chunks {
		h.Write(c)
	}
	return h.Sum64()
}

// mallocs returns the process's cumulative heap allocation count. It
// stops the world, so only traced passes call it.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
