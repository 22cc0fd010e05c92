package main

import (
	"math"
	"sort"
)

// metricDef names one metric of BENCHMARK.json: its unit and which
// direction is better. The two tables below are the single source of
// the names; the smoke test checks BENCHMARK.json against them.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
}

// endToEnd is what a user of each path sees. The driver's contract
// wants every end-to-end metric from every workload, so the set is
// the quantities all six paths have; README.md gives the definition
// per workload.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.20},
	{"encode_mb_s", "MB/s", "higher", 0.20},
	{"decode_mb_s", "MB/s", "higher", 0.20},
	{"wire_ratio", "ratio", "lower", 0.01},
	{"peak_rss_mb", "MiB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the ladder: <layer>.<metric>, layers named after the
// repo's modules. A workload that does not exercise a layer reports 0
// for its metrics.
var perLayer = []metricDef{
	// stream-sensor, stream-noise: encode ladder, per 32-byte chunk.
	{"crc.ns_per_chunk", "ns", "lower", 0},
	{"gd.split_ns_per_chunk", "ns", "lower", 0},
	{"gd.dict_ns_per_chunk", "ns", "lower", 0},
	{"gd.dict_hits", "count", "higher", 0},
	{"gd.dict_misses", "count", "lower", 0},
	{"gd.dict_evictions", "count", "lower", 0},
	{"gd.dict_hit_share", "ratio", "higher", 0},
	{"bitvec.pack_ns_per_chunk", "ns", "lower", 0},
	{"zipline.framing_ns_per_chunk", "ns", "lower", 0},
	{"zipline.encode_tax", "ratio", "lower", 0},
	{"zipline.encode_allocs_per_mb", "1/MB", "lower", 0},
	// Decode ladder.
	{"bitvec.unpack_ns_per_chunk", "ns", "lower", 0},
	{"gd.dict_decode_ns_per_chunk", "ns", "lower", 0},
	{"gd.merge_ns_per_chunk", "ns", "lower", 0},
	{"zipline.deframing_ns_per_chunk", "ns", "lower", 0},
	{"zipline.decode_tax", "ratio", "lower", 0},
	{"zipline.decode_allocs_per_mb", "1/MB", "lower", 0},
	// stream-sensor side rungs.
	{"zipline.encodeall_mb_s", "MB/s", "higher", 0},
	{"zipline.decodeall_mb_s", "MB/s", "higher", 0},
	{"parallel.encode_mb_s", "MB/s", "higher", 0},
	{"parallel.decode_mb_s", "MB/s", "higher", 0},
	{"parallel.speedup", "ratio", "higher", 0},
	// range-read, per 4 KiB read.
	{"zipline.seq_read_ns_per_4k", "ns", "lower", 0},
	{"seekindex.seek_ns", "ns", "lower", 0},
	{"seekindex.read_ns", "ns", "lower", 0},
	{"seekindex.tax", "ratio", "lower", 0},
	{"seekindex.allocs_per_read", "count", "lower", 0},
	{"seekindex.useful_share", "ratio", "higher", 0},
	// gateway-http, per request.
	{"zipline.encodeall_ns_per_req", "ns", "lower", 0},
	{"ziphttp.handler_ns_per_req", "ns", "lower", 0},
	{"ziphttp.transport_ns_per_req", "ns", "lower", 0},
	{"ziphttp.loopback_ns_per_req", "ns", "lower", 0},
	{"ziphttp.tax", "ratio", "lower", 0},
	{"ziphttp.allocs_per_req", "count", "lower", 0},
	{"ziphttp.identity_share", "ratio", "lower", 0},
	{"ziphttp.req_p50_us", "us", "lower", 0},
	{"ziphttp.req_p99_us", "us", "lower", 0},
	// switch-line, per frame.
	{"gd.split_bytes_ns_per_chunk", "ns", "lower", 0},
	{"packet.type3_ns_per_pkt", "ns", "lower", 0},
	{"packet.type2_ns_per_pkt", "ns", "lower", 0},
	{"tofino.forward_ns_per_pkt", "ns", "lower", 0},
	{"zswitch.encode_ns_per_pkt", "ns", "lower", 0},
	{"zswitch.decode_ns_per_pkt", "ns", "lower", 0},
	{"zswitch.type3_share", "ratio", "higher", 0},
	{"zswitch.digests", "count", "lower", 0},
	{"zswitch.install_ns", "ns", "lower", 0},
	{"zswitch.allocs_per_pkt", "count", "lower", 0},
	{"zswitch.mtu_encode_ns_per_pkt", "ns", "lower", 0},
	// sim-fabric.
	{"scenario.build_s", "s", "lower", 0},
	{"scenario.run_s", "s", "lower", 0},
	{"netsim.events", "count", "lower", 0},
	{"netsim.ns_per_event", "ns", "lower", 0},
	{"netsim.allocs_per_event", "count", "lower", 0},
	{"controlplane.learned", "count", "higher", 0},
	{"controlplane.digests_seen", "count", "lower", 0},
	{"controlplane.delay_p50_ms", "ms", "lower", 0},
	{"controlplane.delay_p99_ms", "ms", "lower", 0},
	{"zswitch.sim_encoded_frames", "count", "higher", 0},
	// Every workload: traced top rung over untraced top rung.
	{"trace_overhead", "ratio", "lower", 0},
}

// samples collects one value per pass for each metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// summary is one metric over the passes of a run. Value is what the
// run reports for the metric; the quartiles show the spread behind it.
type summary struct {
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Passes []float64 `json:"passes"`
}

// summarize reports xs's quartiles as Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so the
// spreads printed here are the ones the driver computes, and as Value
// the pass a tenth of the way in from the best one in the metric's
// better direction. Interference on a shared machine only ever slows
// a pass down: over ten runs of this repo on the 2-core box the
// median pass moved by 8 % between runs and the best-decile pass by
// 3 %, so the best decile is the steadier estimate of what the code
// can do. A cost that shows only in some passes moves the quartiles,
// not Value.
func summarize(xs []float64, better string) summary {
	s := summary{N: len(xs), Passes: xs}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	k := (len(sorted) - 1) / 10
	if better == "higher" {
		k = len(sorted) - 1 - k
	}
	s.Value = sorted[k]
	if len(sorted) == 1 {
		s.Median, s.Q1, s.Q3 = sorted[0], sorted[0], sorted[0]
		return s
	}
	q := func(i int) float64 {
		m := len(sorted) + 1
		j := min(max(i*m/4, 1), len(sorted)-1)
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	s.Q1, s.Median, s.Q3 = q(1), q(2), q(3)
	return s
}

// percentile returns the p-th percentile (nearest rank) of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
