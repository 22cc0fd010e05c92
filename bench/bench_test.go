package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs every workload at its -quick size, untraced and
// traced, and checks what the table prints and what the workloads are
// there to show. It is a smoke test of the instrument, not a
// measurement. (No Benchmark functions here: CI's `go test -bench=.`
// must not start the real run.)
func TestSmoke(t *testing.T) {
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	layer := map[string]map[string]float64{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, options{seed: 1, seconds: 1, quick: true, trace: traced, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace %v): %d of %d ops failed", w.name, traced, res.Failed, res.Attempted)
			}
			var out bytes.Buffer
			res.print(&out)
			for _, d := range res.defs {
				if !nameOK.MatchString(d.name) {
					t.Errorf("metric name %q is outside the allowed alphabet", d.name)
				}
				s := res.Metrics[d.name]
				lines := regexp.MustCompile(`(?m)^  `+regexp.QuoteMeta(d.name)+` +`+regexp.QuoteMeta(d.unit)+` `).FindAllString(out.String(), -1)
				switch {
				case traced && s.N == 0:
					if len(lines) != 0 {
						t.Errorf("%s: %s is printed though the workload does not report it", w.name, d.name)
					}
				case len(lines) != 1:
					t.Errorf("%s: %s printed with its unit %d times, want once\n%s", w.name, d.name, len(lines), out.String())
				case !traced && s.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %g, want above 0", w.name, d.name, s.Value)
				}
			}
			if traced {
				layer[w.name] = map[string]float64{}
				for name, s := range res.Metrics {
					layer[w.name][name] = s.Value
				}
				if b, err := os.ReadFile(res.SpanFile); err != nil || !bytes.Contains(b, []byte(`"parent":`)) {
					t.Errorf("%s: span file %q: err %v, or no spans in it", w.name, res.SpanFile, err)
				}
			}
		}
	}
	// The workloads discriminate as they were chosen to.
	if v := layer["stream-sensor"]["gd.dict_hit_share"]; v <= 0.9 {
		t.Errorf("stream-sensor gd.dict_hit_share = %g, want above 0.9", v)
	}
	if v := layer["stream-noise"]["gd.dict_hit_share"]; v >= 0.05 {
		t.Errorf("stream-noise gd.dict_hit_share = %g, want below 0.05", v)
	}
	if v := layer["gateway-http"]["ziphttp.identity_share"]; v != 0.25 {
		t.Errorf("gateway-http ziphttp.identity_share = %g, want 0.25", v)
	}
	if v := layer["switch-line"]["zswitch.allocs_per_pkt"]; v != 0 {
		t.Errorf("switch-line zswitch.allocs_per_pkt = %g, want 0", v)
	}
}

// TestInputsFollowSeed checks that the generated inputs are a function
// of the seed alone.
func TestInputsFollowSeed(t *testing.T) {
	hash := func(w workload, seed int64) uint64 {
		r, err := w.setup(seed, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		defer r.close()
		return r.inputHash()
	}
	for _, w := range workloads {
		a, b, c := hash(w, 1), hash(w, 1), hash(w, 2)
		if a != b {
			t.Errorf("%s: seed 1 gave two different inputs", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", w.name)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the
// workloads and metrics this package reports.
func TestBenchmarkJSON(t *testing.T) {
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the package %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the package %q: %q", i, got, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: its why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the package %d", len(got), kind, len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the package %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
