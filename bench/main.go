// Command bench is the repo's benchmark: the one instrument every
// performance claim about this repo is measured with. It runs six
// named workloads, each in a process of its own, verifies every op,
// and prints the end-to-end metrics of BENCHMARK.json; a traced run
// (-trace 1) replays the same ops through a ladder of public entry
// points, one layer per rung, and prints the per-layer metrics. See
// README.md beside this file.
//
//	go run ./bench -seed 1                  every workload, untraced
//	go run ./bench -workload range-read     one workload
//	go run ./bench -trace 1                 the ladder, spans to bench/out/
//	go run ./bench -selfcheck               two full sets, compared against the bounds
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the benchmark driver's
// protocol.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

const (
	// outDir holds what a run leaves behind: span files and records.
	outDir = "bench/out"
	// Set-up is repeated at least minSetups times and until
	// minSetupTime has gone by (a short set-up needs more samples to
	// give a steady median), but no more than maxSetups times.
	minSetups    = 5
	maxSetups    = 64
	minSetupTime = 500 * time.Millisecond
	// minPasses is the fewest timed passes a run reports, however
	// short -seconds is.
	minPasses = 3
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	quick     bool
	selfcheck bool
	jsonPath  string
	outDir    string // where a traced run writes its spans
}

func main() {
	o := options{outDir: outDir}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "run only this workload, in this process, and end with the driver's JSON line")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 15, "how long the timed passes of one workload run")
	flag.IntVar(&trace, "trace", 0, "1 replays the ops through the ladder, prints per-layer metrics and writes spans to "+outDir)
	flag.BoolVar(&o.quick, "quick", false, "small inputs, one pass: a smoke run, not a measurement")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the full set twice and compare the medians against the bounds")
	flag.StringVar(&o.jsonPath, "json", "", "write the run record (environment, medians, per-pass values) to this file")
	flag.Parse()
	if flag.NArg() > 0 || trace < 0 || trace > 1 || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = trace == 1

	var err error
	switch {
	case o.workload != "":
		err = runChild(o)
	case o.selfcheck:
		err = selfcheck(o)
	default:
		_, err = runAll(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// result is one workload's run: what the driver's JSON line carries
// plus the spread behind each median.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Passes    int                `json:"passes"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	InputHash string             `json:"input_hash"`
	LoadAvg   [2]float64         `json:"loadavg_1m_start_end"`
	Metrics   map[string]summary `json:"metrics"`
	SpanFile  string             `json:"span_file,omitempty"`
	defs      []metricDef
}

// runWorkload sets the workload up, warms it with one pass, and then
// measures: timed passes of fixed work until seconds have gone by.
func runWorkload(w workload, o options) (*result, error) {
	res := &result{Workload: w.name, Seed: o.seed, Traced: o.trace, Metrics: map[string]summary{}}
	res.LoadAvg[0] = loadAvg()

	setupsMin, setupTime, passesMin, seconds := minSetups, minSetupTime, minPasses, o.seconds
	if o.quick {
		setupsMin, setupTime, passesMin, seconds = 1, 0, 1, 0
	}
	var r runner
	var setups []float64
	for start := time.Now(); len(setups) < setupsMin || (time.Since(start) < setupTime && len(setups) < maxSetups); {
		if r != nil {
			r.close()
			r = nil
			runtime.GC() // the previous inputs must not count towards peak_rss_mb
		}
		t0 := time.Now()
		var err error
		if r, err = w.setup(o.seed, o.quick); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()
	res.InputHash = strconv.FormatUint(r.inputHash(), 16)

	count := func(p passResult, err error) (passResult, error) {
		res.Attempted += p.attempted
		res.Failed += p.failed
		return p, err
	}
	if _, err := count(r.pass(nil)); err != nil { // warm-up
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	e2e, layer := samples{}, samples{}
	var tr *tracer
	if o.trace {
		tr = newTracer(w.name)
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for res.Passes = 0; res.Passes < passesMin || time.Now().Before(deadline); res.Passes++ {
		// Every pass starts from a collected heap, so one pass's garbage
		// is not collected on the next one's clock and peak_rss_mb does
		// not depend on where the collector happened to be.
		runtime.GC()
		p, err := count(r.pass(nil))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		e2e.add("ops_per_s", p.opsPerS)
		e2e.add("encode_mb_s", p.encodeMBs)
		e2e.add("decode_mb_s", p.decodeMBs)
		e2e.add("wire_ratio", p.wireRatio)
		if o.trace {
			// The same pass with spans on, then the rungs beneath it.
			traced, err := count(r.pass(tr))
			if err == nil {
				err = r.ladder(tr, layer)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			layer.add("top traced", traced.top.Seconds())
			layer.add("top untraced", p.top.Seconds())
		}
	}

	e2e.add("peak_rss_mb", peakRSSMiB())
	res.defs = endToEnd
	for _, d := range endToEnd {
		res.Metrics[d.name] = summarize(e2e[d.name], d.better)
	}
	// Set-up runs only a few times, so it reports its median.
	setup := summarize(setups, "lower")
	setup.Value = setup.Median
	res.Metrics["setup_s"] = setup
	if o.trace {
		res.defs = perLayer
		for _, d := range perLayer {
			res.Metrics[d.name] = summarize(layer[d.name], d.better) // a layer this workload does not touch reports 0
			delete(layer, d.name)
		}
		// What is left are rung times; the layers' self times and taxes
		// come from their reported values.
		rungs := map[string]float64{}
		for key, xs := range layer {
			rungs[key] = summarize(xs, "lower").Value
		}
		derived := map[string]float64{"trace_overhead": rungs["top traced"] / rungs["top untraced"]}
		maps.Copy(derived, r.layers(rungs))
		for name, v := range derived {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0 // a rung too short to time; JSON has no such number
			}
			res.Metrics[name] = summary{Value: v, Median: v, Q1: v, Q3: v, N: res.Passes}
		}
		path, err := tr.write(o.outDir)
		if err != nil {
			return nil, err
		}
		res.SpanFile = path
	}
	res.LoadAvg[1] = loadAvg()
	return res, nil
}

// print writes the table of the run's metrics.
func (res *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  passes %d  attempted %d  failed %d  failed_share %g\n",
		res.Workload, res.Seed, res.Passes, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	fmt.Fprintf(w, "  %-32s %-6s %14s %14s %14s %14s %4s\n", "metric", "unit", "value", "median", "q1", "q3", "n")
	for _, d := range res.defs {
		s := res.Metrics[d.name]
		if res.Traced && s.N == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-32s %-6s %14.6g %14.6g %14.6g %14.6g %4d\n", d.name, d.unit, s.Value, s.Median, s.Q1, s.Q3, s.N)
	}
	if res.SpanFile != "" {
		fmt.Fprintf(w, "  spans: %s\n", res.SpanFile)
	}
}

// driverLine is the last line of a -workload run.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runChild(o options) error {
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	res, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	if o.jsonPath != "" {
		if err := writeJSON(o.jsonPath, res); err != nil {
			return err
		}
	}
	line := driverLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	for _, d := range res.defs {
		line.Metrics[d.name] = driverValue{res.Metrics[d.name].Value, d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed verification", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// record is what -json writes for a full set: enough about the
// machine and the run to explain a noisy number.
type record struct {
	Nproc      int       `json:"nproc"`
	GoMaxProcs int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	CPUModel   string    `json:"cpu_model"`
	GitCommit  string    `json:"git_commit"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Workloads  []*result `json:"workloads"`
}

// runAll runs every workload in a child process of its own, so that
// peak_rss_mb is that workload's alone, and collects their records.
func runAll(o options, out io.Writer) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rec := &record{
		Nproc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), GitCommit: gitCommit(), Seed: o.seed, Seconds: o.seconds,
	}
	var failed []string
	for _, w := range workloads {
		childRecord := filepath.Join(outDir, "run-"+w.name+".json")
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-json", childRecord}
		if o.trace {
			args = append(args, "-trace", "1")
		}
		if o.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = out, os.Stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				return nil, err
			}
			failed = append(failed, w.name)
			continue
		}
		var res result
		b, err := os.ReadFile(childRecord)
		if err == nil {
			err = json.Unmarshal(b, &res)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: reading the child's record: %w", w.name, err)
		}
		rec.Workloads = append(rec.Workloads, &res)
	}
	if o.jsonPath != "" {
		if err := writeJSON(o.jsonPath, rec); err != nil {
			return nil, err
		}
	}
	if len(failed) > 0 {
		return rec, fmt.Errorf("workloads failed: %s", strings.Join(failed, ", "))
	}
	return rec, nil
}

// selfcheck is the benchmark checking its own bounds: two full sets
// of the same code must agree within each metric's bound.
func selfcheck(o options) error {
	o.trace = false
	var sets [2]*record
	for i := range sets {
		fmt.Printf("selfcheck: set %d of %d\n", i+1, len(sets))
		var err error
		if sets[i], err = runAll(o, io.Discard); err != nil {
			return err
		}
	}
	bad := 0
	fmt.Printf("%-14s %-12s %14s %14s %8s %6s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for i, a := range sets[0].Workloads {
		b := sets[1].Workloads[i]
		for _, d := range endToEnd {
			x, y := a.Metrics[d.name].Value, b.Metrics[d.name].Value
			diff := math.Abs(x-y) / math.Min(x, y)
			verdict := ""
			if diff > d.bound {
				verdict = "  beyond its bound"
				bad++
			}
			fmt.Printf("%-14s %-12s %14.6g %14.6g %7.2f%% %5.0f%%%s\n", a.Workload, d.name, x, y, 100*diff, 100*d.bound, verdict)
		}
		if a.Failed+b.Failed > 0 || a.InputHash != b.InputHash {
			fmt.Printf("%-14s failed ops or differing inputs between the sets\n", a.Workload)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d comparisons disagree", bad)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// procField returns the first line of a /proc file that starts with
// key, without the key; "" where /proc is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return ""
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	first, _, _ := bytes.Cut(b, []byte(" "))
	v, _ := strconv.ParseFloat(string(first), 64) // 0 where the file is not as expected
	return v
}

func cpuModel() string { return procField("/proc/cpuinfo", "model name") }

// gitCommit is the revision stamped into the binary, or read from the
// working tree; "unknown" in a checkout that is not a git repository.
func gitCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
