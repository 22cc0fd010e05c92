package experiments

import (
	"fmt"

	"zipline/internal/baseline"
	"zipline/internal/gd"
	"zipline/internal/scenario"
	"zipline/internal/trace"
	"zipline/internal/zswitch"
)

// Figure3Case is one bar of paper Figure 3.
type Figure3Case struct {
	Name string
	// Bytes is the total payload size after processing (the bar).
	Bytes int64
	// Ratio is Bytes over the original dataset size (the number the
	// paper prints beside each bar).
	Ratio float64
	// NA marks a case that is not applicable (static table for the
	// DNS dataset in the paper).
	NA bool
	// Detail carries per-case diagnostics (packet-type counts etc.).
	Detail string
}

// Figure3Result is one dataset's group of bars.
type Figure3Result struct {
	Dataset       string
	OriginalBytes int64
	Cases         []Figure3Case
}

// Figure3Config parameterises the compression experiment.
type Figure3Config struct {
	// ReplayPPS is the dynamic-learning replay rate (default
	// 150,000 packets/s — a tcpreplay-style moderate rate; the
	// paper does not publish theirs).
	ReplayPPS float64
	// Seed for the simulated run.
	Seed int64
	// IDBits sizes the dictionary (default 15 as deployed).
	IDBits int
	// SkipStatic marks the static-table case n/a (the paper does
	// this for the DNS dataset).
	SkipStatic bool
}

func (c Figure3Config) withDefaults() Figure3Config {
	if c.ReplayPPS == 0 {
		c.ReplayPPS = 150_000
	}
	if c.Seed == 0 {
		c.Seed = 17
	}
	if c.IDBits == 0 {
		c.IDBits = 15
	}
	return c
}

// Figure3 reproduces one dataset group of paper Figure 3: payload
// size after processing with no table, a statically preloaded table,
// dynamic learning, and gzip.
func Figure3(ds *trace.Trace, cfg Figure3Config) (Figure3Result, error) {
	cfg = cfg.withDefaults()
	res := Figure3Result{Dataset: ds.Name, OriginalBytes: int64(ds.TotalBytes())}

	noTable, err := fig3NoTable(ds, cfg)
	if err != nil {
		return res, fmt.Errorf("no table: %w", err)
	}
	res.Cases = append(res.Cases, noTable)

	static, err := fig3Static(ds, cfg)
	if err != nil {
		return res, fmt.Errorf("static: %w", err)
	}
	res.Cases = append(res.Cases, static)

	dynamic, err := fig3Dynamic(ds, cfg)
	if err != nil {
		return res, fmt.Errorf("dynamic: %w", err)
	}
	res.Cases = append(res.Cases, dynamic)

	gz, err := baseline.GzipSize(ds)
	if err != nil {
		return res, fmt.Errorf("gzip: %w", err)
	}
	res.Cases = append(res.Cases, Figure3Case{
		Name:  "Gzip",
		Bytes: int64(gz),
		Ratio: float64(gz) / float64(ds.TotalBytes()),
	})
	return res, nil
}

// fig3Spec is the fixture with an encoding switch and the sender
// replaying at the configured rate.
func fig3Spec(cfg Figure3Config) scenario.Spec {
	spec := fixture("fig3", cfg.Seed, scenario.RoleEncode, cfg.ReplayPPS)
	spec.Codec.IDBits = cfg.IDBits
	return spec
}

// fig3Replay streams the dataset through the built fixture record by
// record and returns the bar (what the sink received) with the run's
// report for the caller's Detail line; the sink is r.Hosts[1].
func fig3Replay(sc *scenario.Scenario, ds *trace.Trace, name string) (Figure3Case, scenario.Report, error) {
	records := ds.Records()
	r := stream(sc, func(i int) []byte {
		if i >= records {
			return nil
		}
		return ds.Record(i)
	})

	sink := r.Hosts[1]
	if sink.RxFrames != uint64(records) {
		return Figure3Case{}, r, fmt.Errorf("received %d of %d frames", sink.RxFrames, records)
	}
	return Figure3Case{
		Name:  name,
		Bytes: int64(sink.PayloadBytes),
		Ratio: float64(sink.PayloadBytes) / float64(ds.TotalBytes()),
	}, r, nil
}

// fig3NoTable: the compression table stays empty; every packet
// becomes type 2. Measures pure transformation overhead (the paper's
// 1.03 padding cost).
func fig3NoTable(ds *trace.Trace, cfg Figure3Config) (Figure3Case, error) {
	sc, err := buildFixed(fig3Spec(cfg))
	if err != nil {
		return Figure3Case{}, err
	}
	c, r, err := fig3Replay(sc, ds, "No table")
	if err != nil {
		return c, err
	}
	c.Detail = fmt.Sprintf("type2=%d", r.Hosts[1].Type2Frames)
	return c, nil
}

// fig3Static: "we pre-compute the basis of each payload and add a
// corresponding mapping in the compression table before we start the
// experiment" — the idealistic case. If the working set exceeds the
// table, the case is n/a (as the paper marks the DNS dataset).
func fig3Static(ds *trace.Trace, cfg Figure3Config) (Figure3Case, error) {
	if cfg.SkipStatic {
		return Figure3Case{Name: "Static table", NA: true, Detail: "not applicable (paper: n/a)"}, nil
	}
	sc, err := buildFixed(fig3Spec(cfg))
	if err != nil {
		return Figure3Case{}, err
	}
	// Preload every basis.
	codec := switchCodec(sc)
	seen := make(map[string]bool)
	nextID := uint32(0)
	capacity := uint32(1) << uint(cfg.IDBits)
	var s gd.Split // one basis buffer for the whole walk
	for i := 0; i < ds.Records(); i++ {
		if err := codec.SplitChunkInto(ds.Record(i), &s); err != nil {
			return Figure3Case{}, err
		}
		if seen[string(s.Basis.Bytes())] {
			continue
		}
		seen[string(s.Basis.Bytes())] = true
		if nextID >= capacity {
			return Figure3Case{
				Name: "Static table", NA: true,
				Detail: fmt.Sprintf("working set %d exceeds %d identifiers", len(seen), capacity),
			}, nil
		}
		if err := zswitch.InstallBasisToID(sc.Pipeline("sw"), s.Basis, nextID, 0); err != nil {
			return Figure3Case{}, err
		}
		nextID++
	}
	c, r, err := fig3Replay(sc, ds, "Static table")
	if err != nil {
		return c, err
	}
	c.Detail = fmt.Sprintf("bases=%d type3=%d", nextID, r.Hosts[1].Type3Frames)
	return c, nil
}

// fig3Dynamic: the full system with an empty table filled by the
// control plane as unknown bases stream past — learning latency and
// first-packet costs included.
func fig3Dynamic(ds *trace.Trace, cfg Figure3Config) (Figure3Case, error) {
	sc, err := scenario.Build(fig3Spec(cfg))
	if err != nil {
		return Figure3Case{}, err
	}
	c, r, err := fig3Replay(sc, ds, "Dynamic learning")
	if err != nil {
		return c, err
	}
	c.Detail = fmt.Sprintf("type2=%d type3=%d learned=%d",
		r.Hosts[1].Type2Frames, r.Hosts[1].Type3Frames, r.Learning.Learned)
	return c, nil
}
