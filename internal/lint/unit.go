package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
)

// Analyzers is the ziplint suite, in reporting order.
var Analyzers = []*Analyzer{Noalloc, Determinism, StreamClose, Emitbuf}

// VetConfig is the JSON configuration the go command hands a
// -vettool for each package unit — the unitchecker protocol. Field
// names and semantics follow cmd/go/internal/work's vet config.
type VetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// RunUnit executes the analyzers on one vet unit described by cfgFile
// and returns the process exit code: 0 clean, 2 with findings, 1 on
// driver errors. Diagnostics go to stderr in plain mode or stdout as
// JSON, matching what the go command expects from a vettool.
func RunUnit(cfgFile string, analyzers []*Analyzer, jsonOut bool, stdout, stderr io.Writer) int {
	cfg, err := readVetConfig(cfgFile)
	if err != nil {
		fmt.Fprintln(stderr, "ziplint:", err)
		return 1
	}
	// The go command requires the facts file to exist after every run,
	// including fact-only runs for dependencies. ziplint's analyzers
	// exchange no facts, so the file is empty.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(stderr, "ziplint:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	imp := mappedImporter{importMap: cfg.ImportMap, gc: exportData(fset, cfg.Compiler, cfg.PackageFile)}
	pkg, err := checkFiles(fset, imp, cfg.ImportPath, cfg.Dir, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(stderr, "ziplint:", err)
		return 1
	}
	diags := Run([]*Package{pkg}, analyzers)

	if jsonOut {
		return printJSONDiagnostics(stdout, cfg.ImportPath, diags)
	}
	for _, d := range diags {
		fmt.Fprintf(stderr, "%s: %s\n", d.Pos, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// printJSONDiagnostics emits the vettool JSON shape:
// {"pkgpath": {"analyzer": [{"posn": ..., "message": ...}]}}.
func printJSONDiagnostics(w io.Writer, importPath string, diags []Diagnostic) int {
	type jsonDiag struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	byAnalyzer := make(map[string][]jsonDiag)
	for _, d := range diags {
		byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], jsonDiag{
			Posn:    d.Pos.String(),
			Message: d.Message,
		})
	}
	out := map[string]map[string][]jsonDiag{importPath: byAnalyzer}
	data, err := json.MarshalIndent(out, "", "\t")
	if err != nil {
		return 1
	}
	fmt.Fprintln(w, string(data))
	return 0
}

func readVetConfig(path string) (*VetConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg := new(VetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("parsing vet config %s: %v", path, err)
	}
	return cfg, nil
}
