// Command ziplint is ZipLine's invariant checker: a multichecker over
// the internal/lint analyzers (noalloc, determinism, streamclose,
// emitbuf) that enforces at the source level what PRs 3–5 established
// by hand-audit — allocation-free hot paths, deterministic simulation
// reports, and checked stream-close errors.
//
// It runs two ways:
//
//	ziplint [packages]              # standalone, defaults to ./...
//	go vet -vettool=$(which ziplint) [-json] ./...
//
// The second form speaks the go command's unitchecker protocol
// (-V=full, -flags, and per-package .cfg files), so ziplint slots into
// `go vet` exactly like an x/tools-based vet tool and CI can cache it
// per package.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"zipline/internal/lint"
)

func main() {
	os.Exit(run(os.Args, os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	args := argv[1:]
	jsonOut := false
	var rest []string
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "--V=full":
			return printVersion(argv[0], stdout, stderr)
		case a == "-flags" || a == "--flags":
			return printFlags(stdout)
		case a == "-json" || a == "--json":
			jsonOut = true
		case strings.HasPrefix(a, "-"):
			// Unknown driver flags (the go command only passes flags
			// ziplint advertised via -flags, so anything else is a
			// user typo).
			fmt.Fprintf(stderr, "ziplint: unknown flag %s\n", a)
			return 2
		default:
			rest = append(rest, a)
		}
	}

	// Unit-checker mode: the go command hands one package config file.
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return lint.RunUnit(rest[0], lint.Analyzers, jsonOut, stdout, stderr)
	}

	// Standalone mode: load and analyze packages ourselves. Only the
	// vet unit protocol has a JSON shape, so -json here is misuse.
	if jsonOut {
		fmt.Fprintln(stderr, "ziplint: -json is only supported under go vet -vettool")
		return 2
	}
	patterns := rest
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "ziplint:", err)
		return 1
	}
	pkgs, err := lint.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "ziplint:", err)
		return 1
	}
	diags := lint.Run(pkgs, lint.Analyzers)
	for _, d := range diags {
		fmt.Fprintf(stdout, "%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// printVersion implements the -V=full handshake: the go command hashes
// this line into its build cache key, so it must change when the tool
// binary changes — hence the executable content hash.
func printVersion(argv0 string, stdout, stderr io.Writer) int {
	progname := filepath.Base(argv0)
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "ziplint:", err)
		return 1
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintln(stderr, "ziplint:", err)
		return 1
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(stderr, "ziplint:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s version devel comments-go-here buildID=%02x\n", progname, h.Sum(nil))
	return 0
}

// printFlags advertises the driver flags ziplint accepts, in the JSON
// shape `go vet` queries before deciding what to pass.
func printFlags(stdout io.Writer) int {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	flags := []jsonFlag{
		{Name: "json", Bool: true, Usage: "emit JSON output"},
	}
	data, err := json.Marshal(flags)
	if err != nil {
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	return 0
}
