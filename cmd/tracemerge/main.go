// Command tracemerge combines per-process Chrome trace files from one
// fleet run — the dispatcher-side CLI's or cdgd's trace plus one per
// farmd worker, each written with -trace — into a single timeline that
// Perfetto renders with one named lane group per process. Remote chunk
// spans carry the same campaign/batch/chunk args on both sides of the
// wire, so a dispatcher's rpc span and the worker's serve_chunk span
// that executed it are correlated in the merged view.
//
// Usage:
//
//	tracemerge [-o merged.json] cdgd.trace farmd-a.trace farmd-b.trace
//
// Inputs may be the bare event array obs.Tracer writes or the
// {"traceEvents": [...]} object form. Each input's lane group is named
// after its file (without directory).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cli"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracemerge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write the merged trace to this file (default: stdout)")
	if code, done := cli.Parse(fs, args, stdout); done {
		return code
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: tracemerge [-o merged.json] <trace-file>...")
		return 2
	}

	files := make([]obs.TraceFile, 0, fs.NArg())
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return cli.Fail(fs, 1, err)
		}
		events, err := obs.ParseTrace(data)
		if err != nil {
			fmt.Fprintf(stderr, "tracemerge: %s: %v\n", path, err)
			return 1
		}
		files = append(files, obs.TraceFile{Name: filepath.Base(path), Events: events})
	}

	merged := obs.MergeTraces(files)
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return cli.Fail(fs, 1, err)
		}
		defer f.Close()
		w = f
	}
	if err := obs.WriteTrace(w, merged); err != nil {
		return cli.Fail(fs, 1, err)
	}
	if *out != "" {
		fmt.Fprintf(stdout, "tracemerge: %d events from %d traces -> %s\n",
			len(merged), len(files), *out)
	}
	return 0
}
