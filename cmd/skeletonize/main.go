// Command skeletonize runs the Skeletonizer on a test-template file and
// prints the resulting skeleton with every modifiable weight marked as
// "<?>" — the paper's Fig. 1(b) transformation.
//
// Usage:
//
//	skeletonize [-subranges 4] [-slots] file.tmpl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/skeleton"
	"repro/internal/template"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("skeletonize", flag.ContinueOnError)
	fs.SetOutput(stderr)
	subranges := fs.Int("subranges", 4, "number of equal-width subranges per range parameter")
	slots := fs.Bool("slots", false, "also list the skeleton's slots")
	var obsFlags cli.Obs
	if code, done := cli.Parse(fs, args, stdout, &obsFlags); done {
		return code
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: skeletonize [flags] <template-file>")
		return 2
	}
	if *subranges < 1 {
		return cli.Fail(fs, 2, fmt.Errorf("-subranges %d: want at least 1", *subranges))
	}

	rec, stopObs, code := obsFlags.Start(nil)
	if code != 0 {
		return code
	}
	defer stopObs()

	tmpl, err := template.ParseFile(fs.Arg(0))
	if err != nil {
		return cli.Fail(fs, 1, err)
	}
	ph := rec.PhaseStart("skeleton", map[string]any{"file": fs.Arg(0)})
	skel, err := skeleton.Skeletonize(tmpl, skeleton.Options{Subranges: *subranges})
	if err != nil {
		ph.End(nil)
		return cli.Fail(fs, 1, err)
	}
	ph.End(map[string]any{"dim": skel.Dim()})
	fmt.Fprint(stdout, skel.MarkedSource())
	if *slots {
		fmt.Fprintf(stdout, "\n// %d modifiable settings:\n", skel.Dim())
		for i, s := range skel.Slots() {
			kind := "weight"
			if s.Kind == skeleton.SlotSubrange {
				kind = "subrange"
			}
			fmt.Fprintf(stdout, "//   %2d: %s %s (%s)\n", i, s.Param, s.Label, kind)
		}
	}
	return 0
}
