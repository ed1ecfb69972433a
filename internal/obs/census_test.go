package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// registering names the methods that put a series into a registry: the
// Registry's and Recorder's own, and the package-local wrappers
// (service's counter and gauge) that take the name as their first
// argument.
var registering = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
	"CounterWith": true, "GaugeWith": true,
	"counter": true, "gauge": true,
}

// indirectSeries are the series whose names reach the registry through a
// variable, so the scan of string literals cannot see them, each with
// where the name is made.
var indirectSeries = map[string]string{
	"service.completed":     "internal/service/service.go: terminalCounters",
	"service.failed":        "internal/service/service.go: terminalCounters",
	"service.canceled":      "internal/service/service.go: terminalCounters",
	"sim.worker.NN.busy_ns": `internal/sim/scheduler.go: fmt.Sprintf("sim.worker.%02d.busy_ns", w)`,
}

// registeredSeries returns every series name that the module's non-test
// Go files pass as a string literal to a registering method, with the
// first place each is registered. The bench module is not production
// code and is not scanned.
func registeredSeries(t *testing.T, root string) map[string]string {
	t.Helper()
	found := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "bench", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !registering[sel.Sel.Name] {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, _ := strconv.Unquote(lit.Value) // the parser accepted the literal
			if _, seen := found[name]; !seen {
				rel, _ := filepath.Rel(root, path)
				found[name] = rel + ":" + strconv.Itoa(fset.Position(lit.Pos()).Line)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

// TestREADMEHasEverySeries keeps README's "Metric series" table a
// census: every series family that production code registers has a row
// whose first cell names it, and every row names a registered series.
func TestREADMEHasEverySeries(t *testing.T) {
	root := filepath.Join("..", "..")
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n### Metric series\n")
	if !ok {
		t.Fatal(`README.md has no "### Metric series" section`)
	}
	section, _, _ = strings.Cut(section, "\n#")
	rows := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllStringSubmatch(section, -1) {
		rows[m[1]] = true
	}

	series := registeredSeries(t, root)
	if len(series) == 0 {
		t.Fatal("the scan found no registered series")
	}
	for name, where := range indirectSeries {
		series[name] = where
	}
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !rows[name] {
			t.Errorf("README.md's metric table has no row for %s (registered at %s)", name, series[name])
		}
	}
	for name := range rows {
		if _, ok := series[name]; !ok {
			t.Errorf("README.md's metric table documents %s, which nothing registers", name)
		}
	}
}
