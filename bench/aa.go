package main

import (
	"fmt"
	"io"
	"math"
)

// runAA runs the whole benchmark 2N times, alternating the runs into
// set A and set B, and prints per workload and end-to-end metric both
// medians, their relative difference, each set's quartile spread, the
// bound, and PASS or FAIL. Run i uses -seed i, so the table is also the
// driver's acceptance test: spreads across seeds within the bound, the
// second median no worse than the first by more than the bound.
func runAA(n int, cfg runConfig, stdout, stderr io.Writer) int {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < 2*n; i++ {
		cfg.seed = uint64(i + 1)
		for _, w := range workloads {
			line, err := childRun(w, cfg, 0, nil)
			if err != nil {
				fmt.Fprintf(stderr, "bench: run %d: %v\n", i+1, err)
				return 1
			}
			if !line.Correct {
				fmt.Fprintf(stderr, "bench: run %d: %s: %d of %d operations failed\n", i+1, w.name, line.Failed, line.Attempted)
				return 1
			}
			for name, m := range line.Metrics {
				k := key{w.name, name}
				sets[i%2][k] = append(sets[i%2][k], m.Value)
			}
			fmt.Fprintf(stderr, "run %d/%d %s done\n", i+1, 2*n, w.name)
		}
	}
	fails := 0
	fmt.Fprintf(stdout, "| workload | metric | median A | median B | B vs A | spread A | spread B | bound | |\n")
	fmt.Fprintf(stdout, "|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0][key{w.name, d.name}], sets[1][key{w.name, d.name}]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / math.Abs(ma) // how much worse B's median is than A's
			if d.better == "higher" {
				worse = -worse
			}
			sa, sb := quartileSpread(a), quartileSpread(b)
			verdict := "PASS"
			// setup_s is gated on its medians only; the driver exempts its spread.
			if worse > d.bound || (d.name != "setup_s" && (sa > d.bound || sb > d.bound)) {
				verdict = "FAIL"
				fails++
			}
			fmt.Fprintf(stdout, "| %s | %s | %.6g | %.6g | %+.2f%% | %.2f%% | %.2f%% | %.3g%% | %s |\n",
				w.name, d.name, ma, mb, 100*(mb-ma)/math.Abs(ma), 100*sa, 100*sb, 100*d.bound, verdict)
		}
	}
	if fails > 0 {
		fmt.Fprintf(stderr, "bench: %d workload x metric pairs outside their bound\n", fails)
		return 1
	}
	return 0
}
