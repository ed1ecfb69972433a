package main

import (
	"sync"
	"sync/atomic"
)

// The reference kernel measures how fast this machine is running right
// now. The sandbox shares its cores with other tenants: for minutes at a
// time identical work costs up to 30 % more CPU-seconds (a busy sibling
// hyperthread, a contended cache), and none of that shows as steal.
// Slices of a fixed synthetic kernel are interleaved with the timed
// campaigns; the ratio of their CPU time to nominalSliceCPU is the run's
// work-rate factor, and every timing is divided by it. The kernel shares
// no code with the repository, so a change to the program cannot move it.
//
// The kernel runs on refThreads goroutines, like a campaign's workers,
// and mixes what the simulators do: a generator drawing weighted picks,
// branchy state updates on a small slice, one allocation per instance,
// a table walk.
const (
	refThreads   = 2
	refInstances = 2200    // mini-simulations per thread and slice
	refWalk      = 6500000 // table-walk steps per thread and slice

	// nominalSliceCPU is the CPU-seconds of one slice on this sandbox when
	// nothing else contends for its cores (the fastest regime seen while
	// the benchmark was written). It only fixes the unit: timings read as
	// seconds of that regime.
	nominalSliceCPU = 0.2
)

var refSink atomic.Uint64

type refGen struct{ x uint64 }

func (g *refGen) next() uint64 {
	g.x ^= g.x << 13
	g.x ^= g.x >> 7
	g.x ^= g.x << 17
	return g.x
}

// pick draws an index with the given weights, which sum to 100.
func (g *refGen) pick(weights []int) int {
	r := int(g.next() % 100)
	for i, w := range weights {
		if r < w {
			return i
		}
		r -= w
	}
	return len(weights) - 1
}

// refInstance is one mini-simulation: 1200 cycles of a FIFO driven by
// weighted command picks, its occupancy thresholds folded into a bitset.
func refInstance(seed uint64, params map[string][]int) uint64 {
	g := &refGen{seed | 1}
	fifo := make([]int, 0, 128)
	cmd, burst := params["cmd"], params["burst"]
	var hit uint64
	for cyc := 0; cyc < 1200; cyc++ {
		switch g.pick(cmd) {
		case 0:
			if len(fifo) < cap(fifo) {
				fifo = append(fifo, cyc)
			}
		case 1:
			for k := g.pick(burst) + 1; k > 0 && len(fifo) < cap(fifo); k-- {
				fifo = append(fifo, cyc+k)
			}
		case 2:
			if len(fifo) > 0 {
				fifo = fifo[:len(fifo)-1]
			}
		}
		if g.next()%100 < 70 && len(fifo) > 0 {
			fifo = fifo[:len(fifo)-1]
		}
		for b, th := range [...]int{4, 8, 16, 32, 64, 96} {
			if len(fifo) >= th {
				hit |= 1 << uint(b)
			}
		}
	}
	return hit
}

// refSlice runs one slice of the kernel, or a div-th of one, and returns
// the process CPU-seconds it took. Nothing else may be running in the
// process.
func refSlice(div int) float64 {
	start := cpuSeconds()
	var wg sync.WaitGroup
	for th := 0; th < refThreads; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			params := map[string][]int{"cmd": {35, 30, 15, 20}, "burst": {40, 30, 20, 10}}
			var acc uint64
			for i := 0; i < refInstances/div; i++ {
				acc += refInstance(uint64(th*1000003+i+1), params)
			}
			var table [8192]uint64
			g := refGen{uint64(th) + 88172645463325252}
			for i := 0; i < refWalk/div; i++ {
				x := g.next()
				idx := x & 8191
				if table[idx]&1 == 0 {
					table[idx] += x
				} else {
					table[idx] ^= x >> 3
				}
				acc += table[(idx*31)&8191]
			}
			refSink.Add(acc)
		}()
	}
	wg.Wait()
	return cpuSeconds() - start
}

// workRate collects reference slices over a run. div shrinks every
// slice (smoke runs); the zero value runs full slices.
type workRate struct {
	div    int
	slices []float64 // CPU-seconds, scaled to a full slice
}

// sample runs n slices.
func (r *workRate) sample(n int) {
	div := max(r.div, 1)
	for i := 0; i < n; i++ {
		r.slices = append(r.slices, refSlice(div)*float64(div))
	}
}

// factor is how much slower than nominal the machine ran: the mean
// slice over nominalSliceCPU. Timings are divided by it. The mean, not
// the median: the machine flips between a fast and a slow mode several
// times a second, and what a campaign pays is the time-weighted mix.
func (r *workRate) factor() float64 {
	if len(r.slices) == 0 {
		return 1
	}
	return mean(r.slices) / nominalSliceCPU
}
