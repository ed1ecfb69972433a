package main

import (
	"bytes"
	"math"
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// userHZ is the unit of /proc/stat's CPU fields (sysconf(_SC_CLK_TCK),
// 100 on every Linux this runs on).
const userHZ = 100

// stamp is one reading of the three clocks a timed interval needs.
type stamp struct {
	wall  time.Time
	cpu   float64 // process user+sys seconds (getrusage)
	steal float64 // hypervisor steal seconds, summed over vCPUs
}

// interval is the difference of two stamps. corrected is the wall time
// with hypervisor steal taken out: steal is reported summed over every
// vCPU, so it is divided by the parallelism the process ran at before it
// is subtracted from the wall.
type interval struct {
	wall, cpu, steal, corrected float64
}

func now() stamp {
	return stamp{wall: time.Now(), cpu: cpuSeconds(), steal: stealSeconds()}
}

func since(a stamp) interval {
	b := now()
	iv := interval{
		wall:  b.wall.Sub(a.wall).Seconds(),
		cpu:   b.cpu - a.cpu,
		steal: b.steal - a.steal,
	}
	iv.corrected = stealCorrected(iv.wall, iv.cpu, iv.steal)
	return iv
}

// stealCorrected implements wall − steal / max(1, (cpu + steal) / wall).
func stealCorrected(wall, cpu, steal float64) float64 {
	if wall <= 0 || steal <= 0 {
		return wall
	}
	par := math.Max(1, (cpu+steal)/wall)
	if c := wall - steal/par; c > 0 {
		return c
	}
	return wall
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stealSeconds reads the steal field (the 8th value) of /proc/stat's
// aggregate cpu line; 0 where the file or the field is absent.
func stealSeconds() float64 {
	ticks, _ := procStatSteal()
	return float64(ticks) / userHZ
}

func procStatSteal() (ticks uint64, reported bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseUint(string(fields[8]), 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// peakRSSMB is VmHWM of this process in MB (0 where /proc is absent).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, _ := strconv.ParseFloat(string(f[0]), 64)
			return kb / 1024
		}
	}
	return 0
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median of xs (mean of the two middle values for an even count); 0 for
// an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the q-quantile of xs by linear interpolation between the
// order statistics at position q·(n−1).
func quantile(xs []float64, q float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartileSpread is (Q3 − Q1) / median with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method) —
// the spread the driver gates a benchmark's repeatability on.
func quartileSpread(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		m := n + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
