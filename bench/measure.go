package main

import (
	"bufio"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// hostSnap is one reading of every host-side cost the benchmark reports:
// wall clock, process CPU time (user+system over all threads, so GC workers
// count) and the allocator's cumulative counters.
type hostSnap struct {
	wall    time.Time
	cpuNs   int64
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNs uint64
}

func readHost() hostSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSnap{
		wall:    time.Now(),
		cpuNs:   cpuTimeNs(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
}

// cpuTimeNs reports the process's user+system CPU time.
func cpuTimeNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var kb float64
		if _, err := fmt.Sscanf(sc.Text(), "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

// loadAvg1 reads the 1-minute load average (0 when /proc is unavailable).
func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	var v float64
	if _, err := fmt.Sscan(strings.Fields(string(b))[0], &v); err != nil {
		return 0
	}
	return v
}

// dist summarizes repeated readings of one metric.
type dist struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// iqr is the distance between the quartiles.
func (d dist) iqr() float64 { return d.Q3 - d.Q1 }

// summarize computes the order statistics the reports print. Quartiles
// follow Python's statistics.quantiles(values, n=4) (exclusive method), the
// definition the benchmark contract's spread check uses.
func summarize(v []float64) dist {
	if len(v) == 0 {
		return dist{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	d := dist{Median: quantile(s, 0.5), Min: s[0], Max: s[len(s)-1], N: len(s)}
	d.Q1, d.Q3 = d.Median, d.Median
	if len(s) >= 2 {
		d.Q1, d.Q3 = quantile(s, 0.25), quantile(s, 0.75)
	}
	return d
}

// quantile interpolates the p-quantile of sorted s at position p*(n+1),
// clamped to the sample range.
func quantile(s []float64, p float64) float64 {
	n := len(s)
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(math.Floor(pos))
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return summarize(v).Median }

// percentile reports the p-quantile of unsorted v (0 for an empty sample).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, p)
}

// digest is the FNV-64a hash the simulated-state fingerprint is built on.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

// add folds the %+v rendering of each value: the Stats structs hold only
// integers and durations, so the rendering is a canonical serialization.
func (d digest) add(vals ...any) {
	for _, v := range vals {
		fmt.Fprintf(d.h, "%+v|", v)
	}
}

func (d digest) sum() uint64 { return d.h.Sum64() }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Host times are reported in reference-box time. The sandbox shares its
// cores' siblings and caches with other tenants, and its speed shifts by
// tens of percent from one minute to the next — for whole runs at a time,
// so medians over rounds do not remove it. Each round therefore times a
// fixed calibration kernel just before set-up and just after the timed
// window, and the round's host times are divided by (kernel time ÷
// calibNominalNs). A change to the program moves the program's time and not
// the kernel's, so regressions show undiminished; a slow spell of the
// machine moves both and mostly cancels. Raw readings stay available as
// bench.raw_* in the traced pass.
const calibNominalNs = 20e6 // the kernel's duration on the reference box in a quiet spell

// calibBufs is the kernel's working set, allocated once.
var calibBufs struct {
	table    []uint64
	src, dst []byte
	heap     []uint64
	sink     uint64
}

// calibrate times the calibration kernel, which is shaped like the
// simulator's own inner loops: a linear scan of a 256 KB table (the shadow
// store's id scan), 64 KB block copies (the fragment path), and a binary
// heap of 512 keys churned in place (the event queue).
func calibrate() float64 {
	const words = 32 << 10
	b := &calibBufs
	if b.table == nil {
		b.table = make([]uint64, words)
		for i := range b.table {
			b.table[i] = uint64(i+1) * 0x9E3779B97F4A7C15
		}
		b.src, b.dst = make([]byte, 64<<10), make([]byte, 64<<10)
		b.heap = make([]uint64, 0, 1024)
	}
	heap := b.heap[:0]
	t0 := time.Now()
	var hits uint64
	for rep := 0; rep < 160; rep++ {
		needle := uint64(rep)
		for _, v := range b.table {
			if v == needle {
				hits++
			}
		}
		for k := 0; k < 4; k++ {
			copy(b.dst, b.src)
			b.src[rep]++
		}
		for k := 0; k < 2000; k++ {
			heap = append(heap, b.table[(rep*2000+k)&(words-1)])
			for i := len(heap) - 1; i > 0; {
				p := (i - 1) / 2
				if heap[p] <= heap[i] {
					break
				}
				heap[p], heap[i] = heap[i], heap[p]
				i = p
			}
			if len(heap) < 512 {
				continue
			}
			n := len(heap) - 1
			heap[0] = heap[n]
			heap = heap[:n]
			for i := 0; ; {
				l, r, m := 2*i+1, 2*i+2, i
				if l < n && heap[l] < heap[m] {
					m = l
				}
				if r < n && heap[r] < heap[m] {
					m = r
				}
				if m == i {
					break
				}
				heap[m], heap[i] = heap[i], heap[m]
				i = m
			}
		}
	}
	b.sink += hits + uint64(b.dst[0]) + uint64(len(heap))
	return float64(time.Since(t0).Nanoseconds())
}
