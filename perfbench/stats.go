package main

import (
	"bufio"
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs;
// xs need not be sorted and is not modified. It is 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median is the middle value of xs, or the mean of the middle two when xs
// has an even count; 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 || n%2 == 1 {
		return percentile(xs, 50)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[n/2-1] + s[n/2]) / 2
}

// tailMean is the mean of the slowest tenth of xs (at least one value). On
// this benchmark's mixes it reads far steadier from run to run than a high
// percentile: the percentiles of a mix of hits and misses jump between the
// classes' latencies with the mix's small chance variations.
func tailMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := max(1, len(s)/10)
	var sum float64
	for _, v := range s[len(s)-k:] {
		sum += v
	}
	return sum / float64(k)
}

// midMean is the mean of the middle half of xs (all of xs when it has fewer
// than four values); 0 for an empty sample.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// groupedMedian splits xs, in the order given, into consecutive groups of
// size values (a short last group joins the one before it), applies stat to
// each group and returns the median of the results. A stall of a few seconds
// on a shared host then moves one or two groups, not the figure: a tail
// taken over the whole sample would be made of the stall alone.
func groupedMedian(xs []float64, size int, stat func([]float64) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	size = max(1, size)
	var per []float64
	for lo := 0; lo < len(xs); {
		hi := lo + size
		if len(xs)-hi < size {
			hi = len(xs)
		}
		per = append(per, stat(xs[lo:hi]))
		lo = hi
	}
	return median(per)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// resetPeakRSS restarts the kernel's peak-RSS tracking (VmHWM), so a later
// maxRSSMiB reports the peak of the timed window rather than of set-up
// instances already torn down. Where the kernel refuses, the peak stays the
// process lifetime's.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// maxRSSMiB is the process's peak resident set size (VmHWM), in MiB.
func maxRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / mib
		}
	}
	return 0
}

// setupTimes repeats a workload's set-up and reports the median duration:
// build runs reps times, every instance but the last is torn down, and the
// last one is returned for the timed window. The first repetition is timed
// from process start, so it also carries the process's own start-up cost.
func setupTimes[T any](cfg runConfig, reps int, build func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		inst  T
		times []float64
	)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if i == 0 {
			start = cfg.procStart
		}
		v, err := build()
		if err != nil {
			return inst, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < reps-1 {
			teardown(v)
		} else {
			inst = v
		}
	}
	// Return the torn-down instances' memory to the OS and restart the peak,
	// so max_rss_mb measures the timed window with one live instance.
	debug.FreeOSMemory()
	resetPeakRSS()
	return inst, median(times), nil
}

// runtimeSample is a runtime/metrics reading taken around a timed window.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// heapPeak samples the live heap every few milliseconds until stopped and
// remembers the largest reading: runtime/metrics exposes no peak of its own.
type heapPeak struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak.Load()) / mib
}

// runtimeWindow brackets a traced window with runtime/metrics readings.
type runtimeWindow struct {
	before runtimeSample
	peak   *heapPeak
}

func startRuntimeWindow() *runtimeWindow {
	return &runtimeWindow{before: readRuntime(), peak: startHeapPeak()}
}

// finish records runtime.alloc_mb_per_op, runtime.gc_cpu_frac and
// runtime.heap_peak_mb for a window that completed ops requests.
func (w *runtimeWindow) finish(rep *report, ops int) {
	after := readRuntime()
	rep.values["runtime.heap_peak_mb"] = w.peak.finish()
	if ops > 0 {
		rep.values["runtime.alloc_mb_per_op"] = (after.allocBytes - w.before.allocBytes) / mib / float64(ops)
	}
	if cpu := after.totalCPU - w.before.totalCPU; cpu > 0 {
		rep.values["runtime.gc_cpu_frac"] = (after.gcCPU - w.before.gcCPU) / cpu
	}
}
