package main

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// median returns the middle value (mean of the two middle values for even
// lengths); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile with the method of Python's
// statistics.quantiles(v, n=4) (the default "exclusive" method), so the
// spreads computed here match the ones a reader computes from the raw values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return math.Inf(1)
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// latencies collects latency samples in milliseconds.
type latencies struct{ ms []float64 }

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, float64(d)/1e6) }

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: a p99.9 over 2000 samples is the second-largest sample, not a
// p99.9.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile and whether at least
// minBeyond samples lie beyond it.
func (l *latencies) percentile(q float64) (float64, bool) {
	n := len(l.ms)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(l.ms)
	rank := max(1, int(math.Ceil(q*float64(n))))
	return l.ms[rank-1], n-rank >= minBeyond
}

// addPercentiles stores commit_p50_ms, commit_p99_ms and commit_p999_ms and
// their sample count, or records a problem when a percentile has fewer than
// minBeyond samples beyond it.
func (o *outcome) addPercentiles(l *latencies) {
	o.extra["commit_samples"] = float64(len(l.ms))
	for _, p := range []struct {
		name string
		q    float64
	}{{"commit_p50_ms", 0.50}, {"commit_p99_ms", 0.99}, {"commit_p999_ms", 0.999}} {
		v, ok := l.percentile(p.q)
		if !ok {
			o.problemf("%s: only %d samples, fewer than %d beyond the percentile", p.name, len(l.ms), minBeyond)
		}
		o.set(p.name, v)
	}
}

// roundPercentiles appends one round's commit_p50_ms, commit_p99_ms and
// commit_p999_ms to their per-round values, so the run reports each as the
// median over rounds, and keeps the round's largest latency as commit_max_ms
// in the record. A percentile with fewer than minBeyond samples beyond it is
// a problem.
func (o *outcome) roundPercentiles(l *latencies) {
	o.extra["commit_samples"] += float64(len(l.ms))
	for _, p := range []struct {
		name string
		q    float64
	}{{"commit_p50_ms", 0.50}, {"commit_p99_ms", 0.99}, {"commit_p999_ms", 0.999}, {"commit_max_ms", 1}} {
		v, ok := l.percentile(p.q)
		if !ok && p.q < 1 {
			o.problemf("%s: only %d samples in a round, fewer than %d beyond the percentile", p.name, len(l.ms), minBeyond)
		}
		o.round(p.name, v)
	}
}

// heapSampler tracks the peak of live heap objects by polling
// runtime/metrics (which does not stop the world) every 5ms.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.sample()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// finish stops the sampler and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.wg.Wait()
	h.sample()
	return float64(h.peak.Load()) / (1 << 20)
}

// runtimeCounters is a snapshot of the Go runtime's cumulative GC CPU time,
// total CPU time and allocated bytes.
type runtimeCounters struct{ gcCPU, totalCPU, allocBytes float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeCounters{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: float64(s[2].Value.Uint64()),
	}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.allocBytes - b.allocBytes}
}

// gcShare is the GC's share of the process's CPU time over the interval.
// The runtime refreshes its CPU classes only at GC boundaries, so the share
// is taken over a whole run, not a short window.
func (a runtimeCounters) gcShare() float64 {
	if a.totalCPU <= 0 {
		return 0
	}
	return a.gcCPU / a.totalCPU
}

// settle collects garbage left by earlier rounds so each round's set-up and
// heap peak start from the same state.
func settle() {
	runtime.GC()
	runtime.GC()
}

// fingerprint identifies the machine and build a result was measured on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

// cpuTicks reads the aggregate cpu line of /proc/stat: the clock ticks the
// hypervisor stole from this machine's CPUs and the total ticks. Both are 0
// where /proc/stat cannot be read.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, field := range f[1:9] {
		v, _ := strconv.ParseUint(field, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func machineFingerprint() fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from .git without running git; a
// checkout exported without .git reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
