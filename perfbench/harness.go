package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

var defaultMemProfileRate = runtime.MemProfileRate

// runConfig is what a workload gets from the command line.
type runConfig struct {
	seed     int64
	budget   time.Duration // wall time to spend measuring
	trace    bool
	artifact string // directory for the traced run's spans and profiles
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted, failed int64
	failures          []string

	e2e   map[string]float64
	layer map[string]float64

	latency latencySummary
	digest  string
	notes   []string

	// Traced run only.
	traceOverhead float64
	cpu           map[string]float64 // owner -> share of CPU samples
	allocs        map[string]float64 // owner -> allocations
	allocOps      int64
	spanSum       []ledgerRow // per-op span costs set against the end-to-end cost
	e2eCost       float64     // the span ledger's end-to-end cost, same unit
	e2eCostName   string
	artifactDir   string
}

type ledgerRow struct {
	name  string
	value float64
}

func newOutcome(cfg runConfig) *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, artifactDir: cfg.artifact}
}

func (oc *outcome) fail(ops int64, format string, args ...any) {
	oc.failed += ops
	oc.failures = append(oc.failures, fmt.Sprintf(format, args...))
}

func (oc *outcome) note(format string, args ...any) {
	oc.notes = append(oc.notes, fmt.Sprintf(format, args...))
}

// saveArtifact writes one trace output file; a failure to write is
// reported but does not invalidate the measurement.
func (oc *outcome) saveArtifact(name string, data []byte) {
	if oc.artifactDir == "" {
		return
	}
	if err := os.MkdirAll(oc.artifactDir, 0o755); err != nil {
		oc.note("cannot write %s: %v", name, err)
		return
	}
	if err := os.WriteFile(filepath.Join(oc.artifactDir, name), data, 0o644); err != nil {
		oc.note("cannot write %s: %v", name, err)
	}
}

// meter is a reading of the process's wall clock, CPU time and heap
// allocation count.
type meter struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
}

func readMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{wall: time.Now(), cpu: processCPU(), mallocs: ms.Mallocs}
}

// processCPU is the process's user+system CPU time (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapLive samples the live heap: the bytes the last completed garbage
// collection marked reachable. It reports the median sample, because
// the marked heap also holds whatever was allocated while marking ran,
// so its peak over hundreds of collections mostly measures where a
// cycle happened to fall.
type heapLive struct {
	s       []metrics.Sample
	samples []float64
}

func newHeapLive() *heapLive {
	h := &heapLive{s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}, samples: make([]float64, 0, 4096)}
	h.sample()
	return h
}

func (h *heapLive) sample() {
	metrics.Read(h.s)
	if len(h.samples) < cap(h.samples) {
		h.samples = append(h.samples, float64(h.s[0].Value.Uint64()))
	}
}

func (h *heapLive) medianMB() float64 { return median(h.samples) / (1 << 20) }

// heapWatch samples heapLive every 10 ms from its own goroutine until
// finish returns.
type heapWatch struct {
	h    *heapLive
	stop chan struct{}
	done chan struct{}
}

func watchHeap() *heapWatch {
	w := &heapWatch{h: newHeapLive(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.h.sample()
			}
		}
	}()
	return w
}

func (w *heapWatch) finish() float64 {
	close(w.stop)
	<-w.done
	w.h.sample()
	return w.h.medianMB()
}

// coarseSleep sleeps on the runtime's timers, which wake up to about a
// millisecond late.
func coarseSleep(until time.Time) { time.Sleep(time.Until(until)) }

// fingerprint identifies the machine and toolchain a result came from;
// timings compare only between equal fingerprints.
type fingerprint struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

func machine() fingerprint {
	return fingerprint{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: cpuModel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (f fingerprint) String() string {
	return fmt.Sprintf("%s/%s, %s, nproc=%d, GOMAXPROCS=%d, %s", f.GOOS, f.GOARCH, f.CPU, f.NumCPU, f.GOMAXPROCS, f.GoVersion)
}
