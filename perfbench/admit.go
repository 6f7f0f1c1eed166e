package main

import (
	"bytes"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// live-admit: the governed handler chain called in-process, closed loop,
// no sockets: one caller for the end-to-end figures, GOMAXPROCS callers
// in the traced run. Sixteen tenants, four of them
// over budget and the rest unlimited; caller 0 also runs a monitor round (alert battery,
// watchdog, rebalancer writing through Enforcer.Sync) every
// admitTickEvery of its requests, so writes run beside admission reads.

var admitSpec = liveSpec{good: 12, flood: 4, floodLimit: 0.001, handler: okHandler}

const (
	admitTickEvery  = 4096
	admitSeqLen     = 4096 // tenant sequence per caller, cycled
	admitTimeEvery  = 8    // time one call in this many
	admitWarmCalls  = 20000
	setupReps       = 5
	admitTraceEvery = 16
)

var okBody = []byte("ok")

var okHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { _, _ = w.Write(okBody) })

// respWriter is a reusable in-memory ResponseWriter.
type respWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.h }

func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

func (w *respWriter) reset() {
	clear(w.h)
	w.code = 0
	w.body.Reset()
}

type admitResult struct {
	calls, bad int64
	wall, cpu  time.Duration
	mallocs    uint64
	heapMB     float64
	// Per-window throughput, CPU per call and latency samples; the
	// end-to-end figures are medians over windows.
	rates, cpus []float64
	windows     [][]float64
}

// admitWindow is the length of one measurement window.
const admitWindow = time.Second

// admitPhase drives w from callers goroutines until budget has passed,
// or each caller has made maxCalls calls when maxCalls > 0.
func admitPhase(w *liveWorld, callers int, budget time.Duration, maxCalls int64, seed int64) admitResult {
	nwin := int(budget/admitWindow) + 1
	var (
		stop   atomic.Bool
		win    atomic.Int64
		wg     sync.WaitGroup
		counts = make([]atomic.Int64, callers)
		bad    = make([]int64, callers)
		lat    = make([][]*reservoir, callers)
	)
	ready := make(chan struct{})
	for g := 0; g < callers; g++ {
		rng := rand.New(rand.NewSource(seed*7919 + int64(g)))
		seq := make([]int, admitSeqLen)
		for i := range seq {
			seq[i] = rng.Intn(len(w.tenants))
		}
		reqs := make([]*http.Request, len(w.tenants))
		for i, name := range w.names {
			r, _ := http.NewRequest(http.MethodGet, "http://bench/work", nil)
			r.Header.Set(tenantHeader, name)
			reqs[i] = r
		}
		for i := 0; i < nwin; i++ {
			lat[g] = append(lat[g], newReservoir(4096, seed+int64(g*nwin+i)))
		}
		rw := &respWriter{h: http.Header{}}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-ready
			res := lat[g][0]
			var n, nbad int64
			for ; maxCalls == 0 || n < maxCalls; n++ {
				if n&63 == 0 {
					if stop.Load() {
						break
					}
					counts[g].Store(n)
					if i := int(win.Load()); i < nwin {
						res = lat[g][i]
					}
				}
				t := seq[n%admitSeqLen]
				rw.reset()
				if n%admitTimeEvery == 0 {
					t0 := time.Now()
					w.h.ServeHTTP(rw, reqs[t])
					res.add(float64(time.Since(t0).Nanoseconds()))
				} else {
					w.h.ServeHTTP(rw, reqs[t])
				}
				if !w.isFlood[t] && (rw.code != http.StatusOK || !bytes.Equal(rw.body.Bytes(), okBody)) {
					nbad++
				}
				if g == 0 && n%admitTickEvery == admitTickEvery-1 {
					w.tick()
				}
			}
			counts[g].Store(n)
			bad[g] = nbad
		}(g)
	}
	total := func() int64 {
		var n int64
		for g := range counts {
			n += counts[g].Load()
		}
		return n
	}
	r := admitResult{}
	heap := watchHeap()
	m0 := readMeter()
	close(ready)
	if maxCalls == 0 {
		prev, prevCalls := m0, int64(0)
		for i := 0; i < nwin-1; i++ {
			time.Sleep(admitWindow)
			cur, calls := readMeter(), total()
			win.Store(int64(i + 1))
			if d := calls - prevCalls; d > 0 {
				r.rates = append(r.rates, float64(d)/cur.wall.Sub(prev.wall).Seconds())
				r.cpus = append(r.cpus, float64((cur.cpu-prev.cpu).Nanoseconds())/1e3/float64(d))
			}
			prev, prevCalls = cur, calls
		}
		time.Sleep(budget - time.Duration(nwin-1)*admitWindow)
		stop.Store(true)
	}
	wg.Wait()
	m1 := readMeter()
	r.wall, r.cpu, r.mallocs, r.heapMB = m1.wall.Sub(m0.wall), m1.cpu-m0.cpu, m1.mallocs-m0.mallocs, heap.finish()
	for g := range counts {
		r.calls += counts[g].Load()
		r.bad += bad[g]
	}
	if len(r.rates) == 0 && r.calls > 0 { // a phase shorter than one window
		r.rates = []float64{float64(r.calls) / r.wall.Seconds()}
		r.cpus = []float64{float64(r.cpu.Nanoseconds()) / 1e3 / float64(r.calls)}
	}
	for i := 0; i < nwin; i++ {
		var samples []float64
		for g := range lat {
			samples = append(samples, lat[g][i].buf...)
		}
		r.windows = append(r.windows, samples)
	}
	return r
}

func runLiveAdmit(cfg runConfig) (*outcome, error) {
	oc := newOutcome(cfg)
	callers := runtime.GOMAXPROCS(0)
	mainBudget := cfg.budget
	if cfg.trace {
		mainBudget = cfg.budget * 2 / 5
	}
	var (
		w       *liveWorld
		setups  []float64
		entered int64
		err     error
	)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if w, err = newLiveWorld(admitSpec, nil); err != nil {
			return nil, err
		}
		warm := admitPhase(w, 1, 0, admitWarmCalls, cfg.seed)
		setups = append(setups, time.Since(t0).Seconds())
		entered = warm.calls
		oc.attempted += warm.calls
		if warm.bad > 0 {
			oc.fail(warm.bad, "live-admit: %d good-tenant requests failed during warm-up", warm.bad)
		}
	}
	// The bounded figures come from one caller: with GOMAXPROCS callers
	// every vCPU is busy, and over ten runs of the same code their
	// medians spread by 27% with the host's load. The traced run measures
	// GOMAXPROCS callers too, for admit_scale_x and lock contention.
	res := admitPhase(w, 1, mainBudget, 0, cfg.seed)
	entered += res.calls
	oc.attempted += res.calls
	if res.bad > 0 {
		oc.fail(res.bad, "live-admit: %d good-tenant requests were refused or answered wrongly", res.bad)
	}
	sum := summarize(res.windows)
	oc.latency = sum
	p50, p99, nwin := windowed(res.windows)
	oc.e2e["setup_s"] = median(setups)
	oc.e2e["ops_per_s"] = median(res.rates)
	oc.e2e["cpu_us_per_op"] = median(res.cpus)
	oc.e2e["allocs_per_op"] = float64(res.mallocs) / float64(res.calls)
	oc.e2e["heap_live_mb"] = res.heapMB
	oc.e2e["p50_us"] = p50 / 1e3
	oc.layer["latency.p99_us"] = p99 / 1e3
	oc.layer["latency.samples"] = float64(sum.N)
	oc.note("one caller, closed loop, %d tenants (%d over budget); one call in %d timed; rates, CPU and percentiles are medians over %d windows of %v",
		admitSpec.good+admitSpec.flood, admitSpec.flood, admitTimeEvery, nwin, admitWindow)
	if !cfg.trace {
		w.check(oc, uint64(entered))
		w.counts(oc)
		return oc, nil
	}

	all := admitPhase(w, callers, cfg.budget/5, 0, cfg.seed)
	entered += all.calls
	oc.attempted += all.calls
	if all.bad > 0 {
		oc.fail(all.bad, "live-admit: %d good-tenant requests failed on %d callers", all.bad, callers)
	}
	oc.layer["admit_scale_x"] = median(all.rates) / median(res.rates)
	oc.note("one caller: %.0f req/s; %d callers: %.0f req/s", median(res.rates), callers, median(all.rates))
	w.check(oc, uint64(entered))
	w.counts(oc)

	// Traced world: span wrappers, CPU and mutex profiles, then an
	// allocation-profiled phase.
	tr := newTracer(1<<19, admitTraceEvery)
	tw, err := newLiveWorld(admitSpec, tr)
	if err != nil {
		return nil, err
	}
	tEntered := admitPhase(tw, 1, 0, admitWarmCalls, cfg.seed).calls
	oc.attempted += tEntered
	prof, err := startProfiles()
	if err != nil {
		return nil, err
	}
	traced := admitPhase(tw, callers, cfg.budget/5, 0, cfg.seed)
	samples, mutex := prof.stop(oc)
	spans := tr.recorded()
	tEntered += traced.calls
	oc.attempted += traced.calls
	oc.traceOverhead = (float64(traced.wall.Nanoseconds())/float64(traced.calls))/(float64(all.wall.Nanoseconds())/float64(all.calls)) - 1
	oc.cpu = cpuShares(samples)
	oc.layer["rcruntime.mutex_wait_ns_per_op"] = mutexWaitNs(mutex, "rcruntime") / float64(traced.calls)

	before := takeAllocSnapshot()
	runtime.MemProfileRate = 1
	alloc := admitPhase(tw, callers, cfg.budget/5, 0, cfg.seed)
	runtime.MemProfileRate = defaultMemProfileRate
	after := takeAllocSnapshot()
	tEntered += alloc.calls
	oc.attempted += alloc.calls
	oc.allocs = allocsByLayer(before, after)
	oc.allocOps = alloc.calls
	oc.layer["rcruntime.allocs_per_op"] = oc.allocs["rcruntime"] / float64(alloc.calls)
	oc.layer["nethttp.allocs_per_op"] = oc.allocs[layerHTTP] / float64(alloc.calls)
	if bad := traced.bad + alloc.bad; bad > 0 {
		oc.fail(bad, "live-admit: %d good-tenant requests failed while traced", bad)
	}
	tw.check(oc, uint64(tEntered))

	oc.spanLayers(reduceSpans(spans))
	oc.saveArtifact("spans.jsonl", writeSpans(spans, 200000))
	return oc, nil
}
