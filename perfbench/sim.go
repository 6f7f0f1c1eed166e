package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"time"

	"rescon"
)

// Simulator workloads. One repetition builds a fresh simulation from the
// seed, warms it up (the set-up), then simulates a fixed virtual window
// (the measured part) and digests its outcome. Repetitions run until the
// phase's wall budget is spent, so every repetition does the same work
// and its digest must not change. A fixed window per repetition also
// keeps the heap a simulation holds independent of how fast it runs.

type simSpec struct {
	op       string // what one op is
	flood    bool   // sim-synflood: defended listener, flood, telemetry and alerts
	warmup   rescon.Duration
	window   rescon.Duration
	slices   int // latency samples per window
	floodPPS float64
}

// Windows last tens of milliseconds of wall time, so a run holds
// hundreds of repetitions and reports medians over them.
var simHTTP = simSpec{
	op:     "completed simulated request",
	warmup: 200 * rescon.Millisecond,
	window: 2 * rescon.Second,
	slices: 40,
}

var simSynflood = simSpec{
	op:       "connection attempt (flood SYN or client connect)",
	flood:    true,
	warmup:   100 * rescon.Millisecond,
	window:   250 * rescon.Millisecond,
	slices:   40,
	floodPPS: 70_000,
}

// defaultSeed is the seed whose outcome digests are recorded below.
const defaultSeed = 1

// recordedDigest is each simulator workload's outcome digest for
// defaultSeed. A change to the simulator that alters any simulated
// outcome changes it; an optimisation must not.
var recordedDigest = map[string]string{
	"sim-http":     "4c0845cbef30f572",
	"sim-synflood": "644f4d1f5faec8a9",
}

type simWorld struct {
	s       *rescon.Sim
	srv     *rescon.Server
	pop     *rescon.Population
	flood   *rescon.Flooder
	attack  *rescon.Container
	sockets []*rescon.ListenSocket
}

var (
	serverAddr = rescon.Addr("10.0.0.1", 80)
	clientIP   = rescon.Addr("10.1.0.1", 1024)
	attackNet  = rescon.Addr("66.0.0.0", 0).IP
)

func buildSim(spec simSpec, seed int64) (*simWorld, error) {
	var opts []rescon.SimOption
	if spec.flood {
		opts = append(opts, rescon.WithAlerts(rescon.AlertConfig{}))
	}
	s := rescon.NewSim(rescon.ModeRC, seed, opts...)
	srv, err := rescon.NewServer(rescon.ServerConfig{
		Kernel: s.Kernel, Name: "httpd", Addr: serverAddr, API: rescon.EventAPI,
		PerConnContainers: true,
	})
	if err != nil {
		return nil, err
	}
	w := &simWorld{s: s, srv: srv, sockets: []*rescon.ListenSocket{srv.ListenSocket()}}
	if spec.flood {
		// The Fig. 14 defence: the attack net gets its own filtered
		// listener bound to a priority-0 container.
		w.attack, err = rescon.NewContainer(nil, rescon.TimeShare, "attackers", rescon.Attributes{Priority: 0})
		if err != nil {
			return nil, err
		}
		ls, err := srv.AddListener(rescon.Filter{Template: attackNet, MaskBits: 8}, w.attack)
		if err != nil {
			return nil, err
		}
		w.sockets = append(w.sockets, ls)
	}
	w.pop, err = rescon.StartPopulation(32, rescon.ClientConfig{Kernel: s.Kernel, Src: clientIP, Dst: serverAddr})
	if err != nil {
		return nil, err
	}
	if spec.flood {
		w.flood = rescon.StartFlood(s.Kernel, rescon.Rate(spec.floodPPS), attackNet+1, 4096, serverAddr)
	}
	return w, nil
}

// simCounters are the public counters one measurement reads.
type simCounters struct {
	now         rescon.Time
	completed   uint64
	fired       uint64
	synDrops    uint64
	floodSent   uint64
	established uint64
}

func (w *simWorld) counters() simCounters {
	c := simCounters{
		now:         w.s.Now(),
		completed:   w.pop.Completed(),
		fired:       w.s.Engine.Fired(),
		established: w.s.Kernel.ConnsEstablished(),
	}
	for _, ls := range w.sockets {
		c.synDrops += ls.SynDrops()
	}
	if w.flood != nil {
		c.floodSent = w.flood.Sent()
	}
	return c
}

// ops is the workload's unit of work between two counter readings:
// completed requests, plus every connection attempt under a flood.
func (spec simSpec) ops(a, b simCounters) int64 {
	if spec.flood {
		return int64(b.floodSent-a.floodSent) + int64(b.established-a.established)
	}
	return int64(b.completed - a.completed)
}

// digest hashes the simulated outcome: good-client completions,
// per-container CPU, SYN drops and the connection counters.
func (w *simWorld) digest() string {
	k := w.s.Kernel
	h := fnv.New64a()
	c := w.counters()
	fmt.Fprintf(h, "t=%d done=%d drops=%d policed=%d est=%d closed=%d open=%d busy=%d intr=%d srvcpu=%d",
		c.now, c.completed, c.synDrops, k.PolicedDrops(), k.ConnsEstablished(), k.ConnsClosed(),
		k.OpenConns(), k.BusyTime(), k.InterruptTime(), w.srv.Process().DefaultContainer.Usage().CPU())
	if w.attack != nil {
		fmt.Fprintf(h, " attack=%d sent=%d", w.attack.Usage().CPU(), c.floodSent)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkConns verifies the connection ledger balances.
func (w *simWorld) checkConns() error {
	k := w.s.Kernel
	if k.ConnsEstablished() != k.ConnsClosed()+uint64(k.OpenConns()) {
		return fmt.Errorf("connections: established %d != closed %d + open %d",
			k.ConnsEstablished(), k.ConnsClosed(), k.OpenConns())
	}
	return nil
}

// simRep is one repetition's measurements.
type simRep struct {
	setup   time.Duration
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	ops     int64
	events  uint64
	vsec    float64
	drops   uint64
	arrived uint64
	digest  string
	heap    float64   // median live heap MB during the window
	slices  []float64 // wall ns per op of each slice of the window
}

// runSimRep builds, warms up and measures one repetition.
func runSimRep(spec simSpec, seed int64, hooks phaseHooks) (simRep, error) {
	var r simRep
	t0 := time.Now()
	w, err := buildSim(spec, seed)
	if err != nil {
		return r, err
	}
	w.s.RunFor(spec.warmup)
	r.setup = time.Since(t0)

	r.slices = make([]float64, 0, spec.slices)
	hooks.begin()
	m0 := readMeter()
	c0 := w.counters()
	prev := c0
	step := spec.window / rescon.Duration(spec.slices)
	heap := newHeapLive()
	for i := 0; i < spec.slices; i++ {
		ts := time.Now()
		w.s.RunFor(step)
		el := time.Since(ts)
		cur := w.counters()
		if n := spec.ops(prev, cur); n > 0 {
			r.slices = append(r.slices, float64(el.Nanoseconds())/float64(n))
		}
		prev = cur
		heap.sample()
	}
	m1 := readMeter()
	hooks.end()

	r.wall, r.cpu, r.mallocs = m1.wall.Sub(m0.wall), m1.cpu-m0.cpu, m1.mallocs-m0.mallocs
	r.ops = spec.ops(c0, prev)
	r.events = prev.fired - c0.fired
	r.vsec = float64(prev.now-c0.now) / float64(rescon.Second)
	r.drops = prev.synDrops - c0.synDrops
	r.arrived = (prev.floodSent - c0.floodSent) + (prev.established - c0.established)
	r.heap = heap.medianMB()
	r.digest = w.digest()
	if err := w.checkConns(); err != nil {
		return r, err
	}
	return r, nil
}

// phaseHooks bracket the measured window of a repetition: the traced
// run switches the allocation profiler on there so set-up stays out.
type phaseHooks struct{ begin, end func() }

var noHooks = phaseHooks{begin: func() {}, end: func() {}}

// simPhase runs repetitions until budget is spent (at least one).
func simPhase(spec simSpec, seed int64, budget time.Duration, hooks phaseHooks) ([]simRep, error) {
	var reps []simRep
	start := time.Now()
	for len(reps) == 0 || time.Since(start) < budget {
		r, err := runSimRep(spec, seed, hooks)
		if err != nil {
			return reps, err
		}
		reps = append(reps, r)
	}
	return reps, nil
}

func runSim(name string, spec simSpec) func(cfg runConfig) (*outcome, error) {
	return func(cfg runConfig) (*outcome, error) {
		oc := newOutcome(cfg)
		untraced := cfg.budget
		if cfg.trace {
			untraced = cfg.budget / 2
		}
		reps, err := simPhase(spec, cfg.seed, untraced, noHooks)
		if err != nil {
			return nil, err
		}
		var (
			setups, rates, cpus, heaps []float64
			windows                    [][]float64
			ops                        int64
			mallocs, events            uint64
			wall                       time.Duration
			vsec                       float64
			drops, arrived             uint64
		)
		for _, r := range reps {
			setups = append(setups, r.setup.Seconds())
			rates = append(rates, float64(r.ops)/r.wall.Seconds())
			cpus = append(cpus, float64(r.cpu.Nanoseconds())/1e3/float64(r.ops))
			heaps = append(heaps, r.heap)
			windows = append(windows, r.slices)
			ops += r.ops
			mallocs += r.mallocs
			events += r.events
			wall += r.wall
			vsec += r.vsec
			drops += r.drops
			arrived += r.arrived
		}
		oc.attempted = ops
		sum := summarize(windows)
		oc.latency = sum
		p50, p99, nwin := windowed(windows)
		oc.e2e["setup_s"] = median(setups)
		oc.e2e["ops_per_s"] = median(rates)
		oc.e2e["cpu_us_per_op"] = median(cpus)
		oc.e2e["allocs_per_op"] = float64(mallocs) / float64(ops)
		oc.e2e["heap_live_mb"] = median(heaps)
		oc.e2e["p50_us"] = p50 / 1e3
		oc.layer["latency.p99_us"] = p99 / 1e3
		oc.note("%d repetitions of %v warm-up + %v virtual window; %d slices per window; p50/p99 are medians over %d groups of repetitions",
			len(reps), spec.warmup, spec.window, spec.slices, nwin)
		oc.note("op = %s", spec.op)

		oc.layer["sim.events_per_op"] = float64(events) / float64(ops)
		oc.layer["sim.ns_per_event"] = float64(wall.Nanoseconds()) / float64(events)
		oc.layer["sim_vsec_per_s"] = vsec / wall.Seconds()
		if arrived > 0 {
			oc.layer["kernel.syn_drop_frac"] = float64(drops) / float64(arrived)
		}
		oc.layer["latency.samples"] = float64(sum.N)
		if !cfg.trace {
			oc.checkDigests(name, cfg.seed, reps)
			return oc, nil
		}

		// Traced half: a CPU-profiled phase (set-up included: it runs the
		// same simulation), then an allocation-profiled phase whose
		// profiler runs only inside measured windows.
		prof, err := startProfiles()
		if err != nil {
			return nil, err
		}
		traced, err := simPhase(spec, cfg.seed, cfg.budget/4, noHooks)
		samples, _ := prof.stop(oc)
		if err != nil {
			return nil, err
		}
		var tWall time.Duration
		var tOps int64
		for _, r := range traced {
			tWall += r.wall
			tOps += r.ops
		}
		oc.traceOverhead = (float64(tWall.Nanoseconds())/float64(tOps))/(float64(wall.Nanoseconds())/float64(ops)) - 1
		oc.cpu = cpuShares(samples)

		before := takeAllocSnapshot()
		allocReps, err := simPhase(spec, cfg.seed, cfg.budget/4, phaseHooks{
			begin: func() { runtime.MemProfileRate = 1 },
			end:   func() { runtime.MemProfileRate = defaultMemProfileRate },
		})
		if err != nil {
			return nil, err
		}
		after := takeAllocSnapshot()
		var aOps int64
		for _, r := range allocReps {
			aOps += r.ops
		}
		oc.attempted += tOps + aOps
		oc.checkDigests(name, cfg.seed, slices.Concat(reps, traced, allocReps))
		oc.allocs = allocsByLayer(before, after)
		oc.allocOps = aOps
		for _, l := range []string{"sim", "netsim", "kernel", "sched", "rc", "httpsim", "workload", "telemetry", "alert"} {
			oc.layer[l+".cpu_frac"] = oc.cpu[l]
		}
		for _, l := range []string{"kernel", "netsim", "httpsim", "workload"} {
			oc.layer[l+".allocs_per_op"] = oc.allocs[l] / float64(aOps)
		}
		return oc, nil
	}
}

// checkDigests requires every repetition to reach the same outcome,
// and the recorded one for the default seed.
func (oc *outcome) checkDigests(name string, seed int64, reps []simRep) {
	for _, r := range reps {
		if oc.digest == "" {
			oc.digest = r.digest
		}
		if r.digest != oc.digest {
			oc.fail(r.ops, "%s: repetition digest %s differs from %s", name, r.digest, oc.digest)
		}
	}
	if want := recordedDigest[name]; seed == defaultSeed && oc.digest != want {
		oc.fail(0, "%s: digest %s for seed %d, recorded %s", name, oc.digest, seed, want)
	}
}
