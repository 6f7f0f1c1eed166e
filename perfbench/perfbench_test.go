package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{50, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}, {5000000, 99.99},
	}
	for _, c := range cases {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(empty) = %v", got)
	}
	sum := summarize([][]float64{s[:500], s[500:]})
	if sum.N != 1000 || sum.P50 != 500 || sum.P99 != 990 || sum.TailLevel != 99 || sum.Tail != 990 {
		t.Errorf("summarize = %+v", sum)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestReservoirStaysWithinItsCapacity(t *testing.T) {
	r := newReservoir(100, 1)
	for i := 0; i < 100000; i++ {
		r.add(float64(i))
	}
	if len(r.buf) != 100 || cap(r.buf) != 100 || r.seen != 100000 {
		t.Fatalf("len %d cap %d seen %d", len(r.buf), cap(r.buf), r.seen)
	}
	// A uniform sample of 0..99999 has its median near 50000.
	if m := median(r.buf); m < 30000 || m > 70000 {
		t.Errorf("sample median %v is not near the stream's", m)
	}
}

func TestSelfTime(t *testing.T) {
	p := interval{100, 200}
	cases := []struct {
		name string
		kids []interval
		want int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{110, 130}}, 80},
		{"disjoint", []interval{{110, 130}, {150, 160}}, 70},
		{"overlapping counted once", []interval{{110, 150}, {140, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"clipped to parent", []interval{{50, 120}, {190, 250}}, 70},
		{"outside", []interval{{10, 20}, {300, 400}}, 100},
		{"covers all", []interval{{0, 300}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(p, c.kids); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestReduceSpansSelfTimes(t *testing.T) {
	spans := []span{
		// Request 1: due 0, dispatched at 10, sent at 30, done at 130;
		// the server's middleware ran 50..110 with binder and handler
		// inside it.
		{spanRequest, 1, 0, 130},
		{spanLag, 1, 0, 10},
		{spanClient, 1, 30, 130},
		{spanMiddleware, 1, 50, 110},
		{spanBinder, 1, 52, 54},
		{spanHandler, 1, 60, 100},
		// A sink span carries no request.
		{spanSink, -1, 105, 106},
	}
	st := reduceSpans(spans)
	if got := st.selfMedian[spanRequest]; got != 20 {
		t.Errorf("request self (wait for a connection) = %v, want 20", got)
	}
	if got := st.selfMedian[spanClient]; got != 40 {
		t.Errorf("client self (transport) = %v, want 40", got)
	}
	if got := st.selfMedian[spanMiddleware]; got != 18 {
		t.Errorf("middleware self = %v, want 18", got)
	}
	if st.mean[spanSink] != 1 {
		t.Errorf("sink mean %v, want 1", st.mean[spanSink])
	}
	oc := newOutcome(runConfig{})
	oc.spanLayers(st)
	if got := oc.layer["rcruntime.mw_self_ns"]; got != 17 {
		t.Errorf("rcruntime.mw_self_ns = %v, want 17 (18 minus the sink)", got)
	}
}

func TestScheduleIsSeededPoisson(t *testing.T) {
	a := makeSchedule(7, 2000, 5*time.Second, 3, 3, 0)
	b := makeSchedule(7, 2000, 5*time.Second, 3, 3, 0)
	c := makeSchedule(8, 2000, 5*time.Second, 3, 3, 0)
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, job %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(c) == len(a) && c[len(c)/2] == a[len(a)/2] {
		t.Errorf("different seeds gave the same schedule")
	}
	if n := len(a); n < 9500 || n > 10500 {
		t.Errorf("%d arrivals in 5 s at 2000/s", n)
	}
	flood := 0
	for i, j := range a {
		if i > 0 && j.due < a[i-1].due {
			t.Fatalf("job %d due before its predecessor", i)
		}
		if j.due >= 5*time.Second || j.id != int64(i) {
			t.Fatalf("job %d: %+v", i, j)
		}
		if j.tenant == 3 {
			flood++
		} else if j.tenant < 0 || j.tenant >= 3 {
			t.Fatalf("job %d has tenant %d", i, j.tenant)
		}
	}
	if share := float64(flood) / float64(len(a)); share < floodShare-0.03 || share > floodShare+0.03 {
		t.Errorf("flood share %.3f, want about %.2f", share, floodShare)
	}
}

func TestSimDigestRepeatsAndMatchesRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates several virtual seconds")
	}
	for _, c := range []struct {
		name string
		spec simSpec
	}{{"sim-http", simHTTP}, {"sim-synflood", simSynflood}} {
		var digests []string
		for i := 0; i < 2; i++ {
			r, err := runSimRep(c.spec, defaultSeed, noHooks)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			digests = append(digests, r.digest)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: repetitions disagree: %v", c.name, digests)
		}
		if digests[0] != recordedDigest[c.name] {
			t.Errorf("%s: digest %s, recorded %s", c.name, digests[0], recordedDigest[c.name])
		}
		oc := newOutcome(runConfig{})
		oc.checkDigests(c.name, defaultSeed, []simRep{{digest: "0000000000000000", ops: 5}})
		if len(oc.failures) != 1 {
			t.Errorf("%s: a wrong digest for the default seed was not reported: %+v", c.name, oc.failures)
		}
	}
}

func TestCPUProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	var x uint64
	for time.Now().Before(deadline) {
		x += spin(x)
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("no samples collected")
	}
	if share := cpuShares(samples)[layerBench]; share < 0.5 {
		t.Errorf("spin loop got %.2f of the samples, want most", share)
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		f    frame
		want string
	}{
		{frame{"rescon/internal/kernel.(*CPU).start", "/src/repo/internal/kernel/cpu.go"}, "kernel"},
		// A closure of rcruntime inlined into this benchmark keeps its file.
		{frame{"main.newLiveWorld.(*Runtime).Middleware.func8", "/src/repo/internal/rcruntime/http.go"}, "rcruntime"},
		{frame{"main.spin", "/src/repo/perfbench/tenants.go"}, layerBench},
		{frame{"rescon.NewSim", "/src/repo/rescon.go"}, ""},
		{frame{"rescon/internal/trace.(*Tracer).Emit", "/src/repo/internal/trace/trace.go"}, ""},
		{frame{"net/http.(*conn).serve", "/go/src/net/http/server.go"}, layerHTTP},
		{frame{"internal/poll.(*FD).Read", "/go/src/internal/poll/fd_unix.go"}, layerNet},
		{frame{"runtime.mallocgc", "/go/src/runtime/malloc.go"}, ""},
	}
	for _, c := range cases {
		if got := layerOf(c.f); got != c.want {
			t.Errorf("layerOf(%s) = %q, want %q", c.f.fn, got, c.want)
		}
	}
	stack := []frame{{"runtime.mallocgc", ""}, {"runtime.gcAssistAlloc", ""}, {"rescon/internal/sim.(*Engine).After", "/r/internal/sim/engine.go"}}
	if got := attribute(stack); got != layerGC {
		t.Errorf("a mark assist is charged to %q, want gc", got)
	}
	if got := attribute(stack[2:]); got != "sim" {
		t.Errorf("attribute = %q, want sim", got)
	}
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed, want any
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	specJSON, _ := json.Marshal(spec())
	_ = json.Unmarshal(specJSON, &want)
	got, _ := json.Marshal(committed)
	exp, _ := json.Marshal(want)
	if !bytes.Equal(got, exp) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with\n  python3 perfbench/run.py --spec > BENCHMARK.json")
	}
	seen := map[string]bool{}
	for _, m := range e2eMetrics {
		if seen[m.Name] {
			t.Errorf("duplicate metric %s", m.Name)
		}
		seen[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range layerMetrics {
		if seen[m.Name] {
			t.Errorf("duplicate metric %s", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestResultLineHasTheContractKeys(t *testing.T) {
	var out, errb bytes.Buffer
	if code := benchMain([]string{"--workload", "nope"}, &out, &errb); code == 0 {
		t.Errorf("unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Errorf("unknown workload printed a result: %s", out.String())
	}
	res := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"setup_s": {0.5, "s"}}}
	line, _ := json.Marshal(res)
	var keys map[string]any
	_ = json.Unmarshal(line, &keys)
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, line)
		}
	}
	if len(keys) != 4 {
		t.Errorf("result line has extra keys: %s", line)
	}
}

func TestLiveWorkloadsPassTheirChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the live runtime for seconds")
	}
	cases := []struct {
		name string
		run  func(runConfig) (*outcome, error)
		cfg  runConfig
	}{
		{"live-admit traced", runLiveAdmit, runConfig{seed: 3, budget: 2 * time.Second, trace: true}},
		{"live-tenants", runLiveTenants, runConfig{seed: 3, budget: 3 * time.Second}},
	}
	for _, c := range cases {
		oc, err := c.run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(oc.failures) > 0 || oc.failed > 0 || oc.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", c.name, oc.attempted, oc.failed, oc.failures)
		}
		for _, m := range e2eMetrics {
			if v, ok := oc.e2e[m.Name]; !ok || v <= 0 {
				t.Errorf("%s: %s = %v", c.name, m.Name, v)
			}
		}
		if c.cfg.trace && (oc.layer["rcruntime.mw_self_ns"] <= 0 || oc.layer["admit_scale_x"] <= 0 || oc.cpu == nil) {
			t.Errorf("%s: traced run lacks span or profile metrics: %v", c.name, oc.layer)
		}
	}
}
