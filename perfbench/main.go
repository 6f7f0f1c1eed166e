// Command perfbench is the repository's benchmark: seeded workloads on
// the deterministic simulator and on the live rcruntime, each measured
// end to end and, in a separate traced run, layer by layer. Run it from the repository root:
//
//	python3 perfbench/run.py --workload sim-http --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones, with --trace 1 the per-layer ones. A
// readable report with the machine fingerprint goes to standard error,
// and every result is appended to .bench_build/perfbench/results.jsonl.
// "perfbench compare old.jsonl new.jsonl" sets two result files side by
// side. The process exits non-zero when an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(runConfig) (*outcome, error)
}

type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// workloads are the benchmark's, listed in BENCHMARK.json.
var workloads = []workloadSpec{
	{"sim-http", "every simulated request stage runs once per request: engine, demux, protocol, accept, pick, charge; flood drop path and telemetry idle", runSim("sim-http", simHTTP)},
	{"sim-synflood", "a 70k SYN/s flood is demultiplexed and dropped early with telemetry and alerts attached, so the drop path dominates and serving is a small share", runSim("sim-synflood", simSynflood)},
	{"live-tenants", "real net/http over loopback, open loop at fixed rates with a flood tenant: what an rcserve operator sees, dominated by transport", runLiveTenants},
}

// byHand are workloads the command runs but BENCHMARK.json leaves out.
// live-admit's closed-loop throughput spread 20-27% between runs of the
// same code on a shared 2-vCPU machine, more than a bound can hold; it
// stays runnable for admission work and its traced run's scaling and
// lock-contention figures.
var byHand = []workloadSpec{
	{"live-admit", "the governed handler chain called in-process, closed loop: admission, breaker, binder, sink and charge dominate", runLiveAdmit},
}

// e2eMetrics are reported on every workload. Timings get a bound of a
// quarter: on a shared 2-vCPU machine their medians move 5-20% between
// runs of the same code. Counts and memory hardly move. Latency seen by
// a live-tenants client, and every p99, are per-layer metrics: they are
// set by how long an idle vCPU takes to wake, which moved their medians
// by a quarter to a half between sets of runs of the same code, so no
// bound on them would hold.
var e2eMetrics = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "allocs", "lower", 0.05},
	{"heap_live_mb", "MB", "lower", 0.1},
	{"p50_us", "us", "lower", 0.25},
}

var layerMetrics = []layerMetric{
	{"error_rate", "fraction", "lower"},
	{"sim_vsec_per_s", "vs/s", "higher"},
	{"sim.cpu_frac", "fraction", "lower"},
	{"sim.events_per_op", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"kernel.cpu_frac", "fraction", "lower"},
	{"kernel.allocs_per_op", "allocs", "lower"},
	{"netsim.cpu_frac", "fraction", "lower"},
	{"netsim.allocs_per_op", "allocs", "lower"},
	{"sched.cpu_frac", "fraction", "lower"},
	{"rc.cpu_frac", "fraction", "lower"},
	{"httpsim.cpu_frac", "fraction", "lower"},
	{"httpsim.allocs_per_op", "allocs", "lower"},
	{"workload.cpu_frac", "fraction", "lower"},
	{"workload.allocs_per_op", "allocs", "lower"},
	{"telemetry.cpu_frac", "fraction", "lower"},
	{"alert.cpu_frac", "fraction", "lower"},
	{"kernel.syn_drop_frac", "fraction", "higher"},
	{"live_max_rps", "1/s", "higher"},
	{"admit_scale_x", "ratio", "higher"},
	{"listener.accept_us", "us", "lower"},
	{"listener.refused_frac", "fraction", "lower"},
	{"binder.ns", "ns", "lower"},
	{"rcruntime.mw_self_ns", "ns", "lower"},
	{"rcruntime.admit_wait_us", "us", "lower"},
	{"rcruntime.shed_frac", "fraction", "lower"},
	{"rcruntime.mutex_wait_ns_per_op", "ns", "lower"},
	{"rcruntime.allocs_per_op", "allocs", "lower"},
	{"nethttp.allocs_per_op", "allocs", "lower"},
	{"handler.ns", "ns", "lower"},
	{"sink.ns", "ns", "lower"},
	{"transport.us", "us", "lower"},
	{"monitor.tick_us", "us", "lower"},
	{"watchdog.engagements", "count", "lower"},
	{"rebalance.decisions", "count", "lower"},
	{"gen.lag_us", "us", "lower"},
	{"gc.cpu_frac", "fraction", "lower"},
	{"unattributed_frac", "fraction", "lower"},
	{"trace.overhead_frac", "fraction", "lower"},
	{"latency.p99_us", "us", "lower"},
	{"client.p50_us", "us", "lower"},
	{"client.p99_us", "us", "lower"},
	{"latency.samples", "count", "higher"},
}

// runSeconds is how long one run measures.
const runSeconds = 25

// resultsDir, under the checkout's build directory, holds results.jsonl
// and the traced runs' artifacts.
var resultsDir = filepath.Join(".bench_build", "perfbench")

// benchmarkSpec is the content of BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []e2eMetric    `json:"end_to_end"`
	PerLayer   []layerMetric  `json:"per_layer"`
}

func spec() benchmarkSpec {
	return benchmarkSpec{
		Command:    []string{"python3", "perfbench/run.py"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   e2eMetrics,
		PerLayer:   layerMetrics,
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of the results file.
type record struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Trace       bool        `json:"trace"`
	At          string      `json:"at"`
	Fingerprint fingerprint `json:"fingerprint"`
	Failures    []string    `json:"failures,omitempty"`
	Result      result      `json:"result"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", defaultSeed, "seed for every generated input")
	seconds := fs.Float64("seconds", runSeconds, "wall seconds to measure")
	trace := fs.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	printSpec := fs.Bool("spec", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printSpec {
		data, _ := json.MarshalIndent(spec(), "", "  ")
		fmt.Fprintf(stdout, "%s\n", data)
		return 0
	}
	var wl *workloadSpec
	for _, w := range append(workloads[:len(workloads):len(workloads)], byHand...) {
		if w.Name == *name {
			wl = &w
		}
	}
	if wl == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	fp := machine()
	fmt.Fprintf(stderr, "perfbench %s seed=%d seconds=%g trace=%d\nmachine: %s\n", wl.Name, *seed, *seconds, *trace, fp)

	oc, err := wl.run(cfg.withArtifacts(wl.Name))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.Name, err)
		return 1
	}
	if oc.attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s attempted no operations\n", wl.Name)
		return 1
	}
	if len(oc.failures) > 0 && oc.failed == 0 {
		// A failed check on the run as a whole (a digest, the books)
		// puts every output of the run in doubt.
		oc.failed = oc.attempted
	}
	oc.layer["error_rate"] = float64(oc.failed) / float64(oc.attempted)
	oc.finishLedger()

	res := result{Correct: len(oc.failures) == 0, Attempted: oc.attempted, Failed: oc.failed, Metrics: map[string]metricValue{}}
	if cfg.trace {
		for _, m := range layerMetrics {
			res.Metrics[m.Name] = metricValue{oc.layer[m.Name], m.Unit}
		}
	} else {
		for _, m := range e2eMetrics {
			v, ok := oc.e2e[m.Name]
			if !ok {
				fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", wl.Name, m.Name)
				return 1
			}
			res.Metrics[m.Name] = metricValue{v, m.Unit}
		}
	}
	report(stderr, cfg, oc, res)

	rec := record{Workload: wl.Name, Seed: *seed, Seconds: *seconds, Trace: cfg.trace,
		At: time.Now().UTC().Format(time.RFC3339), Fingerprint: fp, Failures: oc.failures, Result: res}
	if err := appendRecord(filepath.Join(resultsDir, "results.jsonl"), rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: results file: %v\n", err)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// withArtifacts names the directory a traced run writes its spans and
// profiles to.
func (c runConfig) withArtifacts(workload string) runConfig {
	if c.trace {
		c.artifact = filepath.Join(resultsDir, fmt.Sprintf("trace-%s-%d", workload, c.seed))
	}
	return c
}

// finishLedger derives the remainder of the traced run's CPU ledger.
func (oc *outcome) finishLedger() {
	if oc.cpu == nil {
		return
	}
	oc.layer["gc.cpu_frac"] = oc.cpu[layerGC]
	oc.layer["unattributed_frac"] = oc.cpu[""]
	oc.layer["trace.overhead_frac"] = oc.traceOverhead
}

func report(w io.Writer, cfg runConfig, oc *outcome, res result) {
	for _, n := range oc.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	if oc.digest != "" {
		fmt.Fprintf(w, "  outcome digest %s\n", oc.digest)
	}
	if l := oc.latency; l.N > 0 {
		fmt.Fprintf(w, "  latency: p50 %.3f us, p99 %.3f us, p%g %.3f us over %d samples\n",
			l.P50/1e3, l.P99/1e3, l.TailLevel, l.Tail/1e3, l.N)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, f := range oc.failures {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", f)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if !cfg.trace {
		return
	}
	fmt.Fprintf(w, "  CPU ledger (share of profile samples, traced phase):\n")
	printShares(w, oc.cpu, 1)
	if oc.allocOps > 0 {
		fmt.Fprintf(w, "  allocation ledger (allocs per op, %d ops):\n", oc.allocOps)
		printShares(w, oc.allocs, float64(oc.allocOps))
	}
	if len(oc.spanSum) > 0 {
		fmt.Fprintf(w, "  span ledger (mean per op):\n")
		sum := 0.0
		for _, r := range oc.spanSum {
			fmt.Fprintf(w, "    %-28s %12.3f\n", r.name, r.value)
			sum += r.value
		}
		fmt.Fprintf(w, "    %-28s %12.3f\n    %-28s %12.3f (%s)\n    %-28s %12.3f\n",
			"sum of layers", sum, "end to end", oc.e2eCost, oc.e2eCostName, "unattributed", oc.e2eCost-sum)
	}
	fmt.Fprintf(w, "  tracing overhead: %+.1f%% per op against the untraced phase of this run\n", 100*oc.traceOverhead)
	if oc.artifactDir != "" {
		fmt.Fprintf(w, "  trace artifacts in %s\n", oc.artifactDir)
	}
}

func printShares(w io.Writer, m map[string]float64, div float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return m[keys[i]] > m[keys[j]] })
	for _, k := range keys {
		label := k
		if label == "" {
			label = "(unattributed)"
		}
		fmt.Fprintf(w, "    %-28s %12.4f\n", label, m[k]/div)
	}
}

func appendRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, _ := json.Marshal(rec)
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// compareMain prints, per workload and metric, the median of each of
// two results files and their ratio, and flags records whose machine
// fingerprints differ: their timings are not comparable.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(w, "usage: perfbench compare OLD.jsonl NEW.jsonl")
		return 2
	}
	var sides [2][]record
	for i, p := range args {
		data, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintln(w, err)
			return 1
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var r record
			if line == "" {
				continue
			}
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				fmt.Fprintf(w, "%s: %v\n", p, err)
				return 1
			}
			sides[i] = append(sides[i], r)
		}
	}
	fps := map[fingerprint]bool{}
	for _, side := range sides {
		for _, r := range side {
			fps[r.Fingerprint] = true
		}
	}
	if len(fps) > 1 {
		fmt.Fprintln(w, "WARNING: results come from different machines or toolchains; compare counts, not times:")
		for fp := range fps {
			fmt.Fprintf(w, "  %s\n", fp)
		}
	}
	type key struct{ workload, metric string }
	vals := [2]map[key][]float64{{}, {}}
	var keys []key
	for i, side := range sides {
		for _, r := range side {
			for m, v := range r.Result.Metrics {
				k := key{r.Workload, m}
				if i == 0 && vals[0][k] == nil {
					keys = append(keys, k)
				}
				vals[i][k] = append(vals[i][k], v.Value)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-14s %-32s %14s %14s %8s\n", "workload", "metric", "old median", "new median", "new/old")
	for _, k := range keys {
		a, b := median(vals[0][k]), median(vals[1][k])
		ratio := "-"
		if a != 0 && len(vals[1][k]) > 0 {
			ratio = fmt.Sprintf("%.3f", b/a)
		}
		fmt.Fprintf(w, "%-14s %-32s %14.6g %14.6g %8s\n", k.workload, k.metric, a, b, ratio)
	}
	return 0
}
