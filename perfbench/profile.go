package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
)

// A minimal reader for the gzip-compressed protobuf profiles that
// runtime/pprof writes (github.com/google/pprof/proto/profile.proto),
// limited to the fields the layer ledger needs: each sample's stack of
// functions with their source files, and its values.

// frame is one function on a stack and the file that defines it.
type frame struct{ fn, file string }

type stackSample struct {
	frames []frame // leaf first; inlined frames expanded
	values []int64
}

type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = errors.New("truncated varint")
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("varint overflow")
	return 0
}

// field reads one field header and returns its number, wire type, and
// for length-delimited fields the payload (varints are returned in v).
func (p *pbuf) field() (num int, wire int, v uint64, payload []byte) {
	key := p.varint()
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v = p.varint()
	case 1:
		if len(p.b) < 8 {
			p.err = errors.New("truncated fixed64")
			return
		}
		p.b = p.b[8:]
	case 2:
		n := p.varint()
		if uint64(len(p.b)) < n {
			p.err = errors.New("truncated bytes")
			return
		}
		payload, p.b = p.b[:n], p.b[n:]
	case 5:
		if len(p.b) < 4 {
			p.err = errors.New("truncated fixed32")
			return
		}
		p.b = p.b[4:]
	default:
		p.err = fmt.Errorf("unsupported wire type %d", wire)
	}
	return
}

// repeatedVarints appends a repeated varint field in either packed
// (wire 2) or unpacked (wire 0) encoding; runtime/pprof uses both.
func repeatedVarints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	q := pbuf{b: payload}
	for len(q.b) > 0 && q.err == nil {
		dst = append(dst, q.varint())
	}
	return dst, q.err
}

// parseProfile decodes a runtime/pprof profile.
func parseProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	type rawFunc struct{ name, file uint64 } // string indexes
	var (
		samples  []rawSample
		locLines = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs    = map[uint64]rawFunc{}
		strs     []string
	)
	p := pbuf{b: raw}
	for len(p.b) > 0 && p.err == nil {
		num, wire, _, payload := p.field()
		if p.err != nil || wire != 2 {
			continue
		}
		q := pbuf{b: payload}
		switch num {
		case 2: // Sample
			var s rawSample
			for len(q.b) > 0 && q.err == nil {
				n, w, v, pl := q.field()
				switch n {
				case 1:
					s.locs, err = repeatedVarints(s.locs, w, v, pl)
				case 2:
					s.vals, err = repeatedVarints(s.vals, w, v, pl)
				}
				if err != nil {
					return nil, fmt.Errorf("profile sample: %w", err)
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for len(q.b) > 0 && q.err == nil {
				n, _, v, pl := q.field()
				switch n {
				case 1:
					id = v
				case 4: // Line
					r := pbuf{b: pl}
					for len(r.b) > 0 && r.err == nil {
						ln, _, lv, _ := r.field()
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locLines[id] = fns
		case 5: // Function
			var id uint64
			var f rawFunc
			for len(q.b) > 0 && q.err == nil {
				n, _, v, _ := q.field()
				switch n {
				case 1:
					id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
			}
			funcs[id] = f
		case 6:
			strs = append(strs, string(payload))
		}
		if q.err != nil {
			return nil, fmt.Errorf("profile: %w", q.err)
		}
	}
	if p.err != nil {
		return nil, fmt.Errorf("profile: %w", p.err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		ss := stackSample{}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				ss.frames = append(ss.frames, frame{str(funcs[fn].name), str(funcs[fn].file)})
			}
		}
		for _, v := range s.vals {
			ss.values = append(ss.values, int64(v))
		}
		out = append(out, ss)
	}
	return out, nil
}

// Layer names used by the ledger beyond the repository's packages.
const (
	layerGC    = "gc"
	layerBench = "bench"   // this benchmark: workload loops, client, handler
	layerHTTP  = "nethttp" // net/http
	layerNet   = "net"     // net, internal/poll, syscall: the socket path
)

// funcPackage returns the import path of a symbol such as
// "rescon/internal/kernel.(*CPU).start" or "net/http.(*conn).serve".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// measuredLayers are the repository packages the ledger reports; the
// rest (fault, chaos, experiments, metrics, trace, the facade) are on
// no request path, so their frames count for the measured layer that
// called them.
var measuredLayers = map[string]bool{
	"sim": true, "netsim": true, "kernel": true, "sched": true, "rc": true, "httpsim": true,
	"workload": true, "telemetry": true, "alert": true, "rcruntime": true, "rebalance": true,
}

// layerOf maps one frame to the layer that owns it, or "" when it
// belongs to no measured layer (the runtime, most of the standard
// library, unmeasured packages). The repository's own frames are placed
// by source directory, not symbol name: a closure of an inlined
// function is named after the function it was inlined into, so the
// Middleware closure of rcruntime appears under this benchmark's
// package.
func layerOf(f frame) string {
	pkg := funcPackage(f.fn)
	switch {
	case pkg == "main" || pkg == "rescon" || strings.HasPrefix(pkg, "rescon/"):
		dir := path.Dir(filepath.ToSlash(f.file))
		switch {
		case path.Base(path.Dir(dir)) == "internal" && measuredLayers[path.Base(dir)]:
			return path.Base(dir)
		case path.Base(dir) == "perfbench":
			return layerBench
		}
		return ""
	case pkg == "net/http":
		return layerHTTP
	case pkg == "net" || pkg == "internal/poll" || pkg == "syscall":
		return layerNet
	}
	return ""
}

// isGCFrame reports frames that only garbage collection runs: the
// background mark workers, mark assists charged to allocating
// goroutines, sweeping and scavenging.
func isGCFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") ||
		strings.HasPrefix(fn, "runtime.bgsweep") ||
		strings.HasPrefix(fn, "runtime.bgscavenge") ||
		strings.HasPrefix(fn, "runtime.(*sweepLocked)") ||
		strings.HasPrefix(fn, "runtime.markroot")
}

// attribute names the owner of one stack: gc if any frame is garbage
// collection; otherwise the first frame from the leaf that belongs to
// a measured layer, so runtime and standard-library work (malloc, map
// access, container/heap) is charged to the layer that called it; ""
// when no frame does.
func attribute(frames []frame) string {
	for _, f := range frames {
		if isGCFrame(f.fn) {
			return layerGC
		}
	}
	for _, f := range frames {
		if l := layerOf(f); l != "" {
			return l
		}
	}
	return ""
}

// cpuShares returns each owner's share of the CPU profile's samples.
// The "" owner is the unattributed remainder.
func cpuShares(samples []stackSample) map[string]float64 {
	byOwner := map[string]float64{}
	total := 0.0
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		byOwner[attribute(s.frames)] += v
		total += v
	}
	if total > 0 {
		for k := range byOwner {
			byOwner[k] /= total
		}
	}
	return byOwner
}

// mutexWaitNs sums the contention delay (ns) of mutex-profile samples
// whose stack passes through the given layer.
func mutexWaitNs(samples []stackSample, layer string) float64 {
	total := 0.0
	for _, s := range samples {
		if len(s.values) < 2 {
			continue
		}
		for _, f := range s.frames {
			if layerOf(f) == layer {
				total += float64(s.values[1])
				break
			}
		}
	}
	return total
}

// allocSnapshot is the cumulative allocation count per call stack
// recorded by the runtime's memory profiler.
type allocSnapshot map[[32]uintptr]int64

func takeAllocSnapshot() allocSnapshot {
	// The profile reflects allocations as of the last completed GC cycle.
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	snap := allocSnapshot{}
	for _, r := range recs {
		snap[r.Stack0] += r.AllocObjects
	}
	return snap
}

// allocsByLayer attributes the allocations made between two snapshots
// to layers with the same rule as CPU samples.
func allocsByLayer(before, after allocSnapshot) map[string]float64 {
	out := map[string]float64{}
	for stk, n := range after {
		d := n - before[stk]
		if d <= 0 {
			continue
		}
		var frames []frame
		pcs := stk[:]
		for i, pc := range pcs {
			if pc == 0 {
				pcs = pcs[:i]
				break
			}
		}
		it := runtime.CallersFrames(pcs)
		for {
			f, more := it.Next()
			frames = append(frames, frame{f.Function, f.File})
			if !more {
				break
			}
		}
		out[attribute(frames)] += float64(d)
	}
	return out
}

// profiles runs the CPU and mutex profilers over one traced phase.
type profiles struct {
	cpu bytes.Buffer
}

// cpuProfileHz is the CPU profile's sampling rate, ten times
// runtime/pprof's default so a few seconds resolve layers of a few
// percent. Setting it first makes StartCPUProfile keep it (and print a
// warning that the rate was already set).
const cpuProfileHz = 1000

func startProfiles() (*profiles, error) {
	p := &profiles{}
	runtime.SetMutexProfileFraction(1)
	runtime.SetCPUProfileRate(cpuProfileHz)
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		runtime.SetMutexProfileFraction(0)
		return nil, err
	}
	return p, nil
}

// stop ends both profiles, saves them as trace artifacts and returns
// their parsed samples.
func (p *profiles) stop(oc *outcome) (cpu, mutex []stackSample) {
	pprof.StopCPUProfile()
	runtime.SetMutexProfileFraction(0)
	var mb bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&mb, 0); err != nil {
		oc.note("mutex profile: %v", err)
	}
	oc.saveArtifact("cpu.pprof", p.cpu.Bytes())
	oc.saveArtifact("mutex.pprof", mb.Bytes())
	var err error
	if cpu, err = parseProfile(p.cpu.Bytes()); err != nil {
		oc.note("cpu profile: %v", err)
	}
	if mutex, err = parseProfile(mb.Bytes()); err != nil {
		oc.note("mutex profile: %v", err)
	}
	return cpu, mutex
}
