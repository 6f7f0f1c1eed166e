package main

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"rescon/internal/alert"
	"rescon/internal/rc"
	"rescon/internal/rcruntime"
	"rescon/internal/rebalance"
)

// The governed stack both live workloads share: a root with unlimited
// good tenants and flood tenants over their limits, a runtime
// with breakers and a counting telemetry sink, and the monitor battery
// with the watchdog and the rebalancer attached, as a defended
// deployment runs them.

const (
	tenantHeader = "X-Tenant"
	reqHeader    = "X-Req"
	liveWindow   = 10 * time.Millisecond
)

type liveSpec struct {
	good, flood int
	floodLimit  float64
	policed     bool // refuse new connections while the first flood tenant is over budget
	handler     http.Handler
}

type liveWorld struct {
	root    *rc.Container
	tenants []*rc.Container
	names   []string
	isFlood []bool
	limits  []float64
	rt      *rcruntime.Runtime
	h       http.Handler
	mon     *rcruntime.Monitor
	wd      *rcruntime.Watchdog
	reb     *rebalance.Controller
	sink    *countingSink
	tr      *tracer
	born    time.Time
}

// countingSink is the runtime's telemetry sink: it counts outcomes and
// sums admission delay.
type countingSink struct {
	served, shed, delayNs atomic.Int64
}

func (s *countingSink) RecordRequest(ev rcruntime.RequestEvent) {
	if ev.Shed {
		s.shed.Add(1)
	} else {
		s.served.Add(1)
	}
	s.delayNs.Add(int64(ev.Delay))
}

func newLiveWorld(spec liveSpec, tr *tracer) (*liveWorld, error) {
	w := &liveWorld{sink: &countingSink{}, tr: tr, born: time.Now()}
	var err error
	if w.root, err = rc.New(nil, rc.FixedShare, "root", rc.Attributes{}); err != nil {
		return nil, err
	}
	share := 0.6 / float64(spec.good)
	byName := map[string]*rc.Container{}
	var good, flood []*rc.Container
	for i := 0; i < spec.good+spec.flood; i++ {
		isFlood := i >= spec.good
		name := fmt.Sprintf("t%02d", i)
		attrs := rc.Attributes{Share: share}
		if isFlood {
			name = fmt.Sprintf("flood%02d", i-spec.good)
			attrs = rc.Attributes{Limit: spec.floodLimit}
		}
		c, err := rc.New(w.root, rc.FixedShare, name, attrs)
		if err != nil {
			return nil, err
		}
		w.tenants = append(w.tenants, c)
		w.names = append(w.names, name)
		w.isFlood = append(w.isFlood, isFlood)
		w.limits = append(w.limits, attrs.Limit)
		byName[name] = c
		if isFlood {
			flood = append(flood, c)
		} else {
			good = append(good, c)
		}
	}
	cfg := rcruntime.Config{Root: w.root, Window: liveWindow, MaxDelay: rcruntime.NoDelay}
	if spec.policed {
		cfg.Policy = rcruntime.AcceptPolicy{Enabled: true, OverBudgetOf: flood[0]}
	}
	var binder rcruntime.Binder = rcruntime.HeaderBinder(tenantHeader, byName, nil)
	var sink rcruntime.TelemetrySink = w.sink
	handler := spec.handler
	if tr != nil {
		binder, sink, handler = tr.binder(binder), tr.sink(sink), tr.handler(handler)
	}
	w.rt, err = rcruntime.NewRuntime(cfg, rcruntime.WithBinder(binder), rcruntime.WithTelemetrySink(sink),
		rcruntime.WithBreakers(rcruntime.BreakerConfig{}))
	if err != nil {
		return nil, err
	}
	w.h = w.rt.Middleware(handler)
	if tr != nil {
		w.h = tr.middleware(w.h)
	}
	if w.mon, err = rcruntime.AttachMonitor(w.rt, alert.New(), rcruntime.MonitorConfig{Tenants: w.tenants}); err != nil {
		return nil, err
	}
	w.wd = rcruntime.AttachWatchdog(w.mon, rcruntime.WatchdogConfig{Clampable: flood})
	if w.reb, err = rcruntime.AttachRebalancer(w.mon, rebalance.Config{Freeze: []rebalance.Freezer{w.wd}}); err != nil {
		return nil, err
	}
	members := make([]rebalance.Member, len(good))
	for i, c := range good {
		c := c
		members[i] = rebalance.Member{Container: c, Demand: func() int64 { return int64(c.Usage().CPU()) }}
	}
	if err := w.reb.AddPool(rebalance.PoolConfig{Name: "good", Resource: rebalance.CPUShare, Members: members}); err != nil {
		return nil, err
	}
	return w, nil
}

// tick runs one monitor round (alert battery, watchdog, rebalancer).
func (w *liveWorld) tick() {
	if w.tr == nil {
		w.mon.Tick()
		return
	}
	t0 := w.tr.now()
	w.mon.Tick()
	w.tr.record(spanTick, -1, t0, w.tr.now())
}

// check runs the live output checks after the load has stopped:
// requests balance, the drain is clean, the tenants' usage sums to the
// root's, and no flood tenant got more than its limit allows.
func (w *liveWorld) check(oc *outcome, entered uint64) {
	st := w.rt.Stats()
	if got := st.Served + st.Shed + st.BreakerShed + st.DrainShed; got != entered {
		oc.fail(0, "live: served+shed+breaker+drain = %d, but %d requests entered the middleware", got, entered)
	}
	if rep := w.rt.Drain(time.Second); !rep.Clean {
		oc.fail(0, "live: drain not clean: %+v", rep)
	}
	elapsed := time.Since(w.born)
	w.rt.Enforcer().Sync(func() {
		var sum time.Duration
		for i, c := range w.tenants {
			used := time.Duration(c.Usage().CPU())
			sum += used
			if w.isFlood[i] {
				if bound := time.Duration(w.limits[i]*float64(elapsed)) + liveWindow; used > bound {
					oc.fail(0, "live: flood tenant %s used %v, over its bound %v", w.names[i], used, bound)
				}
			}
		}
		if root := time.Duration(w.root.Usage().CPU()); root != sum {
			oc.fail(0, "live: tenants' usage %v != root usage %v", sum, root)
		}
	})
}

// counts are the world's outcome counters as per-layer metrics.
func (w *liveWorld) counts(oc *outcome) {
	st := w.rt.Stats()
	entered := st.Served + st.Shed + st.BreakerShed + st.DrainShed
	if entered > 0 {
		oc.layer["rcruntime.shed_frac"] = float64(st.Shed+st.BreakerShed+st.DrainShed) / float64(entered)
	}
	if n := w.sink.served.Load() + w.sink.shed.Load(); n > 0 {
		oc.layer["rcruntime.admit_wait_us"] = float64(w.sink.delayNs.Load()) / float64(n) / 1e3
	}
	if acc := st.Accepted + st.Refused; acc > 0 {
		oc.layer["listener.refused_frac"] = float64(st.Refused) / float64(acc)
	}
	oc.layer["watchdog.engagements"] = float64(w.wd.Engagements())
	oc.layer["rebalance.decisions"] = float64(w.reb.Steps())
}

// Tracing. Spans are kept in a buffer sized up front and written out
// when the run ends. Each has a kind, a request ID (-1 when the layer's
// callback carries none), and start and end in nanoseconds from the
// tracer's epoch; its parent is the enclosing kind of the same request.

type spanKind uint8

const (
	spanRequest    spanKind = iota // client: due -> response read
	spanLag                        // client: due -> dispatched
	spanClient                     // client: request written -> response read
	spanMiddleware                 // server: the governed handler chain
	spanBinder
	spanHandler
	spanSink   // RequestEvent carries no request ID
	spanAccept // policed accept: raw accept returned -> connection handed out
	spanTick   // monitor round
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"request", "gen.lag", "client", "middleware", "binder", "handler", "sink", "accept", "monitor.tick"}

// spanParent is each kind's parent kind within a request, or -1.
var spanParent = [numSpanKinds]int{-1, int(spanRequest), int(spanRequest), int(spanClient), int(spanMiddleware), int(spanMiddleware), -1, -1, -1}

type span struct {
	kind       spanKind
	req        int64
	start, end int64
}

type tracer struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	every   int64 // trace one request in every
	seq     atomic.Int64
}

func newTracer(capacity int, every int64) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity), every: every}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

func (t *tracer) record(k spanKind, req, start, end int64) {
	if i := t.n.Add(1) - 1; i < int64(len(t.spans)) {
		t.spans[i] = span{k, req, start, end}
		return
	}
	t.dropped.Add(1)
}

// recorded returns the spans recorded so far. The allocation-profiled
// phase that follows a traced phase slows every allocation, so its
// spans are left out by taking this before it starts.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n:n]
}

type reqKey struct{}

func reqOf(r *http.Request) (int64, bool) {
	id, ok := r.Context().Value(reqKey{}).(int64)
	return id, ok
}

// middleware wraps the governed chain. It takes the request ID from
// the X-Req header when the client sent one, otherwise numbers requests
// itself, and traces one request in every t.every.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var id int64
		if v := r.Header.Get(reqHeader); v != "" {
			id, _ = strconv.ParseInt(v, 10, 64)
		} else {
			id = t.seq.Add(1)
		}
		if id%t.every != 0 {
			next.ServeHTTP(w, r)
			return
		}
		r = r.WithContext(context.WithValue(r.Context(), reqKey{}, id))
		t0 := t.now()
		next.ServeHTTP(w, r)
		t.record(spanMiddleware, id, t0, t.now())
	})
}

func (t *tracer) binder(b rcruntime.Binder) rcruntime.Binder {
	return rcruntime.BinderFunc(func(r *http.Request) *rc.Container {
		id, ok := reqOf(r)
		if !ok {
			return b.Bind(r)
		}
		t0 := t.now()
		c := b.Bind(r)
		t.record(spanBinder, id, t0, t.now())
		return c
	})
}

func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := reqOf(r)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		t0 := t.now()
		h.ServeHTTP(w, r)
		t.record(spanHandler, id, t0, t.now())
	})
}

type tracedSink struct {
	t     *tracer
	inner rcruntime.TelemetrySink
	n     atomic.Int64
}

func (s *tracedSink) RecordRequest(ev rcruntime.RequestEvent) {
	if s.n.Add(1)%s.t.every != 0 {
		s.inner.RecordRequest(ev)
		return
	}
	t0 := s.t.now()
	s.inner.RecordRequest(ev)
	s.t.record(spanSink, -1, t0, s.t.now())
}

func (t *tracer) sink(s rcruntime.TelemetrySink) rcruntime.TelemetrySink {
	return &tracedSink{t: t, inner: s}
}

// spanStats reduces the recorded spans to per-layer costs (ns): each
// kind's duration, and the self time of request, client and middleware
// spans, the part their child spans do not cover. Means add up into the
// span ledger; medians are the per-layer metrics, robust to the rare
// request a descheduled thread stretches by milliseconds.
type spanStats struct {
	mean, median         [numSpanKinds]float64
	selfMean, selfMedian [numSpanKinds]float64
}

func reduceSpans(spans []span) spanStats {
	var st spanStats
	var durs, selfs [numSpanKinds][]float64
	byReq := map[int64][]int{}
	for i, s := range spans {
		durs[s.kind] = append(durs[s.kind], float64(s.end-s.start))
		if s.req >= 0 {
			byReq[s.req] = append(byReq[s.req], i)
		}
	}
	for _, idx := range byReq {
		for _, pi := range idx {
			p := spans[pi]
			var kids []interval
			for _, ci := range idx {
				if c := spans[ci]; spanParent[c.kind] == int(p.kind) {
					kids = append(kids, interval{c.start, c.end})
				}
			}
			if len(kids) == 0 {
				continue // a leaf, or its children were not traced
			}
			selfs[p.kind] = append(selfs[p.kind], float64(selfTime(interval{p.start, p.end}, kids)))
		}
	}
	for k := range durs {
		st.mean[k], st.median[k] = mean(durs[k]), median(durs[k])
		st.selfMean[k], st.selfMedian[k] = mean(selfs[k]), median(selfs[k])
	}
	return st
}

// spanLayers sets the span-derived per-layer metrics of the governed
// chain and the monitor, and the span ledger of one middleware call.
func (oc *outcome) spanLayers(st spanStats) {
	oc.layer["binder.ns"] = st.median[spanBinder]
	oc.layer["handler.ns"] = st.median[spanHandler]
	oc.layer["sink.ns"] = st.median[spanSink]
	// The sink's callback carries no request ID, so its cost comes off
	// the middleware's self time as a whole rather than per request.
	oc.layer["rcruntime.mw_self_ns"] = st.selfMedian[spanMiddleware] - st.median[spanSink]
	oc.layer["monitor.tick_us"] = st.median[spanTick] / 1e3
	oc.spanSum = []ledgerRow{
		{"binder", st.mean[spanBinder] / 1e3},
		{"rcruntime (middleware self)", (st.selfMean[spanMiddleware] - st.mean[spanSink]) / 1e3},
		{"handler", st.mean[spanHandler] / 1e3},
		{"sink", st.mean[spanSink] / 1e3},
	}
	oc.e2eCost, oc.e2eCostName = st.mean[spanMiddleware]/1e3, "mean middleware span, us"
}

// writeSpans renders at most limit spans as JSON lines.
func writeSpans(spans []span, limit int) []byte {
	var b []byte
	for i, s := range spans {
		if i == limit {
			break
		}
		parent := "null"
		if p := spanParent[s.kind]; p >= 0 && s.req >= 0 {
			parent = strconv.Quote(spanNames[p])
		}
		b = fmt.Appendf(b, `{"name":%q,"req":%d,"start_ns":%d,"end_ns":%d,"parent":%s}`+"\n",
			spanNames[s.kind], s.req, s.start, s.end, parent)
	}
	return b
}
