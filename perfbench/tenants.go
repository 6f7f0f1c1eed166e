package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// live-tenants: real net/http on loopback governed by rcruntime. Three
// unlimited tenants and one flood tenant over its limit share
// GOMAXPROCS keep-alive connections, driven open loop on a Poisson
// schedule drawn from the seed; a side generator opens a fresh
// connection for some flood requests so accept refusal runs. The
// monitor round runs on a fixed wall period.

// The good tenants carry no Limit: rcruntime bills a request's wall
// time, and on a shared machine one descheduled request can use up a
// small window budget and get a good tenant shed.
var tenantsSpec = liveSpec{good: 3, flood: 1, floodLimit: 0.01, policed: true, handler: workHandler}

const (
	nominalRate    = 1000.0 // requests/s on the keep-alive connections
	floodShare     = 0.25   // of those, the flood tenant's
	freshEvery     = 10 * time.Millisecond
	monitorPeriod  = 10 * time.Millisecond
	tenantsWindow  = 2 * time.Second // holds enough good-tenant samples for a p99
	tenantsWarmReq = 1000
	sloP99         = time.Millisecond
	sloErrorRate   = 0.001
	// spinIters is the handler's fixed work: about 20 µs of CPU on a
	// 2-core Xeon.
	spinIters = 9000
)

// ladder is the fixed set of offered rates live_max_rps is read from.
// Each rate is offered for ladderRequests requests, enough for a p99
// with ten good-tenant samples beyond it.
var ladder = []float64{1000, 2000, 3000, 4000, 6000, 8000}

const ladderRequests = 2000

func spin(seed uint64) uint64 {
	x := seed | 1
	for i := 0; i < spinIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// workHandler spins a fixed amount of CPU and answers with the request
// ID and tenant, which the client checks.
var workHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(reqHeader)
	n, _ := strconv.ParseUint(id, 10, 64)
	body := make([]byte, 0, 32)
	body = append(body, id...)
	body = append(body, ' ')
	body = append(body, r.Header.Get(tenantHeader)...)
	if spin(n) == 0 { // never: keeps the work from being optimised away
		body = append(body, '!')
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
})

// job is one scheduled request.
type job struct {
	id     int64
	due    time.Duration // from the phase start
	tenant int
}

// makeSchedule draws Poisson arrivals at rate for d, each for the flood
// tenant with probability floodShare and otherwise for a uniformly
// chosen good tenant.
func makeSchedule(seed int64, rate float64, d time.Duration, good, floodTenant int, firstID int64) []job {
	rng := rand.New(rand.NewSource(seed))
	var jobs []job
	at := 0.0
	for id := firstID; ; id++ {
		at += rng.ExpFloat64() / rate
		due := time.Duration(at * float64(time.Second))
		if due >= d {
			return jobs
		}
		t := floodTenant
		if rng.Float64() >= floodShare {
			t = rng.Intn(good)
		}
		jobs = append(jobs, job{id: id, due: due, tenant: t})
	}
}

// clientConn is a minimal HTTP/1.1 client on one keep-alive connection:
// the generator must cost little next to the server it measures.
type clientConn struct {
	c    net.Conn
	r    *bufio.Reader
	req  []byte
	body []byte
}

func dial(addr string) (*clientConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &clientConn{c: c, r: bufio.NewReaderSize(c, 4096)}, nil
}

// do sends one request and reads the response, returning its status and
// body (valid until the next call).
func (cc *clientConn) do(tenant string, id int64) (int, []byte, error) {
	cc.req = append(cc.req[:0], "GET /work HTTP/1.1\r\nHost: bench\r\n"+tenantHeader+": "...)
	cc.req = append(cc.req, tenant...)
	cc.req = append(cc.req, "\r\n"+reqHeader+": "...)
	cc.req = strconv.AppendInt(cc.req, id, 10)
	cc.req = append(cc.req, "\r\n\r\n"...)
	if _, err := cc.c.Write(cc.req); err != nil {
		return 0, nil, err
	}
	line, err := cc.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	code, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, err
	}
	length := -1
	for {
		h, err := cc.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(h) <= 2 {
			break
		}
		if k, v, ok := bytes.Cut(h, []byte(":")); ok && bytes.EqualFold(k, []byte("Content-Length")) {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return 0, nil, err
			}
		}
	}
	if length < 0 {
		return 0, nil, errors.New("response without Content-Length")
	}
	if cap(cc.body) < length {
		cc.body = make([]byte, length)
	}
	cc.body = cc.body[:length]
	if _, err := io.ReadFull(cc.r, cc.body); err != nil {
		return 0, nil, err
	}
	return code, cc.body, nil
}

func (cc *clientConn) close() { _ = cc.c.Close() }

// tenantsServer is one governed server with its client connections.
type tenantsServer struct {
	w      *liveWorld
	srv    *http.Server
	served chan struct{}
	addr   string
	conns  []*clientConn
	// responses counts every response read: each is a request that
	// entered the middleware.
	responses atomic.Int64
	attempted atomic.Int64
	stopTick  chan struct{}
	tickDone  chan struct{}
	times     *serverTimes
}

// serverTimes records how long the governed handler chain took for
// each good-tenant request, in the measurement window current when the
// request finished.
type serverTimes struct {
	good    map[string]bool
	win     atomic.Int64
	mu      sync.Mutex
	windows [][]float64
}

func (st *serverTimes) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := float64(time.Since(t0).Nanoseconds())
		if !st.good[r.Header.Get(tenantHeader)] {
			return
		}
		st.mu.Lock()
		if k := int(st.win.Load()); k < len(st.windows) {
			st.windows[k] = append(st.windows[k], d)
		}
		st.mu.Unlock()
	})
}

// start begins a phase of n windows, each with room for perWindow
// samples so that recording does not allocate.
func (st *serverTimes) start(n, perWindow int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.windows = make([][]float64, n)
	for i := range st.windows {
		st.windows[i] = make([]float64, 0, perWindow)
	}
	st.win.Store(0)
}

// take ends the phase and returns its windows.
func (st *serverTimes) take() [][]float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	w := st.windows
	st.windows = nil
	return w
}

// timedListener records when the raw accept returned, so the policed
// wrapper's own time can be told from time spent waiting for clients.
// Accept is called from the one serving goroutine.
type timedListener struct {
	net.Listener
	lastRaw time.Time
}

func (l *timedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	l.lastRaw = time.Now()
	return c, err
}

type acceptSpans struct {
	net.Listener
	raw *timedListener
	tr  *tracer
}

func (l *acceptSpans) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.tr.record(spanAccept, -1, l.tr.at(l.raw.lastRaw), l.tr.now())
	}
	return c, err
}

func startTenantsServer(tr *tracer, conns int) (*tenantsServer, error) {
	w, err := newLiveWorld(tenantsSpec, tr)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &tenantsServer{w: w, served: make(chan struct{}), addr: ln.Addr().String(),
		stopTick: make(chan struct{}), tickDone: make(chan struct{}), times: &serverTimes{good: map[string]bool{}}}
	for i, name := range w.names {
		s.times.good[name] = !w.isFlood[i]
	}
	var pl net.Listener
	if tr != nil {
		raw := &timedListener{Listener: ln}
		pl = &acceptSpans{Listener: w.rt.Listener(raw), raw: raw, tr: tr}
	} else {
		pl = w.rt.Listener(ln)
	}
	s.srv = &http.Server{Handler: s.times.wrap(w.h), ErrorLog: log.New(io.Discard, "", 0)}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(pl)
	}()
	go func() {
		defer close(s.tickDone)
		t := time.NewTicker(monitorPeriod)
		defer t.Stop()
		for {
			select {
			case <-s.stopTick:
				return
			case <-t.C:
				w.tick()
			}
		}
	}()
	for i := 0; i < conns; i++ {
		cc, err := dial(s.addr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, cc)
	}
	return s, nil
}

// warm sends n closed-loop requests round-robin over the tenants.
func (s *tenantsServer) warm(n int) error {
	for i := 0; i < n; i++ {
		t := i % len(s.w.names)
		s.attempted.Add(1)
		if _, _, err := s.conns[i%len(s.conns)].do(s.w.names[t], int64(-1-i)); err != nil {
			return err
		}
		s.responses.Add(1)
	}
	return nil
}

// stopMonitor ends the monitor ticker.
func (s *tenantsServer) stopMonitor() {
	select {
	case <-s.stopTick:
	default:
		close(s.stopTick)
	}
	<-s.tickDone
}

// close stops the monitor, closes the client connections and the
// server, and waits for the serving goroutine.
func (s *tenantsServer) close() {
	s.stopMonitor()
	for _, cc := range s.conns {
		cc.close()
	}
	_ = s.srv.Close()
	<-s.served
}

// genResult is what one open-loop phase observed.
type genResult struct {
	sent, goodOK, goodBad int64
	lag                   time.Duration // summed dispatch lag
	lateTail              time.Duration // mean lag over the last quarter of the schedule
	wall, cpu             time.Duration
	mallocs               uint64
	heapMB                float64
	// Per-window CPU per request, good-tenant latencies seen by the
	// client (from the due time, windows cut by due time) and by the
	// server (the governed chain, windows cut by completion); the
	// end-to-end figures are medians over windows.
	cpus                         []float64
	clientWindows, serverWindows [][]float64
	fresh, refused               int64
	why                          map[string]int64 // good-tenant failures by reason
}

// openLoop plays jobs against the server: a dispatcher releases each
// job when it is due, any idle connection worker takes it, and latency
// is timed from the due time, so a stall also delays later requests.
func (s *tenantsServer) openLoop(jobs []job, fresh bool, window time.Duration) genResult {
	w := s.w
	tr := w.tr
	type dispatched struct {
		job
		idx int
		lag time.Duration
	}
	// Sized to the schedule so the dispatcher never waits for a worker:
	// it must keep time, not follow the server.
	ch := make(chan dispatched, len(jobs))
	res := genResult{why: map[string]int64{}}
	nwin := 1
	if window > 0 && len(jobs) > 0 {
		nwin = int(jobs[len(jobs)-1].due/window) + 1
	}
	// Every good-tenant latency, indexed by job (-1 for the rest), so
	// windows can be cut by due time afterwards without allocating while
	// measuring.
	lats := make([]float64, len(jobs))
	for i := range lats {
		lats[i] = -1
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	for _, cc := range s.conns {
		wg.Add(1)
		go func(cc *clientConn) {
			defer wg.Done()
			var ok, bad int64
			why := map[string]int64{}
			for d := range ch {
				due := start.Add(d.due)
				sendAt := time.Now()
				s.attempted.Add(1)
				code, body, err := cc.do(w.names[d.tenant], d.id)
				done := time.Now()
				if err == nil {
					s.responses.Add(1)
				}
				if tr != nil {
					tr.record(spanRequest, d.id, tr.at(due), tr.at(done))
					tr.record(spanLag, d.id, tr.at(due), tr.at(due.Add(d.lag)))
					tr.record(spanClient, d.id, tr.at(sendAt), tr.at(done))
				}
				if w.isFlood[d.tenant] {
					continue
				}
				if reason := failure(err, code, body, d.id, w.names[d.tenant]); reason != "" {
					bad++
					why[reason]++
					continue
				}
				ok++
				lats[d.idx] = float64(done.Sub(due).Nanoseconds())
			}
			mu.Lock()
			res.goodOK += ok
			res.goodBad += bad
			for k, v := range why {
				res.why[k] += v
			}
			mu.Unlock()
		}(cc)
	}
	var freshDone chan struct{}
	stopFresh := make(chan struct{})
	if fresh {
		freshDone = make(chan struct{})
		go func() {
			defer close(freshDone)
			s.freshFlood(stopFresh, &res)
		}()
	}

	s.times.start(nwin, len(jobs)/nwin+len(jobs)/(4*nwin)+64)
	heap := watchHeap()
	m0 := readMeter()
	var lagSum, tailSum time.Duration
	tailFrom := len(jobs) * 3 / 4
	dispatcherDone := make(chan struct{})
	go func() {
		defer close(dispatcherDone)
		sleepUntil, release := precisePacer()
		defer release()
		for i, j := range jobs {
			due := start.Add(j.due)
			sleepUntil(due)
			lag := time.Since(due)
			lagSum += lag
			if i >= tailFrom {
				tailSum += lag
			}
			ch <- dispatched{j, i, lag}
		}
		close(ch)
	}()
	prev := m0
	for k := 1; k < nwin; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * window)))
		s.times.win.Store(int64(k))
		cur := readMeter()
		res.cpus = append(res.cpus, float64((cur.cpu-prev.cpu).Nanoseconds())/1e3)
		prev = cur
	}
	<-dispatcherDone
	wg.Wait()
	close(stopFresh)
	if freshDone != nil {
		<-freshDone
	}
	m1 := readMeter()
	res.serverWindows = s.times.take()
	res.heapMB = heap.finish()
	res.wall, res.cpu, res.mallocs = m1.wall.Sub(m0.wall), m1.cpu-m0.cpu, m1.mallocs-m0.mallocs
	res.sent = int64(len(jobs))
	// Cut the good-tenant latencies into windows by due time, and
	// divide each full window's CPU by the requests due in it.
	perWin := make([]int, nwin)
	res.clientWindows = make([][]float64, nwin)
	for i, j := range jobs {
		k := 0
		if window > 0 {
			k = int(j.due / window)
		}
		perWin[k]++
		if lats[i] >= 0 {
			res.clientWindows[k] = append(res.clientWindows[k], lats[i])
		}
	}
	for k := range res.cpus {
		res.cpus[k] /= float64(perWin[k])
	}
	res.lag = lagSum
	if n := len(jobs) - tailFrom; n > 0 {
		res.lateTail = tailSum / time.Duration(n)
	}
	return res
}

// failure says why a good-tenant response is wrong, or "" when it is
// right: status 200 and a body naming the request and its tenant.
func failure(err error, code int, body []byte, id int64, tenant string) string {
	if err != nil {
		return "transport error"
	}
	if code != http.StatusOK {
		return "status " + strconv.Itoa(code)
	}
	var want [48]byte
	b := strconv.AppendInt(want[:0], id, 10)
	b = append(b, ' ')
	b = append(b, tenant...)
	if !bytes.Equal(body, b) {
		return "wrong body"
	}
	return ""
}

// freshFlood sends flood-tenant requests on fresh connections every
// freshEvery until stop closes; the policed listener refuses them while
// the flood tenant is over budget.
func (s *tenantsServer) freshFlood(stop chan struct{}, res *genResult) {
	flood := s.w.names[len(s.w.names)-1]
	t := time.NewTicker(freshEvery)
	defer t.Stop()
	for id := int64(1 << 40); ; id++ {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		s.attempted.Add(1)
		atomic.AddInt64(&res.fresh, 1)
		cc, err := dial(s.addr)
		if err != nil {
			atomic.AddInt64(&res.refused, 1)
			continue
		}
		_ = cc.c.SetDeadline(time.Now().Add(time.Second))
		if _, _, err := cc.do(flood, id); err != nil {
			atomic.AddInt64(&res.refused, 1)
		} else {
			s.responses.Add(1)
		}
		cc.close()
	}
}

func (r genResult) ops() int64 { return r.sent + r.fresh }

func runLiveTenants(cfg runConfig) (*outcome, error) {
	oc := newOutcome(cfg)
	conns := runtime.GOMAXPROCS(0)
	floodTenant := tenantsSpec.good
	nominalBudget := cfg.budget
	if cfg.trace {
		nominalBudget = cfg.budget * 3 / 10
	}
	var setups []float64
	var s *tenantsServer
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = startTenantsServer(nil, conns); err != nil {
			return nil, err
		}
		if err := s.warm(tenantsWarmReq); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()

	jobs := makeSchedule(cfg.seed, nominalRate, nominalBudget, tenantsSpec.good, floodTenant, 0)
	res := s.openLoop(jobs, true, tenantsWindow)
	if res.goodBad > 0 {
		oc.fail(res.goodBad, "live-tenants: %d good-tenant requests failed: %v", res.goodBad, res.why)
	}
	sum := summarize(res.clientWindows)
	oc.latency = sum
	if sum.N < minWindowSamples {
		oc.fail(0, "live-tenants: %d latency samples, too few for p99", sum.N)
	}
	c50, c99, _ := windowed(res.clientWindows)
	p50, p99, nwin := windowed(res.serverWindows)
	oc.e2e["setup_s"] = median(setups)
	oc.e2e["ops_per_s"] = float64(res.goodOK) / res.wall.Seconds()
	oc.e2e["cpu_us_per_op"] = median(res.cpus)
	oc.e2e["allocs_per_op"] = float64(res.mallocs) / float64(res.ops())
	oc.e2e["heap_live_mb"] = res.heapMB
	oc.e2e["p50_us"] = p50 / 1e3
	oc.layer["latency.p99_us"] = p99 / 1e3
	oc.layer["client.p50_us"] = c50 / 1e3
	oc.layer["client.p99_us"] = c99 / 1e3
	oc.layer["latency.samples"] = float64(sum.N)
	oc.layer["gen.lag_us"] = float64(res.lag.Microseconds()) / float64(res.sent)
	oc.note("open loop: %.0f req/s Poisson over %d keep-alive connections, %.0f%% flood tenant; fresh-connection flood every %v",
		nominalRate, conns, 100*floodShare, freshEvery)
	oc.note("fresh-connection flood requests: %d, refused at accept or unanswered: %d", res.fresh, res.refused)
	oc.note("p50_us and latency.p99_us time the governed chain at the server; client.p50_us and client.p99_us time requests at the client from their due time;")
	oc.note("CPU per request and percentiles are medians over %d windows of %v; the latency line below is the client's", nwin, tenantsWindow)
	if cfg.trace {
		maxRPS, rungs := s.ladderMax(cfg)
		oc.layer["live_max_rps"] = maxRPS
		for _, r := range rungs {
			oc.note("ladder %s", r)
		}
	}
	s.stopMonitor()
	s.w.check(oc, uint64(s.responses.Load()))
	s.w.counts(oc)
	oc.attempted += s.attempted.Load()
	if !cfg.trace {
		return oc, nil
	}

	// Traced server: spans at every boundary, CPU and mutex profiles,
	// then an allocation-profiled phase.
	tr := newTracer(1<<19, 1)
	ts, err := startTenantsServer(tr, conns)
	if err != nil {
		return nil, err
	}
	defer ts.close()
	if err := ts.warm(tenantsWarmReq); err != nil {
		return nil, fmt.Errorf("traced warm-up: %w", err)
	}
	phase := cfg.budget * 3 / 20
	prof, err := startProfiles()
	if err != nil {
		return nil, err
	}
	tjobs := makeSchedule(cfg.seed+1, nominalRate, phase, tenantsSpec.good, floodTenant, 1<<32)
	traced := ts.openLoop(tjobs, true, 0)
	samples, mutex := prof.stop(oc)
	spans := tr.recorded()
	oc.traceOverhead = (float64(traced.cpu)/float64(traced.ops()))/(float64(res.cpu)/float64(res.ops())) - 1
	oc.cpu = cpuShares(samples)
	oc.layer["rcruntime.mutex_wait_ns_per_op"] = mutexWaitNs(mutex, "rcruntime") / float64(traced.ops())

	// Recording every allocation's stack makes a request several times
	// dearer, so this phase offers a quarter of the nominal rate to stay
	// clear of overload.
	before := takeAllocSnapshot()
	runtime.MemProfileRate = 1
	ajobs := makeSchedule(cfg.seed+2, nominalRate/4, phase, tenantsSpec.good, floodTenant, 2<<32)
	alloc := ts.openLoop(ajobs, true, 0)
	runtime.MemProfileRate = defaultMemProfileRate
	after := takeAllocSnapshot()
	oc.allocs = allocsByLayer(before, after)
	oc.allocOps = alloc.ops()
	oc.layer["rcruntime.allocs_per_op"] = oc.allocs["rcruntime"] / float64(alloc.ops())
	oc.layer["nethttp.allocs_per_op"] = oc.allocs[layerHTTP] / float64(alloc.ops())
	if bad := traced.goodBad + alloc.goodBad; bad > 0 {
		oc.fail(bad, "live-tenants: %d good-tenant requests failed while traced: %v %v", bad, traced.why, alloc.why)
	}
	ts.stopMonitor()
	ts.w.check(oc, uint64(ts.responses.Load()))
	oc.attempted += ts.attempted.Load()

	st := reduceSpans(spans)
	oc.spanLayers(st)
	oc.layer["transport.us"] = st.selfMedian[spanClient] / 1e3
	oc.layer["listener.accept_us"] = st.median[spanAccept] / 1e3
	// The request span's self time is the wait, after dispatch, for a
	// connection worker to take the job.
	oc.spanSum = append([]ledgerRow{
		{"gen.lag", st.mean[spanLag] / 1e3},
		{"wait for a free connection", st.selfMean[spanRequest] / 1e3},
		{"transport (client minus middleware)", st.selfMean[spanClient] / 1e3},
	}, oc.spanSum...)
	oc.e2eCost, oc.e2eCostName = st.mean[spanRequest]/1e3, "mean request span from due, us"
	if d := tr.dropped.Load(); d > 0 {
		oc.note("span buffer full: %d spans dropped", d)
	}
	oc.saveArtifact("spans.jsonl", writeSpans(spans, 200000))
	return oc, nil
}

// ladderMax offers each ladder rate in turn and returns the highest at
// which good-tenant p99 stays within sloP99, the good error rate within
// sloErrorRate, and the dispatcher's lag does not grow; it stops at the
// first rate that misses.
func (s *tenantsServer) ladderMax(cfg runConfig) (float64, []string) {
	best := 0.0
	var notes []string
	for i, rate := range ladder {
		rung := time.Duration(ladderRequests / rate * float64(time.Second))
		jobs := makeSchedule(cfg.seed+int64(100+i), rate, rung, tenantsSpec.good, tenantsSpec.good, int64(i+1)<<36)
		r := s.openLoop(jobs, false, 0)
		sum := summarize(r.clientWindows)
		total := r.goodOK + r.goodBad
		errRate := 0.0
		if total > 0 {
			errRate = float64(r.goodBad) / float64(total)
		}
		meanLag := time.Duration(0)
		if r.sent > 0 {
			meanLag = r.lag / time.Duration(r.sent)
		}
		growing := r.lateTail > meanLag+500*time.Microsecond
		ok := sum.N >= minWindowSamples && sum.P99 <= float64(sloP99) && errRate <= sloErrorRate && !growing
		notes = append(notes, fmt.Sprintf("%6.0f req/s: p50 %.1f us, p99 %.1f us (n=%d), errors %.4f, lag %v -> %v, meets SLO %v",
			rate, sum.P50/1e3, sum.P99/1e3, sum.N, errRate, meanLag, r.lateTail, ok))
		if !ok {
			break
		}
		best = rate
	}
	return best, notes
}
