package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	arrow "repro"
	"repro/internal/journal"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// maxSessions is the explicit serve.Config.MaxSessions of every server
// the benchmark starts. A finished or deleted session keeps its store
// slot until SessionTTL (30 minutes) expires, so at the default cap of
// 256 a closed loop gets 429s after about two seconds. The cap sits far
// above the sessions one run creates; serve.store_size_end shows how
// many slots a run leaves occupied.
const maxSessions = 1 << 16

// clients is the number of closed-loop clients, and so of connections.
const clients = 2

// setupReps is how many times the study and recover workloads set up
// per run; setup_s is the median.
const setupReps = 5

// windowSeconds is about how long one serve window lasts; a serve run
// sets up a fresh deployment for each window, so its window size, and
// with it the finished sessions each store retains, does not depend on
// the run's length.
const windowSeconds = 2

// warmupSessions are run during each serve set-up and not measured.
const warmupSessions = 4

// serveSpec is one served-session workload.
type serveSpec struct {
	// request builds a session's create request from its seed.
	request func(seed int64) serve.SessionRequest
	// snapshotInterval is serve.Config.SnapshotInterval.
	snapshotInterval int
	// rate is the sessions per second the workload was sized at (two
	// cores, Go 1.24); a window of s seconds serves rate*s sessions.
	rate float64
}

// serveShort runs Arrow sessions the way users run them: Augmented BO
// for cost with the default Prediction-Delta stop rule on the 18-VM
// catalog, about four measurements each.
var serveShort = serveSpec{
	request: func(seed int64) serve.SessionRequest {
		return serve.SessionRequest{Method: "augmented-bo", Objective: "cost", Seed: seed}
	},
	rate: 330,
}

// serveLong turns the stop rules off and runs 14 measurements (the
// unstopped regime of the paper's Fig. 11) with a snapshot every 5
// observations, so planning and snapshot capture dominate.
var serveLong = serveSpec{
	request: func(seed int64) serve.SessionRequest {
		return serve.SessionRequest{
			Method:          "augmented-bo",
			Objective:       "cost",
			Seed:            seed,
			DeltaThreshold:  -1,
			EIStopFraction:  -1,
			MaxMeasurements: 14,
		}
	},
	snapshotInterval: 5,
	rate:             65,
}

// planEntry is one distinct session request of a run: the study
// workload the client measures and the request the server sees.
type planEntry struct {
	workload string
	req      serve.SessionRequest
	body     []byte
}

// makePlan derives a run's session requests from its seed: one per study
// workload, in a seeded order, each with a seeded request seed that also
// seeds the client's simulated measurements. Session i of a run uses
// entry i mod len(plan).
func makePlan(spec serveSpec, seed int64) ([]planEntry, error) {
	ids := arrow.WorkloadIDs()
	rng := rand.New(rand.NewSource(seed))
	plan := make([]planEntry, len(ids))
	for i, k := range rng.Perm(len(ids)) {
		req := spec.request(rng.Int63n(1 << 31))
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		plan[i] = planEntry{workload: ids[k], req: req, body: body}
	}
	return plan, nil
}

// front is a loopback HTTP listener serving a handler, plus the client
// transport that reaches it over at most `clients` connections.
type front struct {
	hs     *http.Server
	served chan error
	tr     *http.Transport
	client *http.Client
	base   string
}

func listen(h http.Handler) (*front, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &front{
		hs:     &http.Server{Handler: h, ReadHeaderTimeout: 30 * time.Second},
		served: make(chan error, 1),
		tr: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
		base: "http://" + ln.Addr().String(),
	}
	f.client = &http.Client{Transport: f.tr, Timeout: time.Minute}
	go func() { f.served <- f.hs.Serve(ln) }()
	return f, nil
}

// close stops the listener and every connection, and waits for the
// serving goroutine to return.
func (f *front) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.hs.Shutdown(ctx)
	if err != nil {
		f.hs.Close()
	}
	if serr := <-f.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	f.tr.CloseIdleConnections()
	return err
}

// warnCounter is serve.Config.Warnf. A "record lost" warning is an
// acknowledged transition that never reached the journal (the observe
// handler still answers 200), so it counts as a failed operation.
type warnCounter struct {
	lost atomic.Int64
	logf func(format string, args ...any)
}

func (w *warnCounter) warnf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if strings.Contains(msg, "record lost") {
		w.lost.Add(1)
	}
	w.logf("server warning: %s", msg)
}

// handlerLog keeps each traced request's handler time.
type handlerLog struct {
	mu    sync.Mutex
	byReq map[reqRef]time.Duration
}

func (h *handlerLog) record(ref reqRef, d time.Duration) {
	h.mu.Lock()
	h.byReq[ref] = d
	h.mu.Unlock()
}

func (h *handlerLog) reset() {
	h.mu.Lock()
	h.byReq = map[reqRef]time.Duration{}
	h.mu.Unlock()
}

// Request headers a traced client sends so spans of one request share
// its session key and sequence number.
const (
	hdrSession = "X-Bench-Session"
	hdrSeq     = "X-Bench-Seq"
	hdrRoute   = "X-Bench-Route"
)

// timeHandlers wraps the server's ServeHTTP with a handler span per
// request and brackets the session's fits with the collector.
func timeHandlers(h http.Handler, col *collector, spans *spanLog, hl *handlerLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq, _ := strconv.Atoi(r.Header.Get(hdrSeq))
		ref := reqRef{key: r.Header.Get(hdrSession), seq: seq, route: r.Header.Get(hdrRoute)}
		id := ""
		if parts := strings.Split(r.URL.Path, "/"); len(parts) >= 4 && parts[2] == "sessions" {
			id = parts[3]
			col.begin(id, ref)
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		if id != "" {
			col.end(id)
		}
		spans.add("serve."+ref.route, ref.key, ref.seq, "client."+ref.route, t0, t1)
		hl.record(ref, t1.Sub(t0))
	})
}

// stack is one served deployment: a journal with fsync on every append,
// the server, and its loopback front. Traced stacks also carry the
// collector and the handler log.
type stack struct {
	jrnl  *journal.Journal
	srv   *serve.Server
	front *front
	warn  *warnCounter
	col   *collector
	hl    *handlerLog
}

// openStack opens the journal in dir and serves it on a fresh listener.
func openStack(dir string, snapshotInterval int, e env) (*stack, error) {
	st := &stack{warn: &warnCounter{logf: e.logf}}
	j, err := journal.Open(dir, journal.WithSync(journal.SyncAlways), journal.WithReplica("perfbench"), journal.WithWarnf(st.warn.warnf))
	if err != nil {
		return nil, err
	}
	st.jrnl = j
	cfg := serve.Config{
		MaxSessions:      maxSessions,
		Journal:          j,
		SnapshotInterval: snapshotInterval,
		Warnf:            st.warn.warnf,
	}
	if e.traced {
		st.col = newCollector(e.spans)
		st.hl = &handlerLog{byReq: map[reqRef]time.Duration{}}
		cfg.Tracer = st.col
	}
	st.srv = serve.New(cfg)
	var h http.Handler = st.srv
	if e.traced {
		h = timeHandlers(st.srv, st.col, e.spans, st.hl)
	}
	if st.front, err = listen(h); err != nil {
		st.srv.Shutdown(context.Background())
		j.Close()
		return nil, err
	}
	e.logf("serving on %s", strings.TrimPrefix(st.front.base, "http://"))
	return st, nil
}

// close tears the stack down: listener and connections, then the
// server (which flushes any live session without journaling it), then
// the journal.
func (st *stack) close() error {
	err := st.front.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := st.srv.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	if jerr := st.jrnl.Close(); jerr != nil && err == nil {
		err = jerr
	}
	return err
}

// op is one measurement a client reported.
type op struct {
	index int
	out   arrow.Outcome
}

// call is one traced request's client round trip.
type call struct {
	ref reqRef
	rtt time.Duration
}

// client is one closed-loop client: it runs one session at a time and
// sends each request only after the previous answer arrived.
type client struct {
	f      *front
	spans  *spanLog
	traced bool

	rtt       map[string][]time.Duration // by route
	calls     []call                     // traced only
	bodies    [][]byte                   // traced only: request bodies, for the decode layer
	attempted int64
	failed    int64
	firstErr  error
}

// maxBodies caps the request bodies a traced client keeps.
const maxBodies = 4000

func newClient(f *front, e env) *client {
	return &client{f: f, spans: e.spans, traced: e.traced, rtt: map[string][]time.Duration{}}
}

// do sends one request and decodes a 2xx answer into out. Transport
// errors and non-2xx answers count as failed operations.
func (c *client) do(ctx context.Context, route, method, path string, body []byte, key string, seq int, out any) error {
	c.attempted++
	err := c.roundTrip(ctx, route, method, path, body, key, seq, out)
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
	return err
}

func (c *client) roundTrip(ctx context.Context, route, method, path string, body []byte, key string, seq int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.f.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.traced {
		req.Header.Set(hdrSession, key)
		req.Header.Set(hdrSeq, strconv.Itoa(seq))
		req.Header.Set(hdrRoute, route)
		if body != nil && len(c.bodies) < maxBodies {
			c.bodies = append(c.bodies, body)
		}
	}
	t0 := time.Now()
	resp, err := c.f.client.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("%s %s: reading answer: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	c.rtt[route] = append(c.rtt[route], t1.Sub(t0))
	if c.traced {
		ref := reqRef{key: key, seq: seq, route: route}
		c.calls = append(c.calls, call{ref: ref, rtt: t1.Sub(t0)})
		c.spans.add("client."+route, key, seq, "", t0, t1)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: undecodable answer: %w", method, path, err)
		}
	}
	return nil
}

// job is one session a client runs: a plan entry, and for a session
// left live mid-flight, the observations after which it stops.
type job struct {
	plan      int
	stopAfter int // < 0 runs the session to its result and deletes it
}

// sessionRec is one completed session.
type sessionRec struct {
	plan   int
	id     string
	wall   time.Duration // create through result
	digest string        // of the served Result; empty for a live session
	ops    []op
}

// maxSteps bounds a session's next/observe loop; the catalog has 18 VMs.
const maxSteps = 64

// session runs one job: create, then next/measure/observe until the
// advisor reports done, then result and delete. A job with stopAfter >= 0
// stops after that many observations and one more next, leaving the
// session live with its latest suggestion journaled.
func (c *client) session(ctx context.Context, key string, j job, p *planEntry) (sessionRec, error) {
	t0 := time.Now()
	var info serve.SessionInfo
	if err := c.do(ctx, "create", http.MethodPost, "/v1/sessions", p.body, key, 0, &info); err != nil {
		return sessionRec{plan: j.plan}, err
	}
	return c.continueSession(ctx, key, info.ID, j, p, t0)
}

// continueSession runs an existing session from its next suggestion on;
// the session's wall time counts from t0.
func (c *client) continueSession(ctx context.Context, key, id string, j job, p *planEntry, t0 time.Time) (sessionRec, error) {
	rec := sessionRec{plan: j.plan, id: id}
	base := "/v1/sessions/" + id
	target, err := arrow.NewSimulatedTarget(p.workload, p.req.Seed)
	if err != nil {
		return rec, err
	}
	seq := 0
	for step := 0; ; step++ {
		if step == maxSteps {
			return rec, fmt.Errorf("session %s: no result after %d steps", id, maxSteps)
		}
		var sug arrow.Suggestion
		seq++
		if err := c.do(ctx, "next", http.MethodGet, base+"/next", nil, key, seq, &sug); err != nil {
			return rec, err
		}
		if sug.Done || step == j.stopAfter {
			break
		}
		out, err := target.Measure(sug.Index)
		if err != nil {
			return rec, err
		}
		rec.ops = append(rec.ops, op{index: sug.Index, out: out})
		body, err := json.Marshal(serve.ObserveRequest{Index: sug.Index, TimeSec: out.TimeSec, CostUSD: out.CostUSD, Metrics: out.Metrics})
		if err != nil {
			return rec, err
		}
		seq++
		if err := c.do(ctx, "observe", http.MethodPost, base+"/observe", body, key, seq, nil); err != nil {
			return rec, err
		}
	}
	if j.stopAfter >= 0 {
		return rec, nil
	}
	var res serve.ResultResponse
	seq++
	if err := c.do(ctx, "result", http.MethodGet, base+"/result", nil, key, seq, &res); err != nil {
		return rec, err
	}
	rec.wall = time.Since(t0)
	if rec.digest, err = digestResult(res.Result); err != nil {
		return rec, err
	}
	seq++
	return rec, c.do(ctx, "delete", http.MethodDelete, base, nil, key, seq, nil)
}

// drive runs jobs on the clients concurrently until jobs runs out or
// the deadline passes; a session in flight at the deadline completes.
// Job i runs under the session key prefix+i. Sessions that failed are
// not returned; their requests count as failed on the client.
func drive(ctx context.Context, cs []*client, plan []planEntry, prefix string, deadline time.Time, jobs func(i int) (job, bool)) []sessionRec {
	var next atomic.Int64
	recs := make([][]sessionRec, len(cs))
	var wg sync.WaitGroup
	for ci, c := range cs {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				j, ok := jobs(i)
				if !ok {
					return
				}
				rec, err := c.session(ctx, prefix+strconv.Itoa(i), j, &plan[j.plan])
				if err == nil {
					recs[ci] = append(recs[ci], rec)
				}
			}
		}(ci, c)
	}
	wg.Wait()
	var out []sessionRec
	for _, r := range recs {
		out = append(out, r...)
	}
	return out
}

// digestResult hashes a result's JSON encoding.
func digestResult(res *arrow.Result) (string, error) {
	if res == nil {
		return "", errors.New("no result")
	}
	data, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16]), nil
}

// referenceDigest runs the plan entry's request as one in-process
// Optimizer.Search against the same simulated workload.
func referenceDigest(p *planEntry) (string, error) {
	req := p.req
	opt, _, err := serve.BuildOptimizer(&req)
	if err != nil {
		return "", err
	}
	target, err := arrow.NewSimulatedTarget(p.workload, p.req.Seed)
	if err != nil {
		return "", err
	}
	res, err := opt.Search(target)
	if err != nil {
		return "", err
	}
	return digestResult(res)
}

// references computes the reference digest of every listed plan entry,
// on `clients` workers, outside any timed window.
func references(plan []planEntry, used []int) (map[int]string, error) {
	out := make(map[int]string, len(used))
	var mu sync.Mutex
	var firstErr error
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				d, err := referenceDigest(&plan[i])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference search for %s: %w", plan[i].workload, err)
				}
				out[i] = d
				mu.Unlock()
			}
		}()
	}
	for _, i := range used {
		work <- i
	}
	close(work)
	wg.Wait()
	return out, firstErr
}

// checkAgainstReference asserts every served session's result equals
// the in-process search of the same request.
func checkAgainstReference(o *outcome, plan []planEntry, recs []sessionRec) error {
	seen := map[int]bool{}
	var used []int
	for _, r := range recs {
		if !seen[r.plan] {
			seen[r.plan] = true
			used = append(used, r.plan)
		}
	}
	refs, err := references(plan, used)
	if err != nil {
		return err
	}
	bad := 0
	for _, r := range recs {
		if r.digest != refs[r.plan] {
			bad++
		}
	}
	o.check(bad == 0 && len(recs) > 0, "%d of %d served results equal an in-process Search of the same request (%d distinct requests)",
		len(recs)-bad, len(recs), len(used))
	return nil
}

// serveRun accumulates a serve run's measured windows.
type serveRun struct {
	setups    []float64
	rates     []float64 // sessions per second of each window
	recs      []sessionRec
	clients   []*client
	lost      int64
	mem       memUse
	lines     int   // journal records written in the windows
	bytes     int64 // and their bytes
	storeSize int   // sessions in the store after the last window

	// Traced runs only.
	handler map[reqRef]time.Duration
	fits    []fit
	hit     int
	waste   int
	written *journalScan // the last window's journal records
}

// runServe runs a served-session workload: once per windowSeconds of the
// run, a fresh deployment (journal, server, loopback listener, warm-up
// sessions) is set up and two closed-loop clients then run an equal
// share of the run's sessions on it. Sessions are a fixed number,
// rate*seconds, so every window retains the same finished sessions in
// its store (known defect 1) whatever its speed; three times the run's
// length caps them.
func runServe(ctx context.Context, spec serveSpec, e env) (*outcome, error) {
	o := newOutcome()
	plan, err := makePlan(spec, e.seed)
	if err != nil {
		return nil, err
	}
	windows := int(e.seconds.Seconds()/windowSeconds + 0.5)
	if windows < 1 {
		windows = 1
	}
	per := int(spec.rate*e.seconds.Seconds()/float64(windows) + 0.5)
	if per < 1 {
		per = 1
	}
	run := &serveRun{handler: map[reqRef]time.Duration{}}
	for r := 0; r < windows; r++ {
		if err := run.window(ctx, r, spec, plan, per, e.seconds*3/time.Duration(windows), e); err != nil {
			return nil, err
		}
	}
	for _, c := range run.clients {
		o.attempted += c.attempted
		o.failed += c.failed
		if c.firstErr != nil {
			o.note("first failed request: %v", c.firstErr)
		}
	}
	o.attempted += run.lost // an acknowledged write that was lost is its own failed operation
	o.failed += run.lost
	recs := run.recs
	sessions := float64(len(recs))
	o.memory(run.mem, sessions)

	walls := make([]float64, len(recs))
	for i, r := range recs {
		walls[i] = ms(r.wall)
	}
	o.e2e["setup_s"] = median(run.setups)
	o.e2e["ops_per_s"] = median(run.rates)
	o.e2e["op_p50_ms"] = median(walls)
	o.layer["trace.ops_per_s"] = median(run.rates)
	o.layer["trace.op_p50_ms"] = median(walls)
	o.layer["serve.store_size_end"] = float64(run.storeSize)
	if sessions > 0 {
		o.layer["journal.appends_per_session"] = float64(run.lines) / sessions
		o.layer["journal.bytes_per_session"] = float64(run.bytes) / sessions
	}

	routes := map[string][]float64{}
	for _, c := range run.clients {
		for route, ds := range c.rtt {
			routes[route] = append(routes[route], durations(ds, ms)...)
		}
	}
	o.note("%d of %d sessions in %d windows on %d closed-loop clients; %d journal record(s) lost",
		len(recs), per*windows, windows, clients, run.lost)
	o.note("sessions_per_s           %.4g 1/s (median of window rates %.4g)", median(run.rates), run.rates)
	o.timing("session_ms", "ms", walls)
	for _, route := range []string{"create", "next", "observe", "result", "delete"} {
		o.timing(route+"_ms", "ms", routes[route])
	}
	o.note("store size after a window: %d sessions (finished sessions keep their slot until SessionTTL)", run.storeSize)
	for _, route := range []string{"create", "next", "observe"} {
		o.layer["client."+route+"_p50_ms"] = median(routes[route])
	}
	o.layer["client.next_p99_ms"] = percentile(routes["next"], 99)
	o.layer["client.observe_p99_ms"] = percentile(routes["observe"], 99)

	if err := checkAgainstReference(o, plan, recs); err != nil {
		return nil, err
	}
	if e.traced {
		if err := serveLayers(ctx, o, e, run, plan); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// window sets up deployment r and runs `per` sessions on it, for at most
// limit.
func (run *serveRun) window(ctx context.Context, r int, spec serveSpec, plan []planEntry, per int, limit time.Duration, e env) (err error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(e.dir, "journal-")
	if err != nil {
		return err
	}
	st, err := openStack(dir, spec.snapshotInterval, e)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := st.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	warm := []*client{newClient(st.front, e), newClient(st.front, e)}
	drive(ctx, warm, plan, fmt.Sprintf("w%d-", r), time.Now().Add(time.Minute), func(i int) (job, bool) {
		return job{plan: i % len(plan), stopAfter: -1}, i < warmupSessions
	})
	for _, c := range warm {
		if c.failed > 0 {
			return fmt.Errorf("warm-up: %w", c.firstErr)
		}
	}
	run.setups = append(run.setups, time.Since(t0).Seconds())

	if e.traced {
		st.col.reset()
		st.hl.reset()
	}
	j0, err := scanJournal(dir, nil)
	if err != nil {
		return err
	}
	lost0 := st.warn.lost.Load()
	cs := []*client{newClient(st.front, e), newClient(st.front, e)}
	m0 := memNow()
	start := time.Now()
	recs := drive(ctx, cs, plan, fmt.Sprintf("s%d-", r), start.Add(limit), func(i int) (job, bool) {
		return job{plan: i % len(plan), stopAfter: -1}, i < per
	})
	wall := time.Since(start)
	run.mem = run.mem.add(memNow().since(m0))
	if err := ctx.Err(); err != nil {
		return err
	}
	run.rates = append(run.rates, float64(len(recs))/wall.Seconds())
	run.recs = append(run.recs, recs...)
	for _, c := range cs {
		c.f = nil // the deployment is torn down; keep only what the client measured
	}
	run.clients = append(run.clients, cs...)
	run.lost += st.warn.lost.Load() - lost0
	run.storeSize = st.srv.SessionCount()
	written, err := scanJournal(dir, j0.offsets)
	if err != nil {
		return err
	}
	run.lines += len(written.lines)
	run.bytes += written.bytes
	if e.traced {
		st.hl.mu.Lock()
		for ref, d := range st.hl.byReq {
			run.handler[ref] = d
		}
		st.hl.mu.Unlock()
		fits, hit, waste := st.col.snapshot()
		run.fits = append(run.fits, fits...)
		run.hit += hit
		run.waste += waste
		run.written = written
	}
	return nil
}

// serveLayers computes a traced serve run's per-layer metrics from the
// handler times, the collected fits, the journal records the last window
// wrote, and isolated replays of the run's recorded inputs.
func serveLayers(ctx context.Context, o *outcome, e env, run *serveRun, plan []planEntry) error {
	sessions := float64(len(run.recs))

	// Handler time per route, and client round trip minus handler time.
	byRoute := map[string][]float64{}
	var handlerTotal time.Duration
	var wire []float64
	for _, c := range run.clients {
		for _, cl := range c.calls {
			h, ok := run.handler[cl.ref]
			if !ok {
				continue
			}
			byRoute[cl.ref.route] = append(byRoute[cl.ref.route], us(h))
			handlerTotal += h
			wire = append(wire, us(cl.rtt-h))
		}
	}
	for _, route := range []string{"create", "next", "observe", "result"} {
		o.layer["serve."+route+"_p50_us"] = median(byRoute[route])
		o.timing("handler."+route+"_us", "us", byRoute[route])
	}
	o.layer["wire.overhead_p50_us"] = median(wire)
	o.timing("wire.overhead_us", "us", wire)

	// Decoding the run's own request bodies.
	var decode []float64
	for _, c := range run.clients {
		for _, b := range c.bodies {
			t0 := time.Now()
			var err error
			if bytes.Contains(b, []byte(`"method"`)) {
				_, err = serve.DecodeSessionRequest(b)
			} else {
				_, err = serve.DecodeObserveRequest(b)
			}
			decode = append(decode, us(time.Since(t0)))
			if err != nil {
				return fmt.Errorf("decoding a recorded request body: %w", err)
			}
		}
	}
	o.layer["serve.decode_p50_us"] = median(decode)

	o.layer["serve.speculate_hit_frac"] = share(float64(run.hit), float64(run.hit+run.waste))
	o.note("speculation: %d hits, %d wasted plans", run.hit, run.waste)
	forest := summarizeFits(run.fits, "forest")
	gp := summarizeFits(run.fits, "gp")
	o.layer["core.fits_per_session"] = share(float64(len(run.fits)), sessions)
	o.layer["forest.rows_per_fit_mean"] = forest.rowsMean
	o.layer["forest.fit_p50_ms"] = median(forest.walls)
	o.layer["forest.fit_p99_ms"] = percentile(forest.walls, 99)
	o.layer["core.refit_incremental_frac"] = forest.incremental
	o.layer["gp.fit_p50_ms"] = median(gp.walls)
	o.timing("forest.fit_ms", "ms", forest.walls)

	planPerSession, err := replayAdvisors(ctx, o, plan, run.recs)
	if err != nil {
		return err
	}
	if err := journalLayers(o, e, run.written); err != nil {
		return err
	}
	handlerPerSession := ms(handlerTotal) / sessions
	appendPerSession := o.layer["journal.appends_per_session"] * o.layer["journal.append_p50_us"] / 1000
	o.layer["core.plan_share"] = share(planPerSession, handlerPerSession)
	o.layer["journal.append_share"] = share(appendPerSession, handlerPerSession)
	o.note("share of handler time (base %.4g ms per session): planning %.1f%% (%.4g ms, isolated replay), journal appends %.1f%% (%.4g ms, re-appended)",
		handlerPerSession, 100*o.layer["core.plan_share"], planPerSession, 100*o.layer["journal.append_share"], appendPerSession)
	return nil
}

// fitTimer counts the surrogate fits an advisor emits and sums their
// time.
type fitTimer struct{ ns, fits atomic.Int64 }

func (f *fitTimer) Emit(e telemetry.Event) {
	if e.Kind == telemetry.KindSurrogateFit && e.Wall != nil {
		f.fits.Add(1)
		f.ns.Add(e.Wall.DurationNS)
	}
}

// replayAdvisors replays one recorded session per distinct request
// through Advisor.Next in isolation: each step is Observe of the recorded
// measurement followed by Next. Over the steps that fitted a surrogate
// (the initial design plans nothing) it reports the step time, and the
// step time minus the fits as the acquisition time. It returns the mean
// planning time per session in ms.
func replayAdvisors(ctx context.Context, o *outcome, plan []planEntry, recs []sessionRec) (float64, error) {
	done := map[int]bool{}
	var steps, acquire, perSession []float64
	diverged := 0
	for _, r := range recs {
		if done[r.plan] {
			continue
		}
		done[r.plan] = true
		total, err := replayOne(ctx, plan[r.plan], r.ops, &steps, &acquire)
		if errors.Is(err, errDiverged) {
			diverged++
			continue
		}
		if err != nil {
			return 0, fmt.Errorf("replaying %s: %w", plan[r.plan].workload, err)
		}
		perSession = append(perSession, ms(total))
	}
	o.check(diverged == 0, "%d of %d isolated advisor replays suggest exactly what their served session did", len(done)-diverged, len(done))
	o.layer["advisor.next_p50_ms"] = median(steps)
	o.layer["core.acquire_p50_ms"] = median(acquire)
	o.timing("advisor.plan_step_ms", "ms", steps)
	o.timing("acquire_ms", "ms", acquire)
	return mean(perSession), nil
}

var errDiverged = errors.New("replay diverged from the served session")

// replayOne replays one session's recorded ops, appending the planning
// steps' times to steps and acquire, and returns the total step time.
func replayOne(ctx context.Context, p planEntry, ops []op, steps, acquire *[]float64) (time.Duration, error) {
	ft := &fitTimer{}
	opt, cands, err := serve.BuildOptimizer(&p.req, arrow.WithTracer(ft))
	if err != nil {
		return 0, err
	}
	adv, err := opt.NewAdvisor(cands)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for k := 0; ; k++ {
		ft.ns.Store(0)
		ft.fits.Store(0)
		t0 := time.Now()
		if k > 0 {
			if err := adv.Observe(ops[k-1].index, ops[k-1].out); err != nil {
				adv.Abort(err)
				return 0, err
			}
		}
		sug, err := adv.Next(ctx)
		dt := time.Since(t0)
		if err != nil {
			adv.Abort(err)
			return 0, err
		}
		total += dt
		if ft.fits.Load() > 0 {
			*steps = append(*steps, ms(dt))
			*acquire = append(*acquire, ms(dt-time.Duration(ft.ns.Load())))
		}
		switch {
		case sug.Done && k == len(ops):
			return total, nil
		case sug.Done || k >= len(ops) || sug.Index != ops[k].index:
			adv.Abort(errDiverged)
			return 0, errDiverged
		}
	}
}
