package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// span is one timed call at a layer boundary. Spans of one request share
// Session (the client's session key) and Seq (the request's ordinal in
// that session); Parent names the enclosing span of the same request,
// empty for a root or for background work such as speculative planning.
type span struct {
	Name    string `json:"name"`
	Session string `json:"session"`
	Seq     int    `json:"seq"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until the run writes them
// out. A nil *spanLog records nothing, so untraced runs pay one branch.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records one span; a no-op on a nil log.
func (l *spanLog) add(name, session string, seq int, parent string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{
		Name:    name,
		Session: session,
		Seq:     seq,
		Parent:  parent,
		StartNS: start.Sub(l.t0).Nanoseconds(),
		EndNS:   end.Sub(l.t0).Nanoseconds(),
	})
	l.mu.Unlock()
}

// write stores the spans as JSON lines at path.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fit is one surrogate_fit event the program emitted.
type fit struct {
	model       string
	rows        float64
	wall        time.Duration
	incremental bool
}

// reqRef identifies one in-flight request of a traced run.
type reqRef struct {
	key   string // client session key
	seq   int
	route string
}

// collector is the telemetry sink the benchmark hands to the program
// (serve.Config.Tracer, arrow.WithTracer): it keeps the surrogate fits
// and speculation dispositions and turns each fit into a span under the
// handler serving that session at the time, if any.
type collector struct {
	spans *spanLog

	mu        sync.Mutex
	fits      []fit
	specHit   int
	specWaste int
	keys      map[string]string // server session id -> client session key
	inflight  map[string]reqRef // server session id -> request being handled
}

func newCollector(spans *spanLog) *collector {
	return &collector{spans: spans, keys: map[string]string{}, inflight: map[string]reqRef{}}
}

// Emit implements telemetry.Tracer.
func (c *collector) Emit(e telemetry.Event) {
	switch e.Kind {
	case telemetry.KindSurrogateFit:
		end := time.Now()
		f := fit{model: e.Detail, rows: e.Value}
		if e.Wall != nil {
			f.wall = time.Duration(e.Wall.DurationNS)
			f.incremental = e.Wall.Refit == "incremental"
		}
		c.mu.Lock()
		c.fits = append(c.fits, f)
		ref, inRequest := c.inflight[e.Workload]
		key := c.keys[e.Workload]
		c.mu.Unlock()
		name := "core.fit." + strings.SplitN(f.model, "-", 2)[0]
		if inRequest {
			c.spans.add(name, ref.key, ref.seq, "serve."+ref.route, end.Add(-f.wall), end)
		} else {
			c.spans.add(name, key, -1, "", end.Add(-f.wall), end)
		}
	case telemetry.KindSpeculateHit:
		c.mu.Lock()
		c.specHit++
		c.mu.Unlock()
	case telemetry.KindSpeculateWaste:
		c.mu.Lock()
		c.specWaste++
		c.mu.Unlock()
	}
}

// begin and end bracket a handler call for session id.
func (c *collector) begin(id string, ref reqRef) {
	c.mu.Lock()
	c.keys[id] = ref.key
	c.inflight[id] = ref
	c.mu.Unlock()
}

func (c *collector) end(id string) {
	c.mu.Lock()
	delete(c.inflight, id)
	c.mu.Unlock()
}

// reset drops what was collected so far (the warm-up's events).
func (c *collector) reset() {
	c.mu.Lock()
	c.fits = nil
	c.specHit, c.specWaste = 0, 0
	c.mu.Unlock()
}

// snapshot returns the fits and speculation counts collected so far.
func (c *collector) snapshot() (fits []fit, hit, waste int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]fit(nil), c.fits...), c.specHit, c.specWaste
}

// fitStats summarizes the fits of one model family ("forest" or "gp").
type fitStats struct {
	walls       []float64 // ms
	rowsMean    float64
	incremental float64 // fraction of fits that reused model state
	total       time.Duration
}

func summarizeFits(fits []fit, family string) fitStats {
	var st fitStats
	rows := 0.0
	inc := 0
	for _, f := range fits {
		if !strings.HasPrefix(f.model, family) {
			continue
		}
		st.walls = append(st.walls, ms(f.wall))
		rows += f.rows
		st.total += f.wall
		if f.incremental {
			inc++
		}
	}
	if n := float64(len(st.walls)); n > 0 {
		st.rowsMean = rows / n
		st.incremental = float64(inc) / n
	}
	return st
}

// traceFile is where a traced run writes its spans.
func traceFile(dir, workload string, seed int64) string {
	return filepath.Join(dir, "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
