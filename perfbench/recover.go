package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/journal"
	"repro/internal/serve"
)

// The recover workload's journal: recoverEnded serve-long sessions run
// to completion, then recoverLive more are left mid-flight, after 5 to 9
// observations in turn and one more next, so each holds a snapshot and
// every run replays the same mix of steps past it.
const (
	recoverEnded   = 32
	recoverLive    = 128
	recoverSamples = 8 // recovered sessions driven to completion and checked
	minPasses      = 3
)

// recovered is one timed recovery pass: journal.Open, serve.New and
// Server.Recover on the crashed server's journal directory.
type recovered struct {
	wall, open time.Duration
	report     *serve.RecoveryReport
	jrnl       *journal.Journal
	srv        *serve.Server
}

func recoverOnce(ctx context.Context, dir string, w *warnCounter) (*recovered, error) {
	t0 := time.Now()
	j, err := journal.Open(dir, journal.WithSync(journal.SyncAlways), journal.WithReplica("perfbench"), journal.WithWarnf(w.warnf))
	if err != nil {
		return nil, err
	}
	open := time.Since(t0)
	srv := serve.New(serve.Config{
		MaxSessions:      maxSessions,
		Journal:          j,
		SnapshotInterval: serveLong.snapshotInterval,
		Warnf:            w.warnf,
	})
	rep, err := srv.Recover(ctx)
	wall := time.Since(t0)
	if err != nil {
		srv.Shutdown(ctx)
		j.Close()
		return nil, err
	}
	return &recovered{wall: wall, open: open, report: rep, jrnl: j, srv: srv}, nil
}

// close shuts the recovered server down the way a restart would (live
// sessions stay live in the journal) and releases the journal.
func (r *recovered) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if jerr := r.jrnl.Close(); jerr != nil && err == nil {
		err = jerr
	}
	return err
}

// crash builds the recover workload's journal in dir: it serves the
// ended and live sessions, then shuts the server down without ending the
// live ones, which leaves them on disk the way a crash does. It returns
// the live sessions.
func crash(ctx context.Context, dir string, plan []planEntry, e env) ([]sessionRec, error) {
	st, err := openStack(dir, serveLong.snapshotInterval, e)
	if err != nil {
		return nil, err
	}
	cs := []*client{newClient(st.front, e), newClient(st.front, e)}
	recs := drive(ctx, cs, plan, "c", time.Now().Add(2*time.Minute), func(i int) (job, bool) {
		if i >= recoverEnded+recoverLive {
			return job{}, false
		}
		j := job{plan: i % len(plan), stopAfter: -1}
		if i >= recoverEnded {
			j.stopAfter = 5 + (i-recoverEnded)%5
		}
		return j, true
	})
	if err := st.close(); err != nil {
		return nil, err
	}
	for _, c := range cs {
		if c.failed > 0 {
			return nil, c.firstErr
		}
	}
	if n := st.warn.lost.Load(); n > 0 {
		return nil, fmt.Errorf("%d journal records lost while building the journal", n)
	}
	var live []sessionRec
	for _, r := range recs {
		if r.digest == "" {
			live = append(live, r)
		}
	}
	if len(live) != recoverLive {
		return nil, fmt.Errorf("built %d live sessions, want %d", len(live), recoverLive)
	}
	return live, ctx.Err()
}

// runRecover runs the recover workload: after a discarded warm-up pass,
// timed recovery passes on the same crashed journal until the window is
// over, then a final recovery whose sampled sessions are driven to
// completion and checked against uninterrupted searches.
func runRecover(ctx context.Context, e env) (*outcome, error) {
	o := newOutcome()
	plan, err := makePlan(serveLong, e.seed)
	if err != nil {
		return nil, err
	}
	quiet := e
	quiet.traced, quiet.spans = false, nil

	var dir string
	var live []sessionRec
	var setups []float64
	for r := 0; r < setupReps; r++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		t0 := time.Now()
		if dir, err = os.MkdirTemp(e.dir, "crashed-"); err != nil {
			return nil, err
		}
		if live, err = crash(ctx, dir, plan, quiet); err != nil {
			return nil, fmt.Errorf("building the crashed journal: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.e2e["setup_s"] = median(setups)

	warn := &warnCounter{logf: e.logf}
	j0, err := scanJournal(dir, nil)
	if err != nil {
		return nil, err
	}
	if r, err := recoverOnce(ctx, dir, warn); err != nil { // warm-up pass, discarded
		return nil, err
	} else if err := r.close(); err != nil {
		return nil, err
	}

	m0 := memNow()
	var walls, opens, scans, perS, sessP50, sessP99, restore []float64
	badPasses := 0
	t0 := time.Now()
	for pass := 0; pass < minPasses || time.Since(t0) < e.seconds; pass++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := recoverOnce(ctx, dir, warn)
		if err != nil {
			return nil, err
		}
		e.spans.add("recover.pass", "pass"+strconv.Itoa(pass), 0, "", time.Now().Add(-r.wall), time.Now())
		rep := r.report
		if err := r.close(); err != nil {
			return nil, err
		}
		o.attempted += recoverLive
		o.failed += int64(recoverLive - rep.Recovered + len(rep.Damaged))
		if rep.Recovered != recoverLive || len(rep.Damaged) != 0 || rep.SnapshotRestores != rep.Recovered {
			badPasses++
		}
		walls = append(walls, ms(r.wall))
		opens = append(opens, ms(r.open))
		perS = append(perS, float64(rep.Recovered)/r.wall.Seconds())
		sessP50 = append(sessP50, float64(rep.RecoverP50Micros))
		sessP99 = append(sessP99, float64(rep.RecoverP99Micros))
		restore = append(restore, share(float64(rep.SnapshotRestores), float64(rep.Recovered)))
		if e.traced {
			s0 := time.Now()
			if _, err := journal.ScanDir(dir, allShards(), warn.warnf); err != nil {
				return nil, err
			}
			scans = append(scans, ms(time.Since(s0)))
		}
	}
	o.memory(memNow().since(m0), float64(len(walls)*recoverLive))
	o.check(badPasses == 0, "%d of %d passes recovered all %d live sessions from snapshots with no damage", len(walls)-badPasses, len(walls), recoverLive)

	j1, err := scanJournal(dir, j0.offsets)
	if err != nil {
		return nil, err
	}
	recoveredTotal := float64(len(walls) * recoverLive)
	o.layer["journal.appends_per_session"] = float64(len(j1.lines)) / recoveredTotal
	o.layer["journal.bytes_per_session"] = float64(j1.bytes) / recoveredTotal

	o.e2e["ops_per_s"] = median(perS)
	o.e2e["op_p50_ms"] = median(walls)
	o.layer["trace.ops_per_s"] = median(perS)
	o.layer["trace.op_p50_ms"] = median(walls)
	o.layer["journal.open_ms"] = median(opens)
	o.layer["journal.scan_ms"] = median(scans)
	o.layer["recover.session_p50_us"] = median(sessP50)
	o.layer["recover.session_p99_us"] = median(sessP99)
	o.layer["recover.snapshot_restore_frac"] = median(restore)
	o.note("%d live and %d ended sessions in a %d-byte journal; %d timed passes after a discarded warm-up", recoverLive, recoverEnded, j0.bytes, len(walls))
	o.note("recover_s                %.4g s (median pass)", median(walls)/1000)
	o.timing("recover_pass_ms", "ms", walls)
	o.note("journal appends during recovery: %d records, %d bytes", len(j1.lines), j1.bytes)

	if err := checkRecovered(ctx, o, dir, plan, live, warn, e); err != nil {
		return nil, err
	}
	lost := warn.lost.Load()
	o.attempted += lost
	o.failed += lost
	return o, nil
}

// allShards lists the journal's shard numbers.
func allShards() []int {
	out := make([]int, journal.DefaultShards)
	for i := range out {
		out[i] = i
	}
	return out
}

// checkRecovered recovers the journal once more, serves it, drives a
// seeded sample of the recovered sessions to completion over HTTP and
// asserts each result equals the uninterrupted search of its request.
func checkRecovered(ctx context.Context, o *outcome, dir string, plan []planEntry, live []sessionRec, warn *warnCounter, e env) error {
	r, err := recoverOnce(ctx, dir, warn)
	if err != nil {
		return err
	}
	f, err := listen(r.srv)
	if err != nil {
		r.close()
		return err
	}
	e.logf("serving on %s", strings.TrimPrefix(f.base, "http://"))
	quiet := e
	quiet.traced, quiet.spans = false, nil
	c := newClient(f, quiet)
	sample := rand.New(rand.NewSource(e.seed)).Perm(len(live))[:recoverSamples]
	got := make([]sessionRec, 0, len(sample))
	for _, i := range sample {
		s := live[i]
		rec, err := c.continueSession(ctx, "r"+strconv.Itoa(i), s.id, job{plan: s.plan, stopAfter: -1}, &plan[s.plan], time.Now())
		if err == nil {
			got = append(got, rec)
		}
	}
	err = f.close()
	if cerr := r.close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	o.attempted += c.attempted
	o.failed += c.failed
	if c.firstErr != nil {
		o.note("first failed request: %v", c.firstErr)
	}
	o.check(len(got) == recoverSamples, "%d of %d sampled recovered sessions ran to completion", len(got), recoverSamples)
	return checkAgainstReference(o, plan, got)
}
