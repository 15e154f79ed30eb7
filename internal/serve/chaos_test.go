package serve

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	arrow "repro"
)

// finiteOutcome reports whether every value in out survives JSON.
func finiteOutcome(out arrow.Outcome) bool {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	if !finite(out.TimeSec) || !finite(out.CostUSD) {
		return false
	}
	for _, m := range out.Metrics {
		if !finite(m) {
			return false
		}
	}
	return true
}

// TestServeChaos is the serving layer's survival test: 64 concurrent
// sessions whose measuring clients see injected faults (transient
// failures reported as failed observations, corrupted outcomes passed
// through to the server's validation gate), with a graceful shutdown
// firing while half of them are mid-search. The server must not
// deadlock, every finished session must return a complete result, and
// every in-flight session must be flushed to a salvaged result that is
// still readable over HTTP and holds exactly the observations its client
// saw acknowledged. Run under -race, this also shakes the stepper's
// channel choreography and the store's locking.
func TestServeChaos(t *testing.T) {
	const sessions = 64

	s := New(Config{MaxSessions: sessions})
	hs := httptest.NewServer(s)
	defer hs.Close()
	defer s.Shutdown(context.Background())

	methods := []string{"naive-bo", "augmented-bo", "hybrid-bo", "random-search"}
	var (
		wg          sync.WaitGroup
		finished    atomic.Int64 // sessions whose client saw Done (naturally or via the abort)
		flushed     atomic.Int64 // sessions whose client walked away or got cut off
		shutdownNow = make(chan struct{})
	)
	ids := make([]string, sessions)
	// acked[i] counts the observations (and reported failures) session
	// i's client saw acknowledged; each client goroutine owns its slot.
	acked := make([]int, sessions)

	// Create every session up front so the later shutdown races only
	// the next/observe stepping, never session creation.
	setup := newClient(t, hs)
	for i := range sessions {
		ids[i] = setup.create(SessionRequest{
			Method:          methods[i%len(methods)],
			Seed:            int64(i),
			MaxMeasurements: 6,
		}).ID
	}

	for i := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(t, hs)

			base, err := arrow.NewSimulatedTarget("als/spark2.1/medium", int64(i%5))
			if err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			target := arrow.NewChaosTarget(base, arrow.ChaosConfig{
				Seed:              int64(i),
				TransientRate:     0.2,
				CorruptRate:       0.15,
				PermanentFailures: []int{i % base.NumCandidates()},
			})
			info := SessionInfo{ID: ids[i]}

			for {
				select {
				case <-shutdownNow:
					// Walk away mid-search; the shutdown must salvage us.
					flushed.Add(1)
					return
				default:
				}
				var sug arrow.Suggestion
				switch st := c.do("GET", "/v1/sessions/"+info.ID+"/next", nil, &sug); st {
				case http.StatusOK:
				case http.StatusGatewayTimeout:
					continue // planning queue contention; retry
				default:
					t.Errorf("session %s: next status %d", info.ID, st)
					return
				}
				if sug.Done {
					finished.Add(1)
					return
				}
				out, merr := target.Measure(sug.Index)
				var req ObserveRequest
				switch {
				case merr != nil:
					req = ObserveRequest{Index: sug.Index, Failed: true, Reason: merr.Error()}
				case !finiteOutcome(out):
					// JSON cannot carry NaN/Inf, so a real client reports
					// a non-finite measurement as a failure; finite
					// corruptions (negative time/cost) go through and the
					// server's validation gate quarantines them.
					req = ObserveRequest{Index: sug.Index, Failed: true, Reason: "non-finite measurement"}
				default:
					req = ObserveRequest{Index: sug.Index, TimeSec: out.TimeSec, CostUSD: out.CostUSD, Metrics: out.Metrics}
				}
				var oresp ObserveResponse
				st := c.do("POST", "/v1/sessions/"+info.ID+"/observe", req, &oresp)
				if st == http.StatusBadRequest && !req.Failed {
					// A malformed payload (e.g. a truncated metric vector)
					// is rejected without consuming the suggestion; the
					// client re-reports it as a failed measurement.
					req = ObserveRequest{Index: sug.Index, Failed: true, Reason: "malformed measurement payload"}
					oresp = ObserveResponse{}
					st = c.do("POST", "/v1/sessions/"+info.ID+"/observe", req, &oresp)
				}
				switch st {
				case http.StatusOK:
					acked[i]++
					// Under speculation (the default) Next is omitted and
					// the loop's GET next picks up the precomputed plan.
					if oresp.Next != nil && oresp.Next.Done {
						finished.Add(1)
						return
					}
				case http.StatusConflict:
					// The shutdown aborted the session between our next
					// and observe; the salvage owns it now.
					flushed.Add(1)
					return
				default:
					t.Errorf("session %s: observe status %d", info.ID, st)
					return
				}
			}
		}()
	}

	// Let roughly half the sessions finish, then pull the plug on the
	// rest. The sleep only shapes the finished/flushed mix; correctness
	// does not depend on it.
	time.Sleep(1500 * time.Millisecond)
	close(shutdownNow)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()

	t.Logf("chaos: %d finished, %d flushed", finished.Load(), flushed.Load())
	if finished.Load()+flushed.Load() != sessions {
		t.Fatalf("%d finished + %d flushed != %d sessions", finished.Load(), flushed.Load(), sessions)
	}

	// Every session — finished or flushed — must still answer over HTTP
	// with a coherent result: complete for finished sessions, salvaged
	// Partial for flushed ones. Nothing may hang or 500.
	c := newClient(t, hs)
	complete, partial := 0, 0
	for i, id := range ids {
		if id == "" {
			t.Fatal("a session never got an id")
		}
		var res ResultResponse
		if st := c.do("GET", "/v1/sessions/"+id+"/result", nil, &res); st != http.StatusOK {
			t.Errorf("session %s: result status %d after shutdown", id, st)
			continue
		}
		if res.Result == nil {
			t.Errorf("session %s: no result after shutdown", id)
			continue
		}
		if res.Result.Partial {
			partial++
		} else {
			complete++
		}
		// Whether the shutdown salvaged the session or its last
		// acknowledged observe already finished it (a flushed client
		// cannot tell: under speculation the ack carries no Done), the
		// result holds every acknowledged measurement and nothing else.
		if got := len(res.Result.Observations) + len(res.Result.Failures); got != acked[i] {
			t.Errorf("session %s: result holds %d measurements (%d observed, %d failed), client saw %d acknowledged",
				id, got, len(res.Result.Observations), len(res.Result.Failures), acked[i])
		}
	}
	if complete+partial != sessions {
		t.Errorf("%d complete + %d partial != %d", complete, partial, sessions)
	}
	t.Logf("chaos: %d complete, %d partial results", complete, partial)
}
