package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	arrow "repro"
	"repro/internal/journal"
)

// TestBlindObserveOfSpeculatedHeadRefused pins the speculation fence on
// observe: after an acknowledged observe the server plans the next
// suggestion in the background, and a client that observes that
// candidate without ever being handed it gets 409 (not asked). Were it
// accepted, the journal would hold an observe with no suggest record
// before it, and recovery would drop the whole session. The session
// then recovers with zero damage and finishes byte-identical to an
// uninterrupted run.
func TestBlindObserveOfSpeculatedHeadRefused(t *testing.T) {
	req := SessionRequest{Method: "augmented-bo", Seed: 42, Trace: true}
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, ref := newTestServer(t, Config{})
	want := mustJSON(t, ref.run(ref.create(req).ID, target))

	dir := t.TempDir()
	s1, c1, _ := journaledServer(t, dir, "blind")
	info := c1.create(req)
	sug := c1.next(info.ID)
	out, err := target.Measure(sug.Index)
	if err != nil {
		t.Fatal(err)
	}
	c1.observe(info.ID, ObserveRequest{Index: sug.Index, TimeSec: out.TimeSec, CostUSD: out.CostUSD, Metrics: out.Metrics})

	sess, status, _ := s1.store.get(info.ID)
	if status != lookupOK {
		t.Fatalf("session %s not live", info.ID)
	}
	deadline := time.Now().Add(30 * time.Second)
	for sess.specSeq.Load() < 0 {
		if time.Now().After(deadline) {
			t.Fatal("the background plan never landed")
		}
		time.Sleep(time.Millisecond)
	}
	sess.mu.Lock()
	head := sess.specIndex
	sess.mu.Unlock()

	out, err = target.Measure(head)
	if err != nil {
		t.Fatal(err)
	}
	blind := ObserveRequest{Index: head, TimeSec: out.TimeSec, CostUSD: out.CostUSD, Metrics: out.Metrics}
	var errResp ErrorResponse
	if st := c1.do("POST", "/v1/sessions/"+info.ID+"/observe", blind, &errResp); st != http.StatusConflict {
		t.Fatalf("blind observe of the speculated head: status %d, want 409", st)
	}
	failed := ObserveRequest{Index: head, Failed: true, Reason: "blind"}
	if st := c1.do("POST", "/v1/sessions/"+info.ID+"/observe", failed, &errResp); st != http.StatusConflict {
		t.Fatalf("blind observe-failure of the speculated head: status %d, want 409", st)
	}
	// Once served, the same observation is accepted.
	if got := c1.next(info.ID); got.Index != head {
		t.Fatalf("next served candidate %d, the speculated head was %d", got.Index, head)
	}
	c1.observe(info.ID, blind)

	s2, c2, _ := journaledServer(t, dir, "blind")
	report, err := s2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Recovered != 1 || report.Observations != 2 || len(report.Damaged) != 0 {
		t.Fatalf("want 1 session / 2 observations recovered with no damage, got %+v", report)
	}
	if got := mustJSON(t, c2.run(info.ID, target)); !bytes.Equal(got, want) {
		t.Errorf("recovered result diverged from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// expiringLeases grants every shard until a fixed instant of the
// journal's clock.
type expiringLeases struct{ expiry time.Time }

func (m expiringLeases) Acquire(shard int) (journal.Lease, bool, error) {
	return journal.Lease{Shard: shard, Epoch: 1, Expiry: m.expiry}, true, nil
}

func (m expiringLeases) Renew(l journal.Lease) (journal.Lease, bool, error) { return l, true, nil }

func (m expiringLeases) Release(journal.Lease) error { return nil }

// armedClock reads a fixed instant until armed; from the armed call on
// it reads two hours later.
type armedClock struct {
	base            time.Time
	calls, expireAt atomic.Int64
}

func (c *armedClock) now() time.Time {
	n := c.calls.Add(1)
	if at := c.expireAt.Load(); at > 0 && n >= at {
		return c.base.Add(2 * time.Hour)
	}
	return c.base
}

// TestObserveLostAppendIsNotAcked pins write-ahead acknowledgment: an
// observe whose journal append fails answers 503, never 200, and the
// session is evicted locally without a terminal record. The clock
// crosses the lease expiry between the request's ownership check and
// its append, so the append fails deterministically. The journal chain
// then ends at the last durable observation, recovers with zero damage,
// and finishes byte-identical to an uninterrupted run.
func TestObserveLostAppendIsNotAcked(t *testing.T) {
	req := SessionRequest{Method: "augmented-bo", Seed: 42, Trace: true}
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, ref := newTestServer(t, Config{})
	want := mustJSON(t, ref.run(ref.create(req).ID, target))

	dir := t.TempDir()
	clock := &armedClock{base: time.Now()}
	j1, err := journal.Open(dir, journal.WithReplica("lossy"),
		journal.WithLeaseManager(expiringLeases{expiry: clock.base.Add(time.Hour)}), journal.WithNow(clock.now))
	if err != nil {
		t.Fatal(err)
	}
	var lost atomic.Int64
	s1 := New(Config{Journal: j1, Warnf: func(format string, args ...any) {
		lost.Add(1)
		t.Logf(format, args...)
	}})
	hs := httptest.NewServer(s1)
	t.Cleanup(hs.Close)
	c1 := newClient(t, hs)

	info := c1.create(req)
	sug := stepSession(t, c1, info.ID, target, 2)
	if sug.Done {
		t.Fatal("session finished before the lost append")
	}
	out, err := target.Measure(sug.Index)
	if err != nil {
		t.Fatal(err)
	}
	// Call 1 (resolve's ownership check) still reads the live lease;
	// call 2 (the append) reads it expired.
	clock.expireAt.Store(clock.calls.Load() + 2)
	var errResp ErrorResponse
	obs := ObserveRequest{Index: sug.Index, TimeSec: out.TimeSec, CostUSD: out.CostUSD, Metrics: out.Metrics}
	if st := c1.do("POST", "/v1/sessions/"+info.ID+"/observe", obs, &errResp); st != http.StatusServiceUnavailable {
		t.Fatalf("observe with a failed append: status %d, want 503", st)
	}
	if lost.Load() == 0 {
		t.Error("the lost append was not warned about")
	}
	if n := s1.SessionCount(); n != 0 {
		t.Fatalf("%d sessions still live after the lost append, want the session evicted", n)
	}

	j2, err := journal.Open(dir, journal.WithReplica("lossy"),
		journal.WithLeaseManager(expiringLeases{expiry: time.Now().Add(time.Hour)}))
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Journal: j2, Warnf: t.Logf})
	hs2 := httptest.NewServer(s2)
	t.Cleanup(hs2.Close)
	c2 := newClient(t, hs2)
	report, err := s2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Recovered != 1 || report.Observations != 2 || len(report.Damaged) != 0 {
		t.Fatalf("want 1 session / 2 observations recovered with no damage, got %+v", report)
	}
	if got := mustJSON(t, c2.run(info.ID, target)); !bytes.Equal(got, want) {
		t.Errorf("recovered result diverged from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}
