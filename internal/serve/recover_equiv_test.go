package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	arrow "repro"
	"repro/internal/journal"
)

// TestRecoverWorkerCountEquivalent pins concurrent replay to the scan
// order: recovering one crashed journal at Workers 1 and at Workers 4
// gives equal RecoveryReports (latency percentiles aside) and equal
// session counts, with and without a session cap that forces the
// salvage path, and every recovered session finishes byte-identical to
// its uninterrupted run. The journal mixes all four methods, snapshot
// and full replays, traced and untraced sessions, ended sessions and a
// chain whose replay diverges.
func TestRecoverWorkerCountEquivalent(t *testing.T) {
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	methods := []string{"augmented-bo", "naive-bo", "hybrid-bo", "random-search"}
	var reqs []SessionRequest
	for i := 0; i < 12; i++ {
		reqs = append(reqs, SessionRequest{Method: methods[i%len(methods)], Seed: int64(i), Trace: i%3 == 0, MaxMeasurements: 10})
	}

	src := t.TempDir()
	_, c, j := snapshotServer(t, src, "equiv", 2)
	var live []string
	for i, req := range reqs {
		id := c.create(req).ID
		if i%6 == 5 {
			c.run(id, target) // ended: journals an end record
			continue
		}
		if sug := stepSession(t, c, id, target, 1+i%4); sug.Done {
			t.Fatalf("session %s finished before the crash point", id)
		}
		live = append(live, id)
	}
	// Abandon the server (the kill -9 stand-in), then make one chain
	// diverge: a suggest record the replayed optimizer cannot reproduce.
	diverged := live[3]
	shard := filepath.Join(src, shardName(journal.ShardOf(diverged, j.Shards())))
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rec, err := journal.DecodeLine(line); err == nil && rec.Session == diverged && rec.Kind != journal.KindSnapshot {
			next = rec.Seq + 1
		}
	}
	line, err := journal.EncodeLine(journal.Record{Session: diverged, Seq: next, Kind: journal.KindSuggest, Index: 17, Step: 99})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shard, append(data, line...), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ref := newTestServer(t, Config{})
	want := make(map[string][]byte)
	for _, req := range reqs {
		id := ref.create(req).ID
		want[id] = mustJSON(t, ref.run(id, target))
	}

	recoverAt := func(workers, maxSessions int) (*RecoveryReport, *Server, *client) {
		dir := copyJournalDir(t, src)
		j, err := journal.Open(dir, journal.WithReplica("equiv"), journal.WithWarnf(t.Logf))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() })
		s := New(Config{Journal: j, Workers: workers, MaxSessions: maxSessions, SnapshotInterval: 2, Warnf: t.Logf})
		hs := httptest.NewServer(s)
		t.Cleanup(hs.Close)
		t.Cleanup(func() { s.Shutdown(context.Background()) })
		report, err := s.Recover(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		report.RecoverP50Micros, report.RecoverP99Micros = 0, 0
		return report, s, newClient(t, hs)
	}
	for _, maxSessions := range []int{0, len(live) - 3} {
		t.Run(fmt.Sprintf("max_sessions=%d", maxSessions), func(t *testing.T) {
			one, s1, c1 := recoverAt(1, maxSessions)
			four, s4, c4 := recoverAt(4, maxSessions)
			if !reflect.DeepEqual(one, four) {
				t.Fatalf("recovery reports differ by worker count:\n Workers 1: %+v\n Workers 4: %+v", one, four)
			}
			if s1.SessionCount() != s4.SessionCount() {
				t.Fatalf("session counts differ by worker count: %d vs %d", s1.SessionCount(), s4.SessionCount())
			}
			if len(one.Damaged) == 0 || one.Ended == 0 || one.SnapshotRestores == 0 || one.SnapshotRestores == one.Recovered {
				t.Fatalf("fixture lost a shape: %+v", one)
			}
			if maxSessions > 0 {
				if one.Recovered != maxSessions {
					t.Fatalf("recovered %d sessions under a cap of %d", one.Recovered, maxSessions)
				}
				return
			}
			if one.Recovered != len(live)-1 {
				t.Fatalf("recovered %d sessions, want %d: %+v", one.Recovered, len(live)-1, one)
			}
			for _, id := range live {
				if id == diverged {
					continue
				}
				for w, cl := range map[int]*client{1: c1, 4: c4} {
					if got := mustJSON(t, cl.run(id, target)); !bytes.Equal(got, want[id]) {
						t.Errorf("Workers %d: session %s diverged from its uninterrupted run:\n got %s\nwant %s", w, id, got, want[id])
					}
				}
			}
		})
	}
}
