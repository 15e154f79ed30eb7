package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// openAll opens a journal owning every shard, failing the test on error.
func openAll(t *testing.T, dir string, opts ...Option) *Journal {
	t.Helper()
	j, err := Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// appendAll writes records, failing the test on error.
func appendAll(t *testing.T, j *Journal, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append(%+v): %v", r, err)
		}
	}
}

// sessionRecords builds a canonical create/suggest/observe chain.
func sessionRecords(id string, observes int, ended bool) []Record {
	recs := []Record{{Session: id, Seq: 0, Kind: KindCreate, Request: json.RawMessage(`{"method":"random","seed":1}`)}}
	seq := 1
	for i := 0; i < observes; i++ {
		recs = append(recs,
			Record{Session: id, Seq: seq, Kind: KindSuggest, Index: i, Step: i},
			Record{Session: id, Seq: seq + 1, Kind: KindObserve, Index: i, TimeSec: float64(i) + 0.5, CostUSD: 0.1},
		)
		seq += 2
	}
	if ended {
		recs = append(recs, Record{Session: id, Seq: seq, Kind: KindEnd, Reason: "done"})
	}
	return recs
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := openAll(t, dir, WithReplica("r1"), WithShards(4))

	live := sessionRecords("s-000001", 2, false)
	ended := sessionRecords("s-000002", 1, true)
	// Interleave appends across sessions, as a live server would.
	appendAll(t, j, live[0], ended[0], live[1], ended[1], live[2], ended[2], live[3], ended[3], live[4])

	scan, err := j.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Live) != 1 || scan.Live[0].ID != "s-000001" {
		t.Fatalf("Live = %+v, want exactly s-000001", scan.Live)
	}
	if len(scan.Live[0].Records) != len(live) {
		t.Fatalf("live session has %d records, want %d", len(scan.Live[0].Records), len(live))
	}
	for i, r := range scan.Live[0].Records {
		if r.Seq != i || r.Session != "s-000001" {
			t.Fatalf("record %d = %+v out of order", i, r)
		}
	}
	if got := scan.Live[0].Records[2]; got.Kind != KindObserve || got.TimeSec != 0.5 || got.CostUSD != 0.1 {
		t.Errorf("observe record did not round-trip: %+v", got)
	}
	if len(scan.Ended) != 1 || scan.Ended[0] != "s-000002" {
		t.Fatalf("Ended = %v, want [s-000002]", scan.Ended)
	}
	if len(scan.Damage) != 0 || scan.TruncatedTails != 0 {
		t.Fatalf("unexpected damage: %+v", scan)
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j := openAll(t, dir, WithReplica("r1"), WithShards(1))
	appendAll(t, j, sessionRecords("s-000001", 2, false)...)
	j.Close()

	// Tear the tail: a half-written line with no newline, as kill -9
	// mid-append leaves it.
	path := filepath.Join(dir, "journal-00.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"crc":123,"rec":{"sid":"s-000001","seq":5,"ki`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.ReadFile(path)

	j2 := openAll(t, dir, WithReplica("r1"))
	scan, err := j2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if scan.TruncatedTails != 1 {
		t.Fatalf("TruncatedTails = %d, want 1", scan.TruncatedTails)
	}
	if len(scan.Live) != 1 || len(scan.Live[0].Records) != 5 {
		t.Fatalf("Live = %+v, want the 5 intact records", scan.Live)
	}
	after, _ := os.ReadFile(path)
	if len(after) >= len(before) {
		t.Fatalf("torn tail not truncated: %d bytes before, %d after", len(before), len(after))
	}
	// A rescan of the truncated file is clean.
	scan2, err := j2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if scan2.TruncatedTails != 0 || len(scan2.Live) != 1 {
		t.Fatalf("rescan after truncation = %+v, want clean", scan2)
	}
}

func TestJournalTornNewlineRepaired(t *testing.T) {
	dir := t.TempDir()
	j := openAll(t, dir, WithReplica("r1"), WithShards(1))
	appendAll(t, j, sessionRecords("s-000001", 1, false)...)
	j.Close()

	// Chop only the final newline: the record itself survived the crash.
	path := filepath.Join(dir, "journal-00.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := openAll(t, dir, WithReplica("r1"))
	scan, err := j2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Live) != 1 || len(scan.Live[0].Records) != 3 {
		t.Fatalf("Live = %+v, want all 3 records", scan.Live)
	}
	// The shard must be appendable again without gluing lines together.
	if err := j2.Append(Record{Session: "s-000001", Seq: 3, Kind: KindSuggest, Index: 1, Step: 1}); err != nil {
		t.Fatal(err)
	}
	scan2, err := j2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(scan2.Live) != 1 || len(scan2.Live[0].Records) != 4 || len(scan2.Damage) != 0 {
		t.Fatalf("post-repair scan = %+v, want 4 clean records", scan2)
	}
}

func TestJournalCorruptMidLineDropsOnlyItsSession(t *testing.T) {
	dir := t.TempDir()
	j := openAll(t, dir, WithReplica("r1"), WithShards(1))
	a := sessionRecords("sess-a", 2, false)
	b := sessionRecords("sess-b", 2, false)
	appendAll(t, j, a[0], b[0], a[1], b[1], a[2], b[2], a[3], b[3], a[4], b[4])
	j.Close()

	// Flip bytes inside one of sess-a's mid-file records so its CRC
	// fails, then append one more valid record so the damage is not the
	// tail.
	path := filepath.Join(dir, "journal-00.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	lines[4] = strings.Replace(lines[4], `"sid":"sess-a"`, `"sid":"sess-X"`, 1) // payload no longer matches crc
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := openAll(t, dir, WithReplica("r1"))
	scan, err := j2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	// sess-a lost a mid-chain record: reported damaged, not replayed.
	// sess-b is untouched and fully recovered.
	if len(scan.Live) != 1 || scan.Live[0].ID != "sess-b" || len(scan.Live[0].Records) != 5 {
		t.Fatalf("Live = %+v, want sess-b complete", scan.Live)
	}
	if len(scan.Damage) < 2 {
		t.Fatalf("Damage = %v, want the corrupt line and the broken sess-a chain reported", scan.Damage)
	}
	for _, d := range scan.Damage {
		t.Log("damage:", d)
	}
}

func TestJournalLeasePartition(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, WithReplica("alpha"), WithShards(8), WithClaimLimit(4))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(dir, WithReplica("beta"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if got := len(a.Owned()); got != 4 {
		t.Fatalf("alpha owns %d shards, want 4 (claim limit)", got)
	}
	if got := len(b.Owned()); got != 4 {
		t.Fatalf("beta owns %d shards, want the remaining 4", got)
	}
	owned := make(map[int]string)
	for _, s := range a.Owned() {
		owned[s] = "alpha"
	}
	for _, s := range b.Owned() {
		if who, dup := owned[s]; dup {
			t.Fatalf("shard %d claimed by both %s and beta", s, who)
		}
		owned[s] = "beta"
	}
	if len(owned) != 8 {
		t.Fatalf("%d shards claimed in total, want 8", len(owned))
	}

	// Every session id is servable by exactly one replica.
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("s-%06d", i)
		if a.Owns(id) == b.Owns(id) {
			t.Fatalf("session %s owned by %v/%v, want exactly one replica", id, a.Owns(id), b.Owns(id))
		}
	}

	// Appends are fenced to the owner.
	id := fmt.Sprintf("s-%06d", 1)
	owner, other := a, b
	if b.Owns(id) {
		owner, other = b, a
	}
	if err := owner.Append(Record{Session: id, Seq: 0, Kind: KindCreate}); err != nil {
		t.Fatalf("owner append: %v", err)
	}
	if err := other.Append(Record{Session: id, Seq: 1, Kind: KindSuggest}); err == nil {
		t.Fatal("non-owner append succeeded, want ErrNotOwned")
	}
}

func TestJournalLeaseTakeoverAfterCrash(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, WithReplica("alpha"), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(j.Owned()); got != 2 {
		t.Fatalf("first open owns %d, want 2", got)
	}
	// Crash: no Close, lease files left behind. The same replica id
	// restarting must steal its own leases back.
	j2, err := Open(dir, WithReplica("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := len(j2.Owned()); got != 2 {
		t.Fatalf("restart owns %d, want 2 (own-lease takeover)", got)
	}

	// A dead pid's lease is stolen by any replica.
	j2.Close()
	lp := filepath.Join(dir, "lease-00.json")
	payload, _ := json.Marshal(lease{Replica: "ghost", PID: 1 << 30, Acquired: "2026-01-01T00:00:00Z"})
	if err := os.WriteFile(lp, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	j3, err := Open(dir, WithReplica("beta"))
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if got := len(j3.Owned()); got != 2 {
		t.Fatalf("beta owns %d, want 2 (dead-pid steal)", got)
	}
}

func TestJournalMetaPinsShardCount(t *testing.T) {
	dir := t.TempDir()
	j := openAll(t, dir, WithReplica("r1"), WithShards(4))
	j.Close()
	// A replica asking for a different count gets the directory's.
	j2 := openAll(t, dir, WithReplica("r1"), WithShards(16))
	if j2.Shards() != 4 {
		t.Fatalf("Shards = %d, want the meta-pinned 4", j2.Shards())
	}
	// A damaged meta file refuses loudly rather than guessing.
	j2.Close()
	if err := os.WriteFile(filepath.Join(dir, "journal.meta"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, WithReplica("r1")); err == nil {
		t.Fatal("Open with damaged meta succeeded, want error")
	}
}

func TestJournalClosedAppendsRejected(t *testing.T) {
	dir := t.TempDir()
	j := openAll(t, dir, WithReplica("r1"))
	j.Close()
	if err := j.Append(Record{Session: "s-000001", Seq: 0, Kind: KindCreate}); err == nil {
		t.Fatal("append after Close succeeded, want ErrNotOwned")
	}
}

func TestValidateChainRejectsGapsAndStrays(t *testing.T) {
	cases := []struct {
		name string
		recs []Record
	}{
		{"gap", []Record{
			{Session: "x", Seq: 0, Kind: KindCreate},
			{Session: "x", Seq: 2, Kind: KindObserve},
		}},
		{"no create", []Record{{Session: "x", Seq: 0, Kind: KindSuggest}}},
		{"second create", []Record{
			{Session: "x", Seq: 0, Kind: KindCreate},
			{Session: "x", Seq: 1, Kind: KindCreate},
		}},
		{"record after end", []Record{
			{Session: "x", Seq: 0, Kind: KindCreate},
			{Session: "x", Seq: 1, Kind: KindEnd},
			{Session: "x", Seq: 2, Kind: KindSuggest},
		}},
		{"empty", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, problem := ValidateChain("x", tc.recs); problem == "" {
				t.Fatalf("chain %+v validated, want a damage report", tc.recs)
			}
		})
	}
}

func TestEncodeDecodeLine(t *testing.T) {
	rec := Record{
		Session: "s-000042", Seq: 7, Kind: KindObserve, Index: 3,
		TimeSec: 123.25, CostUSD: 0.75, Metrics: []float64{1, 2.5, -3},
	}
	line, err := EncodeLine(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLine(line[:len(line)-1])
	if err != nil {
		t.Fatal(err)
	}
	if fast, ok := decodeCanonical(line[:len(line)-1]); !ok || !reflect.DeepEqual(fast, got) {
		t.Fatalf("EncodeLine output missed the one-pass decode: %+v, %v", fast, ok)
	}
	if got.Session != rec.Session || got.Seq != rec.Seq || got.Kind != rec.Kind ||
		got.TimeSec != rec.TimeSec || len(got.Metrics) != 3 || got.Metrics[2] != -3 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	// Any single flipped payload byte must fail the CRC.
	for i := range line {
		if line[i] == '{' || line[i] == '}' || line[i] == '"' || line[i] == '\n' {
			continue
		}
		mut := append([]byte(nil), line...)
		mut[i] ^= 0x01
		if _, err := DecodeLine(mut[:len(mut)-1]); err == nil {
			// A flip inside the crc field itself can only produce a
			// mismatch too, so any acceptance is a bug.
			t.Fatalf("flipped byte %d accepted: %q", i, mut)
		}
	}
}
