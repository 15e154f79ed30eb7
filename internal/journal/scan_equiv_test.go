package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// sequentialScan is the reference scan: every shard file in list order
// into one shared session map, then one chain-validation pass — a
// one-file-after-another scan on a single goroutine.
func sequentialScan(t *testing.T, paths []string, repair bool) *Recovery {
	t.Helper()
	rec := &Recovery{}
	bySession := make(map[string][]Record)
	var order []string
	for _, p := range paths {
		if err := scanShardFile(p, repair, t.Logf, rec, bySession, &order); err != nil {
			t.Fatal(err)
		}
	}
	finishScan(rec, bySession, order)
	return rec
}

// damagedJournalDir writes a 4-shard journal directory holding every
// shape a scan sorts: live chains (one with an in-place snapshot),
// ended and aborted chains, a chain delivered twice byte for byte, a
// chain with two different records at one seq, a chain broken by a
// corrupt mid-file line, tombstone_index records, a torn tail, a final
// line missing its newline and, with split set, one chain whose records
// sit in two shard files.
func damagedJournalDir(t *testing.T, split bool) string {
	t.Helper()
	const shards = 4
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.meta"), []byte(`{"shards":4}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	files := make([][]byte, shards)
	put := func(shard int, recs ...Record) {
		for _, r := range recs {
			files[shard] = append(files[shard], corpusLine(r)...)
		}
	}
	chain := func(id string, n int, last Kind) []Record {
		recs := []Record{{Session: id, Seq: 0, Kind: KindCreate, Request: json.RawMessage(`{"method":"random","seed":1}`)}}
		for seq := 1; seq < n; seq++ {
			if seq%2 == 1 {
				recs = append(recs, Record{Session: id, Seq: seq, Kind: KindSuggest, Index: seq, Step: seq / 2})
			} else {
				recs = append(recs, Record{Session: id, Seq: seq, Kind: KindObserve, Index: seq - 1, TimeSec: float64(seq), CostUSD: 0.5, Metrics: []float64{1, float64(seq)}})
			}
		}
		if last != "" {
			recs = append(recs, Record{Session: id, Seq: n, Kind: last, Reason: "done"})
		}
		return recs
	}
	for i := 0; i < 24; i++ {
		id := fmt.Sprintf("s-%06d", i+1)
		shard := ShardOf(id, shards)
		switch i % 6 {
		case 0:
			put(shard, chain(id, 2+i%5, "")...)
		case 1:
			recs := chain(id, 5, "")
			snap := Record{Session: id, Seq: 3, Kind: KindSnapshot, Request: json.RawMessage(`{"crc":1,"snap":{}}`)}
			put(shard, recs[:3]...)
			put(shard, snap)
			put(shard, recs[3:]...)
		case 2:
			put(shard, chain(id, 4, KindEnd)...)
		case 3:
			put(shard, chain(id, 3, KindAbort)...)
		case 4:
			// Delivered twice, byte-identical: the copies dedupe away.
			recs := chain(id, 4, "")
			put(shard, recs...)
			put(shard, recs...)
		case 5:
			// Two different records at seq 2: a broken chain.
			recs := chain(id, 4, "")
			put(shard, recs...)
			put(shard, Record{Session: id, Seq: 2, Kind: KindObserve, Index: 9, TimeSec: 1})
		}
	}
	put(0, Record{Kind: KindTombstoneIndex, Tombstones: []string{"s-900001", "s-900002"}})
	put(2, Record{Kind: KindTombstoneIndex, Tombstones: []string{"s-900003"}})

	// Mid-file damage: corrupt one checksummed byte of the first line of
	// shard 1; later good lines prove it is not the tail.
	line := bytes.IndexByte(files[1], '\n')
	at := bytes.Index(files[1][:line], []byte(`"seq"`))
	files[1][at+2] ^= 0x01
	if split {
		// A session whose chain continues in a shard file it does not
		// hash to.
		id := "s-000100"
		home := ShardOf(id, shards)
		recs := chain(id, 5, "")
		put(home, recs[:3]...)
		put((home+1)%shards, recs[3:]...)
	}
	// Torn tail on shard 2, lost final newline on shard 3.
	files[2] = append(files[2], []byte(`{"crc":123,"rec":{"sid":"s-000002","se`)...)
	files[3] = bytes.TrimSuffix(files[3], []byte("\n"))
	for shard, data := range files {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("journal-%02d.jsonl", shard)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// copyDir copies a journal directory's regular files.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// shardPaths names the shard files of dir.
func shardPaths(dir string, shards []int) []string {
	out := make([]string, len(shards))
	for i, shard := range shards {
		out[i] = filepath.Join(dir, fmt.Sprintf("journal-%02d.jsonl", shard))
	}
	return out
}

// TestScanParallelEquivalent pins the parallel scan to the sequential
// one: ScanShards (with tail repair) and ScanDir (read-only) return a
// Recovery DeepEqual to a one-file-after-another scan of the same shard
// list, and leave the files byte-identical to it, for the full list, an
// unsorted subset and a list naming a shard twice, with and without a
// chain split across two shard files.
func TestScanParallelEquivalent(t *testing.T) {
	lists := [][]int{{0, 1, 2, 3}, {3, 1, 2}, {1, 2, 2, 0}}
	for _, split := range []bool{false, true} {
		src := damagedJournalDir(t, split)
		for _, shards := range lists {
			t.Run(fmt.Sprintf("split=%v/shards=%v", split, shards), func(t *testing.T) {
				want := sequentialScan(t, shardPaths(src, shards), false)
				got, err := ScanDir(src, shards, t.Logf)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("ScanDir diverged from the sequential scan:\n got %+v\nwant %+v", got, want)
				}
				if len(got.Live) == 0 || len(got.Ended) == 0 || len(got.Damage) == 0 || len(got.Tombstones) == 0 || got.TruncatedTails == 0 {
					t.Fatalf("fixture lost a shape: %+v", got)
				}

				// Damage reports name the file, so both repairing scans run
				// on the same directory, restored in between.
				dir := copyDir(t, src)
				want = sequentialScan(t, shardPaths(dir, shards), true)
				all := shardPaths(dir, []int{0, 1, 2, 3})
				repaired := make([][]byte, len(all))
				for i, p := range all {
					repaired[i], _ = os.ReadFile(p)
					pristine, _ := os.ReadFile(shardPaths(src, []int{i})[0])
					if err := os.WriteFile(p, pristine, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				j, err := Open(dir, WithReplica("equiv"), WithWarnf(t.Logf))
				if err != nil {
					t.Fatal(err)
				}
				defer j.Close()
				got, err = j.ScanShards(shards)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("ScanShards diverged from the sequential scan:\n got %+v\nwant %+v", got, want)
				}
				for i, p := range all {
					if data, _ := os.ReadFile(p); !bytes.Equal(data, repaired[i]) {
						t.Fatalf("shard %d repaired differently:\n got %q\nwant %q", i, data, repaired[i])
					}
				}
			})
		}
	}
}
