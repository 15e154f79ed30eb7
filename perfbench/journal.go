package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/journal"
)

// journalScan is what a set of journal shard files held past given
// offsets.
type journalScan struct {
	offsets map[string]int64 // shard file -> size at scan time
	lines   [][]byte         // the lines past the starting offsets
	bytes   int64
}

// scanJournal reads dir's shard files from the offsets in from (nil
// reads them whole).
func scanJournal(dir string, from map[string]int64) (*journalScan, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "journal-*.jsonl"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	js := &journalScan{offsets: map[string]int64{}}
	for _, p := range paths {
		data, err := readFrom(p, from[p])
		if err != nil {
			return nil, err
		}
		js.offsets[p] = from[p] + int64(len(data))
		js.bytes += int64(len(data))
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			if len(line) > 0 {
				js.lines = append(js.lines, line)
			}
		}
	}
	return js, nil
}

func readFrom(path string, off int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, err
	}
	return io.ReadAll(f)
}

// maxReappends caps the records re-appended to time the append path.
const maxReappends = 1000

// maxSnapshots caps the snapshots re-encoded.
const maxSnapshots = 500

// journalLayers times the journal's append path and snapshot encoding on
// the records a serve run wrote: the records are decoded with the
// journal's own line decoder and re-appended, one fsync each, into a
// fresh journal in the same filesystem.
func journalLayers(o *outcome, e env, jw *journalScan) error {
	recs := make([]journal.Record, 0, len(jw.lines))
	for _, line := range jw.lines {
		rec, err := journal.DecodeLine(bytes.TrimSuffix(line, []byte("\n")))
		if err != nil {
			return fmt.Errorf("decoding a journal line the run wrote: %w", err)
		}
		recs = append(recs, rec)
	}

	var encode []float64
	for _, rec := range recs {
		if rec.Kind != journal.KindSnapshot || len(encode) == maxSnapshots {
			continue
		}
		snap, err := journal.DecodeSnapshot(rec.Request)
		if err != nil {
			return fmt.Errorf("decoding a snapshot the run wrote: %w", err)
		}
		t0 := time.Now()
		if _, err := journal.EncodeSnapshot(snap); err != nil {
			return err
		}
		encode = append(encode, us(time.Since(t0)))
	}
	o.layer["journal.snapshot_encode_p50_us"] = median(encode)
	o.timing("snapshot_encode_us", "us", encode)

	dir, err := os.MkdirTemp(e.dir, "reappend-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, err := journal.Open(dir, journal.WithSync(journal.SyncAlways), journal.WithReplica("perfbench-reappend"))
	if err != nil {
		return err
	}
	var appends []float64
	for i, rec := range recs {
		if i == maxReappends {
			break
		}
		t0 := time.Now()
		if err := j.Append(rec); err != nil {
			j.Close()
			return fmt.Errorf("re-appending a journal record: %w", err)
		}
		appends = append(appends, us(time.Since(t0)))
	}
	if err := j.Close(); err != nil {
		return err
	}
	o.layer["journal.append_p50_us"] = median(appends)
	o.layer["journal.append_p99_us"] = percentile(appends, 99)
	o.timing("journal.append_us", "us", appends)
	return nil
}
