// Package journal is the serving layer's durability primitive: a
// write-ahead session journal. Every advisor session appends its state
// transitions — create, suggest, observe, observe-failure, abort, end —
// as canonical JSONL records to one of N append-only disk shards
// (sharded by session id, the runcache shard idiom), so a crashed
// server can rebuild every live session by replaying its observation
// sequence into a fresh stepper. The deterministic-trace contract makes
// the replay exact: the same seed and observation sequence reproduce
// the same optimizer state, suggestion and trace, by construction.
//
// # Wire format
//
// Each shard line is one envelope object
//
//	{"crc":4118059357,"rec":{"sid":"s-000001","seq":0,"kind":"create",...}}
//
// where crc is the IEEE CRC-32 of the exact rec bytes. The CRC turns
// silent disk corruption into a detected, reported skip instead of a
// misreplayed session. A damaged or truncated final line — the torn
// tail a killed writer leaves — is truncated away and counted, never
// fatal; a damaged line in the middle of a shard is reported and the
// sessions whose record chains it breaks are dropped as damaged, while
// every other session recovers.
//
// # Multi-replica shard claims
//
// N replicas may point at one shared journal directory. Each shard is
// guarded by a lease file (lease-NN.json) created with O_EXCL: a
// replica serves exactly the shards whose leases it holds, so sessions
// partition across replicas with no session served by two processes. A
// lease is stolen only when its holder is provably gone (same replica
// id restarting in place, or a dead pid on the same host).
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/parallel"
)

// Kind names one session state transition.
type Kind string

// The record kinds, in session lifecycle order.
const (
	// KindCreate opens a session; Request carries the canonical session
	// request so recovery can rebuild the optimizer bit-identically.
	KindCreate Kind = "create"
	// KindSuggest records a planned suggestion handed to the client.
	// Replay regenerates it and asserts the index and step match — a
	// mismatch means the journal and the optimizer disagree, and the
	// session is reported damaged rather than silently diverged.
	KindSuggest Kind = "suggest"
	// KindSuggestBatch records a batch of concurrent suggestions handed
	// to the client by /nextbatch: K is the requested batch size, Indices
	// the candidate indices actually returned, in issue order. Replay
	// regenerates the batch with NextBatch(K) and asserts the indices
	// match, exactly as KindSuggest does for single suggestions.
	KindSuggestBatch Kind = "suggest_batch"
	// KindObserve records one accepted measurement. It is written (and
	// synced, under the always policy) before the client's observe is
	// acknowledged, so an acknowledged observation is never lost.
	KindObserve Kind = "observe"
	// KindObserveFailure records a failed measurement the session
	// quarantined and planned around.
	KindObserveFailure Kind = "observe_failure"
	// KindAbort ends a session by client request; recovery tombstones it.
	KindAbort Kind = "abort"
	// KindEnd ends a session any other terminal way (stop rule fired,
	// TTL eviction); Reason carries the disposition. Recovery tombstones
	// it. Graceful shutdown intentionally writes no end record: a
	// drained session is still live in the journal and the next boot
	// rehydrates it.
	KindEnd Kind = "end"
	// KindSnapshot is a seq-transparent checkpoint of one live session:
	// Request carries a CRC'd Snapshot payload (config fingerprint, the
	// full op history below the Seq watermark, the resume script and
	// trace events), and Seq carries the watermark without consuming it.
	// Recovery replays from the latest valid snapshot instead of the
	// chain head; compaction may drop the ops below the watermark
	// because the snapshot carries them.
	KindSnapshot Kind = "snapshot"
	// KindTombstoneIndex is a shard-level (not per-session) record
	// compaction writes: Tombstones lists every session id whose chain
	// was dropped from this shard, so ended sessions still answer 410
	// Gone after their records are gone. It is the only record kind with
	// no session id.
	KindTombstoneIndex Kind = "tombstone_index"
)

// Record is one journal entry. Session and Seq order it: a session's
// records carry contiguous sequence numbers from 0 (the create record),
// and recovery refuses chains with gaps.
type Record struct {
	Session string `json:"sid"`
	Seq     int    `json:"seq"`
	Kind    Kind   `json:"kind"`
	// Index is the candidate of a suggest/observe/observe_failure.
	Index int `json:"index,omitempty"`
	// Step is the suggestion's observation count (suggest records).
	Step int `json:"step,omitempty"`
	// K and Indices describe a suggest_batch record: the requested batch
	// size and the candidate indices returned, in issue order.
	K       int   `json:"k,omitempty"`
	Indices []int `json:"indices,omitempty"`
	// TimeSec/CostUSD/Metrics are an observe record's measurement.
	TimeSec float64   `json:"time_sec,omitempty"`
	CostUSD float64   `json:"cost_usd,omitempty"`
	Metrics []float64 `json:"metrics,omitempty"`
	// Reason is an observe_failure's cause or an end's disposition.
	Reason string `json:"reason,omitempty"`
	// Request is a create record's session request, verbatim JSON, or a
	// snapshot record's CRC'd Snapshot payload.
	Request json.RawMessage `json:"request,omitempty"`
	// Tombstones is a tombstone_index record's dropped-session list.
	Tombstones []string `json:"tombs,omitempty"`
}

// envelope is one shard line: the record bytes plus their checksum.
type envelope struct {
	CRC uint32          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// Sync selects when appends reach the disk.
type Sync int

const (
	// SyncAlways fsyncs after every append: an acknowledged observation
	// survives kill -9. The durable default.
	SyncAlways Sync = iota
	// SyncNever leaves flushing to the OS: faster, loses the tail of
	// recent appends on a crash (recovery still works, clients just
	// re-measure the lost steps).
	SyncNever
)

// ParseSync maps the -fsync flag vocabulary onto policies.
func ParseSync(name string) (Sync, error) {
	switch name {
	case "always", "":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("journal: unknown fsync policy %q (want always or never)", name)
	}
}

func (s Sync) String() string {
	if s == SyncNever {
		return "never"
	}
	return "always"
}

// DefaultShards is the shard-file count a fresh journal directory gets.
const DefaultShards = 8

// ErrNotOwned reports an append for a session whose shard this replica
// holds no lease on.
var ErrNotOwned = errors.New("journal: session shard not owned by this replica")

// Option configures Open.
type Option func(*config)

type config struct {
	shards  int
	limit   int
	replica string
	sync    Sync
	warnf   func(format string, args ...any)
	leases  LeaseManager
	now     func() time.Time
}

// WithShards sets the shard count for a fresh journal directory. An
// existing directory's meta file wins — every replica must agree on the
// partition — and a mismatch is an explicit Open error.
func WithShards(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.shards = n
		}
	}
}

// WithClaimLimit caps how many shard leases this replica takes (0 = no
// cap, claim everything unclaimed). A deployment of R replicas over S
// shards runs each with a limit of S/R so the partition spreads: the
// first replica up does not starve the rest.
func WithClaimLimit(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.limit = n
		}
	}
}

// WithReplica names this process for lease files. Replicas sharing a
// journal directory need distinct names; a replica reuses its own name
// to take its leases back over after a restart. The default is
// "host-<hostname>".
func WithReplica(id string) Option {
	return func(c *config) {
		if id != "" {
			c.replica = id
		}
	}
}

// WithSync sets the fsync policy.
func WithSync(s Sync) Option {
	return func(c *config) { c.sync = s }
}

// WithLeaseManager replaces the filesystem lease protocol with an
// external one — a registry client issuing time-bound, epoch-fenced
// grants. The default (nil) keeps the pid-checked lease files.
func WithLeaseManager(m LeaseManager) Option {
	return func(c *config) { c.leases = m }
}

// WithNow injects the clock lease-expiry fencing reads. Tests use it to
// move a holder past its grant without sleeping.
func WithNow(now func() time.Time) Option {
	return func(c *config) {
		if now != nil {
			c.now = now
		}
	}
}

// WithWarnf routes non-fatal warnings (skipped damaged lines, lease
// oddities). Scans warn from one goroutine per shard, so fn must be safe
// for concurrent use. The default writes to os.Stderr.
func WithWarnf(fn func(format string, args ...any)) Option {
	return func(c *config) {
		if fn != nil {
			c.warnf = fn
		}
	}
}

// meta pins the directory-wide constants every replica must share.
type meta struct {
	Shards int `json:"shards"`
}

// Journal is one replica's handle on a (possibly shared) journal
// directory: the shards it holds leases on, open for appending. Safe
// for concurrent use.
type Journal struct {
	dir     string
	replica string
	shards  int
	sync    Sync
	warnf   func(format string, args ...any)
	leases  LeaseManager
	now     func() time.Time

	// ownedMu guards owned: the map is written at Open, by Reclaim /
	// TakeOver / DropShard at runtime, and by Close; every append and
	// ownership check reads it.
	ownedMu sync.RWMutex
	owned   map[int]Lease

	files []shardFile

	closeMu sync.Mutex
	closed  bool
}

type shardFile struct {
	mu sync.Mutex
	f  *os.File
}

// Open claims shards in dir and returns the replica's journal handle.
// The directory is created if needed; its meta file fixes the shard
// count for every replica. Open never fails because another live
// replica holds some (or even all) leases — Owned reports what this
// replica got.
func Open(dir string, opts ...Option) (*Journal, error) {
	cfg := config{
		shards: DefaultShards,
		sync:   SyncAlways,
		warnf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "journal: "+format+"\n", args...)
		},
	}
	host, _ := os.Hostname()
	cfg.replica = "host-" + host
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: creating %s: %w", dir, err)
	}
	shards, err := loadOrInitMeta(dir, cfg.shards)
	if err != nil {
		return nil, err
	}
	j := &Journal{
		dir:     dir,
		replica: cfg.replica,
		shards:  shards,
		sync:    cfg.sync,
		warnf:   cfg.warnf,
		leases:  cfg.leases,
		now:     cfg.now,
		owned:   make(map[int]Lease),
		files:   make([]shardFile, shards),
	}
	if j.now == nil {
		j.now = time.Now
	}
	if j.leases == nil {
		j.leases = &fsLeases{dir: dir, replica: cfg.replica, leasePath: j.leasePath, warnf: cfg.warnf}
	}
	for shard := 0; shard < shards; shard++ {
		if cfg.limit > 0 && len(j.owned) >= cfg.limit {
			break
		}
		l, ok, err := j.leases.Acquire(shard)
		if err != nil {
			j.releaseLeases()
			return nil, err
		}
		if ok {
			l.Shard = shard
			j.owned[shard] = l
		}
	}
	return j, nil
}

// loadOrInitMeta reads the directory's shard count, writing it first
// when the directory is fresh.
func loadOrInitMeta(dir string, want int) (int, error) {
	path := filepath.Join(dir, "journal.meta")
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		payload, _ := json.Marshal(meta{Shards: want})
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if os.IsExist(err) {
			// Another replica initialized first; read its answer.
			data, err = os.ReadFile(path)
			if err != nil {
				return 0, fmt.Errorf("journal: reading %s: %w", path, err)
			}
		} else if err != nil {
			return 0, fmt.Errorf("journal: creating %s: %w", path, err)
		} else {
			_, werr := f.Write(append(payload, '\n'))
			cerr := f.Close()
			if werr != nil || cerr != nil {
				return 0, fmt.Errorf("journal: writing %s: %v/%v", path, werr, cerr)
			}
			return want, nil
		}
	} else if err != nil {
		return 0, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	var m meta
	if err := json.Unmarshal(data, &m); err != nil || m.Shards <= 0 {
		return 0, fmt.Errorf("journal: %s is damaged (%v); refusing to guess the shard partition", path, err)
	}
	return m.Shards, nil
}

// Replica returns this handle's replica name.
func (j *Journal) Replica() string { return j.replica }

// Shards returns the directory's shard count.
func (j *Journal) Shards() int { return j.shards }

// Owned lists the shard numbers this replica holds leases on, sorted.
func (j *Journal) Owned() []int {
	j.ownedMu.RLock()
	out := make([]int, 0, len(j.owned))
	for shard := range j.owned {
		out = append(out, shard)
	}
	j.ownedMu.RUnlock()
	sort.Ints(out)
	return out
}

// ShardOf maps a session id onto its shard in an n-shard directory.
func ShardOf(session string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(session))
	return int(h.Sum32() % uint32(n))
}

// Owns reports whether this replica holds a live lease for the
// session's shard — i.e. whether it may serve and journal this session.
// An expired (unrenewed) grant does not count: the shard may already
// have been re-granted elsewhere.
func (j *Journal) Owns(session string) bool {
	return j.ownsShard(ShardOf(session, j.shards))
}

// ownsShard reads the ownership map under its lock.
func (j *Journal) ownsShard(shard int) bool {
	l, ok := j.leaseFor(shard)
	return ok && !l.Expired(j.now())
}

// leaseFor reads one shard's grant under the ownership lock.
func (j *Journal) leaseFor(shard int) (Lease, bool) {
	j.ownedMu.RLock()
	defer j.ownedMu.RUnlock()
	l, ok := j.owned[shard]
	return l, ok
}

// Lease returns the grant this replica holds on a shard, if any.
func (j *Journal) Lease(shard int) (Lease, bool) {
	return j.leaseFor(shard)
}

// Dir returns the journal directory path.
func (j *Journal) Dir() string { return j.dir }

func (j *Journal) shardPath(shard int) string {
	return filepath.Join(j.dir, fmt.Sprintf("journal-%02d.jsonl", shard))
}

func (j *Journal) leasePath(shard int) string {
	return filepath.Join(j.dir, fmt.Sprintf("lease-%02d.json", shard))
}

// Append writes one record to its session's shard (write-ahead: callers
// acknowledge the transition to their client only after Append returns)
// and syncs it per the policy.
func (j *Journal) Append(rec Record) error {
	return j.AppendShard(ShardOf(rec.Session, j.shards), rec)
}

// AppendShard is Append targeted at an explicit shard — for
// tombstone_index records, which carry no session id. The same
// ownership and expiry fencing applies.
func (j *Journal) AppendShard(shard int, rec Record) error {
	l, held := j.leaseFor(shard)
	if !held {
		return fmt.Errorf("%w: session %q, shard %d", ErrNotOwned, rec.Session, shard)
	}
	if l.Expired(j.now()) {
		return fmt.Errorf("%w: session %q, shard %d, epoch %d", ErrLeaseExpired, rec.Session, shard, l.Epoch)
	}
	line, err := EncodeLine(rec)
	if err != nil {
		return err
	}
	sf := &j.files[shard]
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if sf.f == nil {
		f, err := os.OpenFile(j.shardPath(shard), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("journal: opening %s: %w", j.shardPath(shard), err)
		}
		sf.f = f
	}
	if _, err := sf.f.Write(line); err != nil {
		return fmt.Errorf("journal: appending to %s: %w", j.shardPath(shard), err)
	}
	if j.sync == SyncAlways {
		if err := sf.f.Sync(); err != nil {
			return fmt.Errorf("journal: syncing %s: %w", j.shardPath(shard), err)
		}
	}
	return nil
}

// EncodeLine renders one record as its newline-terminated shard line.
func EncodeLine(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: marshaling record: %w", err)
	}
	line, err := json.Marshal(envelope{CRC: crc32.ChecksumIEEE(payload), Rec: payload})
	if err != nil {
		return nil, fmt.Errorf("journal: marshaling envelope: %w", err)
	}
	return append(line, '\n'), nil
}

// DecodeLine parses and checksum-verifies one shard line. A line in the
// exact shape EncodeLine writes takes a one-pass path (decodeCanonical);
// anything else goes through the generic envelope decoder, which decides
// every line the same way (FuzzDecodeLine checks the two agree).
func DecodeLine(line []byte) (Record, error) {
	rec, ok := decodeCanonical(line)
	if !ok {
		var err error
		if rec, err = decodeEnvelope(line); err != nil {
			return Record{}, err
		}
	}
	if err := checkRecord(rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// checkRecord rejects a decoded record no chain can hold.
func checkRecord(rec Record) error {
	if rec.Session == "" && rec.Kind != KindTombstoneIndex {
		return errors.New("journal: record has no session id")
	}
	if rec.Seq < 0 {
		return fmt.Errorf("journal: record has negative seq %d", rec.Seq)
	}
	return nil
}

// decodeEnvelope is the generic line decoder: the envelope through
// encoding/json, then the CRC over the record bytes it holds, then the
// record.
func decodeEnvelope(line []byte) (Record, error) {
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return Record{}, fmt.Errorf("journal: undecodable line: %w", err)
	}
	if len(env.Rec) == 0 {
		return Record{}, errors.New("journal: line has no record")
	}
	if got := crc32.ChecksumIEEE(env.Rec); got != env.CRC {
		return Record{}, fmt.Errorf("journal: crc mismatch: line says %d, record hashes to %d", env.CRC, got)
	}
	var rec Record
	if err := json.Unmarshal(env.Rec, &rec); err != nil {
		return Record{}, fmt.Errorf("journal: undecodable record: %w", err)
	}
	return rec, nil
}

// decodeCanonical decodes a line of the exact shape EncodeLine writes,
// {"crc":N,"rec":{...}}, reading the CRC digits in place and running
// encoding/json over the record bytes only. It accepts only a line the
// generic decoder would accept with the same record: N is a canonical
// uint32 literal, the record bytes start with '{' and end with '}' (so no
// whitespace the envelope decoder would trim off before hashing), their
// CRC matches, and they decode as one JSON value. Anything else returns
// false and goes to decodeEnvelope.
func decodeCanonical(line []byte) (Record, bool) {
	rest, ok := bytes.CutPrefix(line, []byte(`{"crc":`))
	if !ok {
		return Record{}, false
	}
	n := 0
	var crc uint64
	for n < len(rest) && n <= 10 && rest[n] >= '0' && rest[n] <= '9' {
		crc = crc*10 + uint64(rest[n]-'0')
		n++
	}
	if n == 0 || n > 10 || (n > 1 && rest[0] == '0') || crc > 0xFFFFFFFF {
		return Record{}, false
	}
	payload, ok := bytes.CutPrefix(rest[n:], []byte(`,"rec":`))
	if !ok || len(payload) < 3 || payload[0] != '{' || payload[len(payload)-1] != '}' || payload[len(payload)-2] != '}' {
		return Record{}, false
	}
	payload = payload[:len(payload)-1]
	if crc32.ChecksumIEEE(payload) != uint32(crc) {
		return Record{}, false
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, false
	}
	return rec, true
}

// SessionLog is one recoverable session: its records in seq order,
// starting with the create record.
type SessionLog struct {
	ID      string
	Records []Record
}

// Recovery is what a Scan found in this replica's shards.
type Recovery struct {
	// Live holds the sessions with no terminal record, replayable.
	Live []SessionLog
	// Ended lists session ids whose journal says ended or aborted;
	// the serving layer answers 410 Gone for them.
	Ended []string
	// Damage reports every problem found: mid-file corrupt lines,
	// broken record chains. One entry per problem, human-readable.
	Damage []string
	// Tombstones lists session ids recorded in tombstone_index records:
	// sessions compaction dropped from a shard after they ended. The
	// serving layer answers 410 Gone for them without any chain left to
	// scan.
	Tombstones []string
	// TruncatedTails counts shard files whose torn final line was
	// truncated away (the normal aftermath of kill -9 mid-write).
	TruncatedTails int
}

// Scan reads every owned shard, truncating torn tails, verifying CRCs
// and record chains, and returns the recoverable state. Sessions whose
// chains are broken by damage land in Damage, not in Live — a session
// either replays exactly or not at all.
func (j *Journal) Scan() (*Recovery, error) {
	return j.ScanShards(j.Owned())
}

// ScanShards is Scan over an explicit shard list — the reclaim path
// scans just the shards it took over from a dead peer.
func (j *Journal) ScanShards(shards []int) (*Recovery, error) {
	paths := make([]string, len(shards))
	for i, shard := range shards {
		paths[i] = j.shardPath(shard)
	}
	return scanShardFiles(paths, true, j.warnf)
}

// ScanDir scans explicit shards of a foreign journal directory
// read-only — no torn-tail truncation, no newline repair — so a
// replica that reclaimed a dead cross-host peer's shards can adopt the
// sessions from the peer's (reattached or shared) journal directory
// without mutating it. The directory's meta must agree on the shard
// count.
func ScanDir(dir string, shards []int, warnf func(format string, args ...any)) (*Recovery, error) {
	if warnf == nil {
		warnf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "journal: "+format+"\n", args...)
		}
	}
	if data, err := os.ReadFile(filepath.Join(dir, "journal.meta")); err == nil {
		var m meta
		if jerr := json.Unmarshal(data, &m); jerr == nil && m.Shards > 0 {
			for _, shard := range shards {
				if shard >= m.Shards {
					return nil, fmt.Errorf("journal: %s has %d shards, cannot scan shard %d", dir, m.Shards, shard)
				}
			}
		}
	}
	paths := make([]string, len(shards))
	for i, shard := range shards {
		paths[i] = filepath.Join(dir, fmt.Sprintf("journal-%02d.jsonl", shard))
	}
	return scanShardFiles(paths, false, warnf)
}

// shardScan is one shard file's share of a scan: the line-level findings
// (mid-file damage, tombstone_index records, a torn tail) and, from
// finishScan, the file's session chains sorted into Live, Ended and chain
// damage.
type shardScan struct {
	lines     Recovery
	chains    Recovery
	bySession map[string][]Record
	order     []string // first-seen session order, for deterministic output
	err       error
}

// scanShardFiles scans each shard file on its own worker (warnf must be
// safe for concurrent use) and joins the parts in list order. A session
// lives in exactly one shard, so every chain is validated by the worker
// that read it, and the join reproduces a one-file-after-another scan
// exactly: line damage of every file in list order, then chain damage,
// Live and Ended in first-seen order. Should a session id turn up in more
// than one file anyway, its records are merged and the chains validated
// again over the union, as a sequential scan would. A list naming a file
// twice is scanned on one worker, so two repairs never race on a file.
func scanShardFiles(paths []string, repair bool, warnf func(format string, args ...any)) (*Recovery, error) {
	parts := make([]shardScan, len(paths))
	workers := 0
	seen := make(map[string]bool, len(paths))
	for _, p := range paths {
		if seen[p] {
			workers = 1
		}
		seen[p] = true
	}
	parallel.Do(len(paths), workers, func(i int) {
		p := &parts[i]
		p.bySession = make(map[string][]Record)
		if p.err = scanShardFile(paths[i], repair, warnf, &p.lines, p.bySession, &p.order); p.err == nil {
			finishScan(&p.chains, p.bySession, p.order)
		}
	})
	rec := &Recovery{}
	ids := make(map[string]bool)
	split := false
	for i := range parts {
		p := &parts[i]
		if p.err != nil {
			return nil, p.err
		}
		rec.Damage = append(rec.Damage, p.lines.Damage...)
		rec.Tombstones = append(rec.Tombstones, p.lines.Tombstones...)
		rec.TruncatedTails += p.lines.TruncatedTails
		for _, id := range p.order {
			split = split || ids[id]
			ids[id] = true
		}
	}
	if split {
		bySession := make(map[string][]Record)
		var order []string
		for i := range parts {
			for _, id := range parts[i].order {
				if _, dup := bySession[id]; !dup {
					order = append(order, id)
				}
				bySession[id] = append(bySession[id], parts[i].bySession[id]...)
			}
		}
		finishScan(rec, bySession, order)
		return rec, nil
	}
	for i := range parts {
		c := &parts[i].chains
		rec.Damage = append(rec.Damage, c.Damage...)
		rec.Live = append(rec.Live, c.Live...)
		rec.Ended = append(rec.Ended, c.Ended...)
	}
	return rec, nil
}

// finishScan validates the per-session chains a shard sweep collected
// and partitions them into the Recovery buckets.
func finishScan(rec *Recovery, bySession map[string][]Record, order []string) {
	for _, id := range order {
		records := bySession[id]
		sort.SliceStable(records, func(a, b int) bool { return records[a].Seq < records[b].Seq })
		log, ended, problem := ValidateChain(id, records)
		switch {
		case problem != "":
			rec.Damage = append(rec.Damage, problem)
		case ended:
			rec.Ended = append(rec.Ended, id)
		default:
			rec.Live = append(rec.Live, log)
		}
	}
}

// ValidateChain checks one session's seq-sorted records: contiguous
// seqs from 0, a create first, create only first, terminal records
// terminal. Snapshot records are seq-transparent — they carry the
// session's watermark without consuming a seq — and a valid snapshot
// may bridge a gap below its watermark, because compaction drops the
// ops the snapshot carries. It returns the replayable log, whether the
// session ended, or a non-empty damage report.
func ValidateChain(id string, records []Record) (SessionLog, bool, string) {
	records = dedupeSorted(records)
	if len(records) == 0 {
		return SessionLog{}, false, fmt.Sprintf("session %s: no records", id)
	}
	ended := false
	expect := 0 // the next seq a seq-consuming record must carry
	for i, r := range records {
		if ended {
			return SessionLog{}, false, fmt.Sprintf("session %s: record after terminal record at seq %d; dropping session", id, r.Seq)
		}
		if r.Kind == KindSnapshot {
			switch {
			case i == 0:
				return SessionLog{}, false, fmt.Sprintf("session %s: snapshot before create record; dropping session", id)
			case r.Seq == expect:
				// In-place checkpoint of an intact chain: transparent.
			case r.Seq > expect:
				// A gap below the watermark is legitimate only when the
				// snapshot itself carries the dropped ops (compaction) —
				// which requires the payload to decode and its watermark
				// to match the record's seq.
				snap, err := DecodeSnapshot(r.Request)
				if err != nil {
					return SessionLog{}, false, fmt.Sprintf("session %s: snapshot at seq %d cannot bridge gap from %d: %v; dropping session", id, r.Seq, expect, err)
				}
				if snap.Watermark != r.Seq {
					return SessionLog{}, false, fmt.Sprintf("session %s: snapshot at seq %d has watermark %d; dropping session", id, r.Seq, snap.Watermark)
				}
				expect = r.Seq
			default:
				return SessionLog{}, false, fmt.Sprintf("session %s: snapshot at stale seq %d (chain at %d); dropping session", id, r.Seq, expect)
			}
			continue
		}
		if (r.Kind == KindCreate) != (i == 0) {
			return SessionLog{}, false, fmt.Sprintf("session %s: create record out of place at seq %d; dropping session", id, r.Seq)
		}
		if r.Seq != expect {
			return SessionLog{}, false, fmt.Sprintf("session %s: record chain broken at seq %d (found %d); dropping session", id, expect, r.Seq)
		}
		expect++
		if r.Kind == KindEnd || r.Kind == KindAbort {
			ended = true
		}
	}
	return SessionLog{ID: id, Records: records}, ended, ""
}

// dedupeSorted drops byte-identical duplicate records from one
// session's seq-sorted chain, keeping the first of each. Cross-host
// adoption re-journals a reclaimed chain into the survivor's own
// directory, and a shard that bounces back delivers the same records
// twice; the records are byte-identical by the deterministic-trace
// contract, so dropping the copies is exact. Two records sharing a seq
// with *different* bytes are left in place for ValidateChain to report
// as a broken chain. Only records of one seq and one kind can be
// byte-identical, so only those are marshaled and compared: a lone
// record, or a snapshot sharing its watermark with the next op, costs
// nothing.
func dedupeSorted(records []Record) []Record {
	out := records[:0:0]
	var kept []int // indices into the current group of the records kept
	for i := 0; i < len(records); {
		k := i
		for k < len(records) && records[k].Seq == records[i].Seq {
			k++
		}
		group := records[i:k]
		var lines [][]byte // marshaled on first comparison
		line := func(g int) []byte {
			if lines == nil {
				lines = make([][]byte, len(group))
			}
			if lines[g] == nil {
				lines[g], _ = json.Marshal(group[g])
			}
			return lines[g]
		}
		kept = kept[:0]
		for g, r := range group {
			dup := false
			for _, m := range kept {
				if group[m].Kind != r.Kind {
					continue
				}
				if a, b := line(m), line(g); a != nil && b != nil && bytes.Equal(a, b) {
					dup = true
					break
				}
			}
			if !dup {
				kept = append(kept, g)
				out = append(out, r)
			}
		}
		i = k
	}
	return out
}

// scanShardFile reads one shard file line by line. The final line is
// allowed to be torn; with repair set it is truncated away (counted)
// and a missing final newline is patched — a foreign directory is
// scanned with repair off and left untouched. Any earlier damage is
// reported and skipped.
func scanShardFile(path string, repair bool, warnf func(format string, args ...any), rec *Recovery, bySession map[string][]Record, order *[]string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("journal: opening %s: %w", path, err)
	}
	defer f.Close()

	// Read and decode every line, remembering where the last good one
	// ends. Damaged lines before that point are mid-file corruption
	// (reported, skipped); the damaged suffix after it is the torn tail
	// (truncated away so the next boot starts clean). Truncating the
	// whole suffix at once makes recovery idempotent: a rescan of a
	// scanned shard never truncates again.
	type badLine struct {
		lineNo int
		err    error
	}
	var (
		br          = bufio.NewReaderSize(f, 1<<16)
		offset      int64 // byte offset just past the line being read
		lastGoodEnd int64 // offset just past the last decodable line
		lineNo      int
		bad         []badLine // damaged lines after the last good one
		good        []Record
		lastTorn    bool // the last good line had no trailing newline
	)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) == 0 && err == io.EOF {
			break
		}
		if err != nil && err != io.EOF {
			return fmt.Errorf("journal: reading %s: %w", path, err)
		}
		lineNo++
		torn := err == io.EOF // no trailing newline: a torn write
		offset += int64(len(line))
		r, derr := DecodeLine(bytesTrimNewline(line))
		if derr != nil {
			bad = append(bad, badLine{lineNo: lineNo, err: derr})
			continue
		}
		// A later good line proves the damage collected so far is
		// mid-file, not a tail: report it and move on.
		for _, b := range bad {
			rec.Damage = append(rec.Damage, fmt.Sprintf("%s:%d: %v", path, b.lineNo, b.err))
		}
		bad = bad[:0]
		good = append(good, r)
		lastGoodEnd = offset
		lastTorn = torn
	}
	switch {
	case len(bad) > 0:
		// The damaged suffix is the torn tail; cut it off (or, scanning
		// a foreign directory read-only, just skip it).
		if repair {
			if terr := truncateAt(path, lastGoodEnd); terr != nil {
				warnf("%s: could not truncate torn tail: %v", path, terr)
			}
		}
		rec.TruncatedTails++
		warnf("%s: %d-line torn tail (first: line %d, %v)", path, len(bad), bad[0].lineNo, bad[0].err)
		// A multi-line damaged suffix is more than one crash's torn
		// write; surface the extra lines as damage so heavy tail
		// corruption stays visible while recovery still proceeds.
		for _, b := range bad[1:] {
			rec.Damage = append(rec.Damage, fmt.Sprintf("%s:%d: truncated with tail: %v", path, b.lineNo, b.err))
		}
	case lastTorn && repair:
		// The final record survived intact but its newline did not;
		// repair it so the next append starts on a fresh line.
		if rerr := appendNewline(path); rerr != nil {
			warnf("%s: could not repair missing final newline: %v", path, rerr)
		}
	}
	for _, r := range good {
		if r.Kind == KindTombstoneIndex {
			// Shard-level record, not part of any session chain.
			rec.Tombstones = append(rec.Tombstones, r.Tombstones...)
			continue
		}
		if _, seen := bySession[r.Session]; !seen {
			*order = append(*order, r.Session)
		}
		bySession[r.Session] = append(bySession[r.Session], r)
	}
	return nil
}

// appendNewline terminates a shard whose last (intact) line lost its
// newline to a crash.
func appendNewline(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte{'\n'}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// bytesTrimNewline strips the record terminator (and a CR, for shards
// that crossed a Windows filesystem) without copying.
func bytesTrimNewline(line []byte) []byte {
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	return line
}

// truncateAt cuts a shard file to the given length.
func truncateAt(path string, n int64) error {
	return os.Truncate(path, n)
}

// releaseLeases gives this replica's grants back to the manager.
func (j *Journal) releaseLeases() {
	j.ownedMu.Lock()
	defer j.ownedMu.Unlock()
	for shard, l := range j.owned {
		if err := j.leases.Release(l); err != nil {
			j.warnf("releasing lease %d: %v", shard, err)
		}
	}
	j.owned = make(map[int]Lease)
}

// RenewLeases extends every held grant through the manager and drops
// the ones the manager reports lost (expired and re-granted elsewhere).
// It returns the shards dropped, sorted; the serving layer evicts their
// sessions. A manager error keeps the grant — local expiry fencing
// stops appends on its own if the outage outlasts the TTL.
func (j *Journal) RenewLeases() ([]int, error) {
	var lost []int
	var firstErr error
	for _, shard := range j.Owned() {
		l, held := j.leaseFor(shard)
		if !held {
			continue
		}
		nl, ok, err := j.leases.Renew(l)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			j.warnf("renewing lease %d: %v", shard, err)
			continue
		}
		j.ownedMu.Lock()
		if ok {
			nl.Shard = shard
			j.owned[shard] = nl
		} else {
			delete(j.owned, shard)
			lost = append(lost, shard)
		}
		j.ownedMu.Unlock()
	}
	sort.Ints(lost)
	return lost, firstErr
}

// RenewShard re-verifies one held grant with the manager, immediately:
// held=false means the grant was superseded (another replica owns the
// shard now) and it has been dropped from the owned set; the caller
// must evict the shard's sessions. A manager error keeps the grant, as
// in RenewLeases — local expiry fencing bounds the damage. Used where
// ownership is suddenly in doubt, e.g. a migration handoff whose
// outcome was lost in transit.
func (j *Journal) RenewShard(shard int) (bool, error) {
	l, held := j.leaseFor(shard)
	if !held {
		return false, nil
	}
	nl, ok, err := j.leases.Renew(l)
	if err != nil {
		return true, err
	}
	j.ownedMu.Lock()
	if ok {
		nl.Shard = shard
		j.owned[shard] = nl
	} else {
		delete(j.owned, shard)
	}
	j.ownedMu.Unlock()
	return ok, nil
}

// DropShard forgets a shard locally without releasing the grant — the
// migrate-out path, where the grant was already transferred to the
// successor and releasing it here would yank it back out from under
// them.
func (j *Journal) DropShard(shard int) {
	j.ownedMu.Lock()
	delete(j.owned, shard)
	j.ownedMu.Unlock()
	sf := &j.files[shard]
	sf.mu.Lock()
	if sf.f != nil {
		sf.f.Close()
		sf.f = nil
	}
	sf.mu.Unlock()
}

// TakeOver claims a shard directly from its current holder through the
// manager's transfer extension, fenced by the holder's epoch — the
// migrate-in path. ok=false without error means the transfer was
// refused (stale epoch, holder changed).
func (j *Journal) TakeOver(shard int, from string, fromEpoch uint64) (Lease, bool, error) {
	tl, can := j.leases.(TransferLeaser)
	if !can {
		return Lease{}, false, fmt.Errorf("journal: lease manager %T does not support transfers", j.leases)
	}
	l, ok, err := tl.Transfer(shard, from, fromEpoch)
	if err != nil || !ok {
		return Lease{}, false, err
	}
	l.Shard = shard
	j.ownedMu.Lock()
	j.owned[shard] = l
	j.ownedMu.Unlock()
	return l, true, nil
}

// Reclaim attempts to take over every shard this replica does not own,
// claiming only grants the manager says are up for grabs (a dead pid's
// filesystem lease, or a registry grant past its TTL). It returns the
// grants newly claimed, sorted by shard; each carries the previous
// holder's journal directory so the caller can scan and adopt the
// shard's live sessions even when the dead peer journaled elsewhere.
func (j *Journal) Reclaim() ([]Lease, error) {
	var claimed []Lease
	for shard := 0; shard < j.shards; shard++ {
		if _, held := j.leaseFor(shard); held {
			continue
		}
		l, ok, err := j.leases.Acquire(shard)
		if err != nil {
			j.warnf("reclaiming shard %d: %v", shard, err)
			continue
		}
		if !ok {
			continue
		}
		l.Shard = shard
		j.ownedMu.Lock()
		j.owned[shard] = l
		j.ownedMu.Unlock()
		claimed = append(claimed, l)
	}
	sort.Slice(claimed, func(a, b int) bool { return claimed[a].Shard < claimed[b].Shard })
	return claimed, nil
}

// Close releases the shard leases and file handles. A closed journal
// owns nothing; Append returns ErrNotOwned.
func (j *Journal) Close() error {
	j.closeMu.Lock()
	defer j.closeMu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	var firstErr error
	for i := range j.files {
		sf := &j.files[i]
		sf.mu.Lock()
		if sf.f != nil {
			if err := sf.f.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			sf.f = nil
		}
		sf.mu.Unlock()
	}
	j.releaseLeases()
	return firstErr
}
