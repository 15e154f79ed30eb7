// Command perfbench is the repository's end-to-end benchmark. One
// process runs one workload against the program's public entry points:
// Arrow advisor sessions served over a loopback HTTP listener
// (serve-short, serve-long), a cold slice of the figure study (study),
// and a cold recovery of a crashed server's journal (recover).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve-short --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 the same workload runs with
// spans recorded and the object carries the per-layer metrics instead.
// Lines before it are a human-readable report. The exit code is 0 only
// when every correctness check passed.
//
//	perfbench summarize RUNS.jsonl [BASE.jsonl]
//
// prints each metric's median and quartiles over the result lines of a
// file, and with a second file the change of the medians against it.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name         string
	unit         string
	higherBetter bool
}

// endToEnd are the metrics every untraced run reports, on every
// workload. The unit of work behind ops_per_s and op_p50_ms is the
// workload's own: a served session, an executed search, or a recovered
// session (ops_per_s) and a session, a study slice, or a recovery pass
// (op_p50_ms).
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"max_rss_mb", "MB", false},
	{"ops_per_s", "1/s", true},
	{"op_p50_ms", "ms", false},
}

// perLayer are the metrics every traced run reports. A layer a workload
// does not exercise reads 0 there, which is how the traced runs show
// that the workloads separate the layers.
var perLayer = []metricDef{
	{"trace.ops_per_s", "1/s", true},
	{"trace.op_p50_ms", "ms", false},
	{"client.create_p50_ms", "ms", false},
	{"client.next_p50_ms", "ms", false},
	{"client.next_p99_ms", "ms", false},
	{"client.observe_p50_ms", "ms", false},
	{"client.observe_p99_ms", "ms", false},
	{"wire.overhead_p50_us", "us", false},
	{"serve.create_p50_us", "us", false},
	{"serve.next_p50_us", "us", false},
	{"serve.observe_p50_us", "us", false},
	{"serve.result_p50_us", "us", false},
	{"serve.decode_p50_us", "us", false},
	{"serve.speculate_hit_frac", "fraction", true},
	{"serve.store_size_end", "count", false},
	{"core.fits_per_session", "count", false},
	{"forest.rows_per_fit_mean", "count", false},
	{"forest.fit_p50_ms", "ms", false},
	{"forest.fit_p99_ms", "ms", false},
	{"core.refit_incremental_frac", "fraction", true},
	{"gp.fit_p50_ms", "ms", false},
	{"advisor.next_p50_ms", "ms", false},
	{"core.acquire_p50_ms", "ms", false},
	{"core.plan_share", "fraction", false},
	{"journal.append_share", "fraction", false},
	{"journal.appends_per_session", "count", false},
	{"journal.bytes_per_session", "bytes", false},
	{"journal.append_p50_us", "us", false},
	{"journal.append_p99_us", "us", false},
	{"journal.snapshot_encode_p50_us", "us", false},
	{"journal.open_ms", "ms", false},
	{"journal.scan_ms", "ms", false},
	{"recover.session_p50_us", "us", false},
	{"recover.session_p99_us", "us", false},
	{"recover.snapshot_restore_frac", "fraction", true},
	{"study.cdf_s", "s", false},
	{"study.regions_s", "s", false},
	{"study.compare_s", "s", false},
	{"study.breakdown_s", "s", false},
	{"runcache.misses", "count", false},
	{"runcache.dedup_frac", "fraction", true},
	{"core.fit_share", "fraction", false},
	{"go.alloc_kb_per_op", "KB", false},
	{"go.gc_cycles", "count", false},
}

// workloadNames lists the workloads in the order they are documented.
var workloadNames = []string{"serve-short", "serve-long", "study", "recover"}

// env is what every workload runs with.
type env struct {
	seed    int64
	seconds time.Duration
	traced  bool
	dir     string   // scratch directory for journals
	spans   *spanLog // nil when untraced
	logf    func(format string, args ...any)
}

// outcome is a workload's verdict and measurements.
type outcome struct {
	attempted int64
	failed    int64
	checks    []string // failed correctness checks
	e2e       map[string]float64
	layer     map[string]float64
	report    []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records one correctness check.
func (o *outcome) check(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !ok {
		o.checks = append(o.checks, msg)
		msg = "FAILED " + msg
	}
	o.note("check: %s", msg)
}

// note adds a report line.
func (o *outcome) note(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// timing reports a latency sample as its median plus the highest
// percentile with at least ten samples beyond it, with the sample count.
func (o *outcome) timing(name, unit string, values []float64) {
	if len(values) == 0 {
		o.note("%-24s no samples", name)
		return
	}
	line := fmt.Sprintf("%-24s p50 %.4g %s", name, median(values), unit)
	if p, ok := tailPercentile(len(values)); ok {
		line += fmt.Sprintf(", p%g %.4g %s", p, percentile(values, p), unit)
	} else {
		line += " (too few samples for a tail)"
	}
	o.note("%s (n=%d)", line, len(values))
}

// memUse is what runtime.MemStats counts up: bytes allocated and GC
// cycles completed.
type memUse struct {
	alloc uint64
	gcs   uint32
}

func memNow() memUse {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memUse{alloc: m.TotalAlloc, gcs: m.NumGC}
}

func (u memUse) since(start memUse) memUse {
	return memUse{alloc: u.alloc - start.alloc, gcs: u.gcs - start.gcs}
}

func (u memUse) add(v memUse) memUse {
	return memUse{alloc: u.alloc + v.alloc, gcs: u.gcs + v.gcs}
}

// memory records the measured windows' allocation per op and GC cycles.
func (o *outcome) memory(u memUse, ops float64) {
	if ops > 0 {
		o.layer["go.alloc_kb_per_op"] = float64(u.alloc) / 1024 / ops
	}
	o.layer["go.gc_cycles"] = float64(u.gcs)
}

// maxRSSMB reads the process's peak resident set size.
func maxRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// runWorkload dispatches to the named workload.
func runWorkload(ctx context.Context, name string, e env) (*outcome, error) {
	switch name {
	case "serve-short":
		return runServe(ctx, serveShort, e)
	case "serve-long":
		return runServe(ctx, serveLong, e)
	case "study":
		return runStudy(ctx, e)
	case "recover":
		return runRecover(ctx, e)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "summarize" {
		os.Exit(summarize(os.Args[2:], os.Stdout, os.Stderr))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run parses the flags, runs one workload and prints its report and
// result line. It returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	dir := fs.String("dir", ".bench_build", "directory for journals and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	var logMu sync.Mutex
	e := env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		dir:     scratch,
		logf: func(format string, args ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			fmt.Fprintf(stderr, "perfbench: "+format+"\n", args...)
		},
	}
	if e.traced {
		e.spans = newSpanLog()
	}
	o, err := runWorkload(ctx, *workload, e)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	rss, err := maxRSSMB()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	o.e2e["max_rss_mb"] = rss
	if e.traced {
		path := traceFile(*dir, *workload, *seed)
		if err := e.spans.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		o.note("spans: %d written to %s", len(e.spans.spans), path)
	}

	defs, values := endToEnd, o.e2e
	if e.traced {
		defs, values = perLayer, o.layer
	}
	line := resultLine{
		Correct:   len(o.checks) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		line.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	fmt.Fprintf(stdout, "workload %s, seed %d, %gs window, trace %d\n", *workload, *seed, *seconds, *trace)
	for _, r := range o.report {
		fmt.Fprintln(stdout, "  "+r)
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if !line.Correct {
		fmt.Fprintf(stderr, "perfbench: %d correctness check(s) failed\n", len(o.checks))
		return 1
	}
	return 0
}

// summarize prints per-metric medians and quartiles over the result
// lines of a file; with a base file it also prints how much worse each
// median is than the base's, as a share of the base median.
func summarize(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 || len(args) > 2 {
		fmt.Fprintln(stderr, "usage: perfbench summarize RUNS.jsonl [BASE.jsonl]")
		return 2
	}
	head, err := readResults(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var base map[string][]float64
	if len(args) == 2 {
		if base, err = readResults(args[1]); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	higher := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		higher[d.name] = d.higherBetter
	}
	names := make([]string, 0, len(head))
	for name := range head {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		vals := head[name]
		q, ok := quartiles(vals)
		if !ok {
			fmt.Fprintf(stdout, "%-32s n=%d (need two runs for quartiles)\n", name, len(vals))
			continue
		}
		sp, _ := spread(vals)
		line := fmt.Sprintf("%-32s n=%-3d median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f", name, len(vals), q[1], q[0], q[2], sp)
		if bv, ok := base[name]; ok && len(bv) > 0 {
			line += fmt.Sprintf("  worse-than-base %+.4f", worsening(median(bv), q[1], higher[name]))
		}
		fmt.Fprintln(stdout, line)
	}
	return 0
}

// readResults collects each metric's values over a file's result lines.
func readResults(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r resultLine
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Metrics == nil {
			continue
		}
		for name, m := range r.Metrics {
			out[name] = append(out[name], m.Value)
		}
	}
	return out, sc.Err()
}
