package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func defsOf(ms []benchMetric) []metricDef {
	out := make([]metricDef, len(ms))
	for i, m := range ms {
		out[i] = metricDef{name: m.Name, unit: m.Unit, higherBetter: m.Better == "higher"}
	}
	return out
}

// TestMetricsMatchBenchmarkJSON keeps the metrics the runs print and the
// ones BENCHMARK.json declares identical.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, c := range []struct {
		what       string
		json, runs []metricDef
	}{{"end_to_end", defsOf(bf.EndToEnd), endToEnd}, {"per_layer", defsOf(bf.PerLayer), perLayer}} {
		if len(c.json) != len(c.runs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, runs print %d", c.what, len(c.json), len(c.runs))
			continue
		}
		for i := range c.json {
			if c.json[i] != c.runs[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, runs print %+v", c.what, i, c.json[i], c.runs[i])
			}
		}
	}
}

// runSmoke runs one workload for a short window in dir and returns its
// exit code, standard output, standard error and parsed result line.
func runSmoke(t *testing.T, ctx context.Context, dir, workload string, trace int) (int, string, string, resultLine) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(ctx, []string{"--workload", workload, "--seed", "7", "--seconds", "0.5",
		"--trace", strconv.Itoa(trace), "--dir", dir}, &stdout, &stderr)
	var res resultLine
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil && code == 0 {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, stdout.String())
	}
	if code != 0 {
		t.Logf("%s stderr:\n%s", workload, stderr.String())
	}
	return code, stdout.String(), stderr.String(), res
}

// TestSmokeEveryWorkload runs each workload for a short window, traced
// and untraced, and checks the result line carries every metric.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames {
		for _, trace := range []int{0, 1} {
			if w == "study" && trace == 1 {
				continue // the traced study adds only isolated searches; the slices are the slow part
			}
			code, out, _, res := runSmoke(t, context.Background(), t.TempDir(), w, trace)
			if code != 0 || !res.Correct {
				t.Fatalf("%s trace %d: exit %d, correct %v\n%s", w, trace, code, res.Correct, out)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace %d: attempted %d, failed %d", w, trace, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace == 1 {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %s", w, trace, d.name, m, d.unit)
				}
				if trace == 0 && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w, d.name, m.Value)
				}
			}
		}
	}
}

var listenLine = regexp.MustCompile(`serving on (127\.0\.0\.1:\d+)`)

// childProcesses lists the processes whose parent is this one.
func childProcesses(t *testing.T) []string {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	me := strconv.Itoa(os.Getpid())
	var out []string
	for _, p := range stats {
		data, err := os.ReadFile(p)
		if err != nil {
			continue // the process ended while we looked
		}
		// The parent pid is the second field after the parenthesized name.
		fields := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
		if len(fields) > 1 && fields[1] == me {
			out = append(out, p)
		}
	}
	return out
}

// assertTornDown checks what a finished run must leave behind: nothing
// listening on the ports it logged, no child process, no goroutine
// beyond the baseline, and no scratch directory.
func assertTornDown(t *testing.T, log, dir string, baseline int) {
	t.Helper()
	addrs := listenLine.FindAllStringSubmatch(log, -1)
	if addrs == nil {
		t.Fatalf("no listener address logged:\n%s", log)
	}
	for _, m := range addrs {
		if conn, err := net.DialTimeout("tcp", m[1], time.Second); err == nil {
			conn.Close()
			t.Errorf("%s still accepts connections after the run", m[1])
		}
	}
	if kids := childProcesses(t); len(kids) > 0 {
		t.Errorf("child processes left: %v", kids)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		t.Errorf("%d goroutines after the run, %d before:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "traces" {
			t.Errorf("left behind in the run directory: %s", e.Name())
		}
	}
}

// TestRunLeavesNothingBehind runs a serve workload to the end and then
// one cancelled mid-window (what SIGINT and SIGTERM do to the process),
// and checks both tear everything down.
func TestRunLeavesNothingBehind(t *testing.T) {
	baseline := runtime.NumGoroutine()

	dir := t.TempDir()
	code, out, log, res := runSmoke(t, context.Background(), dir, "serve-short", 0)
	if code != 0 || !res.Correct {
		t.Fatalf("exit %d, correct %v\n%s", code, res.Correct, out)
	}
	assertTornDown(t, log, dir, baseline)

	dir = t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	var stdout, stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"--workload", "serve-long", "--seed", "7", "--seconds", "30", "--dir", dir}, &stdout, &stderr)
	}()
	time.Sleep(1500 * time.Millisecond)
	cancel()
	select {
	case code = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("an interrupted run did not return")
	}
	if code == 0 {
		t.Errorf("an interrupted run exited 0:\n%s", stdout.String())
	}
	if strings.Contains(stdout.String(), `"metrics"`) {
		t.Errorf("an interrupted run printed a result:\n%s", stdout.String())
	}
	assertTornDown(t, stderr.String(), dir, baseline)
}
