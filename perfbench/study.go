package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	arrow "repro"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/study"
	"repro/internal/workloads"
)

// studySeeds is the search seeds per (method, workload) of the slice.
const studySeeds = 2

// studyConcurrency is the runner's worker count.
const studyConcurrency = 2

// minSlices is the fewest slices a run measures, whatever its window:
// one slice takes about 8 s on two cores, and ops_per_s is their median.
const minSlices = 3

// warmupWorkloads is the size of the slice each study set-up runs.
const warmupWorkloads = 4

// fitSampleWorkloads is how many workloads a traced study run searches
// in isolation to time the surrogate fits.
const fitSampleWorkloads = 12

// studyPhases names the four experiment calls of the slice.
var studyPhases = [4]string{"cdf", "regions", "compare", "breakdown"}

// studyWorkloads is the full study set in an order drawn from seed. The
// runner's search seeds are fixed (0..studySeeds-1), so the run seed
// decides the order the workloads are scheduled in.
func studyWorkloads(seed int64) ([]workloads.Workload, error) {
	ids := arrow.WorkloadIDs()
	ws := make([]workloads.Workload, len(ids))
	for i, k := range rand.New(rand.NewSource(seed)).Perm(len(ids)) {
		w, err := workloads.ByID(ids[k])
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	return ws, nil
}

// studyRep is one run of the slice on a fresh runner.
type studyRep struct {
	wall    time.Duration
	phases  [4]time.Duration
	misses  int64
	lookups int64
	reuse   float64
	digest  string
}

// studySlice runs the figure-study slice on a fresh runner with a
// memory-only run cache: the Fig. 9 search-cost CDF for Naive,
// Augmented and Hybrid BO, the Fig. 1 region classification, the
// Fig. 12 comparison (Naive EI 10% vs Augmented delta 1.1) and the
// per-category breakdown. Searches shared between the experiments run
// once within the slice and never across slices.
func studySlice(ws []workloads.Workload, seeds int, e env, label string) (studyRep, error) {
	var rep studyRep
	r := study.NewRunner(sim.New(cloud.DefaultCatalog()),
		study.WithConcurrency(studyConcurrency),
		study.WithWorkloads(ws),
		study.WithWarnf(e.logf))
	defer r.Close()
	var outputs [4]any
	calls := [4]func() (any, error){
		func() (any, error) {
			mcs := []study.MethodConfig{{Method: study.MethodNaive}, {Method: study.MethodAugmented}, {Method: study.MethodHybrid}}
			return r.SearchCostCDF(mcs, core.MinimizeCost, seeds)
		},
		func() (any, error) { return r.ClassifyRegions(core.MinimizeCost, seeds) },
		func() (any, error) {
			regions, _ := outputs[1].(map[string]study.Region)
			return r.Compare(
				study.MethodConfig{Method: study.MethodNaive, EIStop: 0.10},
				study.MethodConfig{Method: study.MethodAugmented, Delta: 1.1},
				core.MinimizeCost, seeds, regions)
		},
		func() (any, error) {
			return r.BreakdownByGroup(study.MethodConfig{Method: study.MethodAugmented}, core.MinimizeCost, seeds, study.ByCategory)
		},
	}
	start := time.Now()
	for i, call := range calls {
		t0 := time.Now()
		out, err := call()
		if err != nil {
			return rep, fmt.Errorf("study %s: %w", studyPhases[i], err)
		}
		t1 := time.Now()
		outputs[i] = out
		rep.phases[i] = t1.Sub(t0)
		e.spans.add("study."+studyPhases[i], label, i, "study.slice", t0, t1)
	}
	end := time.Now()
	rep.wall = end.Sub(start)
	e.spans.add("study.slice", label, 0, "", start, end)
	data, err := json.Marshal(outputs)
	if err != nil {
		return rep, err
	}
	sum := sha256.Sum256(data)
	rep.digest = hex.EncodeToString(sum[:16])
	runs, _ := r.CacheStats()
	rep.misses = runs.Misses
	rep.lookups = runs.Lookups()
	rep.reuse = runs.ReuseRatio()
	return rep, nil
}

// runStudy runs the study workload: slices back to back on fresh
// runners until the window is over, at least minSlices.
func runStudy(ctx context.Context, e env) (*outcome, error) {
	o := newOutcome()
	var ws []workloads.Workload
	var setups []float64
	quiet := e
	quiet.spans = nil
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		var err error
		if ws, err = studyWorkloads(e.seed); err != nil {
			return nil, err
		}
		if _, err := studySlice(ws[:warmupWorkloads], 1, quiet, "warmup"); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.e2e["setup_s"] = median(setups)

	m0 := memNow()
	t0 := time.Now()
	var reps []studyRep
	for len(reps) < minSlices || time.Since(t0) < e.seconds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep, err := studySlice(ws, studySeeds, e, "slice"+strconv.Itoa(len(reps)))
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	var misses int64
	perS := make([]float64, len(reps))
	walls := make([]float64, len(reps))
	var phases [4][]float64
	same := true
	for i, rep := range reps {
		misses += rep.misses
		o.attempted += rep.lookups
		perS[i] = float64(rep.misses) / rep.wall.Seconds()
		walls[i] = ms(rep.wall)
		for p := range phases {
			phases[p] = append(phases[p], rep.phases[p].Seconds())
		}
		same = same && rep.digest == reps[0].digest && rep.misses == reps[0].misses
	}
	o.memory(memNow().since(m0), float64(misses))
	o.check(same, "%d slices agree on the output digest %s and on %d run-cache misses", len(reps), reps[0].digest, reps[0].misses)
	o.e2e["ops_per_s"] = median(perS)
	o.e2e["op_p50_ms"] = median(walls)
	o.layer["trace.ops_per_s"] = median(perS)
	o.layer["trace.op_p50_ms"] = median(walls)
	o.layer["runcache.misses"] = float64(reps[0].misses)
	o.layer["runcache.dedup_frac"] = reps[0].reuse
	for p, name := range studyPhases {
		o.layer["study."+name+"_s"] = median(phases[p])
	}
	o.note("%d slices over %d workloads x %d seeds at concurrency %d: %d searches executed, %d run-cache lookups each",
		len(reps), len(ws), studySeeds, studyConcurrency, reps[0].misses, reps[0].lookups)
	o.note("searches_per_s           %.4g 1/s (median of slice rates %.4g)", median(perS), perS)
	o.timing("slice_ms", "ms", walls)
	if e.traced {
		if err := studyFits(ctx, o, e, ws[:fitSampleWorkloads]); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// studyFits times the surrogate fits the study's searches make. The
// study runner does not forward search events, so a sample of the
// slice's searches (each BO method, stopping off, seed 0) runs again
// through the public optimizer with a tracer.
func studyFits(ctx context.Context, o *outcome, e env, ws []workloads.Workload) error {
	col := newCollector(nil)
	var searchTotal time.Duration
	methods := []arrow.Method{arrow.MethodNaiveBO, arrow.MethodAugmentedBO, arrow.MethodHybridBO}
	for _, w := range ws {
		for _, m := range methods {
			if err := ctx.Err(); err != nil {
				return err
			}
			opt, err := arrow.New(arrow.WithMethod(m), arrow.WithObjective(arrow.MinimizeCost), arrow.WithSeed(0),
				arrow.WithEIStopFraction(-1), arrow.WithDeltaThreshold(-1), arrow.WithTracer(col))
			if err != nil {
				return err
			}
			target, err := arrow.NewSimulatedTarget(w.ID(), 0)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := opt.Search(target); err != nil {
				return err
			}
			t1 := time.Now()
			searchTotal += t1.Sub(t0)
			e.spans.add("core.search", w.ID(), int(m), "", t0, t1)
		}
	}
	fits, _, _ := col.snapshot()
	forest := summarizeFits(fits, "forest")
	gp := summarizeFits(fits, "gp")
	o.layer["forest.rows_per_fit_mean"] = forest.rowsMean
	o.layer["forest.fit_p50_ms"] = median(forest.walls)
	o.layer["forest.fit_p99_ms"] = percentile(forest.walls, 99)
	o.layer["core.refit_incremental_frac"] = forest.incremental
	o.layer["gp.fit_p50_ms"] = median(gp.walls)
	o.layer["core.fit_share"] = share(float64(forest.total+gp.total), float64(searchTotal))
	o.timing("forest.fit_ms", "ms", forest.walls)
	o.timing("gp.fit_ms", "ms", gp.walls)
	o.note("fit share of search time (base %.4g s over %d isolated searches): %.1f%%",
		searchTotal.Seconds(), len(ws)*len(methods), 100*o.layer["core.fit_share"])
	return nil
}
