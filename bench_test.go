// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates the corresponding data
// series on the simulator substrate and prints the same rows the paper
// reports, so `go test -bench=. -benchmem` doubles as the reproduction
// run. EXPERIMENTS.md records paper-vs-measured for each one.
//
// The repetition count per workload defaults to a laptop-friendly value;
// set ARROW_BENCH_SEEDS=100 to match the paper's 100 repeats.
package arrow

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/study"
	"repro/internal/workloads"
)

// benchSeeds returns the per-workload repetition count.
func benchSeeds() int {
	if v := os.Getenv("ARROW_BENCH_SEEDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 8
}

var (
	benchRunnerOnce sync.Once
	benchRunnerVal  *study.Runner
)

// benchRunner lazily builds one shared full-study Runner.
func benchRunner() *study.Runner {
	benchRunnerOnce.Do(func() {
		benchRunnerVal = study.NewRunner(sim.New(cloud.DefaultCatalog()))
	})
	return benchRunnerVal
}

// BenchmarkTable1Inventory regenerates Table I: the application inventory
// and the 107-workload study set.
func BenchmarkTable1Inventory(b *testing.B) {
	var studySet []workloads.Workload
	for i := 0; i < b.N; i++ {
		studySet = sim.New(cloud.DefaultCatalog()).StudyWorkloads()
	}
	b.StopTimer()
	counts := map[workloads.Category]int{}
	for _, w := range studySet {
		counts[w.Category]++
	}
	fmt.Printf("\nTable I: %d applications; %d candidates; %d study workloads\n",
		workloads.NumApplications, len(workloads.All()), len(studySet))
	for _, cat := range []workloads.Category{workloads.Micro, workloads.OLAP, workloads.Statistics, workloads.MachineLearning} {
		fmt.Printf("  %-20s %3d study workloads\n", cat, counts[cat])
	}
}

// BenchmarkFig1NaiveBOCDF regenerates Figure 1: the CDF of Naive BO's
// search cost across the 107 workloads and the Region I/II/III split.
func BenchmarkFig1NaiveBOCDF(b *testing.B) {
	r := benchRunner()
	var cdfs []study.MethodCDF
	for i := 0; i < b.N; i++ {
		var err error
		cdfs, err = r.SearchCostCDF([]study.MethodConfig{{Method: study.MethodNaive}}, core.MinimizeTime, benchSeeds())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cdf := cdfs[0]
	fmt.Printf("\nFig 1 (time objective, %d seeds): paper: 50%% within 6, 85%% within 12\n", benchSeeds())
	for _, m := range []int{2, 4, 6, 8, 10, 12, 14, 16, 18} {
		fmt.Printf("  within %2d measurements: %5.1f%%\n", m, 100*cdf.FractionWithin(m))
	}
}

// BenchmarkFig2ALSTrajectory regenerates Figure 2: Naive BO's sluggish
// trajectory on ALS (a Region III workload in the paper).
func BenchmarkFig2ALSTrajectory(b *testing.B) {
	r := benchRunner()
	w, err := r.WorkloadByID("als/spark2.1/medium")
	if err != nil {
		b.Fatal(err)
	}
	var rep *study.TrajectoryReport
	for i := 0; i < b.N; i++ {
		rep, err = r.Trajectories(study.MethodConfig{Method: study.MethodNaive}, w, core.MinimizeTime, benchSeeds())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Printf("\nFig 2 (als on Spark, normalized time): paper shows slow convergence\n")
	for _, p := range rep.Points {
		if p.Step%2 == 0 || p.Step == 1 {
			fmt.Printf("  step %2d: median %.3f [Q1 %.3f, Q3 %.3f]\n", p.Step, p.Median, p.Q1, p.Q3)
		}
	}
	fmt.Printf("  median steps to optimum: %.1f\n", rep.MedianStepOptimal)
}

// BenchmarkFig3Spread regenerates Figure 3: up-to-20x execution-time and
// up-to-10x deployment-cost spreads.
func BenchmarkFig3Spread(b *testing.B) {
	r := benchRunner()
	var rows []study.SpreadRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = r.Spread(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	sort.Slice(rows, func(i, j int) bool { return rows[i].TimeRatio > rows[j].TimeRatio })
	fmt.Printf("\nFig 3: paper: up to 20x time, 10x cost; measured extremes:\n")
	for _, row := range rows[:5] {
		fmt.Printf("  %-34s time %5.1fx  cost %4.1fx\n", row.WorkloadID, row.TimeRatio, row.CostRatio)
	}
}

// BenchmarkFig4ExpensiveCheap regenerates Figure 4: fixed most-expensive
// VMs under time and least-expensive VMs under cost.
func BenchmarkFig4ExpensiveCheap(b *testing.B) {
	r := benchRunner()
	var expensive, cheap []study.FixedVMSeries
	for i := 0; i < b.N; i++ {
		var err error
		expensive, err = r.FixedVMDistribution([]string{"c4.2xlarge", "m4.2xlarge", "r4.2xlarge"}, core.MinimizeTime)
		if err != nil {
			b.Fatal(err)
		}
		cheap, err = r.FixedVMDistribution([]string{"c4.large", "m4.large", "r4.large"}, core.MinimizeCost)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Printf("\nFig 4(a) (time, most expensive VMs): paper: c4.2xlarge best for ~50%%\n")
	for _, s := range expensive {
		worst := s.NormalizedSorted[len(s.NormalizedSorted)-1]
		fmt.Printf("  %-11s optimal for %4.0f%% of workloads; worst case %.1fx\n", s.VMName, 100*s.OptimalFraction, worst)
	}
	fmt.Printf("Fig 4(b) (cost, least expensive VMs): paper: c4.large does not rule either\n")
	for _, s := range cheap {
		worst := s.NormalizedSorted[len(s.NormalizedSorted)-1]
		fmt.Printf("  %-11s optimal for %4.0f%% of workloads; worst case %.1fx\n", s.VMName, 100*s.OptimalFraction, worst)
	}
}

// BenchmarkFig5InputSize regenerates Figure 5: the best VM changes with
// input size.
func BenchmarkFig5InputSize(b *testing.B) {
	r := benchRunner()
	pairs := []study.AppSystem{
		{App: "pagerank", System: workloads.Hadoop27},
		{App: "bayes", System: workloads.Spark21},
		{App: "als", System: workloads.Spark21},
		{App: "wordcount", System: workloads.Spark21},
		{App: "terasort", System: workloads.Hadoop27},
	}
	var rows []study.InputSizeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = r.InputSizeEffect(pairs, "m4.xlarge", core.MinimizeCost)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Printf("\nFig 5 (cost objective): paper: optimal VM shifts with input size\n")
	for _, row := range rows {
		fmt.Printf("  %-22s", row.AppName+"/"+row.System.String())
		for _, size := range workloads.Sizes() {
			if cell := row.PerSize[size]; cell != nil {
				fmt.Printf("  %s=%s", size, cell.BestVM)
			}
		}
		fmt.Printf("  (changes: %v)\n", row.BestVMChanges)
	}
}

// BenchmarkFig6LevelPlayingField regenerates Figure 6: cost compresses the
// differences between VM types for the regression workload.
func BenchmarkFig6LevelPlayingField(b *testing.B) {
	r := benchRunner()
	var lf *study.LevelField
	for i := 0; i < b.N; i++ {
		var err error
		lf, err = r.LevelPlayingField("regression/spark1.5/medium")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Printf("\nFig 6 (regression/spark1.5): time spread %.1fx vs cost spread %.1fx\n", lf.TimeSpread, lf.CostSpread)
	for _, row := range lf.Rows {
		fmt.Printf("  %-11s time %6.2f  cost %5.2f\n", row.VMName, row.NormTime, row.NormCost)
	}
}

// BenchmarkFig7KernelComparison regenerates Figure 7: how the GP kernel
// changes Naive BO's search cost, on als (time) and bayes (cost).
func BenchmarkFig7KernelComparison(b *testing.B) {
	r := benchRunner()
	panels := []struct {
		workload  string
		objective core.Objective
	}{
		{"als/spark2.1/medium", core.MinimizeTime},
		{"bayes/spark2.1/medium", core.MinimizeCost},
	}
	type panelResult struct {
		label   string
		reports []*study.TrajectoryReport
	}
	var results []panelResult
	for i := 0; i < b.N; i++ {
		results = results[:0]
		for _, p := range panels {
			w, err := r.WorkloadByID(p.workload)
			if err != nil {
				b.Fatal(err)
			}
			reports, err := r.KernelComparison(w, p.objective, kernel.All(), benchSeeds())
			if err != nil {
				b.Fatal(err)
			}
			results = append(results, panelResult{label: fmt.Sprintf("%s (%s)", p.workload, p.objective), reports: reports})
		}
	}
	b.StopTimer()
	fmt.Printf("\nFig 7: paper: no kernel wins both panels\n")
	for _, pr := range results {
		fmt.Printf("  %s\n", pr.label)
		for _, rep := range pr.reports {
			fmt.Printf("    %-11s median steps to optimum %4.1f\n", rep.Label, rep.MedianStepOptimal)
		}
	}
}

// BenchmarkFig8MemoryBottleneck regenerates Figure 8: low-level metrics
// exposing the memory bottleneck of logistic regression.
func BenchmarkFig8MemoryBottleneck(b *testing.B) {
	r := benchRunner()
	var rows []study.BottleneckRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = r.BottleneckProfile("lr/spark1.5/medium")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Printf("\nFig 8 (lr/spark1.5): paper: c3.large 14.8x with memory pressure; c4.2xlarge best\n")
	for _, row := range rows {
		fmt.Printf("  %-11s (%5.1fx)  %%commit %6.1f  %%iowait %5.1f\n", row.VMName, row.NormTime, row.MemCommit, row.IOWait)
	}
}

// BenchmarkFig9SearchCostCDF regenerates Figure 9: Naive vs Augmented vs
// Hybrid search-cost CDFs under both objectives.
func BenchmarkFig9SearchCostCDF(b *testing.B) {
	r := benchRunner()
	methods := []study.MethodConfig{
		{Method: study.MethodNaive},
		{Method: study.MethodAugmented},
		{Method: study.MethodHybrid},
	}
	type panel struct {
		label string
		cdfs  []study.MethodCDF
	}
	var panels []panel
	for i := 0; i < b.N; i++ {
		panels = panels[:0]
		for _, obj := range []core.Objective{core.MinimizeTime, core.MinimizeCost} {
			cdfs, err := r.SearchCostCDF(methods, obj, benchSeeds())
			if err != nil {
				b.Fatal(err)
			}
			panels = append(panels, panel{label: obj.String(), cdfs: cdfs})
		}
	}
	b.StopTimer()
	fmt.Printf("\nFig 9 (%d seeds): paper: Augmented overtakes Naive past ~6 measurements; Hybrid dominates Naive\n", benchSeeds())
	for _, p := range panels {
		fmt.Printf("  objective %s:\n", p.label)
		for _, cdf := range p.cdfs {
			fmt.Printf("    %-12s within6 %4.0f%%  within10 %4.0f%%  within12 %4.0f%%\n",
				cdf.Label, 100*cdf.FractionWithin(6), 100*cdf.FractionWithin(10), 100*cdf.FractionWithin(12))
		}
	}
}

// BenchmarkFig10Trajectories regenerates Figure 10: trajectories with IQR
// bands on the paper's three example workloads.
func BenchmarkFig10Trajectories(b *testing.B) {
	r := benchRunner()
	panels := []struct {
		id, workload string
		objective    core.Objective
	}{
		{"a", "pagerank/hadoop2.7/medium", core.MinimizeTime},
		{"b", "als/spark2.1/medium", core.MinimizeTime},
		{"c", "lr/spark1.5/medium", core.MinimizeCost},
	}
	type row struct {
		panel string
		reps  []*study.TrajectoryReport
	}
	var rowsOut []row
	for i := 0; i < b.N; i++ {
		rowsOut = rowsOut[:0]
		for _, p := range panels {
			w, err := r.WorkloadByID(p.workload)
			if err != nil {
				b.Fatal(err)
			}
			var reps []*study.TrajectoryReport
			for _, mc := range []study.MethodConfig{{Method: study.MethodNaive}, {Method: study.MethodAugmented}} {
				rep, err := r.Trajectories(mc, w, p.objective, benchSeeds())
				if err != nil {
					b.Fatal(err)
				}
				reps = append(reps, rep)
			}
			rowsOut = append(rowsOut, row{panel: p.id + " " + p.workload, reps: reps})
		}
	}
	b.StopTimer()
	fmt.Printf("\nFig 10: paper: Augmented BO reaches the optimum sooner with narrower IQR\n")
	for _, ro := range rowsOut {
		fmt.Printf("  panel %s\n", ro.panel)
		for _, rep := range ro.reps {
			var iqr float64
			for _, p := range rep.Points {
				iqr += p.Q3 - p.Q1
			}
			fmt.Printf("    %-12s median steps %4.1f  mean IQR %.3f\n",
				rep.Label, rep.MedianStepOptimal, iqr/float64(len(rep.Points)))
		}
	}
}

// BenchmarkFig11StoppingTradeoff regenerates Figure 11: the stopping-
// criterion sweep per region under the cost objective.
func BenchmarkFig11StoppingTradeoff(b *testing.B) {
	r := benchRunner()
	var points []study.SweepPoint
	var regions map[string]study.Region
	for i := 0; i < b.N; i++ {
		var err error
		regions, err = r.ClassifyRegions(core.MinimizeCost, benchSeeds())
		if err != nil {
			b.Fatal(err)
		}
		points, err = r.StoppingSweep(core.MinimizeCost, benchSeeds(),
			[]float64{0.05, 0.10, 0.20},
			[]float64{0.9, 1.0, 1.1, 1.2, 1.3},
			regions)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	counts := map[study.Region]int{}
	for _, reg := range regions {
		counts[reg]++
	}
	fmt.Printf("\nFig 11 (cost objective): regions I=%d II=%d III=%d; paper recommends delta 1.1\n",
		counts[study.RegionI], counts[study.RegionII], counts[study.RegionIII])
	for _, reg := range []study.Region{study.RegionI, study.RegionII, study.RegionIII} {
		fmt.Printf("  %s:\n", reg)
		for _, p := range points {
			if p.Region == reg {
				fmt.Printf("    %-28s search %5.2f  norm cost %.3f\n", p.Label, p.SearchCost, p.FoundNorm)
			}
		}
	}
}

// BenchmarkFig12WinLoss regenerates Figure 12: the per-workload comparison
// of Augmented (delta 1.1) vs Naive (EI 10%) under the cost objective.
func BenchmarkFig12WinLoss(b *testing.B) {
	r := benchRunner()
	rep := benchCompare(b, r, core.MinimizeCost, 1.1)
	fmt.Printf("\nFig 12 (cost): paper: win 46 / same 39 / draw 17 / loss 5\n")
	fmt.Printf("  measured: win %d / same %d / draw %d / loss %d\n",
		rep.Counts[study.Win], rep.Counts[study.Same], rep.Counts[study.Draw], rep.Counts[study.Loss])
}

// BenchmarkFig13TimeCostProduct regenerates Figure 13: the same comparison
// under the time-cost-product objective with delta 1.05.
func BenchmarkFig13TimeCostProduct(b *testing.B) {
	r := benchRunner()
	rep := benchCompare(b, r, core.MinimizeTimeCostProduct, 1.05)
	fmt.Printf("\nFig 13 (time-cost product): paper: win 53 / same 14 / draw 32+2 / loss 6\n")
	fmt.Printf("  measured: win %d / same %d / draw %d / loss %d\n",
		rep.Counts[study.Win], rep.Counts[study.Same], rep.Counts[study.Draw], rep.Counts[study.Loss])
	var maxRed float64
	for _, p := range rep.Points {
		if p.SearchCostReduction > maxRed {
			maxRed = p.SearchCostReduction
		}
	}
	fmt.Printf("  max search-cost reduction: %.0f%% (paper: >50%%)\n", maxRed)
}

func benchCompare(b *testing.B, r *study.Runner, objective core.Objective, delta float64) *study.CompareReport {
	b.Helper()
	var rep *study.CompareReport
	for i := 0; i < b.N; i++ {
		regions, err := r.ClassifyRegions(core.MinimizeCost, benchSeeds())
		if err != nil {
			b.Fatal(err)
		}
		rep, err = r.Compare(
			study.MethodConfig{Method: study.MethodNaive, EIStop: 0.10},
			study.MethodConfig{Method: study.MethodAugmented, Delta: delta},
			objective, benchSeeds(), regions)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	return rep
}

// BenchmarkInitialPointSensitivity regenerates the Section III-C
// experiment: Naive BO's sensitivity to the fixed initial VM triplet.
func BenchmarkInitialPointSensitivity(b *testing.B) {
	r := benchRunner()
	var reports []study.InitialPointReport
	for i := 0; i < b.N; i++ {
		var err error
		reports, err = r.InitialPointSensitivity(core.MinimizeCost, map[string][]string{
			"paper-triplet": {"c4.xlarge", "m4.large", "r3.2xlarge"},
			"all-large":     {"c4.large", "m4.large", "r4.large"},
			"all-2xlarge":   {"c4.2xlarge", "m4.2xlarge", "r4.2xlarge"},
			"diverse":       {"c3.large", "m4.xlarge", "r4.2xlarge"},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Printf("\nSec III-C: paper: ~15%% of workloads miss the optimum within 6 for a bad triplet\n")
	for _, rep := range reports {
		fmt.Printf("  %-15s miss-within-6 rate %4.0f%%\n", rep.Label, 100*rep.FailFraction)
	}
}

// BenchmarkCategoryBreakdown reports search cost per Table I category —
// a finer view of which workload families are hard than the paper gives.
func BenchmarkCategoryBreakdown(b *testing.B) {
	r := benchRunner()
	var naive, augmented []study.GroupStats
	for i := 0; i < b.N; i++ {
		var err error
		naive, err = r.BreakdownByGroup(study.MethodConfig{Method: study.MethodNaive}, core.MinimizeCost, benchSeeds(), study.ByCategory)
		if err != nil {
			b.Fatal(err)
		}
		augmented, err = r.BreakdownByGroup(study.MethodConfig{Method: study.MethodAugmented}, core.MinimizeCost, benchSeeds(), study.ByCategory)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Printf("\nSearch cost per Table I category (cost objective, mean of per-workload medians):\n")
	fmt.Printf("  %-22s %-6s %-10s %-10s\n", "category", "n", "Naive", "Augmented")
	for i := range naive {
		fmt.Printf("  %-22s %-6d %-10.2f %-10.2f\n", naive[i].Group, naive[i].Workloads, naive[i].MeanStep, augmented[i].MeanStep)
	}
}

// --- Micro-benchmarks of the core components -----------------------------

// BenchmarkGPFit measures one GP hyperparameter-grid fit at catalog scale.
func BenchmarkGPFit(b *testing.B) {
	xs := make([][]float64, 18)
	ys := make([]float64, 18)
	for i := range xs {
		xs[i] = []float64{float64(i) / 18, float64(i % 3), float64(i % 2)}
		ys[i] = float64(i*i%7) + 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gp.Fit(gp.Config{Kernel: kernel.Matern52}, xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestFit measures one Extra-Trees fit at the pairwise training
// set's full size (18 x 17 rows, 14 features).
func BenchmarkForestFit(b *testing.B) {
	const rows, dims = 18 * 17, 14
	xs := make([][]float64, rows)
	ys := make([]float64, rows)
	for i := range xs {
		xs[i] = make([]float64, dims)
		for j := range xs[i] {
			xs[i][j] = float64((i*31 + j*17) % 100)
		}
		ys[i] = float64(i % 13)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := forest.Fit(forest.Config{Seed: int64(i)}, xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorMeasure measures one simulated cloud measurement.
func BenchmarkSimulatorMeasure(b *testing.B) {
	s := sim.New(cloud.DefaultCatalog())
	w, err := workloads.ByID("als/spark2.1/medium")
	if err != nil {
		b.Fatal(err)
	}
	vm := s.Catalog().VM(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Measure(w, vm, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullSearchNaive measures one complete Naive BO search.
func BenchmarkFullSearchNaive(b *testing.B) {
	benchFullSearch(b, study.MethodConfig{Method: study.MethodNaive, EIStop: -1})
}

// BenchmarkFullSearchAugmented measures one complete Augmented BO search.
// No tracer is attached, so this doubles as the no-op observability
// guard: every emission site costs one nil check here.
func BenchmarkFullSearchAugmented(b *testing.B) {
	benchFullSearch(b, study.MethodConfig{Method: study.MethodAugmented, Delta: -1})
}

// BenchmarkFullSearchAugmentedTraced runs the same search with a metrics
// aggregator attached, quantifying the live-tracing overhead against the
// untraced benchmark above.
func BenchmarkFullSearchAugmentedTraced(b *testing.B) {
	target, err := NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		b.Fatal(err)
	}
	metrics := NewTraceMetrics()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt, err := New(WithMethod(MethodAugmentedBO), WithDeltaThreshold(-1),
			WithSeed(int64(i)), WithTracer(metrics))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := opt.Search(target); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFullSearch times one search per iteration on its own runner
// without a run cache, so every iteration executes its search instead of
// replaying a memoized result. The truth table (derived data the runner
// keeps either way) is primed before the timer starts.
func benchFullSearch(b *testing.B, mc study.MethodConfig) {
	b.Helper()
	r := study.NewRunner(sim.New(cloud.DefaultCatalog()), study.WithoutRunCache())
	w, err := r.WorkloadByID("als/spark2.1/medium")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.TruthValues(w, core.MinimizeCost); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunSearch(mc, w, core.MinimizeCost, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterSearch extends the search to the joint (VM type, node
// count) space CherryPick targeted: 72 candidates instead of 18, same
// optimizers.
func BenchmarkClusterSearch(b *testing.B) {
	single := sim.New(cloud.DefaultCatalog())
	clusterCatalog, err := cluster.NewCatalog(single.Catalog(), nil)
	if err != nil {
		b.Fatal(err)
	}
	cs := cluster.NewSimulator(single)
	ids := []string{"word2vec/spark2.1/medium", "lr/spark1.5/medium", "scan/hadoop2.7/medium", "als/spark2.1/medium"}

	type row struct {
		method string
		cost   float64
		norm   float64
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, mc := range []study.MethodConfig{
			{Method: study.MethodNaive, EIStop: 0.1},
			{Method: study.MethodAugmented, Delta: 1.1},
		} {
			var sumCost, sumNorm float64
			n := 0
			for _, id := range ids {
				w, err := workloads.ByID(id)
				if err != nil {
					b.Fatal(err)
				}
				// Ground truth over the 72-config space.
				best := -1.0
				truth := make([]float64, clusterCatalog.Len())
				for ci := 0; ci < clusterCatalog.Len(); ci++ {
					res, err := cs.Truth(w, clusterCatalog.Config(ci))
					if err != nil {
						b.Fatal(err)
					}
					truth[ci] = res.CostUSD
					if best < 0 || res.CostUSD < best {
						best = res.CostUSD
					}
				}
				for seed := 0; seed < benchSeeds(); seed++ {
					opt, err := mc.Build(core.MinimizeCost, int64(seed))
					if err != nil {
						b.Fatal(err)
					}
					res, err := opt.Search(cs.NewTarget(clusterCatalog, w, int64(seed)))
					if err != nil {
						b.Fatal(err)
					}
					sumCost += float64(res.NumMeasurements())
					sumNorm += truth[res.BestIndex] / best
					n++
				}
			}
			rows = append(rows, row{method: mc.Label(), cost: sumCost / float64(n), norm: sumNorm / float64(n)})
		}
	}
	b.StopTimer()
	fmt.Printf("\nCluster-scale search (72 configs, cost objective, %d workloads x %d seeds):\n", len(ids), benchSeeds())
	for _, r := range rows {
		fmt.Printf("  %-26s mean search cost %.1f, found %.2fx optimal\n", r.method, r.cost, r.norm)
	}
}
