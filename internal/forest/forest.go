// Package forest implements the Extra-Trees (extremely randomized trees)
// regression ensemble that Arrow uses as its surrogate model instead of a
// Gaussian process (Section IV-B, "Surrogate Model").
//
// Extra-Trees differ from random forests in two ways: each tree is grown on
// the full training set (no bootstrap) and split thresholds are drawn
// uniformly at random between the observed feature minimum and maximum,
// with the best of K random (feature, threshold) candidates chosen by
// variance reduction. This makes the model robust on the small, highly
// non-smooth response surfaces that break GP kernels — precisely the
// fragility the paper targets.
//
// The implementation is built for the refit-every-iteration loop the
// optimizer runs it in:
//
//   - Trees grow concurrently on a worker pool, one deterministically
//     derived seed per tree, so the fitted ensemble is bit-identical at
//     any Parallelism setting.
//   - The split scan is node-local. The training matrix is column-major,
//     and each worker keeps its rows' indices and targets permuted in
//     lockstep, so a node owns one contiguous range of both. Each
//     candidate feature is gathered once into a contiguous worker buffer,
//     with its min/max taken during the gather; split scoring and the
//     partition then read only contiguous memory, and the partition
//     reuses the winning candidate's buffer instead of gathering again.
//   - Trees are exact-size. Each worker grows a tree in its own reusable
//     node arrays, then copies it out at its exact node count in two
//     allocations. Fitted trees are flat index-based arrays, not
//     pointer-linked nodes.
//   - Batch prediction is tree-major over blocks of rows, with one
//     accumulator per row.
//
// None of these layouts changes a summation order or an RNG draw, and
// pin_test.go hashes the fitted trees and predictions of every fitting
// path, so a kernel change that alters a single split or prediction bit
// fails it.
package forest

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/parallel"
)

// ErrNoData is returned when fitting with no samples.
var ErrNoData = errors.New("forest: no training data")

// Config controls ensemble growth.
type Config struct {
	// NumTrees is the ensemble size. Zero means DefaultNumTrees.
	NumTrees int
	// MinSamplesSplit is the smallest node that may be split further.
	// Zero means DefaultMinSamplesSplit.
	MinSamplesSplit int
	// MaxFeatures is K, the number of random split candidates per node.
	// Zero means round(sqrt(d)) where d is the feature count.
	MaxFeatures int
	// MaxDepth bounds tree depth. Zero means unbounded.
	MaxDepth int
	// SampleRate is the per-tree unit keep probability used by FitSampled
	// and Refit: each tree draws a deterministic Bernoulli(SampleRate)
	// subset of the observation units and trains only on rows whose units
	// it kept, which is what makes delta-aware refits possible (a new
	// unit's rows touch only the trees that keep that unit). Zero or one
	// means no subsampling — every tree sees every row, and Fit ignores
	// the field entirely.
	SampleRate float64
	// Seed seeds the (deterministic) tree randomization. Each tree draws
	// its own RNG seed from this value, so the fitted ensemble does not
	// depend on how trees are scheduled across workers.
	Seed int64
	// Parallelism bounds the worker pool growing trees and answering
	// batched predictions. Zero means runtime.GOMAXPROCS(0); one forces
	// fully sequential operation. The fitted ensemble and every
	// prediction are bit-identical at any setting.
	Parallelism int
}

// Defaults for Config's zero values.
const (
	DefaultNumTrees        = 100
	DefaultMinSamplesSplit = 2
)

// Regressor is a fitted Extra-Trees ensemble.
type Regressor struct {
	trees       []tree
	numDims     int
	parallelism int

	// state carries the training snapshot and per-tree row-set
	// fingerprints of a FitSampled ensemble, enabling Refit. Nil for
	// plain Fit ensembles.
	state *sampleState
}

// tree is one fitted extra-tree, flattened into index-based parallel
// arrays (struct-of-arrays). Node i is a split on feature[i] at
// threshold[i] with children left[i]/right[i], or a leaf when feature[i]
// is leafMarker — leaves store their mean target in threshold[i]. The
// root is node 0. The layout keeps eval pointer-free and cache-friendly.
type tree struct {
	feature   []int32
	threshold []float64
	left      []int32
	right     []int32
}

// leafMarker flags a leaf in tree.feature.
const leafMarker = int32(-1)

// add appends a zeroed node and returns its index.
func (t *tree) add() int32 {
	t.feature = append(t.feature, 0)
	t.threshold = append(t.threshold, 0)
	t.left = append(t.left, 0)
	t.right = append(t.right, 0)
	return int32(len(t.feature) - 1)
}

// clone copies the tree out at its exact size in two allocations: one
// slab for the three int32 arrays and one for the thresholds.
func (t *tree) clone() tree {
	m := len(t.feature)
	ints := make([]int32, 3*m)
	out := tree{
		feature:   ints[:m:m],
		threshold: make([]float64, m),
		left:      ints[m : 2*m : 2*m],
		right:     ints[2*m:],
	}
	copy(out.feature, t.feature)
	copy(out.threshold, t.threshold)
	copy(out.left, t.left)
	copy(out.right, t.right)
	return out
}

// setLeaf turns node i into a leaf predicting value.
func (t *tree) setLeaf(i int32, value float64) {
	t.feature[i] = leafMarker
	t.threshold[i] = value
}

// eval walks x down to its leaf. The child step is arithmetic on a 0/1
// flag rather than a branch: which side a query falls on is a coin flip
// the branch predictor cannot learn.
func (t *tree) eval(x []float64) float64 {
	i := int32(0)
	for {
		f := t.feature[i]
		if f < 0 {
			return t.threshold[i]
		}
		goLeft := int32(0)
		if x[f] <= t.threshold[i] {
			goLeft = 1
		}
		i = t.right[i] + goLeft*(t.left[i]-t.right[i])
	}
}

// treeSeeds derives one independent RNG seed per tree from the ensemble
// seed with a splitmix64 sequence. The derivation is position-based, so
// tree t's randomness is the same no matter which worker grows it or in
// what order — the determinism contract behind Config.Parallelism.
func treeSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	s := uint64(seed)
	for i := range out {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		out[i] = int64(z ^ (z >> 31))
	}
	return out
}

// validateTraining checks shape and finiteness of a training set and
// returns the feature dimensionality.
func validateTraining(xs [][]float64, ys []float64) (int, error) {
	if len(xs) == 0 {
		return 0, ErrNoData
	}
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("forest: %d rows but %d targets", len(xs), len(ys))
	}
	dims := len(xs[0])
	if dims == 0 {
		return 0, errors.New("forest: zero-dimensional features")
	}
	for i, row := range xs {
		if len(row) != dims {
			return 0, fmt.Errorf("forest: ragged row %d (len %d, want %d)", i, len(row), dims)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("forest: non-finite feature at row %d col %d: %v", i, j, v)
			}
		}
	}
	for i, y := range ys {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			return 0, fmt.Errorf("forest: non-finite target at row %d: %v", i, y)
		}
	}
	return dims, nil
}

// resolveConfig applies Config's documented defaults for the given
// feature dimensionality. Refit compares resolved configs, so two configs
// that mean the same ensemble resolve equal.
func resolveConfig(cfg Config, dims int) (Config, error) {
	if cfg.NumTrees == 0 {
		cfg.NumTrees = DefaultNumTrees
	}
	if cfg.MinSamplesSplit == 0 {
		cfg.MinSamplesSplit = DefaultMinSamplesSplit
	}
	if cfg.MinSamplesSplit < 2 {
		return cfg, fmt.Errorf("forest: MinSamplesSplit %d < 2", cfg.MinSamplesSplit)
	}
	if cfg.MaxFeatures == 0 {
		cfg.MaxFeatures = int(math.Round(math.Sqrt(float64(dims))))
		if cfg.MaxFeatures < 1 {
			cfg.MaxFeatures = 1
		}
	}
	if cfg.MaxFeatures > dims {
		cfg.MaxFeatures = dims
	}
	if math.IsNaN(cfg.SampleRate) || cfg.SampleRate < 0 || cfg.SampleRate > 1 {
		return cfg, fmt.Errorf("forest: SampleRate %v outside [0,1]", cfg.SampleRate)
	}
	return cfg, nil
}

// buildColumns copies xs into a column-major matrix: cols[f*n+i] =
// xs[i][f], so gathering one feature over a node's rows reads a single
// column instead of chasing row pointers.
func buildColumns(xs [][]float64, dims int) []float64 {
	n := len(xs)
	cols := make([]float64, n*dims)
	for i, row := range xs {
		for f, v := range row {
			cols[f*n+i] = v
		}
	}
	return cols
}

// Fit grows the ensemble on feature rows xs and targets ys. Every tree
// trains on the full training set (the Extra-Trees prescription);
// SampleRate is ignored. Use FitSampled/Refit for the delta-aware
// subsampled ensemble.
func Fit(cfg Config, xs [][]float64, ys []float64) (*Regressor, error) {
	dims, err := validateTraining(xs, ys)
	if err != nil {
		return nil, err
	}
	cfg, err = resolveConfig(cfg, dims)
	if err != nil {
		return nil, err
	}
	trees, _, _ := growEnsemble(cfg, buildColumns(xs, dims), ys, nil, nil)
	return &Regressor{trees: trees, numDims: dims, parallelism: cfg.Parallelism}, nil
}

// growEnsemble grows the cfg.NumTrees trees over the column-major
// training matrix cols (stride len(ys)), each on the rows its units
// sample (every row when units is nil or SampleRate does not subsample).
// A tree whose row-set fingerprint matches prev's is taken from prev
// instead of re-grown; prev is nil or a compatible FitSampled ensemble.
// It returns the trees, their fingerprints and the reused-tree count.
func growEnsemble(cfg Config, cols, ys []float64, units [][2]int32, prev *Regressor) ([]tree, []uint64, int) {
	numUnits := 0
	if subsamples(cfg.SampleRate) {
		for _, u := range units {
			numUnits = max(numUnits, int(u[0])+1, int(u[1])+1)
		}
	} else {
		units = nil
	}
	seeds := treeSeeds(cfg.Seed, cfg.NumTrees)
	trees := make([]tree, cfg.NumTrees)
	fps := make([]uint64, cfg.NumTrees)
	parallel.DoWithScratch(cfg.NumTrees, cfg.Parallelism,
		func() *grower { return newGrower(cfg, cols, ys, numUnits) },
		func(t int, g *grower) {
			var m int
			m, fps[t] = g.sampleRows(seeds[t], units, cfg.SampleRate)
			if prev != nil && fps[t] == prev.state.fps[t] {
				trees[t] = prev.trees[t]
				return
			}
			trees[t] = g.growTree(seeds[t], m)
		})
	reused := 0
	for t := range fps {
		if prev != nil && fps[t] == prev.state.fps[t] {
			reused++
		}
	}
	return trees, fps, reused
}

// grower holds one worker's reusable growth state. The training data
// (cols, ys) is shared read-only across workers; every buffer below it is
// worker-private and reused for every tree the worker grows, so growing
// a tree allocates only its exact-size copy-out.
type grower struct {
	cols []float64 // column-major features, stride n, shared read-only
	ys   []float64 // targets, shared read-only
	n    int

	minSplit    int
	maxFeatures int
	maxDepth    int

	rng splitmix // current tree's RNG
	t   tree     // current tree, grown here and copied out at its exact size

	// Node-local buffers, indexed by position in the tree's row order: a
	// node owns positions [lo, hi), and partitioning a node reorders its
	// positions into the left child's followed by the right child's.
	idx  []int32   // training row at each position
	y    []float64 // its target, permuted in lockstep with idx
	vals []float64 // per-candidate gathered feature values (see candVals)
	auxI []int32   // stable-partition staging for idx
	auxY []float64 // stable-partition staging for y

	// Per-node candidate state: feature, threshold and left-child sums
	// of the candidates that are not constant in the node.
	cands []candidate

	featOrder []int   // partial Fisher-Yates scratch for feature sampling
	keep      []uint8 // per-unit membership (0/1) of the current tree's sample
}

// newGrower assembles a worker's growth state over the shared training
// data; numUnits sizes the sampled-unit membership scratch.
func newGrower(cfg Config, cols, ys []float64, numUnits int) *grower {
	n := len(ys)
	dims := len(cols) / n
	return &grower{
		cols:        cols,
		ys:          ys,
		n:           n,
		minSplit:    cfg.MinSamplesSplit,
		maxFeatures: cfg.MaxFeatures,
		maxDepth:    cfg.MaxDepth,
		idx:         make([]int32, n),
		y:           make([]float64, n),
		vals:        make([]float64, cfg.MaxFeatures*n),
		cands:       make([]candidate, 0, cfg.MaxFeatures),
		auxI:        make([]int32, n),
		auxY:        make([]float64, n),
		featOrder:   make([]int, dims),
		keep:        make([]uint8, numUnits),
	}
}

// growTree grows one tree over the first m positions of g.idx, which
// sampleRows has just filled, and returns it at its exact size. Every
// piece of scratch state is reset first, so the tree depends only on the
// rows and the seed, never on which trees this worker grew before.
func (g *grower) growTree(seed int64, m int) tree {
	for k, r := range g.idx[:m] {
		g.y[k] = g.ys[r]
	}
	for i := range g.featOrder {
		g.featOrder[i] = i
	}
	g.rng = splitmix{state: uint64(seed)}
	g.t.feature = g.t.feature[:0]
	g.t.threshold = g.t.threshold[:0]
	g.t.left = g.t.left[:0]
	g.t.right = g.t.right[:0]
	g.grow(0, m, 0)
	return g.t.clone()
}

// grow builds the subtree over positions [lo, hi) and returns its node
// index. Nodes are numbered in pre-order: a node's index is reserved
// before its children grow.
func (g *grower) grow(lo, hi, depth int) int32 {
	node := g.t.add()
	ys := g.y[lo:hi]
	m := len(ys)

	// Node target totals in one pass: the leaf mean, the constant-target
	// check, and the sums every candidate split scores against — each
	// candidate accumulates its left child only and derives the right
	// child as (total - left), halving the scoring flops.
	var total, totalSq float64
	constant := true
	for _, y := range ys {
		total += y
		totalSq += y * y
		if y != ys[0] {
			constant = false
		}
	}
	if m < g.minSplit || (g.maxDepth > 0 && depth >= g.maxDepth) || constant {
		g.t.setLeaf(node, total/float64(m))
		return node
	}

	// Gather every candidate feature over the node's rows into its own
	// contiguous buffer, drawing each non-constant candidate's threshold
	// uniformly in its range (K distinct features, without replacement
	// when K < d).
	rows := g.idx[lo:hi]
	cands := g.cands[:0]
	for _, f := range g.sampleFeatures() {
		flo, fhi := gather(g.candVals(len(cands), m), g.cols[f*g.n:(f+1)*g.n], rows)
		if fhi <= flo {
			continue // constant feature in this node; its buffer is reused
		}
		threshold := flo + g.rng.float64()*(fhi-flo)
		cands = append(cands, candidate{feature: f, threshold: threshold})
	}
	g.cands = cands
	// Score the candidates two at a time: each one's sums run in the
	// same order as alone, but two independent candidates keep twice as
	// many add chains in flight.
	k := 0
	for ; k+1 < len(cands); k += 2 {
		leftSums2(&cands[k], &cands[k+1], g.candVals(k, m), g.candVals(k+1, m), ys)
	}
	if k < len(cands) {
		leftSums(&cands[k], g.candVals(k, m), ys)
	}

	best := -1
	bestScore := math.Inf(-1)
	for c := range cands {
		cd := &cands[c]
		nR := float64(m) - cd.nL
		if cd.nL == 0 || nR == 0 {
			continue
		}
		sumR := total - cd.sumL
		sumSqR := totalSq - cd.sumSqL
		// The CART variance-reduction criterion, minus the parent
		// variance (constant across candidates) and the 1/n weighting:
		// maximizing it picks the same split as the full expression.
		score := -((cd.sumSqL - cd.sumL*cd.sumL/cd.nL) + (sumSqR - sumR*sumR/nR))
		if score > bestScore {
			bestScore = score
			best = c
		}
	}
	if best < 0 {
		// Every candidate was constant or left a child empty.
		g.t.setLeaf(node, total/float64(m))
		return node
	}

	split := cands[best]
	nL := g.partition(lo, hi, g.candVals(best, m), split.threshold)
	if nL == 0 || nL == m {
		g.t.setLeaf(node, total/float64(m))
		return node
	}
	left := g.grow(lo, lo+nL, depth+1)
	right := g.grow(lo+nL, hi, depth+1)
	// add may have grown the arrays since node was reserved; write
	// through g.t, not a stale slice header.
	g.t.feature[node] = int32(split.feature)
	g.t.threshold[node] = split.threshold
	g.t.left[node] = left
	g.t.right[node] = right
	return node
}

// candidate is one (feature, threshold) split candidate of a node and,
// once scored, its left-child count, target sum and target sum of
// squares. Candidate k's gathered feature values are g.candVals(k, m).
type candidate struct {
	feature   int
	threshold float64

	nL, sumL, sumSqL float64
}

// candVals is candidate k's gathered-values buffer for a node of m rows.
func (g *grower) candVals(k, m int) []float64 {
	return g.vals[k*g.n : k*g.n+m]
}

// leftSums accumulates c's left-child sums over the node targets ys,
// branchlessly: copysign turns the comparison into an exact 0/1 mask, so
// there is no data-dependent branch to mispredict (the comparison is a
// coin flip on random thresholds) and the summation order — hence the
// result — is identical to the naive masked loop.
func leftSums(c *candidate, vals, ys []float64) {
	vals = vals[:len(ys)]
	threshold := c.threshold
	var nL, sumL, sumSqL float64
	for k, v := range vals {
		m := 0.5 + math.Copysign(0.5, threshold-v) // 1 if v <= threshold, else 0
		y := m * ys[k]
		nL += m
		sumL += y
		sumSqL += y * ys[k]
	}
	c.nL, c.sumL, c.sumSqL = nL, sumL, sumSqL
}

// leftSums2 is leftSums over two candidates in one pass. Each candidate's
// sums see exactly the operations leftSums would perform, in the same
// order, so the results are bit-identical.
func leftSums2(a, b *candidate, va, vb, ys []float64) {
	va, vb = va[:len(ys)], vb[:len(ys)]
	ta, tb := a.threshold, b.threshold
	var nA, sumA, sqA, nB, sumB, sqB float64
	for k, y := range ys {
		ma := 0.5 + math.Copysign(0.5, ta-va[k])
		mb := 0.5 + math.Copysign(0.5, tb-vb[k])
		ya := ma * y
		yb := mb * y
		nA += ma
		sumA += ya
		sqA += ya * y
		nB += mb
		sumB += yb
		sqB += yb * y
	}
	a.nL, a.sumL, a.sumSqL = nA, sumA, sqA
	b.nL, b.sumL, b.sumSqL = nB, sumB, sqB
}

// gather copies col's values at rows into dst and returns their minimum
// and maximum. The extremes are tracked as order-preserving integer keys
// (see floatKey), whose compares compile to conditional moves: a node's
// rows arrive in no useful order and most nodes are small, so branchy
// float compares mispredict, and the builtin float min/max carry a long
// dependency chain. Keys order finite floats exactly as min/max do, -0
// below +0 included, so the result is the builtins' bit for bit.
func gather(dst, col []float64, rows []int32) (lo, hi float64) {
	dst = dst[:len(rows)]
	kLo, kHi := int64(math.MaxInt64), int64(math.MinInt64)
	for k, r := range rows {
		v := col[r]
		dst[k] = v
		kv := floatKey(v)
		if kv < kLo {
			kLo = kv
		}
		if kv > kHi {
			kHi = kv
		}
	}
	return keyFloat(kLo), keyFloat(kHi)
}

// floatKey maps a non-NaN float64 to an int64 with the same order (-0
// sorting below +0): non-negative floats keep their bits, negative ones
// flip their magnitude bits so that larger magnitudes sort lower.
func floatKey(v float64) int64 {
	b := int64(math.Float64bits(v))
	return b ^ int64(uint64(b>>63)>>1)
}

// keyFloat inverts floatKey.
func keyFloat(k int64) float64 {
	return math.Float64frombits(uint64(k ^ int64(uint64(k>>63)>>1)))
}

// partition stably partitions positions [lo, hi) into rows whose split
// feature value in vals is <= threshold followed by the rest, moving idx
// and y in lockstep, and returns the left-side count. Stability keeps the
// row order inside each child deterministic. The comparison is a coin
// flip on a random threshold, so the loop is branch-free: every row is
// written both to the next left slot (never ahead of the read position)
// and to the next staging slot, and only the matching count advances.
func (g *grower) partition(lo, hi int, vals []float64, threshold float64) int {
	rows, ys := g.idx[lo:hi], g.y[lo:hi]
	vals = vals[:len(rows)]
	auxI, auxY := g.auxI[:len(rows)], g.auxY[:len(rows)]
	nL, nR := 0, 0
	for k, v := range vals {
		r, y := rows[k], ys[k]
		rows[nL], ys[nL] = r, y
		auxI[nR], auxY[nR] = r, y
		left := 0
		if v <= threshold {
			left = 1
		}
		nL += left
		nR += 1 - left
	}
	copy(rows[nL:], auxI[:nR])
	copy(ys[nL:], auxY[:nR])
	return nL
}

// sampleFeatures draws maxFeatures distinct features. When K < d it runs
// a partial Fisher-Yates over the worker's persistent permutation
// scratch — K swaps, no per-node allocation. The candidate order is
// whatever the shuffle produced; it is deterministic given the tree
// seed, which is all the split selection needs.
func (g *grower) sampleFeatures() []int {
	k, d := g.maxFeatures, len(g.featOrder)
	order := g.featOrder
	if k >= d {
		// featOrder is permuted only by the k < d path, and k is fixed
		// per fit, so here it is still the identity.
		return order
	}
	for j := 0; j < k; j++ {
		r := j + g.rng.intn(d-j)
		order[j], order[r] = order[r], order[j]
	}
	return order[:k]
}

// Predict returns the ensemble mean at x.
func (r *Regressor) Predict(x []float64) (float64, error) {
	mean, _, err := r.PredictWithVariance(x)
	return mean, err
}

// PredictWithVariance returns the mean and variance of the per-tree
// predictions at x. The variance is the ensemble's (epistemic) disagreement
// and plays the role the GP posterior variance plays for Naive BO.
func (r *Regressor) PredictWithVariance(x []float64) (mean, variance float64, err error) {
	if len(x) != r.numDims {
		return 0, 0, fmt.Errorf("forest: query dim %d, want %d", len(x), r.numDims)
	}
	sum, sumSq := 0.0, 0.0
	for i := range r.trees {
		v := r.trees[i].eval(x)
		sum += v
		sumSq += v * v
	}
	n := float64(len(r.trees))
	mean = sum / n
	variance = sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, variance, nil
}

// predictBlock is the row count of one PredictBatch work item: each
// tree's nodes stay hot in cache while it walks the whole block.
const predictBlock = 64

// PredictBatch returns the ensemble mean at every row of xs. Rows are
// split into blocks spread over the fit-time worker pool, and each block
// is evaluated tree-major into per-row accumulators. Every row still sums
// its trees in ensemble order, so the results are bit-identical to
// per-row Predict calls at any Parallelism. When out has enough capacity
// it is reused as the result buffer, making steady-state batch
// prediction allocation-free.
func (r *Regressor) PredictBatch(xs [][]float64, out []float64) ([]float64, error) {
	for i, x := range xs {
		if len(x) != r.numDims {
			return nil, fmt.Errorf("forest: query row %d dim %d, want %d", i, len(x), r.numDims)
		}
	}
	if cap(out) >= len(xs) {
		out = out[:len(xs)]
	} else {
		out = make([]float64, len(xs))
	}
	blocks := (len(xs) + predictBlock - 1) / predictBlock
	parallel.Do(blocks, r.parallelism, func(b int) {
		lo := b * predictBlock
		hi := min(lo+predictBlock, len(xs))
		rows, acc := xs[lo:hi], out[lo:hi]
		clear(acc)
		for t := range r.trees {
			tr := &r.trees[t]
			for i, x := range rows {
				acc[i] += tr.eval(x)
			}
		}
		n := float64(len(r.trees))
		for i := range acc {
			acc[i] /= n
		}
	})
	return out, nil
}

// NumTrees returns the ensemble size.
func (r *Regressor) NumTrees() int { return len(r.trees) }

// FeatureImportance returns, per feature, the fraction of internal nodes
// across the ensemble that split on it. It is a cheap diagnostic used by
// the study harness to report which low-level metrics the surrogate leans
// on (Section IV-A's feature-selection discussion). The flat node layout
// makes this a linear scan — no tree walk.
func (r *Regressor) FeatureImportance() []float64 {
	counts := make([]float64, r.numDims)
	total := 0.0
	for t := range r.trees {
		for _, f := range r.trees[t].feature {
			if f >= 0 {
				counts[f]++
				total++
			}
		}
	}
	if total > 0 {
		for i := range counts {
			counts[i] /= total
		}
	}
	return counts
}
